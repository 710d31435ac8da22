import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import random_interior_point, ratfn_normal_form, scalar_evaluator
from probefp.errors import ExactDivisionError, ExprSyntaxError, SingularPointError
from probefp.fingerprint import symbolic_fingerprint
from probefp.polyexpr import (
    ParamExpr,
    PolyTable,
    RationalFn,
    _exact_quotient,
    _pack,
    _unpack,
    expr_parse,
    ratfn_equiv,
    ratfn_eval,
    ratfn_values,
)

F = Fraction


# -- parsing -----------------------------------------------------------------


def test_parse_linear():
    assert expr_parse("1-x-y").terms == {(0, 0): F(1), (1, 0): F(-1), (0, 1): F(-1)}


def test_parse_binomial_square():
    assert expr_parse("(x+y)^2").terms == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}


def test_parse_division_rejected_with_offset():
    text = "x*(1/3) + x/ y"
    with pytest.raises(ExprSyntaxError) as err:
        expr_parse(text)
    assert err.value.offset == text.index("/", 6)


def test_decimal_equals_rational():
    assert expr_parse("0.25") == expr_parse("1/4")
    assert expr_parse("0.1") == ParamExpr.const(F(1, 10))


@pytest.mark.parametrize(
    "bad",
    ["2x", "x^-2", "x^(2)", "x^y", "1/0", "(x+y", "x+", "", "x y", "z", "x//2"],
)
def test_syntax_errors(bad):
    with pytest.raises(ExprSyntaxError):
        expr_parse(bad)


def test_rational_literal_with_spaces():
    # whitespace is insignificant, so a spaced literal is still one literal
    assert expr_parse("1 / 2") == ParamExpr.const(F(1, 2))


def test_unary_minus_binds_factor():
    assert expr_parse("-3*x") == ParamExpr({(1, 0): F(-3)})
    assert expr_parse("-x^2") == ParamExpr({(2, 0): F(-1)})
    assert expr_parse("(-x)^2") == ParamExpr({(2, 0): F(1)})


# -- evaluation ---------------------------------------------------------------


def _table_value(e: ParamExpr, x: float, y: float) -> float:
    return PolyTable([e]).evaluate([x], [y])[0, 0]


def test_eval_examples():
    examples = [("1-x-y", 0.25, 0.25, 0.5), ("x*y", 0.0, 0.5, 0.0), ("(x+y)^2", 0.5, 0.5, 1.0)]
    for text, x, y, value in examples:
        assert scalar_evaluator(expr_parse(text))(x, y) == value
        assert _table_value(expr_parse(text), x, y) == value


def test_zero_polynomial_evaluates_to_exact_zero():
    zero = expr_parse("x") - expr_parse("x")
    assert zero.is_zero()
    assert scalar_evaluator(zero)(0.7, 0.2) == 0.0
    assert _table_value(zero, 0.7, 0.2) == 0.0


# -- ring operations ----------------------------------------------------------


def test_op_examples():
    one = expr_parse("x") + expr_parse("1-x")
    assert one == ParamExpr.one()
    assert (expr_parse("x+y") * ParamExpr.zero()).terms == {}
    assert (expr_parse("x^2") - expr_parse("x^2")).terms == {}


_small_coeffs = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=50
)
_exponents = st.tuples(st.integers(0, 4), st.integers(0, 4))
_polys = st.dictionaries(_exponents, _small_coeffs, max_size=6).map(ParamExpr)


@given(_polys, _polys, _polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(_polys, _polys, st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_evaluation_homomorphism(a, b, x, y):
    scale = (1.0 + float(sum(abs(c) for c in a.terms.values()))) * (
        1.0 + float(sum(abs(c) for c in b.terms.values()))
    )
    lhs = scalar_evaluator(a * b)(x, y)
    rhs = scalar_evaluator(a)(x, y) * scalar_evaluator(b)(x, y)
    assert abs(lhs - rhs) <= 1e-12 * scale
    product, left, right = PolyTable([a * b, a, b]).evaluate([x], [y])[0]
    assert abs(product - left * right) <= 1e-12 * scale


@given(
    _polys,
    st.one_of(st.floats(-2, 2), st.fractions(max_denominator=50)),
    st.one_of(st.floats(-2, 2), st.fractions(max_denominator=50)),
)
@settings(max_examples=100, deadline=None)
def test_evaluate_exact_matches_term_by_term_fractions(e, x, y):
    expected = sum(c * F(x) ** i * F(y) ** j for (i, j), c in e.terms.items())
    assert e.evaluate_exact(x, y) == expected


def test_evaluate_rounds_cancelling_terms_once():
    # about 2.4e-7 at the offset point next to the (1, 0) corner; summed in
    # float the three terms leave it off by 1e-10 relative
    weight = expr_parse("1/3 - 1/3*x - 2/15*y")
    x, y = 0.999999105572809, 4.472135954999578e-07
    assert scalar_evaluator(weight)(x, y) == float(weight.evaluate_exact(x, y))
    assert _table_value(weight, x, y) == float(weight.evaluate_exact(x, y))


def test_exact_fallback_rounds_like_the_fraction():
    # the fallback divides two Python ints, which rounds correctly, so it
    # must equal float(Fraction) bit for bit: at random points, and at the
    # hypotenuse nodes i/n, (n-i)/n, where a factor 1 - x - y cancels and
    # PolyTable and the term-by-term oracle take the fallback; coefficients
    # have mixed denominators
    rng = random.Random(3)
    hyp = expr_parse("1 - x - y")
    polys = [
        hyp,
        expr_parse("1/3 - 1/3*x - 2/15*y"),
        hyp * expr_parse("2/7 + 5/6*x - 3/11*y^2"),
    ]
    for _ in range(20):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 3)): F(rng.randint(-9, 9), rng.choice([1, 3, 4, 7, 10]))
            for _ in range(rng.randint(1, 5))
        }
        polys.append(ParamExpr(terms))
    randoms = [(rng.random(), rng.random()) for _ in range(40)]
    nodes = [(i / n, (n - i) / n) for n in (3, 7, 10, 20, 49) for i in range(n + 1)]
    for poly in polys:
        for x, y in randoms + nodes:
            assert poly._evaluate_rounded(x, y) == float(poly.evaluate_exact(x, y))
    for poly in polys[0], polys[2]:
        xs, ys = zip(*nodes)
        table = PolyTable([poly]).evaluate(xs, ys)[:, 0]
        for p, (x, y) in enumerate(nodes):
            exact = float(poly.evaluate_exact(x, y))
            assert scalar_evaluator(poly)(x, y) == exact
            assert table[p] == exact


@given(
    st.lists(_polys, min_size=1, max_size=4),
    st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_poly_table_keeps_the_cancellation_bound(polys, points):
    # unflagged values have |value| >= magnitude / 16 and a float sum errs by
    # a few ulps of the magnitude per term; flagged values are rounded once;
    # products that underflow lose relative accuracy, hence the 1e-290
    xs, ys = (list(axis) for axis in zip(*points))
    values = PolyTable(polys).evaluate(xs, ys)
    for p, (x, y) in enumerate(points):
        for e, poly in enumerate(polys):
            exact = poly.evaluate_exact(x, y)
            bound = 16 * (poly.term_count() + 3) * 2.0**-53 * abs(exact) + F(1e-290)
            assert abs(F(values[p, e]) - exact) <= bound
            assert abs(values[p, e] - scalar_evaluator(poly)(x, y)) <= 2 * float(bound)


@given(_polys)
@settings(max_examples=100, deadline=None)
def test_render_parse_round_trip(e):
    assert expr_parse(e.render()) == e


def test_render_is_reparseable_text():
    e = expr_parse("x^2*y - 1/2*x + 3")
    assert e.render() == "x^2*y - 1/2*x + 3"
    assert ParamExpr.zero().render() == "0"


# -- packed integers and exact division -----------------------------------------


def _int(text: str) -> dict:
    return {key: int(coeff) for key, coeff in expr_parse(text).terms.items()}


# room for coefficients below 2**8 in magnitude and x-degrees below 4
WIDTH, X_SPAN = 9, 4


def _packed(text: str) -> int:
    return _pack(_int(text), WIDTH, X_SPAN)


def test_pack_unpack_round_trip():
    for text in ("0", "-1", "255*x^3*y^2 - 255", "-x^3 + 3*x*y - 7*y^5 + 1", "x^3*y - x^2*y"):
        assert _unpack(_packed(text), WIDTH, X_SPAN) == _int(text)
    assert _packed("x^2*y - 3") == (1 << WIDTH * (2 + X_SPAN)) - 3


def test_exact_div():
    q = _exact_quotient(_packed("x^2 - y^2"), _packed("x - y"))
    assert _unpack(q, WIDTH, X_SPAN) == _int("x + y")
    q = _exact_quotient(_packed("6*x^2*y - 4*y + 2"), _packed("-2"))
    assert _unpack(q, WIDTH, X_SPAN) == _int("-3*x^2*y + 2*y - 1")
    with pytest.raises(ExactDivisionError):
        _exact_quotient(_packed("x^2 + 1"), _packed("x - y"))
    # exact over the rationals but not over the integers
    with pytest.raises(ExactDivisionError):
        _exact_quotient(_packed("2*x + 3"), _packed("2"))


# -- rational functions -------------------------------------------------------


def test_ratfn_eval_examples(players, ja_tft, payoff):
    f = RationalFn(expr_parse("1 + 4*x"))
    assert ratfn_eval(f, 0.5, 0.1) == 3.0
    g = RationalFn(expr_parse("x"), expr_parse("x"))
    assert ratfn_eval(g, 0.5, 0.0) == 1.0
    with pytest.raises(SingularPointError) as err:
        ratfn_eval(g, 0.0, 0.0)
    assert err.value.point == (0.0, 0.0)
    assert ratfn_values(f, [0.5, 0.25], [0.1, 0.5]).tolist() == [3.0, 2.0]
    with pytest.raises(SingularPointError) as err:
        ratfn_values(g, [0.5, 0.0, 0.0], [0.0, 0.25, 0.0])
    assert err.value.point == (0.0, 0.25)

    # one point is the batch of one, bit for bit, on the bundled closed
    # forms; the TFT and Pavlov denominators vanish at (0, 0) and (1, 0)
    closed = {
        name: symbolic_fingerprint(players[name], ja_tft, payoff).fn
        for name in ("tft", "allc", "alld", "pavlov")
    }
    rng = random.Random(12)
    for fn in closed.values():
        for _ in range(50):
            x, y = random_interior_point(rng)
            assert ratfn_eval(fn, x, y) == ratfn_values(fn, [x], [y])[0]
    for fn, point in [(g, (0.0, 0.0)), (closed["tft"], (0.0, 0.0)), (closed["pavlov"], (1.0, 0.0))]:
        with pytest.raises(SingularPointError) as single:
            ratfn_eval(fn, *point)
        with pytest.raises(SingularPointError) as batch:
            ratfn_values(fn, [point[0]], [point[1]])
        assert single.value.point == batch.value.point == point


def test_ratfn_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFn(expr_parse("x"), ParamExpr.zero())


def test_ratfn_normalization():
    f = RationalFn(expr_parse("6 - 6*y"), expr_parse("2"))
    assert f.num == expr_parse("3 - 3*y")
    assert f.den == ParamExpr.one()
    # leading denominator coefficient is made positive
    g = RationalFn(expr_parse("x"), expr_parse("-x + 1") - ParamExpr.const(2))
    assert g.den.leading_coefficient() > 0


@given(_polys, _polys.filter(lambda p: not p.is_zero()))
@example(ParamExpr.zero(), expr_parse("-6/5*x + 4/15"))
@example(expr_parse("3/4*y - 1/2"), expr_parse("-9/8*x^2 + 3/10*y"))
@settings(max_examples=200, deadline=None)
def test_ratfn_normal_form_matches_the_rational_content_oracle(num, den):
    # integer coefficients with no common factor, den's leading coefficient
    # positive, and each part's integer form its terms at scale 1
    f = RationalFn(num, den)
    assert (f.num, f.den) == ratfn_normal_form(num, den)
    coeffs = [*f.num.terms.values(), *f.den.terms.values()]
    assert all(c.denominator == 1 for c in coeffs)
    assert math.gcd(*(c.numerator for c in coeffs)) == 1
    assert f.den.leading_coefficient() > 0
    for part in (f.num, f.den):
        assert part._integer_terms() == ParamExpr(part.terms)._integer_terms()
        assert part._integer_terms()[2] == 1


def test_ratfn_equiv_examples():
    x = expr_parse("x")
    one_minus_y = expr_parse("1 - y")
    assert ratfn_equiv(RationalFn(x), RationalFn(x * one_minus_y, one_minus_y))
    assert not ratfn_equiv(RationalFn(x), RationalFn(expr_parse("y")))
    assert ratfn_equiv(
        RationalFn(expr_parse("3 - 3*y")),
        RationalFn(expr_parse("6 - 6*y"), expr_parse("2")),
    )


@given(_polys, _polys.filter(lambda p: not p.is_zero()))
@settings(max_examples=40, deadline=None)
def test_ratfn_equiv_is_equivalence_relation(num, mult):
    base = RationalFn(num, ParamExpr.one() + ParamExpr({(1, 1): F(1)}))
    scaled = RationalFn(base.num * mult, base.den * mult)
    shuffled = RationalFn(base.num.scale(F(7, 3)), base.den.scale(F(7, 3)))
    triple = (base, scaled, shuffled)
    for f in triple:
        assert ratfn_equiv(f, f)
    for f in triple:
        for g in triple:
            assert ratfn_equiv(f, g)
            assert ratfn_equiv(g, f)
