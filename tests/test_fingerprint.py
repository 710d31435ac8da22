import json
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probefp.chain as chain_module
import probefp.fingerprint as fingerprint_module
from oracles import (
    PointOracle,
    bareiss_det,
    cycle_average_payoff,
    random_oracle_pairs,
    random_player,
    strongly_connected_player,
)
from probefp.automata import joss_ann, parse_probe, validate_probe
from probefp.chain import SUPPORT_CUTOFF, ChainClass, ClassDecomposition, compose
from probefp.errors import (
    ClosedFormCheckError,
    ExpressionSwellError,
    InputError,
    NegativeWeightError,
    NumericError,
    OutOfSimplexError,
    ReducibleChainError,
)
from probefp.fingerprint import (
    CESARO,
    INTERIOR_OFFSET,
    FingerprintGrid,
    _bareiss_last_rows,
    boundary_discrepancy,
    _offset_toward_centroid,
    fingerprint_grid,
    pointwise_fingerprint,
    symbolic_fingerprint,
    value_at,
)
from probefp.polyexpr import ParamExpr, RationalFn, expr_parse, ratfn_equiv, ratfn_eval

# Probe with a bridging transition of weight x: for x > 0 the chain is
# absorbed into permanent defection, on the x = 0 edge it stays cooperative.
BRIDGE_PROBE = """probe BRIDGE
alphabet C D
init C 0 : 1
0 C -> C 1 : x
0 C -> C 0 : 1 - x
0 D -> C 1 : x
0 D -> C 0 : 1 - x
1 C -> D 1 : 1
1 D -> D 1 : 1
"""

# Probe that starts in one of two absorbing states with weight 1/2 each.
SPLIT_PROBE = """probe SPLIT
alphabet C D
init C 0 : 1/2
init D 1 : 1/2
0 C -> C 0 : 1
0 D -> C 0 : 1
1 C -> D 1 : 1
1 D -> D 1 : 1
"""


# Probe whose C-outcome weight (x - 1/40)^2 - 1/6400 is negative only for
# 1/80 < x < 3/80, strictly between the nodes of validate_probe's lattice.
DIP_PROBE = """probe DIP
alphabet C D
init C 0 : 1
0 C -> C 0 : (x - 1/40)^2 - 1/6400
0 C -> D 0 : 1 - (x - 1/40)^2 + 1/6400
0 D -> C 0 : 1 - y
0 D -> D 0 : y
"""


# One-state probe that copies the player's last move and flips it with
# weight (x - y)^2/4, which vanishes on the line x = y.
NOISY_XY_PROBE = """probe NOISY_XY
alphabet C D
init C 0 : 1
0 C -> C 0 : 1 - 1/4*(x - y)^2
0 C -> D 0 : 1/4*(x - y)^2
0 D -> D 0 : 1 - 1/4*(x - y)^2
0 D -> C 0 : 1/4*(x - y)^2
"""


def bundled_pairs(players):
    return [(p, joss_ann(base)) for base in players.values() for p in players.values()]


# -- pointwise values ----------------------------------------------------------


def test_fingerprint_at_examples(players, ja_tft, const_c_probe, payoff):
    assert pointwise_fingerprint(players["allc"], ja_tft, payoff)(0.25, 0.25) == 2.25
    assert pointwise_fingerprint(players["alld"], ja_tft, payoff)(0.5, 0.25) == 3.0
    tft = pointwise_fingerprint(players["tft"], const_c_probe, payoff)
    for point in [(0.0, 0.0), (0.3, 0.3), (1.0, 0.0), (0.25, 0.7)]:
        assert tft(*point) == 3.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", [CESARO, INTERIOR_OFFSET])
def test_value_at_rejects_non_finite_points(players, ja_tft, payoff, mode):
    # every comparison with NaN is false, so a test for "outside" lets NaN
    # through: a NaN x then gives a value, and a NaN y fails in the solver.
    # The offset step must not see the point: it turns inf into NaN.
    chain = compose(players["allc"], ja_tft, payoff)
    nan, inf = float("nan"), float("inf")
    for point in [(nan, 0.2), (0.2, nan), (nan, nan), (inf, 0.0), (0.0, -inf)]:
        with pytest.raises(OutOfSimplexError) as caught:
            value_at(chain, *point, mode)
        assert np.array_equal(caught.value.point, point, equal_nan=True)


def test_offset_mode_refuses_a_point_outside_the_triangle(players, ja_tft, payoff):
    # the offset would move these points inside; the point given is outside
    chain = compose(players["allc"], ja_tft, payoff)
    for point in [(-1e-9, 0.5), (0.5, 0.5 + 1e-9)]:
        with pytest.raises(OutOfSimplexError) as caught:
            value_at(chain, *point, INTERIOR_OFFSET)
        assert caught.value.point == point


def test_fingerprint_rejects_unknown_mode(players, ja_tft, payoff):
    with pytest.raises(ValueError):
        pointwise_fingerprint(players["allc"], ja_tft, payoff, "nearest")(0.1, 0.1)


# -- grids ----------------------------------------------------------------------


def test_grid_allc_matches_closed_form(players, ja_tft, payoff):
    grid = fingerprint_grid(players["allc"], ja_tft, payoff, 4)
    assert len(grid.values) == 15
    for (i, j), value in grid.values.items():
        assert abs(value - (3 - 3 * j / 4)) <= 1e-12


def test_grid_resolution_one_has_three_points(players, ja_tft, payoff):
    grid = fingerprint_grid(players["tft"], ja_tft, payoff, 1)
    assert sorted(grid.values) == [(0, 0), (0, 1), (1, 0)]


def test_grid_alld_bottom_row(players, ja_tft, payoff):
    grid = fingerprint_grid(players["alld"], ja_tft, payoff, 4)
    row = [grid.values[(i, 0)] for i in range(5)]
    assert row == pytest.approx([1, 2, 3, 4, 5], abs=1e-12)


def test_grid_determinism(players, ja_tft, payoff):
    a = fingerprint_grid(players["pavlov"], ja_tft, payoff, 6)
    b = fingerprint_grid(players["pavlov"], ja_tft, payoff, 6)
    assert a.values == b.values
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_grid_serialization_round_trip(players, ja_tft, payoff):
    grid = fingerprint_grid(players["tft"], ja_tft, payoff, 5)
    from_json = FingerprintGrid.from_json(grid.to_json())
    assert from_json.resolution == 5
    assert from_json.values == grid.values
    from_csv = FingerprintGrid.from_csv(grid.to_csv())
    assert from_csv.resolution == 5
    for key, value in grid.values.items():
        assert from_csv.values[key] == pytest.approx(value, abs=0)
    assert from_csv.meta["player"] == "TFT"


def test_grid_files_that_are_not_the_lattice_are_input_errors(players, ja_tft, payoff):
    grid = fingerprint_grid(players["tft"], ja_tft, payoff, 2)
    csv_rows = grid.to_csv().splitlines()
    header = [line for line in csv_rows if line.startswith("#") or line == "x,y,value"]
    data = csv_rows[len(header):]
    bad_csv = [
        header + data[:2],  # no lattice has 2 nodes
        header + data[:1],  # 1 node would be resolution 0
        header + data[:-1] + ["0,0"],  # a row with 2 fields
        header + data[:-1] + ["0,nan,1"],  # a node that is not finite
        header + data[:-1] + [data[0]],  # a repeated node instead of the last
    ]
    for rows in bad_csv:
        with pytest.raises(InputError):
            FingerprintGrid.from_csv("\n".join(rows) + "\n")
    doc = json.loads(grid.to_json())
    missing = {**doc, "values": doc["values"][:-1]}
    outside = {**doc, "values": doc["values"][:-1] + [[1.0, 1.0, 3.0]]}
    zero = {"meta": {**doc["meta"], "resolution": 0}, "values": doc["values"][:1]}
    huge = {"meta": {**doc["meta"], "resolution": 10**9}, "values": doc["values"]}
    for text in [json.dumps(d) for d in (missing, outside, zero, huge)] + ["{", "[]", "{}"]:
        with pytest.raises(InputError):
            FingerprintGrid.from_json(text)


def test_grid_files_refuse_off_lattice_coordinates_and_non_finite_values(
    players, ja_tft, payoff
):
    # row 4 of a file at n = 2 is node (1, 0), at (0.5, 0); (0.3, 0) in its
    # place is nearest that node, and reading it as the node would give a
    # wrong distance
    grid = fingerprint_grid(players["tft"], ja_tft, payoff, 2)
    csv_rows = grid.to_csv().splitlines()
    body = csv_rows.index("x,y,value") + 1
    doc = json.loads(grid.to_json())
    cases = [
        ([0.3, 0.0, 2.0], r"grid row 4 \(0.3, 0.0, 2.0\): x = 0.3 is not a node i/2"),
        ([0.5, 1e-6, 2.0], r"grid row 4 .*: y = 1e-06 is not a node i/2"),
        ([0.5, math.inf, 2.0], r"grid row 4 .*: y = inf is not a node"),
        ([0.5, 0.0, math.nan], r"grid row 4 \(0.5, 0.0, nan\): value nan is not finite"),
        ([0.5, 0.0, -math.inf], r"grid row 4 .*: value -inf is not finite"),
    ]
    for row, message in cases:
        lines = list(csv_rows)
        lines[body + 3] = ",".join(map(repr, row))
        values = list(doc["values"])
        values[3] = row
        with pytest.raises(InputError, match=message):
            FingerprintGrid.from_csv("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=message):
            FingerprintGrid.from_json(json.dumps({**doc, "values": values}))
    # a coordinate within NODE_TOL steps of its node reads as that node
    values = list(doc["values"])
    values[3] = [0.5 + 1e-12, 0.0, 2.5]
    assert FingerprintGrid.from_json(json.dumps({**doc, "values": values})).values[(1, 0)] == 2.5


_GRID_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 1e308, -1e308]),
)


@st.composite
def _grids_and_row_orders(draw):
    n = draw(st.integers(1, 30))
    count = (n + 1) * (n + 2) // 2
    values = draw(st.lists(_GRID_VALUES, min_size=count, max_size=count))
    table = np.zeros((n + 1, n + 1))
    nodes = np.argwhere(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
    table[nodes[:, 0], nodes[:, 1]] = values
    return FingerprintGrid(n, CESARO, table, {"player": "P"}), draw(st.permutations(range(count)))


@given(_grids_and_row_orders())
@settings(max_examples=40, deadline=None)
def test_grid_files_read_back_bit_identical_in_any_row_order(grid_and_order):
    grid, order = grid_and_order
    csv_lines = grid.to_csv().splitlines()
    body = csv_lines.index("x,y,value") + 1
    shuffled_csv = csv_lines[:body] + [csv_lines[body + k] for k in order]
    doc = json.loads(grid.to_json())
    shuffled_json = {**doc, "values": [doc["values"][k] for k in order]}
    texts = [
        (FingerprintGrid.from_csv, grid.to_csv()),
        (FingerprintGrid.from_csv, "\n".join(shuffled_csv) + "\n"),
        (FingerprintGrid.from_json, grid.to_json()),
        (FingerprintGrid.from_json, json.dumps(shuffled_json)),
    ]
    for read, text in texts:
        back = read(text)
        assert back.resolution == grid.resolution
        assert back.table.tobytes() == grid.table.tobytes()
        assert list(back.values.items()) == list(grid.values.items())
    with pytest.raises(TypeError):  # values is a read-only view of the table
        back.values[(0, 0)] = 1.0
    assert pickle.loads(pickle.dumps(back)).values == back.values


def test_grid_csv_rows_that_do_not_convert_name_the_row(players, ja_tft, payoff):
    lines = fingerprint_grid(players["tft"], ja_tft, payoff, 2).to_csv().splitlines()
    body = lines.index("x,y,value") + 1
    cases = {
        "0.5,,2": "could not convert string to float: ''",
        "0.5,0,2,2": "too many values to unpack (expected 3)",
        "0x1p-2,0,2": "could not convert string to float: '0x1p-2'",  # float() refuses hex
    }
    for row, fault in cases.items():
        text = "\n".join(lines[: body + 3] + [row] + lines[body + 4 :]) + "\n"
        with pytest.raises(InputError) as err:
            FingerprintGrid.from_csv(text)
        assert str(err.value) == f"malformed grid CSV row {row!r}: {fault}"


def test_grid_json_integer_too_large_for_a_float_is_an_input_error():
    values = [[0, 0, 10**400], [0, 1, 1], [1, 0, 1]]
    with pytest.raises(InputError, match="malformed grid JSON: OverflowError"):
        FingerprintGrid.from_json(json.dumps({"meta": {"resolution": 1}, "values": values}))


def test_grid_files_refuse_an_unknown_mode_and_a_wrong_resolution_line(
    players, ja_tft, payoff
):
    grid = fingerprint_grid(players["tft"], ja_tft, payoff, 6)
    doc = json.loads(grid.to_json())
    bogus_json = json.dumps({**doc, "meta": {**doc["meta"], "boundary_mode": "bogus"}})
    with pytest.raises(InputError, match="unknown grid boundary mode 'bogus'"):
        FingerprintGrid.from_json(bogus_json)
    with pytest.raises(InputError, match="unknown grid boundary mode 'bogus'"):
        FingerprintGrid.from_csv(grid.to_csv({"boundary_mode": "bogus"}))
    offset = FingerprintGrid.from_csv(grid.to_csv({"boundary_mode": INTERIOR_OFFSET}))
    assert offset.boundary_mode == INTERIOR_OFFSET
    # 28 rows give n = 6; a resolution line must say so, read as an integer
    # the way JSON's resolution is
    for given in (6, "06", " +6"):
        assert FingerprintGrid.from_csv(grid.to_csv({"resolution": given})).resolution == 6
    message = "resolution line says '9', but its 28 rows give resolution 6"
    with pytest.raises(InputError, match=message):
        FingerprintGrid.from_csv(grid.to_csv({"resolution": 9}))
    for given in ("6.0", "six"):
        with pytest.raises(InputError, match="malformed grid CSV resolution line: invalid literal"):
            FingerprintGrid.from_csv(grid.to_csv({"resolution": given}))


def test_grid_csv_layout(players, ja_tft, payoff):
    text = fingerprint_grid(players["tft"], ja_tft, payoff, 2).to_csv()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 6
    assert lines[1].startswith("0,0,")
    assert lines[2].startswith("0,0.5,")


# -- symbolic closed forms -------------------------------------------------------


def test_symbolic_closed_forms(players, ja_tft, payoff):
    allc = symbolic_fingerprint(players["allc"], ja_tft, payoff)
    assert ratfn_equiv(allc.fn, RationalFn(expr_parse("3 - 3*y")))
    alld = symbolic_fingerprint(players["alld"], ja_tft, payoff)
    assert ratfn_equiv(alld.fn, RationalFn(expr_parse("1 + 4*x")))


def test_symbolic_classes_come_from_the_structural_support(players, payoff):
    # the flip weight (x - y)^2/4 vanishes at (1/3, 1/3), where AllC's chain
    # splits; off x = y it is irreducible
    probe = parse_probe(NOISY_XY_PROBE)
    allc = symbolic_fingerprint(players["allc"], probe, payoff)
    assert ratfn_equiv(allc.fn, RationalFn(expr_parse("12 - 3*(x - y)^2"), expr_parse("4")))
    alld = symbolic_fingerprint(players["alld"], probe, payoff)
    assert ratfn_equiv(alld.fn, RationalFn(expr_parse("1 + (x - y)^2")))


def test_symbolic_tft_agrees_with_hand_solution(players, ja_tft, payoff):
    result = symbolic_fingerprint(players["tft"], ja_tft, payoff)
    hand = RationalFn(expr_parse("3*x^2 + 5*x*y + y^2"), expr_parse("(x + y)^2"))
    assert ratfn_equiv(result.fn, hand)
    assert result.agreement_max_error == 0.0
    unchecked = symbolic_fingerprint(players["tft"], ja_tft, payoff, validate=False)
    assert unchecked.fn == result.fn and unchecked.agreement_max_error is None


def test_symbolic_numeric_agreement_on_interior_lattice(players, ja_tft, payoff):
    for name in ("allc", "alld", "tft"):
        result = symbolic_fingerprint(players[name], ja_tft, payoff)
        chain = compose(players[name], ja_tft, payoff)
        for i in range(1, 20):
            for j in range(1, 20 - i):
                x, y = i / 20, j / 20
                numeric = value_at(chain, x, y)
                assert abs(ratfn_eval(result.fn, x, y) - numeric) <= 1e-8


def test_symbolic_reducible_chain_raises(players, ja_tft, payoff):
    with pytest.raises(ReducibleChainError) as err:
        symbolic_fingerprint(players["grim"], ja_tft, payoff)
    assert err.value.classes is not None
    assert "closed" in str(err.value)


def _reference_closed_form(player, probe, payoff) -> RationalFn:
    """F = det(A with the payoff row) / det(A with a row of ones), where A is
    (I - P) transposed with its last row replaced, by the pivoting oracle."""
    chain = compose(player, probe, payoff)
    n = chain.n_states
    zero, one = ParamExpr.zero(), ParamExpr.one()
    p = [[row.get(j, zero) for j in range(n)] for row in chain.trans]
    a = [[(one if i == j else zero) - p[i][j] for i in range(n)] for j in range(n)]
    payoff_row = [ParamExpr.const(w) for w in chain.payoff]
    num = bareiss_det(a[:-1] + [payoff_row])
    return RationalFn(num, bareiss_det(a[:-1] + [[one] * n]))


def test_closed_forms_match_pivoting_determinant_oracle(players, payoff):
    pairs = bundled_pairs(players) + random_oracle_pairs()
    # strongly connected players against JA of a random base: 16, 18 and
    # 24 joint states
    for seed in (33, 213, 23):
        rng = random.Random(seed)
        pairs.append((strongly_connected_player(rng, 6), joss_ann(random_player(rng, 6))))
    checked = 0
    for player, probe in pairs:
        try:
            fn = symbolic_fingerprint(player, probe, payoff, validate=False).fn
        except ReducibleChainError:
            continue
        assert fn == _reference_closed_form(player, probe, payoff)
        checked += 1
    assert checked == 17 + 8 + 3


# Probe whose weights mix denominators (3, 7, 4, 5, 6) within and across
# rows, so that every row of the stationary system has its own integer scale.
MIXED_DENOMINATOR_PROBE = """probe MIXED
alphabet C D
init C 0 : 0.25
init D 1 : 3/4
0 C -> C 0 : 1/3 - 1/3*x
0 C -> D 1 : 2/3 + 1/3*x - 2/7*y
0 C -> C 1 : 2/7*y
0 D -> D 0 : 0.25
0 D -> C 1 : 3/4 - 1/2*x
0 D -> D 1 : 1/2*x
1 C -> C 0 : 1/5 + 2/5*y
1 C -> D 1 : 4/5 - 2/5*y
1 D -> C 1 : 1/6 + 1/6*x
1 D -> D 0 : 5/6 - 1/6*x
"""


def test_closed_forms_with_mixed_denominators_match_oracle(players, payoff):
    # a rational payoff row scales separately from the normalisation row
    probe = parse_probe(MIXED_DENOMINATOR_PROBE)
    rational = payoff.with_overrides([("C", "C", Fraction(7, 2)), ("D", "C", Fraction(16, 3))])
    for game_payoff in (payoff, rational):
        for name in ("tft", "pavlov", "allc"):
            fn = symbolic_fingerprint(players[name], probe, game_payoff).fn
            assert fn == _reference_closed_form(players[name], probe, game_payoff)


def test_symbolic_one_state_chain(players, const_c_probe, payoff):
    # TFT against a probe that always cooperates never leaves (C, C): the
    # stationary system has no rows and the closed form is the payoff
    assert compose(players["tft"], const_c_probe, payoff).n_states == 1
    assert symbolic_fingerprint(players["tft"], const_c_probe, payoff).fn == RationalFn(
        ParamExpr.const(3)
    )


@st.composite
def _int_poly(draw):
    """Zero in about a third of the draws; otherwise up to three terms with
    coefficients of either sign up to 2**40, in x only, y only or both."""
    if draw(st.integers(0, 2)) == 0:
        return ParamExpr.zero()
    variables = draw(st.sampled_from(["x", "y", "xy"]))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, 3)) if "x" in variables else 0
        j = draw(st.integers(0, 3)) if "y" in variables else 0
        terms[(i, j)] = Fraction(draw(st.integers(-(2**40), 2**40)))
    return ParamExpr(terms)


@st.composite
def _int_matrix(draw):
    """A square matrix split into its system rows and one or two last rows."""
    n = draw(st.integers(1, 4))
    row = st.lists(_int_poly(), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n + 1, max_size=n + 1))
    tails = rows[n - 1 :] if draw(st.booleans()) else rows[n - 1 : n]
    return rows[: n - 1], tails


@given(_int_matrix())
@settings(max_examples=150, deadline=None)
def test_packed_elimination_matches_determinant_oracle(matrix):
    system, tails = matrix
    try:
        results = _bareiss_last_rows(system, tails)
    except ReducibleChainError:
        # only a vanishing leading minor of the system stops the elimination
        assert any(
            bareiss_det([row[:k] for row in system[:k]]).is_zero()
            for k in range(1, len(system) + 1)
        )
        return
    assert results == [bareiss_det(system + [tail]) for tail in tails]


def test_packed_elimination_at_the_hadamard_bound():
    # Sylvester's 4 x 4 Hadamard matrix times a monomial: the determinant
    # 16 * x^8*y^4 attains the coefficient bound sqrt(4**4) of the packing,
    # so a packing one bit narrower reads it as -16 plus a carry
    sign = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    monomial = expr_parse("x^2*y")
    rows = [[monomial.scale(s) for s in row] for row in sign]
    negated = [-e for e in rows[3]]
    det, negated_det = _bareiss_last_rows(rows[:3], [rows[3], negated])
    assert det == expr_parse("16*x^8*y^4") == bareiss_det(rows)
    assert negated_det == -det


def test_symbolic_swell_reports_the_first_entry_over_the_cap(payoff, monkeypatch):
    # a 34-state chain whose largest intermediate entry has 53 terms; 42 is
    # the count that elimination over rational coefficients reports, since
    # scaling rows to integers keeps the support of every entry
    monkeypatch.setattr(fingerprint_module, "TERM_CAP", 40)
    rng = random.Random(48)
    player, probe = strongly_connected_player(rng, 4), joss_ann(random_player(rng, 4))
    with pytest.raises(ExpressionSwellError) as err:
        symbolic_fingerprint(player, probe, payoff)
    assert (err.value.terms, err.value.cap) == (42, 40)


def test_symbolic_singular_system_raises(players, payoff, monkeypatch):
    # the probe's two absorbing states make the stationary system singular;
    # the class check is bypassed so that elimination meets the zero pivot
    probe = parse_probe(SPLIT_PROBE)
    assert compose(players["tft"], probe, payoff).n_states == 3
    monkeypatch.setattr(
        fingerprint_module,
        "classify_supports",
        lambda support: [ClassDecomposition((ChainClass((0, 1, 2), closed=True),))],
    )
    with pytest.raises(ReducibleChainError) as err:
        symbolic_fingerprint(players["tft"], probe, payoff)
    assert str(err.value) == (
        "stationary system is singular over the polynomial ring; use grid mode instead"
    )


def test_symbolic_swell_abort(players, ja_tft, payoff, monkeypatch):
    monkeypatch.setattr(fingerprint_module, "TERM_CAP", 2)
    with pytest.raises(ExpressionSwellError):
        symbolic_fingerprint(players["tft"], ja_tft, payoff)


# -- boundary handling -----------------------------------------------------------


def test_boundary_discrepancy_continuous_fingerprint(players, ja_tft, payoff):
    report = boundary_discrepancy(players["allc"], ja_tft, payoff, 4)
    assert report.max_discrepancy <= 1e-4


def test_boundary_discrepancy_constant(players, const_c_probe, payoff):
    report = boundary_discrepancy(players["tft"], const_c_probe, payoff, 4)
    assert report.max_discrepancy == 0.0


def test_boundary_discrepancy_localized_to_edge(players, payoff):
    bridge = parse_probe(BRIDGE_PROBE)
    report = boundary_discrepancy(players["allc"], bridge, payoff, 4)
    for (i, j), gap in report.per_point.items():
        if i == 0:
            assert gap == pytest.approx(3.0, abs=1e-3)
        else:
            assert gap <= 1e-9
    assert report.max_point[0] == 0


def test_interior_offset_matches_cesaro_inside(players, ja_tft, payoff):
    chain = compose(players["tft"], ja_tft, payoff)
    for point in [(0.3, 0.3), (0.15, 0.5)]:
        a = value_at(chain, *point, CESARO)
        b = value_at(chain, *point, INTERIOR_OFFSET)
        assert a == b


def test_grim_near_edge_keeps_interior_value(players, ja_tft, payoff):
    # Grim is absorbed into defection for every y > 0, where JA(TFT)
    # cooperates with probability x: the value is 1 + 4x however small y is
    chain = compose(players["grim"], ja_tft, payoff)
    for x in (0.05, 0.3, 0.7):
        for y in (2e-14, 1e-13, 1e-11, 1e-9, 1e-7, 1e-6):
            value = value_at(chain, x, y)
            assert abs(value - (1 + 4 * x)) <= 1e-12


def test_offset_grids_succeed_for_bundled_pairs(players, payoff):
    for base in players.values():
        probe = joss_ann(base)
        for player in players.values():
            for n in (14, 20):
                grid = fingerprint_grid(player, probe, payoff, n, INTERIOR_OFFSET)
                assert len(grid.values) == (n + 1) * (n + 2) // 2


def test_offset_boundary_matches_exact_closed_form(players, payoff):
    # the offset point is a float pair, so the closed form is evaluated
    # exactly there and compared at relative 1e-14; the random pairs carry
    # weights such as 1/3 - x/3 - 2y/15 that cancel near the hypotenuse
    n = 20
    checked = 0
    for player, probe in bundled_pairs(players) + random_oracle_pairs():
        try:
            fn = symbolic_fingerprint(player, probe, payoff, validate=False).fn
        except ReducibleChainError:
            continue
        chain = compose(player, probe, payoff)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                if i and j and i + j != n:
                    continue
                x, y = _offset_toward_centroid(i / n, j / n)
                exact = fn.num.evaluate_exact(x, y) / fn.den.evaluate_exact(x, y)
                value = fingerprint_module.value_at(
                    chain, i / n, j / n, INTERIOR_OFFSET
                )
                assert abs(Fraction(value) - exact) <= Fraction(1, 10**14) * abs(exact)
        checked += 1
    assert checked == 17 + 8


# -- corner consistency ------------------------------------------------------------


def test_corner_values_match_cycle_oracle(players, ja_tft, payoff):
    for name, player in players.items():
        vs_allc = float(cycle_average_payoff(player, "C", payoff))
        vs_alld = float(cycle_average_payoff(player, "D", payoff))
        chain = compose(player, ja_tft, payoff)
        assert abs(value_at(chain, 1.0, 0.0) - vs_allc) <= 1e-9
        assert abs(value_at(chain, 0.0, 1.0) - vs_alld) <= 1e-9


def test_cycle_oracle_pavlov_values(players, payoff):
    assert cycle_average_payoff(players["pavlov"], "C", payoff) == 3
    assert cycle_average_payoff(players["pavlov"], "D", payoff) == Fraction(1, 2)
    assert cycle_average_payoff(players["grim"], "D", payoff) == 1
    assert cycle_average_payoff(players["alld"], "C", payoff) == 5


# -- batched solves against the per-point oracle --------------------------------


def _oracle_grid(chain, n, offset):
    oracle = PointOracle(chain)
    return {
        (i, j): oracle.value(i / n, j / n, offset)
        for i in range(n + 1)
        for j in range(n + 1 - i)
    }


def test_grids_match_per_point_oracle(players, payoff):
    for player, probe in bundled_pairs(players) + random_oracle_pairs():
        chain = compose(player, probe, payoff)
        for mode in (CESARO, INTERIOR_OFFSET):
            for n in (14, 20):
                try:
                    expected = _oracle_grid(chain, n, mode == INTERIOR_OFFSET)
                except NumericError as exc:
                    with pytest.raises(type(exc)):
                        fingerprint_grid(player, probe, payoff, n, mode)
                    continue
                grid = fingerprint_grid(player, probe, payoff, n, mode)
                for node, value in expected.items():
                    assert abs(grid.values[node] - value) <= 1e-12


def test_grim_grid_classifies_once_per_support_pattern(players, ja_tft, payoff, monkeypatch):
    n = 100
    chain = compose(players["grim"], ja_tft, payoff)
    oracle = PointOracle(chain)
    patterns = {
        (oracle.evaluate(i / n, j / n)[0] > SUPPORT_CUTOFF).tobytes()
        for i in range(n + 1)
        for j in range(n + 1 - i)
    }
    solves, stacks = [], []
    solve, classify = fingerprint_module.limit_distributions, chain_module.classify_supports

    def counting_solve(matrix, init, points):
        solves.append(len(points))
        return solve(matrix, init, points)

    def counting_classify(stack):
        stacks.append(len(stack))
        return classify(stack)

    monkeypatch.setattr(fingerprint_module, "limit_distributions", counting_solve)
    monkeypatch.setattr(chain_module, "classify_supports", counting_classify)
    grid = fingerprint_grid(players["grim"], ja_tft, payoff, n)
    # one solve call for the whole grid, with one stacked closure over
    # every support pattern at once
    assert len(solves) == len(stacks) == 1 and stacks == [len(patterns)] and len(patterns) < 10
    for node, value in _oracle_grid(chain, n, False).items():
        assert abs(grid.values[node] - value) <= 1e-12


def test_boundary_discrepancy_matches_per_point_oracle(players, payoff):
    n = 10
    for player, probe in bundled_pairs(players):
        oracle = PointOracle(compose(player, probe, payoff))
        report = boundary_discrepancy(player, probe, payoff, n)
        for (i, j), gap in report.per_point.items():
            x, y = i / n, j / n
            expected = abs(oracle.value(x, y) - oracle.value(x, y, True))
            assert abs(gap - expected) <= 1e-12


def test_agreement_check_matches_per_point_oracle(players, payoff):
    # every exactly checked bundled form against the per-point numeric
    # oracle at the 171 interior nodes of the 20-lattice, to 1e-8
    n = 20
    for player, probe in bundled_pairs(players):
        try:
            result = symbolic_fingerprint(player, probe, payoff)
        except ReducibleChainError:
            continue
        assert result.agreement_max_error == 0.0
        oracle = PointOracle(compose(player, probe, payoff))
        worst = max(
            abs(ratfn_eval(result.fn, i / n, j / n) - oracle.value(i / n, j / n))
            for i in range(1, n)
            for j in range(1, n - i)
        )
        assert worst <= 1e-8


def _perturbed(fn: RationalFn) -> RationalFn:
    """fn with 1e-9 added to the coefficient of its numerator's leading term."""
    key, _ = next(fn.num.sorted_terms())
    return RationalFn(fn.num + ParamExpr({key: Fraction(1, 10**9)}), fn.den)


def test_exact_check_refuses_every_perturbed_form(players, payoff):
    # a change far below the old float check's 1e-8 tolerance is refused
    checked = 0
    for player, probe in bundled_pairs(players) + random_oracle_pairs():
        try:
            result = symbolic_fingerprint(player, probe, payoff)
        except ReducibleChainError:
            continue
        chain = compose(player, probe, payoff)
        with pytest.raises(ClosedFormCheckError) as err:
            fingerprint_module._check_exactly(chain, _perturbed(result.fn))
        p, (a, b) = err.value.prime, err.value.point
        assert (p, a, b) in fingerprint_module.EXACT_CHECKS
        assert f"modulo the prime {p} at (x, y) = ({a}, {b})" in str(err.value)
        checked += 1
    assert checked == 17 + 8  # the irreducible bundled and random pairs


def test_exact_check_moves_past_points_that_cannot_decide(players, ja_tft, payoff, monkeypatch):
    chain = compose(players["tft"], ja_tft, payoff)
    fn = symbolic_fingerprint(players["tft"], ja_tft, payoff).fn
    (p, a, b), *rest = fingerprint_module.EXACT_CHECKS
    # x = y = 0 makes the denominator (x + y)^2 vanish: the next entry decides
    monkeypatch.setattr(fingerprint_module, "EXACT_CHECKS", ((p, 0, 0), *rest))
    fingerprint_module._check_exactly(chain, fn)
    with pytest.raises(ClosedFormCheckError) as err:
        fingerprint_module._check_exactly(chain, _perturbed(fn))
    assert (err.value.prime, err.value.point) == (rest[0][0], rest[0][1:])
    # no entry decides: a typed error that names no prime
    monkeypatch.setattr(fingerprint_module, "EXACT_CHECKS", ((p, 0, 0), (p, 1, p - 1)))
    with pytest.raises(ClosedFormCheckError) as err:
        fingerprint_module._check_exactly(chain, fn)
    assert err.value.prime is None and "could decide" in str(err.value)


def test_negative_weight_between_validation_nodes_names_point_and_row(players, payoff):
    probe = parse_probe(DIP_PROBE)
    assert validate_probe(probe).ok
    with pytest.raises(NegativeWeightError) as err:
        fingerprint_grid(players["tft"], probe, payoff, 40)
    assert err.value.point == (0.025, 0.0)
    message = str(err.value)
    assert "transition probability -0.0001562" in message and "in row 0 " in message


def test_batch_error_names_the_failing_point(players, payoff):
    chain = compose(players["tft"], parse_probe(DIP_PROBE), payoff)
    xs = [0.5, 0.1, 0.025, 0.03, 0.2]
    ys = [0.25, 0.3, 0.4, 0.1, 0.0]
    with pytest.raises(NegativeWeightError) as err:
        chain_module.evaluate_points(chain, xs, ys)
    assert err.value.point == (0.025, 0.4)
    matrix, _ = chain_module.evaluate_points(chain, xs[:2] + xs[4:], ys[:2] + ys[4:])
    assert matrix.shape == (3, chain.n_states, chain.n_states)
