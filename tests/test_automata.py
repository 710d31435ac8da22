import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import random_player, random_probe, scalar_evaluator
from probefp.automata import (
    _VERTICES,
    VALIDATION_LATTICE_N,
    WEIGHT_TOL,
    PayoffMatrix,
    Probe,
    _vertex_values,
    joss_ann,
    parse_player,
    parse_probe,
    validate_probe,
)
from probefp.chain import compose
from probefp.errors import (
    PlayerFormatError,
    ProbeFormatError,
    ProbeValidationError,
)
from probefp.polyexpr import ParamExpr, expr_parse

TFT_TEXT = """# echoes the opponent
player TFT
alphabet C D
start 0 C
0 C -> 0 C
0 D -> 0 D
"""

PAVLOV_TEXT = """player PAVLOV
alphabet C D
start 0 C
0 C -> 0 C
0 D -> 1 D
1 C -> 1 D
1 D -> 0 C
"""


def outcomes_as_dict(outcomes):
    return {(a, s): w for a, s, w in outcomes}


# -- player parsing -----------------------------------------------------------


def test_parse_tft():
    m = parse_player(TFT_TEXT)
    assert m.name == "TFT"
    assert m.n_states == 1
    assert m.initial_action == "C"
    assert m.step == {(0, "C"): (0, "C"), (0, "D"): (0, "D")}


def test_parse_pavlov():
    m = parse_player(PAVLOV_TEXT)
    assert m.n_states == 2
    assert m.step[(0, "D")] == (1, "D")
    assert m.step[(1, "D")] == (0, "C")


def test_missing_transition_names_state_and_input():
    text = "player P\nalphabet C D\nstart 0 C\n0 C -> 0 C\n"
    with pytest.raises(PlayerFormatError) as err:
        parse_player(text)
    assert "'0'" in str(err.value) and "'D'" in str(err.value)


def test_validate_refuses_a_transition_outside_the_player():
    # compose used to ignore such a transition
    machine = parse_player(TFT_TEXT)
    machine.step[(5, "Q")] = (0, "C")
    with pytest.raises(PlayerFormatError) as err:
        machine.validate()
    assert str(err.value) == "transition for (5, 'Q'), not a (state, input) pair"


def test_duplicate_rule():
    text = "player P\nalphabet C D\nstart 0 C\n0 C -> 0 C\n0 C -> 0 D\n0 D -> 0 D\n"
    with pytest.raises(PlayerFormatError, match="duplicate"):
        parse_player(text)


def test_unreachable_state():
    text = (
        "player P\nalphabet C D\nstart 0 C\n0 C -> 0 C\n0 D -> 0 D\n"
        "1 C -> 1 C\n1 D -> 1 D\n"
    )
    with pytest.raises(PlayerFormatError, match="unreachable"):
        parse_player(text)


def test_action_outside_alphabet():
    text = "player P\nalphabet C D\nstart 0 X\n0 C -> 0 C\n0 D -> 0 D\n"
    with pytest.raises(PlayerFormatError):
        parse_player(text)


def test_syntax_error_carries_line_number():
    text = "player P\nalphabet C D\nstart 0 C\n0 C 0 C\n"
    with pytest.raises(PlayerFormatError) as err:
        parse_player(text)
    assert err.value.line == 4


def test_parse_determinism():
    a = parse_player(PAVLOV_TEXT)
    b = parse_player(PAVLOV_TEXT)
    assert a == b


# -- probe parsing ------------------------------------------------------------


def test_parse_constant_probe():
    p = parse_probe(
        "probe K\nalphabet C D\ninit C 0 : 1\n0 C -> C 0 : 1\n0 D -> C 0 : 1\n"
    )
    assert p.n_states == 1
    assert outcomes_as_dict(p.init) == {("C", 0): ParamExpr.one()}


def test_probe_sum_violation_reports_residual():
    text = (
        "probe BAD\nalphabet C D\ninit C 0 : x\ninit D 0 : y\n"
        "0 C -> C 0 : 1\n0 D -> C 0 : 1\n"
    )
    with pytest.raises(ProbeValidationError) as err:
        parse_probe(text)
    assert "-x - y + 1" in str(err.value)


def test_probe_negative_weight_reports_lattice_point():
    text = (
        "probe NEG\nalphabet C D\ninit C 0 : 1\n"
        "0 C -> C 0 : x - 1/2\n0 C -> D 0 : 3/2 - x\n0 D -> C 0 : 1\n"
    )
    with pytest.raises(ProbeValidationError) as err:
        parse_probe(text)
    assert "(0.0, 0.0)" in str(err.value)


def test_probe_missing_group():
    text = "probe P\nalphabet C D\ninit C 0 : 1\n0 C -> C 0 : 1\n"
    with pytest.raises(ProbeFormatError, match="'D'"):
        parse_probe(text)


# One probe per rule that construction enforces, as (probe file, the same
# probe's fields, the error and message both raise).
ONE = ParamExpr.one()
CONSTRUCTION_FAULTS = [
    (
        "probe MISS\nalphabet C D\ninit C 0 : 1\n0 C -> C 0 : 1\n",
        dict(init=(("C", 0, ONE),), step={(0, "C"): (("C", 0, ONE),)}),
        ProbeFormatError,
        "no outcomes for state '0' on input 'D'",
    ),
    (
        "probe BADINIT\nalphabet C D\ninit C 0 : 1 - x\n0 C -> C 0 : 1\n0 D -> C 0 : 1\n",
        dict(
            init=(("C", 0, expr_parse("1 - x")),),
            step={(0, "C"): (("C", 0, ONE),), (0, "D"): (("C", 0, ONE),)},
        ),
        ProbeValidationError,
        "weights for init do not sum to 1; residual: x",
    ),
    (
        "probe BADSTEP\nalphabet C D\ninit C 0 : 1\n0 C -> C 0 : 1\n0 D -> C 0 : 1 - 1/2*x\n",
        dict(
            init=(("C", 0, ONE),),
            step={(0, "C"): (("C", 0, ONE),), (0, "D"): (("C", 0, expr_parse("1 - 1/2*x")),)},
        ),
        ProbeValidationError,
        "weights for state '0' input 'D' do not sum to 1; residual: 1/2*x",
    ),
]


@pytest.mark.parametrize("text, fields, error, message", CONSTRUCTION_FAULTS)
def test_construction_raises_the_parse_time_message(text, fields, error, message):
    with pytest.raises(error) as parsed:
        parse_probe(text)
    assert str(parsed.value) == message
    with pytest.raises(error) as built:
        Probe(name="P", alphabet=("C", "D"), state_names=("0",), **fields)
    assert str(built.value) == message


def test_construction_refuses_any_one_weight_raised(players):
    rng = random.Random(31)
    probes = [joss_ann(base) for base in players.values()]
    probes += [random_probe(rng, 4) for _ in range(20)]
    seventh = expr_parse("1/7")
    for probe in probes:
        for key, outcomes in [("init", probe.init), *probe.step.items()]:
            where = "init" if key == "init" else (
                f"state {probe.state_names[key[0]]!r} input {key[1]!r}"
            )
            for k, (action, state, weight) in enumerate(outcomes):
                raised = outcomes[:k] + ((action, state, weight + seventh),) + outcomes[k + 1 :]
                fields = {"init": raised} if key == "init" else {"step": {**probe.step, key: raised}}
                with pytest.raises(ProbeValidationError) as err:
                    dataclasses.replace(probe, **fields)
                assert str(err.value) == f"weights for {where} do not sum to 1; residual: -1/7"


def test_probe_merges_duplicate_outcomes():
    p = parse_probe(
        "probe M\nalphabet C D\ninit C 0 : 1\n"
        "0 C -> C 0 : 1/2\n0 C -> C 0 : 1/2\n0 D -> C 0 : 1\n"
    )
    assert outcomes_as_dict(p.step[(0, "C")]) == {("C", 0): ParamExpr.one()}


def test_construction_refuses_a_repeated_outcome():
    # the parsers merge repeats; a Probe built directly is refused, naming
    # the group, since each cell of the joint chain takes one probe weight
    half = expr_parse("1/2")
    step = {(0, "C"): (("C", 0, ONE),), (0, "D"): (("C", 0, ONE),)}
    with pytest.raises(ProbeFormatError) as err:
        Probe("R", ("C", "D"), ("0",), (("C", 0, half), ("C", 0, half)), step)
    assert str(err.value) == "init repeats an (action, next state) outcome"
    repeated = {**step, (0, "D"): (("C", 0, half), ("D", 0, ONE - half), ("C", 0, ONE - half))}
    with pytest.raises(ProbeFormatError) as err:
        Probe("R", ("C", "D"), ("0",), (("C", 0, ONE),), repeated)
    assert str(err.value) == "state '0' input 'D' repeats an (action, next state) outcome"


@pytest.mark.parametrize(
    "outcome, message",
    [
        (("X", 0, ONE), "outcome action 'X' of {} is not in the alphabet"),
        (("C", 5, ONE), "outcome next state 5 of {} is not a state of the probe"),
    ],
)
def test_construction_refuses_an_outcome_outside_the_probe(outcome, message):
    # such a probe used to be accepted, and validate_probe and compose then
    # raised a bare KeyError such as (5, 'C') or (0, 'X')
    step = {(0, "C"): (("C", 0, ONE),), (0, "D"): (("C", 0, ONE),)}
    with pytest.raises(ProbeFormatError) as err:
        Probe("O", ("C", "D"), ("0",), (outcome,), step)
    assert str(err.value) == message.format("init")
    with pytest.raises(ProbeFormatError) as err:
        Probe("O", ("C", "D"), ("0",), (("C", 0, ONE),), {**step, (0, "D"): (outcome,)})
    assert str(err.value) == message.format("state '0' input 'D'")


@pytest.mark.parametrize("key", [(3, "X"), (0, "E")])
def test_construction_refuses_a_group_outside_the_probe(key):
    # such a group used to be accepted and silently ignored; the parsers
    # refuse its line, so only direct construction could make one
    step = {(0, "C"): (("C", 0, ONE),), (0, "D"): (("C", 0, ONE),)}
    with pytest.raises(ProbeFormatError) as err:
        Probe("G", ("C", "D"), ("0",), (("C", 0, ONE),), {**step, key: (("C", 0, ONE),)})
    assert str(err.value) == f"outcomes for {key!r}, not a (state, input) pair"


# -- validate_probe -----------------------------------------------------------


def test_validate_joss_ann_tft():
    report = validate_probe(joss_ann(parse_player(TFT_TEXT)))
    assert report.ok
    assert report.min_weight == 0.0


def test_validate_flags_negative_affine_weight():
    probe = Probe(
        name="H",
        alphabet=("C", "D"),
        state_names=("0",),
        init=(("C", 0, ParamExpr.one()),),
        step={
            (0, "C"): (
                ("C", 0, expr_parse("2*x")),
                ("D", 0, expr_parse("1 - 2*x")),
            ),
            (0, "D"): (("C", 0, ParamExpr.one()),),
        },
    )
    report = validate_probe(probe)
    assert not report.ok
    assert report.min_weight == -1.0
    assert report.min_weight_point == (1.0, 0.0)
    assert report.vertex_violations  # affine weights checked exactly at vertices


@pytest.mark.parametrize("c", ["1/10000000000000", "1/1" + "0" * 400])
def test_validate_reports_a_vertex_only_violation_exactly(c):
    # x - c is -c at (0, 0) and (0, 1): within WEIGHT_TOL of 0 on the lattice,
    # and at 1/10^400 a float even reads 0 there, so only the exact vertex
    # values show the violation
    step = {
        (0, "C"): (("C", 0, expr_parse(f"x - {c}")), ("D", 0, expr_parse(f"1 + {c} - x"))),
        (0, "D"): (("C", 0, ParamExpr.one()),),
    }
    probe = Probe("V", ("C", "D"), ("0",), (("C", 0, ParamExpr.one()),), step)
    report = validate_probe(probe)
    assert report.negativity_violations == []
    zero, one = Fraction(0), Fraction(1)
    assert report.vertex_violations == [
        ((0, "C"), (zero, zero), -Fraction(c)),
        ((0, "C"), (zero, one), -Fraction(c)),
    ]
    text = (
        "probe V\nalphabet C D\ninit C 0 : 1\n"
        f"0 C -> C 0 : x - {c}\n0 C -> D 0 : 1 + {c} - x\n0 D -> C 0 : 1\n"
    )
    with pytest.raises(ProbeValidationError) as err:
        parse_probe(text)
    assert str(err.value) == (
        f"affine weight for state '0' input 'C' is {-Fraction(c)} at vertex (0.0, 0.0)"
    )


def test_validate_reports_the_lattice_in_weight_then_point_order():
    # two weights reach -1, at different vertices; the report keeps the
    # first in group order, and lists every violation weight by weight
    probe = Probe(
        name="V",
        alphabet=("C", "D"),
        state_names=("0",),
        init=(("C", 0, ParamExpr.one()),),
        step={
            (0, "C"): (("C", 0, expr_parse("1 - 2*y")), ("D", 0, expr_parse("2*y"))),
            (0, "D"): (("C", 0, expr_parse("2*x")), ("D", 0, expr_parse("1 - 2*x"))),
        },
    )
    report = validate_probe(probe)
    assert report.min_weight == -1.0
    assert report.min_weight_point == (0.0, 1.0)
    n = VALIDATION_LATTICE_N
    expected = []
    for key in ("init", (0, "C"), (0, "D")):
        outcomes = probe.init if key == "init" else probe.step[key]
        for _, _, weight in outcomes:
            for i in range(n + 1):
                for j in range(n + 1 - i):
                    value = scalar_evaluator(weight)(i / n, j / n)
                    if not -WEIGHT_TOL <= value <= 1 + WEIGHT_TOL:
                        expected.append((key, (i / n, j / n), value))
    assert len(expected) == 4 * 55
    got = report.negativity_violations
    assert [(key, point) for key, point, _ in got] == [(key, point) for key, point, _ in expected]
    assert all(abs(a[2] - b[2]) <= 1e-15 for a, b in zip(got, expected))
    assert all(type(value) is float for _, _, value in got)


def test_validate_constant_probe_min_weight_one():
    p = parse_probe(
        "probe K\nalphabet C D\ninit C 0 : 1\n0 C -> C 0 : 1\n0 D -> C 0 : 1\n"
    )
    report = validate_probe(p)
    assert report.ok
    assert report.min_weight == 1.0


# -- joss_ann -----------------------------------------------------------------


def test_joss_ann_tft_merges_base_move():
    ja = joss_ann(parse_player(TFT_TEXT))
    assert outcomes_as_dict(ja.step[(0, "C")]) == {
        ("C", 0): expr_parse("1 - y"),
        ("D", 0): expr_parse("y"),
    }
    assert outcomes_as_dict(ja.init) == {
        ("C", 0): expr_parse("1 - y"),
        ("D", 0): expr_parse("y"),
    }


def test_joss_ann_alld():
    alld = parse_player(
        "player ALLD\nalphabet C D\nstart 0 D\n0 C -> 0 D\n0 D -> 0 D\n"
    )
    ja = joss_ann(alld)
    assert outcomes_as_dict(ja.step[(0, "C")]) == {
        ("C", 0): expr_parse("x"),
        ("D", 0): expr_parse("1 - x"),
    }


def joss_ann_per_transition(base):
    """JA(base) built transition by transition: each one sums its own three
    weights per action and lists the actions in alphabet order."""
    x, y = ParamExpr.var_x(), ParamExpr.var_y()

    def outcomes(move, state):
        merged = {}
        for action, weight in (("C", x), ("D", y), (move, ParamExpr.one() - x - y)):
            merged[action] = merged.get(action, ParamExpr.zero()) + weight
        return tuple(
            (a, state, merged[a]) for a in base.alphabet if a in merged and not merged[a].is_zero()
        )

    return Probe(
        name=f"joss_ann({base.name})",
        alphabet=base.alphabet,
        state_names=base.state_names,
        init=outcomes(base.initial_action, base.initial_state),
        step={key: outcomes(out, nxt) for key, (nxt, out) in base.step.items()},
    )


def test_joss_ann_matches_per_transition_construction(players, payoff):
    # joss_ann's probes share one read-only weight table; a build with a
    # fresh weight object per outcome compiles its own, which must be equal
    rng = random.Random(97)
    bases = list(players.values()) + [random_player(rng, 5) for _ in range(40)]
    for base in bases:
        probe, fresh = joss_ann(base), joss_ann_per_transition(base)
        assert probe == fresh, base.name
        assert probe.weights is joss_ann(base).weights
        assert probe.weights is not fresh.weights
        assert probe.columns == fresh.columns
        assert probe.weights.exprs == fresh.weights.exprs
        for name in ("coeffs", "powers", "mixed"):
            shared = getattr(probe.weights, name)
            assert np.array_equal(shared, getattr(fresh.weights, name))
            assert not shared.flags.writeable
        chain, fresh_chain = compose(base, probe, payoff), compose(base, fresh, payoff)
        assert chain.states == fresh_chain.states
        assert np.array_equal(chain.index, fresh_chain.index)
        assert chain.successors == fresh_chain.successors
        assert chain.payoff == fresh_chain.payoff
        assert validate_probe(probe) == validate_probe(fresh)


def test_vertex_values_are_the_exact_values_at_the_vertices(players):
    rng = random.Random(53)
    probes = [joss_ann(base) for base in players.values()]
    probes += [random_probe(rng, 4) for _ in range(20)]
    weights = [w for probe in probes for w in probe.weights.exprs]
    weights += [expr_parse(text) for text in ("0", "-1/3", "2/7 - 3/7*x", "1/2*y - 5/9*x + 1/6")]
    for weight in weights:
        if weight.is_affine():
            exact = [weight.evaluate_exact(vx, vy) for vx, vy in _VERTICES]
            assert _vertex_values(weight) == exact, weight
            assert all(type(v) is Fraction for v in _vertex_values(weight))


def test_joss_ann_at_origin_reduces_to_base(players):
    rng = random.Random(4321)
    zero = Fraction(0)
    for base in list(players.values()) + [random_player(rng, 4) for _ in range(10)]:
        ja = joss_ann(base)
        for (state, action), (nxt, out) in base.step.items():
            dist = {
                (a, s): w.evaluate_exact(zero, zero) for a, s, w in ja.step[(state, action)]
            }
            assert dist.get((out, nxt)) == 1
            assert sum(dist.values()) == 1


def test_joss_ann_forced_cooperate_limit(players):
    one = Fraction(1)
    for base in [parse_player(TFT_TEXT)] + list(players.values()):
        ja = joss_ann(base)
        for outcomes in list(ja.step.values()) + [ja.init]:
            mass_on_c = sum(
                w.evaluate_exact(one, Fraction(0)) for a, s, w in outcomes if a == "C"
            )
            assert mass_on_c == 1


def test_joss_ann_requires_binary_alphabet():
    machine = parse_player(
        "player T\nalphabet A B\nstart 0 A\n0 A -> 0 A\n0 B -> 0 B\n"
    )
    with pytest.raises(ProbeValidationError):
        joss_ann(machine)


def test_probe_format_accepts_wider_alphabets():
    p = parse_probe(
        "probe TRI\nalphabet C D X\ninit C 0 : 1\n"
        "0 C -> C 0 : 1\n0 D -> C 0 : 1\n0 X -> C 0 : 1\n"
    )
    assert p.alphabet == ("C", "D", "X")
    assert validate_probe(p).ok


# -- payoff matrix ------------------------------------------------------------


def test_default_payoff():
    payoff = PayoffMatrix.default_prisoners_dilemma()
    assert payoff.value("C", "C") == 3
    assert payoff.value("D", "C") == 5
    payoff.validate_total(("C", "D"))
    assert payoff.bounds() == (Fraction(0), Fraction(5))


def test_payoff_overrides_and_scaling():
    payoff = PayoffMatrix.default_prisoners_dilemma()
    changed = payoff.with_overrides([("C", "C", Fraction(7))])
    assert changed.value("C", "C") == 7
    assert payoff.value("C", "C") == 3
    assert changed.scaled(Fraction(1, 2)).value("C", "C") == Fraction(7, 2)
