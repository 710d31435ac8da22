import dataclasses
import json
import math
import pickle
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probefp.chain as chain_module
import probefp.fingerprint as fingerprint_module
from oracles import (
    PointOracle,
    bareiss_det,
    chain_rows,
    closed_form_rows,
    cycle_average_payoff,
    grid_csv_by_float,
    integer_row,
    irreducible_random_pairs,
    random_oracle_pairs,
    random_player,
    strongly_connected_player,
)
from probefp.automata import (
    PayoffMatrix,
    PlayerMachine,
    Probe,
    joss_ann,
    parse_probe,
    validate_probe,
)
from probefp.chain import SUPPORT_CUTOFF, compose
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
    _lattice_values,
    boundary_discrepancy,
    _offset_toward_centroid,
    fingerprint_grid,
    pointwise_fingerprint,
    symbolic_fingerprint,
    value_at,
)
from probefp.metrics import distance_matrix
from probefp.polyexpr import ParamExpr, RationalFn, expr_parse, ratfn_equiv, ratfn_eval
from probefp.simulate import estimate

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


@pytest.mark.parametrize("constant", [10**7, 10**8, 10**20, -(10**20)])
def test_grid_accepts_large_payoffs_rounded_outside_their_bounds(players, ja_tft, constant):
    # a constant payoff's grid is the constant rounded a few ulps off it;
    # with the old absolute slack of 1e-9, 10**7 failed for TFT and 10**8
    # for 9 of these 10 grids
    flat = PayoffMatrix({move: Fraction(constant) for move in product("CD", repeat=2)})
    for player in players.values():
        for mode in (CESARO, INTERIOR_OFFSET):
            grid = fingerprint_grid(player, ja_tft, flat, 20, mode)
            n_states = compose(player, ja_tft, flat).n_states
            slack = n_states * fingerprint_module.PAYOFF_SLACK_PER_STATE * abs(constant)
            assert np.abs(np.array(list(grid.values.values())) - constant).max() <= slack


def test_grid_payoff_slack_stays_1e_9_for_small_payoffs(players, ja_tft, payoff, monkeypatch):
    values = fingerprint_module._values
    monkeypatch.setattr(fingerprint_module, "_values", lambda *args: values(*args) + 2e-9)
    with pytest.raises(NumericError, match="outside the payoff bounds"):
        fingerprint_grid(players["alld"], ja_tft, payoff, 4)


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
        # np.loadtxt strips a unit separator as whitespace; float() refuses it
        "0.5\x1f,0,2": "could not convert string to float: '0.5\\x1f'",
    }
    for row, fault in cases.items():
        text = "\n".join(lines[: body + 3] + [row] + lines[body + 4 :]) + "\n"
        with pytest.raises(InputError) as err:
            FingerprintGrid.from_csv(text)
        assert str(err.value) == f"malformed grid CSV row {row!r}: {fault}"


_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")

# field texts that float() and np.loadtxt may read differently: special
# spellings, short strings, and (half the time) a float spelled between
# stray characters
_CSV_PADDING = st.sampled_from(["", " ", "\x1f", "\x1f\t", "\u2000", "\xa0", "\x00", "_", "\ufeff"])
_PADDED_FLOATS = st.tuples(
    _CSV_PADDING,
    st.one_of(st.floats().map(repr), st.floats().map("{:e}".format),
              st.floats(allow_nan=False, allow_infinity=False).map(float.hex),
              st.floats().map(lambda v: repr(v).translate(_FULLWIDTH))),
    _CSV_PADDING,
).map("".join)
_CSV_FIELDS = st.one_of(
    st.sampled_from([
        "1_0", "0_0.5", "1e1_0", "1__0", "_1", "１", "٣", "0x1p-2", "0x1.8p1", "nan", "-nan",
        "inf", "-Infinity", "-0", "+0.0", "5e-324", "4.9e-324", "2.2250738585072014e-308",
        "1e-330", "1e400", "", " ", "+.5", "5.", "0.5e", "1d5", "nan(1)", "0.5 0", "'0.5'",
    ]),
    st.text(alphabet="0123456789._+-eEinfa \t\x1f\u2000１٣x", max_size=8),
    _PADDED_FLOATS,
    _PADDED_FLOATS,
)


@st.composite
def _grid_csv_texts(draw):
    """A grid CSV at a small n whose fields spell its node coordinates and
    finite values in one of several ASCII ways, which np.loadtxt reads,
    except for up to two fields drawn from `_CSV_FIELDS`; now and then a
    line has a stray comma."""
    n = draw(st.integers(1, 3))
    rows = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            value = draw(_GRID_VALUES)
            rows.append([
                draw(st.sampled_from([repr(c), f"{c:e}", f" {c!r}\t", f"{c:.17g}"]))
                for c in (i / n, j / n)
            ] + [draw(st.sampled_from([repr(value), f"{value:.17g}", f"{value:e}"]))])
    for r, k, field in draw(st.lists(
        st.tuples(st.integers(0, len(rows) - 1), st.integers(0, 2), _CSV_FIELDS), max_size=2
    )):
        rows[r][k] = field
    lines = ["# player: P", "x,y,value"]
    for fields in rows:
        line = ",".join(fields)
        if draw(st.integers(0, 29)) == 0:
            line += draw(st.sampled_from([",", ",1"]))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _csv_outcome(read):
    try:
        return read()
    except InputError as exc:
        return str(exc)


@given(_grid_csv_texts())
@settings(max_examples=500, deadline=None)
def test_grid_csv_reads_every_field_as_float_does(text):
    def by_float():
        meta, rows = grid_csv_by_float(text)
        n = round((math.isqrt(8 * len(rows) + 1) - 3) / 2)
        return meta, _lattice_values(n, rows)

    expected = _csv_outcome(by_float)
    got = _csv_outcome(lambda: FingerprintGrid.from_csv(text))
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, FingerprintGrid), got
        assert got.meta == expected[0]
        assert got.table.tobytes() == expected[1].tobytes()


def test_grid_csv_reads_underscores_and_non_ascii_digits(players, ja_tft, payoff):
    # float() reads these and np.loadtxt does not; node (0, 1/2) becomes 10
    lines = fingerprint_grid(players["tft"], ja_tft, payoff, 2).to_csv().splitlines()
    body = lines.index("x,y,value") + 1
    for row in ("0,0_0.5,1_0", "０,０.５,１０", "0,٠.٥,١٠"):
        text = "\n".join(lines[: body + 1] + [row] + lines[body + 2 :]) + "\n"
        assert FingerprintGrid.from_csv(text).values[(0, 1)] == 10.0


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


def test_grid_json_resolution_must_be_an_integer(players, ja_tft, payoff):
    doc = json.loads(fingerprint_grid(players["tft"], ja_tft, payoff, 6).to_json())

    def with_resolution(given):
        return json.dumps({**doc, "meta": {**doc["meta"], "resolution": given}})

    # int() would truncate each of these to 6, or read true as 1
    for given, shown in ((6.5, "6.5"), (6.9999, "6.9999"), (6.0, "6.0"), (True, "true"),
                         (False, "false")):
        with pytest.raises(InputError) as err:
            FingerprintGrid.from_json(with_resolution(given))
        assert str(err.value) == f"malformed grid JSON: resolution {shown} is not an integer"
    for given in (6, "06", " +6"):
        assert FingerprintGrid.from_json(with_resolution(given)).resolution == 6
    for given in ("6.0", "six", None):
        with pytest.raises(InputError, match="malformed grid JSON"):
            FingerprintGrid.from_json(with_resolution(given))


def test_grid_json_values_must_be_numbers(players, ja_tft, payoff):
    doc = json.loads(fingerprint_grid(players["tft"], ja_tft, payoff, 6).to_json())
    rows = doc["values"]

    def with_row(k, row, *more):
        values = [list(r) for r in rows]
        values[k] = row
        for j, other in more:
            values[j] = other
        return json.dumps({**doc, "values": values})

    # np.array would read true as 1.0, "1_0" as 10.0 and " 7 " as 7.0, and
    # [false, false, 1] as node (0, 0)
    x, y, value = rows[3]
    for row, entry in (
        ([x, y, True], "true"),
        (["1_0", y, value], '"1_0"'),
        ([x, y, " 7 "], '" 7 "'),
        ([False, False, 1], "false"),
        ([x, y, None], "null"),
        ([x, [y], value], f"[{json.dumps(y)}]"),
    ):
        with pytest.raises(InputError) as err:
            FingerprintGrid.from_json(with_row(3, row, (5, [x, y, "0"])))
        assert str(err.value) == (
            f"malformed grid JSON row {json.dumps(row)}: {entry} is not a number"
        )
    # integers are JSON numbers too
    grid = FingerprintGrid.from_json(with_row(0, [0, 0, 2]))
    assert grid.values[(0, 0)] == 2.0
    # values that are not a list of rows keep their messages
    with pytest.raises(InputError, match=r"values of shape \(3,\) are not"):
        FingerprintGrid.from_json(json.dumps({**doc, "values": [1, 2, 3]}))


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
    p = [[row.get(j, zero) for j in range(n)] for row in chain_rows(chain)[0]]
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


def test_affine_payoffs_give_the_affine_fingerprint(players, payoff):
    # F under a M + b is a F + b: the closed forms exactly, the grids to
    # within 1e-12 of the payoffs' scale |a| max |M| + |b|
    pairs = bundled_pairs(players) + random_oracle_pairs()
    bound = max(map(abs, payoff.entries.values()))
    forms = 0
    for a, b in [(Fraction(2, 3), Fraction(-5, 7)), (10**20, 3), (-1, 0), (0, 10**20)]:
        affine = PayoffMatrix({move: a * v + b for move, v in payoff.entries.items()})
        tol = 1e-12 * float(abs(a) * bound + abs(b))
        for player, probe in pairs:
            grid = fingerprint_grid(player, probe, payoff, 12).values
            affine_grid = fingerprint_grid(player, probe, affine, 12).values
            for node, value in grid.items():
                assert abs(affine_grid[node] - (float(a) * value + float(b))) <= tol
            try:
                fn = symbolic_fingerprint(player, probe, payoff).fn
            except ReducibleChainError:
                continue
            expected = RationalFn(fn.num.scale(a) + fn.den.scale(b), fn.den)
            assert ratfn_equiv(symbolic_fingerprint(player, probe, affine).fn, expected)
            forms += 1
    assert forms == 4 * (17 + 8)


_SWAP = {"C": "D", "D": "C"}


def _dual_player(player: PlayerMachine) -> PlayerMachine:
    """The player with C and D swapped in every move it reads and plays."""
    return PlayerMachine(
        name=player.name,
        alphabet=player.alphabet,
        state_names=player.state_names,
        initial_state=player.initial_state,
        initial_action=_SWAP[player.initial_action],
        step={(s, _SWAP[a]): (t, _SWAP[out]) for (s, a), (t, out) in player.step.items()},
    )


def _swap_xy(poly: ParamExpr) -> ParamExpr:
    return ParamExpr({(j, i): c for (i, j), c in poly.terms.items()})


def _dual_probe(probe: Probe) -> Probe:
    """The probe with C and D swapped in every move it reads and plays, and
    x and y swapped in every weight."""

    def dual(outcomes):
        return tuple((_SWAP[a], s, _swap_xy(w)) for a, s, w in outcomes)

    return Probe(
        name=probe.name,
        alphabet=probe.alphabet,
        state_names=probe.state_names,
        init=dual(probe.init),
        step={(s, _SWAP[a]): dual(outcomes) for (s, a), outcomes in probe.step.items()},
    )


def test_swapping_c_and_d_swaps_x_and_y(players, payoff):
    # relabel C <-> D in the player, the Joss-Ann base and the payoff's
    # indices: the joint chains are isomorphic with x and y swapped, so
    # F'(y, x) = F(x, y), on the grids to rounding and for closed forms exactly
    dual_payoff = PayoffMatrix({(_SWAP[a], _SWAP[b]): v for (a, b), v in payoff.entries.items()})
    n = 12
    forms = 0
    for base in players.values():
        probe, dual_probe = joss_ann(base), joss_ann(_dual_player(base))
        for player in players.values():
            dual = _dual_player(player)
            for mode in (CESARO, INTERIOR_OFFSET):
                table = fingerprint_grid(player, probe, payoff, n, mode).table
                dual_table = fingerprint_grid(dual, dual_probe, dual_payoff, n, mode).table
                gap = np.abs(dual_table.T - table)
                assert (gap <= 1e-12 * (np.abs(table) + 1)).all(), (player.name, base.name, mode)
            try:
                fn = symbolic_fingerprint(player, probe, payoff).fn
            except ReducibleChainError:
                with pytest.raises(ReducibleChainError):
                    symbolic_fingerprint(dual, dual_probe, dual_payoff)
                continue
            dual_fn = symbolic_fingerprint(dual, dual_probe, dual_payoff).fn
            assert ratfn_equiv(RationalFn(_swap_xy(dual_fn.num), _swap_xy(dual_fn.den)), fn)
            forms += 1
    assert forms == 17
    # random players and probes, closed forms only: the dual probe also
    # swaps x and y in its weights
    forms = refused = 0
    for player, probe in random_oracle_pairs() + irreducible_random_pairs(32):
        dual, dual_probe = _dual_player(player), _dual_probe(probe)
        try:
            fn = symbolic_fingerprint(player, probe, payoff).fn
        except ReducibleChainError:
            with pytest.raises(ReducibleChainError):
                symbolic_fingerprint(dual, dual_probe, dual_payoff)
            refused += 1
            continue
        dual_fn = symbolic_fingerprint(dual, dual_probe, dual_payoff).fn
        assert RationalFn(_swap_xy(dual_fn.num), _swap_xy(dual_fn.den)) == fn
        forms += 1
    assert (forms, refused) == (8 + 32, 32)


def _renamed_player(player: PlayerMachine, perm: list[int]) -> PlayerMachine:
    """The player with state s renamed perm[s], each keeping its name."""
    names = [""] * player.n_states
    for s, name in enumerate(player.state_names):
        names[perm[s]] = name
    return PlayerMachine(
        name=player.name,
        alphabet=player.alphabet,
        state_names=tuple(names),
        initial_state=perm[player.initial_state],
        initial_action=player.initial_action,
        step={(perm[s], a): (perm[t], out) for (s, a), (t, out) in player.step.items()},
    )


def _renamed_probe(probe: Probe, perm: list[int]) -> Probe:
    """The probe with state s renamed perm[s], each keeping its name, and
    each group keeping its outcome order."""
    names = [""] * probe.n_states
    for s, name in enumerate(probe.state_names):
        names[perm[s]] = name
    return Probe(
        name=probe.name,
        alphabet=probe.alphabet,
        state_names=tuple(names),
        init=tuple((a, perm[t], w) for a, t, w in probe.init),
        step={
            (perm[s], a): tuple((b, perm[t], w) for b, t, w in outcomes)
            for (s, a), outcomes in probe.step.items()
        },
    )


def _outputs(player, probe, payoff) -> list[str]:
    """The text of each output of one pair: its n = 12 grids in both
    boundary modes, its closed form or refusal, and an estimate."""
    texts = [fingerprint_grid(player, probe, payoff, 12, mode).to_csv()
             for mode in (CESARO, INTERIOR_OFFSET)]
    try:
        fn = symbolic_fingerprint(player, probe, payoff).fn
        texts.append(f"num: {fn.num.render()}\nden: {fn.den.render()}")
    except ReducibleChainError as exc:
        texts.append(str(exc))
    texts.append(repr(estimate(player, probe, payoff, 0.25, 0.35, 600, replicates=2, seed=7)))
    return texts


def test_renaming_states_leaves_every_output_byte_identical(players, payoff):
    # compose indexes joint states breadth-first from the initial support,
    # each row's outcomes in the probe's order, so renaming the player's or
    # the probe's states, with each group's outcome order kept, leaves the
    # joint chain and every output unchanged
    pairs = bundled_pairs(players) + random_oracle_pairs()
    rng = random.Random(14)
    corpus = [(str(k), pointwise_fingerprint(player, probe, payoff))
              for k, (player, probe) in enumerate(pairs)]
    distances = distance_matrix(corpus, 8).to_csv()
    for rename in ("player", "probe"):
        renamed_corpus = []
        for k, (player, probe) in enumerate(pairs):
            machine = player if rename == "player" else probe
            perm = rng.sample(range(machine.n_states), machine.n_states)
            if rename == "player":
                renamed = (_renamed_player(player, perm), probe)
            else:
                renamed = (player, _renamed_probe(probe, perm))
            assert _outputs(*renamed, payoff) == _outputs(player, probe, payoff), (k, rename, perm)
            renamed_corpus.append((str(k), pointwise_fingerprint(*renamed, payoff)))
        assert distance_matrix(renamed_corpus, 8).to_csv() == distances


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


# Probe whose groups halve x or split into thirds: against TFT, PAVLOV and
# ALLD the columns of I - P, and with them the rows of the integer system,
# have scales 1, 2, 3 and 6, and the diagonal cell 1 - (1 - x/2) = x/2 drops
# its constant term.
HALVES_AND_THIRDS_PROBE = """probe HALVES
alphabet C D
init C 0 : 1
0 C -> C 0 : 1 - 1/2*x
0 C -> D 1 : 1/2*x
0 D -> C 0 : 1/3
0 D -> C 1 : 2/3
1 C -> D 1 : 1
1 D -> C 0 : 1
"""


def test_integer_system_matches_scaled_polynomial_rows(players, payoff):
    # each row built from the probe's integer weights, and the payoff row's
    # scale, equal the row formed by polynomial arithmetic scaled by
    # `integer_row` and its scale, and
    # each closed form of at most 12 states equals the pivoting oracle's
    # (the oracle takes about 15 s on the 7 larger random chains, whose forms
    # still pass the exact check)
    probe = parse_probe(HALVES_AND_THIRDS_PROBE)
    rational = payoff.with_overrides([("C", "C", Fraction(7, 2)), ("D", "C", Fraction(16, 3))])
    names = ("tft", "pavlov", "alld")
    cases = [(players[name], probe, game) for name in names for game in (payoff, rational)]
    pairs = bundled_pairs(players) + irreducible_random_pairs(32)
    cases += [(player, probe, payoff) for player, probe in pairs]
    row_scales, checked = set(), 0
    for player, probe, game in cases:
        chain = compose(player, probe, game)
        rows, payoff_scale = fingerprint_module._integer_system(chain)
        expected = [integer_row(row) for row in closed_form_rows(chain)]
        assert rows == [row for row, _ in expected]
        scales = [scale for _, scale in expected]
        assert payoff_scale == scales[-1]
        if probe.name == "HALVES":
            row_scales.update(scales[:-2])
        try:
            fn = symbolic_fingerprint(player, probe, game).fn
        except ReducibleChainError:
            continue
        if chain.n_states <= 12:
            assert fn == _reference_closed_form(player, probe, game)
            checked += 1
    assert row_scales == {1, 2, 3, 6}
    assert checked == 6 + 17 + 25


def _rational_solve(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """The solution over the rationals of an n x (n + 1) augmented rational
    system by Gauss-Jordan elimination; None if it is singular."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        for r in range(n):
            if r != k and a[r][k]:
                factor = a[r][k] / a[k][k]
                a[r] = [v - factor * w for v, w in zip(a[r], a[k])]
    return [a[k][n] / a[k][k] for k in range(n)]


def _random_stochastic(rng: random.Random, n: int, edges: set) -> list[list[Fraction]]:
    """An n x n matrix with small positive rational weights on `edges`,
    each row summing to 1 exactly."""
    weights = [[rng.randint(1, 9) if (i, j) in edges else 0 for j in range(n)] for i in range(n)]
    return [[Fraction(w, sum(row)) for w in row] for row in weights]


def _modulo(v: Fraction, p: int) -> int:
    return v.numerator * pow(v.denominator, -1, p) % p


def test_modular_solve_matches_rational_solve():
    # random irreducible chains (a random cycle through every state plus
    # random edges): GTH over GF(p) gives the rational stationary vector,
    # solved from pi (I - P) = 0 with one equation replaced by sum(pi) = 1,
    # reduced modulo p
    p = fingerprint_module.EXACT_CHECKS[0][0]
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 8)
        cycle = rng.sample(range(n), n)
        edges = set(zip(cycle, cycle[1:] + cycle[:1]))
        edges |= {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
        matrix = _random_stochastic(rng, n, edges)
        system = [[(i == j) - matrix[i][j] for i in range(n)] + [0] for j in range(n - 1)]
        expected = _rational_solve([*system, [1] * (n + 1)])
        assert expected is not None and all(v > 0 for v in expected)
        rows = [[_modulo(v, p) for v in row] for row in matrix]
        assert fingerprint_module._stationary_modulo(rows, p) == [_modulo(v, p) for v in expected]
    # two absorbing states, wherever they are: no unique stationary vector
    for _ in range(50):
        n = rng.randint(2, 6)
        absorbing = set(rng.sample(range(n), 2))
        edges = {(s, s) for s in absorbing}
        edges |= {(s, t) for s in range(n) if s not in absorbing for t in rng.sample(range(n), 2)}
        edges |= {(s, min(absorbing)) for s in range(n) if s not in absorbing}
        rows = [[_modulo(v, p) for v in row] for row in _random_stochastic(rng, n, edges)]
        assert fingerprint_module._stationary_modulo(rows, p) is None


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
    rows = [integer_row(row)[0] for row in system]
    last_rows = [integer_row(row)[0] for row in tails]
    try:
        results = _bareiss_last_rows(rows, last_rows)
    except ReducibleChainError:
        # only a vanishing leading minor of the system stops the elimination
        assert any(
            bareiss_det([row[:k] for row in system[:k]]).is_zero()
            for k in range(1, len(system) + 1)
        )
        return
    assert list(map(ParamExpr, results)) == [bareiss_det(system + [tail]) for tail in tails]


def test_packed_elimination_at_the_hadamard_bound():
    # Sylvester's 4 x 4 Hadamard matrix times a monomial: the determinant
    # 16 * x^8*y^4 attains the coefficient bound sqrt(4**4) of the packing,
    # so a packing one bit narrower reads it as -16 plus a carry
    sign = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    monomial = expr_parse("x^2*y")
    rows = [[monomial.scale(s) for s in row] for row in sign]
    negated = [-e for e in rows[3]]
    system = [integer_row(row)[0] for row in rows[:3]]
    last_rows = [integer_row(row)[0] for row in (rows[3], negated)]
    det, negated_det = map(ParamExpr, _bareiss_last_rows(system, last_rows))
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
        lambda support: (np.zeros((1, 3), dtype=int), np.ones((1, 3), dtype=bool)),
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
    pairs = bundled_pairs(players) + random_oracle_pairs() + irreducible_random_pairs(32)
    for player, probe in pairs:
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
    assert checked == 17 + 8 + 32  # the irreducible bundled and random pairs


def test_exact_check_refuses_another_chains_form(players, payoff):
    # each irreducible bundled chain against every other one's closed form,
    # where the two forms differ as functions
    forms = []
    for player, probe in bundled_pairs(players):
        try:
            fn = symbolic_fingerprint(player, probe, payoff).fn
        except ReducibleChainError:
            continue
        forms.append((compose(player, probe, payoff), fn))
    refused = 0
    for (chain, fn), (_, other) in permutations(forms, 2):
        if ratfn_equiv(fn, other):
            continue
        with pytest.raises(ClosedFormCheckError) as err:
            fingerprint_module._check_exactly(chain, other)
        assert (err.value.prime, *err.value.point) in fingerprint_module.EXACT_CHECKS
        refused += 1
    assert len(forms) == 17 and refused == 258


def test_exact_check_refuses_rows_that_do_not_sum_to_one(players, ja_tft, payoff):
    # Pavlov vs JA(TFT) with one transition cell read from another weight,
    # so that its row no longer sums to 1, and a constant form equal to the
    # payoff of that chain's GTH vector modulo p: the init row and the
    # payoff agree, so only the stationary equations pi P = pi refuse it
    chain = compose(players["pavlov"], ja_tft, payoff)
    n = chain.n_states
    p, a, b = fingerprint_module.EXACT_CHECKS[0]

    def residue(e: ParamExpr) -> int:
        return sum(_modulo(c, p) * pow(a, i, p) * pow(b, j, p) for (i, j), c in e.terms.items())

    values = [residue(e) for e in chain.weights.exprs]
    index = chain.index.copy()
    cell = int(np.flatnonzero(index[: n * n])[0])
    index[cell] = next(k for k in range(1, len(values)) if values[k] != values[index[cell]])
    broken = dataclasses.replace(chain, index=index)
    cells = [values[k] for k in index.tolist()]
    assert sum(cells[n * n :]) % p == 1
    assert sum(cells[cell - cell % n : cell - cell % n + n]) % p != 1
    pi = fingerprint_module._stationary_modulo([cells[s * n : (s + 1) * n] for s in range(n)], p)
    value = sum(_modulo(c, p) * v for c, v in zip(chain.payoff, pi)) % p
    fn = RationalFn(ParamExpr.const(value))
    assert fingerprint_module._agrees_modulo(broken, fn, p, a, b) is False


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
