"""Fingerprints: numeric grids over the parameter triangle and exact
rational-function closed forms.

The fingerprint of a player against a probe is the limiting expected
per-round payoff of their joint chain as a function of the probe parameters
(x, y).  Grids sample it on the lattice {(i/n, j/n) : i + j <= n}; the
closed form solves the stationary system symbolically over the polynomial
ring using fraction-free (Bareiss) elimination, yielding a rational function
of (x, y).

The system's rows are read through the chain's index from the probe's
integer weights, each row over the lcm of its cells' denominators
(`_integer_system`), and each distinct cell is packed once into one integer,
x -> 2**w and y -> 2**(w * (Dx + 1)), a ring homomorphism, so the Bareiss
steps run on Python integers.  Every value that is tested for zero or
unpacked is a minor with at most one row besides the system's, and
Hadamard's inequality on the unit torus bounds its coefficients; w and Dx
come from that bound and from degree sums, so these values pack without
overlap.  TERM_CAP caps the number of terms of any intermediate polynomial,
counted after unpacking.

Each closed form is then checked exactly: the chain's stationary vector pi
is solved by GTH state censoring over GF(p), p a prime near 2**61, at one
point (a, b), and payoff . pi times the form's denominator must equal its
numerator there (`_check_exactly`).  A wrong form passes with probability at
most its degree over p (Schwartz-Zippel).  A form holds off the zero sets of
the chain's generically nonzero weights and of its own denominator; for a
Joss-Ann probe that is the whole open triangle minus the denominator's zeros.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul
from types import MappingProxyType

import numpy as np

from .automata import PayoffMatrix, PlayerMachine, Probe, _lattice
from .chain import (
    ParamChain,
    check_in_simplex,
    classify_supports,
    compose,
    evaluate,  # noqa: F401  (still bound here: perfbench's tracer tests wrap it by this name)
    evaluate_points,
    limit_distributions,
)
from .errors import (
    ClosedFormCheckError,
    ExpressionSwellError,
    InputError,
    NumericError,
    ReducibleChainError,
)
from .polyexpr import (
    IntTerms,
    RationalFn,
    _exact_quotient,
    _integer_ratfn,
    _pack,
    _unpack,
    ratfn_eval,
    ratfn_values,
)

CESARO = "cesaro"
INTERIOR_OFFSET = "interior_offset"
BOUNDARY_MODES = (CESARO, INTERIOR_OFFSET)

# Distance by which interior_offset mode pulls boundary points toward the
# triangle centroid (1/3, 1/3).
OFFSET_EPS = 1e-6
# Points within this of an edge count as on it, as SIMPLEX_TOL admits points that near outside.
BOUNDARY_TOL = 1e-12

# Abort symbolic elimination once any intermediate polynomial grows past this
# many terms (nonzero coefficients of the unpacked polynomial).
TERM_CAP = 200_000

# The exact check of a closed form tries each (prime, a, b) in turn, a and
# b drawn once from a constant seed so that outputs are reproducible, until
# one decides: a point where a scale, an out-flow of the stationary solve or
# the form's denominator vanishes modulo the prime cannot.
_rng = random.Random(0x5EED)
EXACT_CHECKS = tuple(
    (p, _rng.randrange(1, p), _rng.randrange(1, p)) for p in (2**61 - 1, 2**61 - 31, 2**61 - 45)
)

# Largest number of transition-matrix cells (points x states^2) solved in
# one batch; this caps the memory of a batch at a few times 16 MB.
BATCH_CELLS = 2**21

# A grid value is a convex combination of the payoffs, rounded: normalising
# pi and taking pi . payoff each err by at most n 2**-53 max |payoff| to first
# order, n the state count.  The slack is twice their sum, or 1e-9 if larger,
# as it is for |payoff| <= 1000 and n <= 2251.
PAYOFF_SLACK_PER_STATE = 2**-51

# A grid file's coordinate x is node i when |x n - i| <= NODE_TOL: files written
# here give < 1e-12, and 1e-9 admits x typed to 12 digits for n up to 1000.
NODE_TOL = 1e-9


def _offset_toward_centroid(x, y):
    """Points on the triangle's boundary moved OFFSET_EPS toward the centroid
    (1/3, 1/3); other points unchanged.  Takes floats or arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    on_boundary = (x <= BOUNDARY_TOL) | (y <= BOUNDARY_TOL) | (x + y >= 1 - BOUNDARY_TOL)
    dx = 1.0 / 3.0 - x
    dy = 1.0 / 3.0 - y
    norm = np.where(on_boundary, np.hypot(dx, dy), 1.0)
    return (
        np.where(on_boundary, x + OFFSET_EPS * dx / norm, x)[()],
        np.where(on_boundary, y + OFFSET_EPS * dy / norm, y)[()],
    )


def _values(chain: ParamChain, xs, ys, boundary_mode: str = CESARO) -> np.ndarray:
    """Fingerprint values of a composed chain at the points (xs[p], ys[p]),
    evaluated and solved together, BATCH_CELLS at a time."""
    if boundary_mode not in BOUNDARY_MODES:
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if boundary_mode == INTERIOR_OFFSET:
        # checked as given: the offset turns an infinite coordinate into NaN
        check_in_simplex(xs, ys)
        xs, ys = _offset_toward_centroid(xs, ys)
    payoff = chain.payoff_vector()
    values = np.empty(len(xs))
    step = max(1, BATCH_CELLS // chain.n_states**2)
    for start in range(0, len(xs), step):
        batch = slice(start, start + step)
        matrix, init = evaluate_points(chain, xs[batch], ys[batch])
        pi = limit_distributions(matrix, init, np.column_stack((xs[batch], ys[batch])))
        values[batch] = pi @ payoff
    return values


def value_at(chain: ParamChain, x: float, y: float, boundary_mode: str = CESARO) -> float:
    """Fingerprint value of a composed chain at one parameter point."""
    return float(_values(chain, [x], [y], boundary_mode)[0])


@dataclass(frozen=True)
class PointwiseFingerprint:
    """The fingerprint of one composed chain, solved where it is asked for:
    at one point by calling it, or at many at once by `values_at`."""

    chain: ParamChain
    boundary_mode: str = CESARO

    def __call__(self, x: float, y: float) -> float:
        return value_at(self.chain, x, y, self.boundary_mode)

    def values_at(self, xs, ys) -> np.ndarray:
        return _values(self.chain, xs, ys, self.boundary_mode)


def pointwise_fingerprint(
    player: PlayerMachine,
    probe: Probe,
    payoff: PayoffMatrix,
    boundary_mode: str = CESARO,
) -> PointwiseFingerprint:
    """The fingerprint over one composed chain, for metrics use."""
    return PointwiseFingerprint(compose(player, probe, payoff), boundary_mode)


@dataclass(eq=False)
class FingerprintGrid:
    """Fingerprint values over the triangular lattice i + j <= resolution.

    `table` is an (n + 1) x (n + 1) float array holding the value at node
    (i/n, j/n) in cell [i, j], n the resolution; the cells off the lattice
    (i + j > n) are 0.  `values` is the same data as a read-only dict keyed
    by node (i, j) in lexicographic order, derived from the table on first
    use."""

    resolution: int
    boundary_mode: str
    table: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def values(self) -> Mapping[tuple[int, int], float]:
        return MappingProxyType(self._values)

    @cached_property
    def _values(self) -> dict[tuple[int, int], float]:
        # a plain dict, so that a grid still pickles once it is cached
        i, j = _lattice(self.resolution).T
        return dict(zip(zip(i.tolist(), j.tolist()), self.table[i, j].tolist()))

    def to_csv(self, extra_meta: dict | None = None) -> str:
        lines = []
        meta = {**self.meta, **(extra_meta or {})}
        for key in sorted(meta):
            lines.append(f"# {key}: {meta[key]}")
        lines.append("x,y,value")
        n = self.resolution
        for (i, j), value in self.values.items():
            lines.append(f"{i / n:.17g},{j / n:.17g},{value:.17g}")
        return "\n".join(lines) + "\n"

    def to_json(self, extra_meta: dict | None = None) -> str:
        n = self.resolution
        doc = {
            "meta": {
                **self.meta,
                **(extra_meta or {}),
                "resolution": n,
                "boundary_mode": self.boundary_mode,
            },
            "values": [[i / n, j / n, value] for (i, j), value in self.values.items()],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FingerprintGrid":
        try:
            doc = json.loads(text)
            meta = dict(doc["meta"])
            given = meta.pop("resolution")
            # int()'s rule for text, which refuses 6.0; int() would truncate 6.5
            if isinstance(given, (float, bool)):
                raise InputError(
                    f"malformed grid JSON: resolution {json.dumps(given)} is not an integer"
                )
            n = int(given)
            mode = meta.pop("boundary_mode", CESARO)
            rows = _json_rows(doc["values"])
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise InputError(f"malformed grid JSON: {exc!r}") from exc
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise InputError(
                f"malformed grid JSON: values of shape {rows.shape} are not (x, y, value) rows"
            )
        return cls(n, _checked_mode(mode), _lattice_values(n, rows), meta)

    @classmethod
    def from_csv(cls, text: str) -> "FingerprintGrid":
        meta = {}
        lines = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line == "x,y,value":
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            else:
                lines.append(line)
        rows = _csv_rows(lines, text)
        # lattice size (n+1)(n+2)/2 determines the resolution, which a
        # resolution line must then agree with
        n = round((math.isqrt(8 * len(rows) + 1) - 3) / 2)
        if "resolution" in meta:
            given = meta.pop("resolution")
            try:
                resolution = int(given)
            except ValueError as exc:
                raise InputError(f"malformed grid CSV resolution line: {exc}") from exc
            if resolution != n:
                raise InputError(
                    f"grid CSV resolution line says {given!r}, but its {len(rows)} rows "
                    f"give resolution {n}"
                )
        mode = _checked_mode(meta.pop("boundary_mode", CESARO))
        return cls(n, mode, _lattice_values(n, rows), meta)


# float() strips only ASCII whitespace from an ASCII field, and np.loadtxt
# strips these separators too ("1.5\x1f" is one float, not the other)
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _csv_rows(lines: list[str], text: str) -> np.ndarray:
    """The (count, 3) array of a grid CSV's data lines, each field as
    float() reads it; InputError names the first line that does not
    convert.  One np.loadtxt call converts them; where it refuses (a field
    of `1_0` or of non-ASCII digits, which float() reads, or a faulty one),
    the lines are converted one by one instead."""
    if lines and not any(c in text for c in _LOADTXT_ONLY_SPACE):
        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if rows.shape[1] == 3:
                return rows
    rows = []
    for line in lines:
        try:
            sx, sy, sv = line.split(",")
            rows.append((float(sx), float(sy), float(sv)))
        except ValueError as exc:
            raise InputError(f"malformed grid CSV row {line!r}: {exc}") from exc
    return np.array(rows).reshape(-1, 3)


def _json_rows(values) -> np.ndarray:
    """A JSON grid's `values` as an array; InputError names the first row
    with an entry that is not a JSON number, which np.array would read
    (true as 1.0, "1_0" as 10.0)."""
    if isinstance(values, list) and set(map(type, values)) == {list}:
        if not set(map(type, itertools.chain.from_iterable(values))) <= {int, float}:
            row = next(row for row in values if not set(map(type, row)) <= {int, float})
            entry = next(v for v in row if type(v) not in (int, float))
            raise InputError(
                f"malformed grid JSON row {json.dumps(row)}: {json.dumps(entry)} is not a number"
            )
    return np.array(values, dtype=float)


def _checked_mode(mode) -> str:
    """A grid file's boundary mode; InputError unless it is one of
    BOUNDARY_MODES."""
    if mode not in BOUNDARY_MODES:
        raise InputError(
            f"unknown grid boundary mode {mode!r}; expected one of {', '.join(BOUNDARY_MODES)}"
        )
    return mode


def _lattice_values(n: int, rows: np.ndarray) -> np.ndarray:
    """The node table of (x, y, value) rows (an array of shape (count, 3)):
    the value of each row at [x n, y n], 0 off the lattice; InputError unless
    n >= 1, the values are finite and the coordinates are within `NODE_TOL`
    of the nodes of the n-lattice, each node once."""
    if n < 1:
        raise InputError(f"grid resolution {n} ({len(rows)} rows) is below 1")
    count = (n + 1) * (n + 2) // 2
    if len(rows) != count:
        raise InputError(
            f"{len(rows)} grid rows do not form the triangular lattice of resolution {n} "
            f"({count} nodes)"
        )
    scaled = rows[:, :2] * n
    nodes = np.rint(scaled)
    with np.errstate(invalid="ignore"):  # a NaN or inf coordinate is off the lattice
        off = ~(np.abs(scaled - nodes) <= NODE_TOL)
    faulty = np.flatnonzero(off.any(axis=1) | ~np.isfinite(rows[:, 2]))
    if faulty.size:
        r = faulty[0]
        row, axis = tuple(rows[r].tolist()), int(np.argmax(off[r]))
        fault = (f"{'xy'[axis]} = {row[axis]!r} is not a node i/{n} to within {NODE_TOL}"
                 if off[r].any() else f"value {row[2]!r} is not finite")
        raise InputError(f"grid row {r + 1} {row}: {fault}")
    i, j = nodes.T
    inside = (i >= 0) & (j >= 0) & (i + j <= n)
    cells = (i * (n + 1) + j)[inside].astype(int)
    # a repeated node is counted twice (np.unique on ints imports numpy.ma, about 1 MB)
    if not inside.all() or np.bincount(cells).max() > 1:
        raise InputError(f"grid rows are not the nodes (i/{n}, j/{n}) with i + j <= {n}")
    table = np.zeros((n + 1) ** 2)
    table[cells] = rows[:, 2]
    return table.reshape(n + 1, n + 1)


def fingerprint_grid(
    player: PlayerMachine,
    probe: Probe,
    payoff: PayoffMatrix,
    n: int,
    boundary_mode: str = CESARO,
) -> FingerprintGrid:
    """Sample the fingerprint on the full triangular lattice, boundary included."""
    if n < 1:
        raise ValueError("grid resolution must be >= 1")
    chain = compose(player, probe, payoff)
    nodes = _lattice(n)
    values = _values(chain, nodes[:, 0] / n, nodes[:, 1] / n, boundary_mode)
    low, high = payoff.bounds()
    slack = max(1e-9, chain.n_states * PAYOFF_SLACK_PER_STATE * float(max(abs(low), abs(high))))
    outside = ~((float(low) - slack <= values) & (values <= float(high) + slack))
    if outside.any():
        p = int(np.argmax(outside))
        i, j = nodes[p].tolist()
        raise NumericError(
            f"grid value {float(values[p])!r} at node ({i}, {j}), point ({i / n!r}, {j / n!r}), "
            f"is outside the payoff bounds [{low}, {high}]"
        )
    table = np.zeros((n + 1, n + 1))
    table[nodes[:, 0], nodes[:, 1]] = values
    return FingerprintGrid(
        resolution=n,
        boundary_mode=boundary_mode,
        table=table,
        meta={
            "player": player.name,
            "probe": probe.name,
            "payoff": payoff.render(),
        },
    )


# ---------------------------------------------------------------------------
# Closed-form fingerprints
# ---------------------------------------------------------------------------


@dataclass
class SymbolicFingerprint:
    """Exact rational-function fingerprint.

    The form holds on the open triangle off the zero sets of the chain's
    generically nonzero weights and of its denominator `fn.den`; for a
    Joss-Ann probe that is the whole open triangle minus the zeros of
    `fn.den`.  `fn` has integer coefficients with no common integer factor
    and den's leading coefficient positive; polynomial common factors of
    `fn.num` and `fn.den` are not cancelled.

    `agreement_max_error` is 0.0 once the form has passed its exact check
    against the chain modulo a prime (`_check_exactly`), and None when it
    was built with validate=False."""

    fn: RationalFn
    meta: dict = field(default_factory=dict)
    agreement_max_error: float | None = None

    def __call__(self, x: float, y: float) -> float:
        return ratfn_eval(self.fn, x, y)

    def values_at(self, xs, ys) -> np.ndarray:
        return ratfn_values(self.fn, xs, ys)


def _bareiss_last_rows(
    system: list[list[IntTerms]], last_rows: list[list[IntTerms]]
) -> list[IntTerms]:
    """Determinants of `system` completed by each of `last_rows`, from one
    fraction-free (Bareiss) elimination that pivots on the system rows and
    carries every last row along.

    The k-th pivot is the leading minor det(I - P_SS) over the states
    S = {0..k}.  S is a proper subset, so for an irreducible chain I - P_SS
    is a nonsingular M-matrix and the minor is a nonzero polynomial: no
    pivot search or row exchange is needed, and every division by the
    previous pivot is exact.  A zero pivot means the system is singular.

    Each row is a polynomial row times a scale (`_integer_system`), which
    multiplies each determinant by its rows' scales and keeps the support of
    every intermediate entry; the determinants are returned as integer
    terms, so the two share the system rows' factor.

    Each distinct cell object is measured and packed once, x -> 2**w and
    y -> 2**(w * x_span) (`polyexpr._pack`), a ring homomorphism, so every
    step's exact polynomial quotient is the integer quotient.  Every pivot,
    intermediate entry and result is a minor with at most one last row, and
    packs without overlap.  Let S_r = sum over row r's cells of (sum of
    |coefficients|)**2, at least 1.  On the unit torus |x| = |y| = 1 no cell
    exceeds its sum of |coefficients|, so by Hadamard's inequality such a
    minor, and so each of its coefficients, is at most sqrt(prod S_system *
    max S_last) < 2**(w - 1); its x-degree is at most the sum of its rows'
    x-degrees and at most that of its columns', below x_span.  So a pivot is
    zero iff its packed value is, and the results unpack exactly.  Zero
    entries of a row with a zero pivot-column entry stay zero, unvisited.
    TERM_CAP counts the terms of every intermediate entry, as before
    packing; an entry is unpacked to count them only past TERM_CAP digits.
    """
    n_system = len(system)
    rows = [*system, *last_rows]
    cells = {id(terms): terms for row in rows for terms in row}
    size = {key: sum(map(abs, terms.values())) ** 2 for key, terms in cells.items()}
    degree = {key: max(terms, default=(0, 0))[0] for key, terms in cells.items()}
    keys = [list(map(id, row)) for row in rows]
    sizes = [max(sum(map(size.__getitem__, row)), 1) for row in keys]
    degrees = [max(map(degree.__getitem__, row)) for row in keys]
    column_degrees = [max(map(degree.__getitem__, column)) for column in zip(*keys)]
    bound = math.prod(sizes[:n_system]) * max(sizes[n_system:])
    width = math.isqrt(bound).bit_length() + 1
    x_span = min(sum(degrees[:n_system]) + max(degrees[n_system:]), sum(column_degrees)) + 1
    packed = {key: _pack(terms, width, x_span) for key, terms in cells.items()}
    a = [list(map(packed.__getitem__, row)) for row in keys]
    previous = 1
    for k, pivot_row in enumerate(a[:n_system]):
        pivot = pivot_row[k]
        if not pivot:
            raise ReducibleChainError(
                "stationary system is singular over the polynomial ring; "
                "use grid mode instead"
            )
        for row in a[k + 1 :]:
            factor = row[k]
            for j in range(k + 1, len(row)):
                if not (factor or row[j]):
                    continue
                entry = _exact_quotient(pivot * row[j] - factor * pivot_row[j], previous)
                if entry.bit_length() // width >= TERM_CAP:
                    terms = len(_unpack(entry, width, x_span))
                    if terms > TERM_CAP:
                        raise ExpressionSwellError(terms, TERM_CAP)
                row[j] = entry
        previous = pivot
    return [_unpack(row[-1], width, x_span) for row in a[n_system:]]


def _integer_system(chain: ParamChain) -> tuple[list[list[IntTerms]], int]:
    """The n - 1 stationary rows (row j is column j of I - P), the
    normalisation row and the payoff row, each times the lcm of its
    coefficient denominators, and the payoff row's.  Row j shares, by reference,
    the forms of -w and 1 - w of the weights that `chain.index[j::n]` names,
    copied once per row whose scale exceeds the weight's own."""
    n = chain.n_states
    _, terms, weight_scale = zip(*(e._integer_terms() for e in chain.weights.exprs))
    negated = [{key: -c for key, c in t.items()} for t in terms]
    # after each -w, each 1 - w over w's scale s: s - w, less a zero constant
    forms = negated + [
        {key: c for key, c in {**cell, (0, 0): s + cell.get((0, 0), 0)}.items() if c}
        for cell, s in zip(negated, weight_scale)
    ]
    form_scale = weight_scale * 2
    index = chain.index.tolist()
    rows = []
    for j in range(n - 1):
        column = index[j : n * n : n]
        column[j] += len(negated)
        scale = math.lcm(*(form_scale[f] for f in set(column)))
        shared = {}
        for f in set(column):
            m = scale // form_scale[f]
            shared[f] = forms[f] if m == 1 else {key: c * m for key, c in forms[f].items()}
        rows.append([shared[f] for f in column])
    payoff_scale = math.lcm(*(c.denominator for c in chain.payoff))
    payoff_row = [
        {(0, 0): c.numerator * payoff_scale // c.denominator} if c else {} for c in chain.payoff
    ]
    return [*rows, [{(0, 0): 1}] * n, payoff_row], payoff_scale


def symbolic_fingerprint(
    player: PlayerMachine,
    probe: Probe,
    payoff: PayoffMatrix,
    validate: bool = True,
) -> SymbolicFingerprint:
    """Solve the stationary system symbolically and return the fingerprint as
    a rational function of (x, y).

    Requires the chain to be irreducible at generic interior points, that
    is on its structural support (every weight that is not the zero
    polynomial is nonzero on a dense open subset of the triangle); reducible
    chains raise ReducibleChainError (use grid mode).  With `validate`, the
    form is checked exactly (`_check_exactly`).
    """
    chain = compose(player, probe, payoff)
    n = chain.n_states
    support = chain.index[: n * n].reshape(1, n, n) > 0
    head, closed = classify_supports(support)
    if head.any() or not closed.all():
        members: dict[int, list[int]] = {}  # by head, so in order of smallest state
        for state, h in enumerate(head[0].tolist()):
            members.setdefault(h, []).append(state)
        classes = tuple((tuple(states), bool(closed[0, h])) for h, states in members.items())
        described = "; ".join(
            f"{'closed' if shut else 'transient'} {{{', '.join(map(str, states))}}}"
            for states, shut in classes
        )
        raise ReducibleChainError(
            "chain is reducible at the generic interior point; "
            f"classes: {described}; use grid mode instead",
            classes=classes,
        )

    # Stationary equations pi (I - P) = 0, transposed to columns; the last
    # equation is replaced by the normalization sum(pi) = 1.  By Cramer's
    # rule and cofactor expansion along that last row, the payoff-weighted
    # sum of the solution collapses to a ratio of two determinants: the
    # system's, and the system's with the normalization row replaced by the
    # payoff vector.  Common factors of the two are not cancelled: a probe
    # whose weights have a squared factor can give a closed form such as
    # 9(x - 2y)^4 / 4(x - 2y)^4, which the exact check accepts, since it
    # compares num with den times the chain's value (ROADMAP item 3, lowest
    # terms).  Both determinants carry the system rows' scales, which cancel;
    # the payoff row's scale divides the numerator, so it multiplies den.
    rows, payoff_scale = _integer_system(chain)
    den, num = _bareiss_last_rows(rows[:-2], rows[-2:])
    result = _integer_ratfn(num, {key: c * payoff_scale for key, c in den.items()})

    fp = SymbolicFingerprint(
        fn=result,
        meta={
            "player": player.name,
            "probe": probe.name,
            "payoff": payoff.render(),
        },
    )
    if validate:
        _check_exactly(chain, result)
        fp.agreement_max_error = 0.0
    return fp


def _check_exactly(chain: ParamChain, fn: RationalFn) -> None:
    """Check that `fn` is the chain's stationary payoff, exactly, at the
    first (p, a, b) of EXACT_CHECKS that can decide it; raise
    ClosedFormCheckError if it is not, or if none can decide."""
    for p, a, b in EXACT_CHECKS:
        verdict = _agrees_modulo(chain, fn, p, a, b)
        if verdict is False:
            raise ClosedFormCheckError(
                f"closed form disagrees with the chain modulo the prime {p} "
                f"at (x, y) = ({a}, {b})",
                p,
                (a, b),
            )
        if verdict:
            return
    raise ClosedFormCheckError(
        "no (prime, point) of the exact check could decide the closed form: at each, "
        "a scale, the stationary system or the form's denominator vanishes modulo the prime"
    )


def _agrees_modulo(chain: ParamChain, fn: RationalFn, p: int, a: int, b: int) -> bool | None:
    """Whether fn = num / den agrees with the chain at (a, b) modulo the
    prime p, or None when that point cannot decide: the init row sums to 1
    and pi, solved from the chain by GTH over GF(p) (`_stationary_modulo`),
    meets each equation of pi P = pi and payoff . pi * den = num."""
    n = chain.n_states
    if any(not c.denominator % p for c in chain.payoff):
        return None
    payoff = [c.numerator * pow(c.denominator, -1, p) for c in chain.payoff]
    exprs = (*chain.weights.exprs, fn.num, fn.den)
    x_powers, y_powers = [1], [1]
    for _ in range(max(e._integer_terms()[0] for e in exprs)):
        x_powers.append(x_powers[-1] * a % p)
        y_powers.append(y_powers[-1] * b % p)
    *residues, num, den = (e._residue(x_powers, y_powers, p) for e in exprs)
    if None in residues or num is None or not den:
        return None
    cells = [residues[k] for k in chain.index.tolist()]
    pi = _stationary_modulo([cells[s * n : (s + 1) * n] for s in range(n)], p)
    if pi is None:
        return None
    mass = sum(cells[n * n :]) % p
    stationary = all(sum(map(mul, pi, cells[j : n * n : n])) % p == v for j, v in enumerate(pi))
    value = sum(c * v for c, v in zip(payoff, pi))
    return mass == 1 and stationary and (value * den - num) % p == 0


def _stationary_modulo(rows: list[list[int]], p: int) -> list[int] | None:
    """The stationary vector modulo the prime p of the n x n transition
    residues `rows` (overwritten), by GTH state censoring as in
    `limit_distributions`: states n - 1, ..., 1 are censored through their
    out-flows to the states before them, then pi is back-substituted from
    pi_0 = 1 and normalised; None when an out-flow or the total is 0 mod p."""
    columns = []  # the flow into k = n - 1, ..., 1 from each state before it, over k's out-flow
    for k in range(len(rows) - 1, 0, -1):
        row = rows[k][:k]
        out = sum(row) % p
        if not out:
            return None
        inverse = pow(out, -1, p)
        columns.append([above[k] * inverse % p for above in rows[:k]])
        for i, factor in enumerate(columns[-1]):
            if factor:
                rows[i] = [(v + factor * w) % p for v, w in zip(rows[i], row)]
    pi = [1]
    for column in reversed(columns):
        pi.append(sum(map(mul, pi, column)) % p)
    total = sum(pi) % p
    if not total:
        return None
    inverse = pow(total, -1, p)
    return [v * inverse % p for v in pi]


# ---------------------------------------------------------------------------
# Boundary-convention discrepancy reporting
# ---------------------------------------------------------------------------


@dataclass
class BoundaryDiscrepancyReport:
    per_point: dict[tuple[int, int], float]
    max_discrepancy: float
    max_point: tuple[int, int]


def boundary_discrepancy(
    player: PlayerMachine,
    probe: Probe,
    payoff: PayoffMatrix,
    n: int,
) -> BoundaryDiscrepancyReport:
    """|cesaro - interior_offset| at every boundary node of the n-lattice."""
    if n < 2:
        raise ValueError("boundary discrepancy needs resolution >= 2")
    chain = compose(player, probe, payoff)
    nodes = _lattice(n)
    nodes = nodes[(nodes[:, 0] == 0) | (nodes[:, 1] == 0) | (nodes.sum(axis=1) == n)]
    xs, ys = nodes[:, 0] / n, nodes[:, 1] / n
    offset_xs, offset_ys = _offset_toward_centroid(xs, ys)
    values = _values(chain, np.concatenate((xs, offset_xs)), np.concatenate((ys, offset_ys)))
    gaps = np.abs(values[: len(nodes)] - values[len(nodes) :])
    per_point = dict(zip(map(tuple, nodes.tolist()), gaps.tolist()))
    max_point = max(per_point, key=lambda k: (per_point[k], -k[0], -k[1]))
    return BoundaryDiscrepancyReport(
        per_point=per_point,
        max_discrepancy=per_point[max_point],
        max_point=max_point,
    )
