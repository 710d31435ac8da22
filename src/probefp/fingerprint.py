"""Fingerprints: numeric grids over the parameter triangle and exact
rational-function closed forms.

The fingerprint of a player against a probe is the limiting expected
per-round payoff of their joint chain as a function of the probe parameters
(x, y).  Grids sample it on the lattice {(i/n, j/n) : i + j <= n}; the
closed form solves the stationary system symbolically over the polynomial
ring using fraction-free (Bareiss) elimination, yielding a rational function
of (x, y).

The elimination scales each row to integer coefficients and packs each
polynomial into one integer, x -> 2**w and y -> 2**(w * (Dx + 1)).  That
map is a ring homomorphism, so the Bareiss steps run on Python integers.
Every value that is tested for zero or unpacked is a minor with at most one
row besides the system's, and Hadamard's inequality on the unit torus
bounds its coefficients; w and Dx come from that bound and from degree
sums, so these values pack without overlap (`_packed_layout`).  TERM_CAP
caps the number of terms of any intermediate polynomial, counted after
unpacking.

Each closed form is then checked exactly: the chain's stationary system is
solved modulo a prime p near 2**61 at one point (a, b), and payoff . pi times
the form's denominator must equal its numerator there (`_check_exactly`).  A
wrong form passes with probability at most its degree over p
(Schwartz-Zippel).  A form holds off the zero sets of the chain's
generically nonzero weights and of its own denominator; for a Joss-Ann
probe that is the whole open triangle minus the denominator's zeros.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
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
    ParamExpr,
    RationalFn,
    _exact_quotient,
    _from_integer,
    _integer_row,
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
BOUNDARY_TOL = 1e-12

# Abort symbolic elimination once any intermediate polynomial grows past this
# many terms (nonzero coefficients of the unpacked polynomial).
TERM_CAP = 200_000

# The exact check of a closed form tries each (prime, a, b) in turn, a and
# b drawn once from a constant seed so that outputs are reproducible, until
# one decides: a point where a scale, the system or the form's denominator
# vanishes modulo the prime cannot.
_rng = random.Random(0x5EED)
EXACT_CHECKS = tuple(
    (p, _rng.randrange(1, p), _rng.randrange(1, p)) for p in (2**61 - 1, 2**61 - 31, 2**61 - 45)
)

# Largest number of transition-matrix cells (points x states^2) solved in
# one batch; this caps the memory of a batch at a few times 16 MB.
BATCH_CELLS = 2**21

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
            n = int(meta.pop("resolution"))
            mode = meta.pop("boundary_mode", CESARO)
            rows = np.array(doc["values"], dtype=float)
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
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
                continue
            if line == "x,y,value":
                continue
            try:
                sx, sy, sv = line.split(",")
                rows.append((float(sx), float(sy), float(sv)))
            except ValueError as exc:
                raise InputError(f"malformed grid CSV row {line!r}: {exc}") from exc
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
        return cls(n, mode, _lattice_values(n, np.array(rows).reshape(-1, 3)), meta)


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
    outside = ~((float(low) - 1e-9 <= values) & (values <= float(high) + 1e-9))
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
    `fn.den`.  Common factors of `fn.num` and `fn.den` are not cancelled.

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


def _packed_layout(system: list[list[IntTerms]], last_rows: list[list[IntTerms]]):
    """(width, x_span) of a packing that every minor of the matrix formed
    by `system` and at most one of `last_rows` survives: every coefficient
    of such a minor is below 2**(width - 1) in magnitude and every power of
    x below x_span.

    For a row r let S_r = sum over its cells of (sum of |coefficients|)**2,
    at least 1.  On the unit torus |x| = |y| = 1 no cell exceeds its sum of
    |coefficients|, so by Hadamard's inequality no minor exceeds the product
    of sqrt(S_r) over its rows, and a coefficient of a polynomial is at most
    its maximum on the torus.  A minor's rows are some system rows and at
    most one last row, so sqrt(prod S_system * max S_last) bounds every
    coefficient.  Its x-degree is at most the sum of its rows' x-degrees
    and at most the sum of its columns'.
    """
    n_system = len(system)
    rows = [*system, *last_rows]
    column_degrees = [0] * len(rows[0])
    sizes, degrees = [], []
    for row in rows:
        size = degree = 0
        for col, terms in enumerate(row):
            if terms:
                size += sum(map(abs, terms.values())) ** 2
                cell_degree = max(i for i, _ in terms)
                degree = max(degree, cell_degree)
                column_degrees[col] = max(column_degrees[col], cell_degree)
        sizes.append(max(size, 1))
        degrees.append(degree)
    bound = math.prod(sizes[:n_system]) * max(sizes[n_system:])
    x_degree = min(sum(degrees[:n_system]) + max(degrees[n_system:]), sum(column_degrees))
    return math.isqrt(bound).bit_length() + 1, x_degree + 1


def _bareiss_last_rows(
    system: list[list[ParamExpr]], last_rows: list[list[ParamExpr]]
) -> list[ParamExpr]:
    """Determinants of `system` completed by each of `last_rows`, from one
    fraction-free (Bareiss) elimination that pivots on the system rows and
    carries every last row along.

    The k-th pivot is the leading minor det(I - P_SS) over the states
    S = {0..k}.  S is a proper subset, so for an irreducible chain I - P_SS
    is a nonsingular M-matrix and the minor is a nonzero polynomial: no
    pivot search or row exchange is needed, and every division by the
    previous pivot is exact.  A zero pivot means the system is singular.

    Every row is first scaled to integer coefficients.  That multiplies each
    determinant by the product of the scales of its rows and leaves the
    support of every intermediate entry as it is; each result is divided by
    its last row's scale, so the two determinants share the factor of the
    system rows.

    Each integer polynomial is then packed into one integer by x -> 2**w,
    y -> 2**(w * x_span) (`polyexpr._pack`), a ring homomorphism, so the
    elimination runs on big integers and every step's exact polynomial
    quotient is the integer quotient.  Every pivot, every intermediate entry
    and both results are minors with at most one last row, and
    `_packed_layout` chooses w and x_span from Hadamard's bound so that each
    such minor packs without overlap: a pivot is zero iff its packed value
    is, and the two results unpack exactly.  TERM_CAP counts the terms of
    every intermediate entry, as before packing; an entry is unpacked to
    count them only when it spans more than TERM_CAP digits.
    """
    a = [_integer_row(row)[0] for row in system]
    tails, scales = zip(*map(_integer_row, last_rows))
    width, x_span = _packed_layout(a, tails)
    a = [[_pack(terms, width, x_span) for terms in row] for row in a]
    tails = [[_pack(terms, width, x_span) for terms in row] for row in tails]
    previous = 1
    for k, pivot_row in enumerate(a):
        pivot = pivot_row[k]
        if not pivot:
            raise ReducibleChainError(
                "stationary system is singular over the polynomial ring; "
                "use grid mode instead"
            )
        for row in [*a[k + 1 :], *tails]:
            factor = row[k]
            for j in range(k + 1, len(row)):
                entry = _exact_quotient(pivot * row[j] - factor * pivot_row[j], previous)
                if entry.bit_length() // width >= TERM_CAP:
                    terms = len(_unpack(entry, width, x_span))
                    if terms > TERM_CAP:
                        raise ExpressionSwellError(terms, TERM_CAP)
                row[j] = entry
        previous = pivot
    return [
        _from_integer(_unpack(row[-1], width, x_span), scale)
        for row, scale in zip(tails, scales)
    ]


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
    support = np.zeros((1, n, n), dtype=bool)
    for s, row in enumerate(chain.trans):
        for t, weight in row.items():
            support[0, s, t] = bool(weight)
    decomposition = classify_supports(support)[0]
    classes = decomposition.classes
    if len(classes) != 1 or not classes[0].closed:
        raise ReducibleChainError(
            "chain is reducible at the generic interior point; "
            f"classes: {decomposition.describe()}; use grid mode instead",
            classes=decomposition,
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
    # terms).
    zero, one = ParamExpr.zero(), ParamExpr.one()
    system = [
        [(one if i == j else zero) - chain.trans[i].get(j, zero) for i in range(n)]
        for j in range(n - 1)
    ]
    norm_row = [one] * n
    payoff_row = [ParamExpr.const(w) for w in chain.payoff]
    den, num = _bareiss_last_rows(system, [norm_row, payoff_row])
    result = RationalFn(num, den)

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
        if verdict is None:
            continue
        if not verdict:
            raise ClosedFormCheckError(
                f"closed form disagrees with the chain modulo the prime {p} "
                f"at (x, y) = ({a}, {b})",
                p,
                (a, b),
            )
        return
    raise ClosedFormCheckError(
        "no (prime, point) of the exact check could decide the closed form: at each, "
        "a scale, the stationary system or the form's denominator vanishes modulo the prime"
    )


def _agrees_modulo(chain: ParamChain, fn: RationalFn, p: int, a: int, b: int) -> bool | None:
    """Whether fn = num / den agrees with the chain at (a, b) modulo the
    prime p, or None when that point cannot decide.

    The system is the closed form's: the transposed rows of pi (I - P) = 0
    with the last equation replaced by sum(pi) = 1.  It is solved by
    Gaussian elimination modulo p, and the point agrees when the init row
    sums to 1, the dropped equation holds and payoff . pi * den = num.
    """
    n = chain.n_states
    if any(not c.denominator % p for c in chain.payoff):
        return None
    payoff = [c.numerator * pow(c.denominator, -1, p) for c in chain.payoff]
    weights = (w for row in chain.trans for w in row.values())
    exprs = {id(e): e for e in (*weights, *chain.init, fn.num, fn.den)}
    x_powers, y_powers = [1], [1]
    for _ in range(max(e.degree() for e in exprs.values())):
        x_powers.append(x_powers[-1] * a % p)
        y_powers.append(y_powers[-1] * b % p)
    residue = {key: e._residue(x_powers, y_powers, p) for key, e in exprs.items()}
    if None in residue.values() or not residue[id(fn.den)]:
        return None
    matrix = [[0] * n for _ in range(n)]
    for s, row in enumerate(chain.trans):
        for t, w in row.items():
            matrix[s][t] = residue[id(w)]
    # augmented rows [A | e_last]: A's row j is column j of I - P, and its
    # last row is all ones
    rows = [[((i == j) - matrix[i][j]) % p for i in range(n)] + [0] for j in range(n - 1)]
    pi = _solve_modulo([*rows, [1] * (n + 1)], p)
    if pi is None:
        return None
    mass = sum(residue[id(w)] for w in chain.init) % p
    dropped = (pi[-1] - sum(matrix[i][-1] * pi[i] for i in range(n))) % p
    value = sum(c * v for c, v in zip(payoff, pi))
    return mass == 1 and dropped == 0 and (value * residue[id(fn.den)] - residue[id(fn.num)]) % p == 0


def _solve_modulo(rows: list[list[int]], p: int) -> list[int] | None:
    """The solution modulo the prime p of the n x (n + 1) augmented system
    `rows`, by Gauss-Jordan elimination with a search for a nonzero pivot;
    None if the system is singular modulo p.  Overwrites `rows`."""
    n = len(rows)
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        # columns before k are zero in the pivot row
        inverse = pow(rows[k][k], -1, p)
        tail = rows[k][k:] = [v * inverse % p for v in rows[k][k:]]
        for r, row in enumerate(rows):
            factor = row[k]
            if factor and r != k:
                row[k:] = [(v - factor * w) % p for v, w in zip(row[k:], tail)]
    return [row[n] for row in rows]


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
