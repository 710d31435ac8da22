"""Fingerprints: numeric grids over the parameter triangle and exact
rational-function closed forms.

The fingerprint of a player against a probe is the limiting expected
per-round payoff of their joint chain as a function of the probe parameters
(x, y).  Grids sample it on the lattice {(i/n, j/n) : i + j <= n}; the
closed form solves the stationary system symbolically over the polynomial
ring using fraction-free (Bareiss) elimination, yielding a rational function
of (x, y).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .automata import PayoffMatrix, PlayerMachine, Probe
from .chain import (
    ParamChain,
    check_in_simplex,
    closed_classes,
    compose,
    evaluate,
    evaluate_points,
    limit_distributions,
)
from .errors import ExpressionSwellError, InputError, ReducibleChainError
from .polyexpr import (
    IntTerms,
    ParamExpr,
    RationalFn,
    _from_integer,
    _int_cross,
    _int_exact_div,
    _integer_row,
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
# many terms.
TERM_CAP = 200_000

# Lattice used to cross-check closed forms against the numeric path.
VALIDATION_N = 20
AGREEMENT_TOL = 1e-8

GENERIC_POINT = (1.0 / 3.0, 1.0 / 3.0)

# Largest number of transition-matrix cells (points x states^2) solved in
# one batch; this caps the memory of a batch at a few times 16 MB.
BATCH_CELLS = 2**21


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


@dataclass
class FingerprintGrid:
    """Fingerprint values over the triangular lattice i + j <= resolution."""

    resolution: int
    boundary_mode: str
    values: dict[tuple[int, int], float]
    meta: dict = field(default_factory=dict)

    def node_points(self):
        n = self.resolution
        for i in range(n + 1):
            for j in range(n + 1 - i):
                yield i, j

    def to_csv(self, extra_meta: dict | None = None) -> str:
        lines = []
        meta = {**self.meta, **(extra_meta or {})}
        for key in sorted(meta):
            lines.append(f"# {key}: {meta[key]}")
        lines.append("x,y,value")
        n = self.resolution
        for i, j in self.node_points():
            lines.append(f"{i / n:.17g},{j / n:.17g},{self.values[(i, j)]:.17g}")
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
            "values": [
                [i / n, j / n, self.values[(i, j)]] for i, j in self.node_points()
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FingerprintGrid":
        try:
            doc = json.loads(text)
            meta = dict(doc["meta"])
            n = int(meta.pop("resolution"))
            mode = meta.pop("boundary_mode", CESARO)
            rows = [(float(px), float(py), float(v)) for px, py, v in doc["values"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"malformed grid JSON: {exc!r}") from exc
        return cls(resolution=n, boundary_mode=mode, values=_lattice_values(n, rows), meta=meta)

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
        # lattice size (n+1)(n+2)/2 determines the resolution
        n = round((math.isqrt(8 * len(rows) + 1) - 3) / 2)
        mode = meta.pop("boundary_mode", CESARO)
        if "resolution" in meta:
            meta.pop("resolution")
        return cls(resolution=n, boundary_mode=mode, values=_lattice_values(n, rows), meta=meta)


def _lattice(n: int) -> np.ndarray:
    """Nodes (i, j) with i + j <= n, in lexicographic order, as rows."""
    return np.argwhere(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)


def _lattice_values(n: int, rows) -> dict[tuple[int, int], float]:
    """Values of (x, y, value) rows keyed by lattice node (round(x n), round(y n));
    InputError unless n >= 1 and the rows hold each node of the n-lattice once."""
    if n < 1:
        raise InputError(f"grid resolution {n} ({len(rows)} rows) is below 1")
    count = (n + 1) * (n + 2) // 2
    if len(rows) != count:
        raise InputError(
            f"{len(rows)} grid rows do not form the triangular lattice of resolution {n} "
            f"({count} nodes)"
        )
    try:
        values = {(round(px * n), round(py * n)): v for px, py, v in rows}
    except (ValueError, OverflowError) as exc:
        raise InputError(f"grid node coordinate is not finite: {exc}") from exc
    if len(values) != count or not all(i >= 0 and j >= 0 and i + j <= n for i, j in values):
        raise InputError(f"grid rows are not the nodes (i/{n}, j/{n}) with i + j <= {n}")
    return values


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
        raise AssertionError(
            f"grid value {values[p]} at {tuple(nodes[p].tolist())} outside payoff bounds"
        )
    return FingerprintGrid(
        resolution=n,
        boundary_mode=boundary_mode,
        values=dict(zip(map(tuple, nodes.tolist()), values.tolist())),
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
    """Exact rational-function fingerprint, valid on the open triangle."""

    fn: RationalFn
    meta: dict = field(default_factory=dict)
    agreement_max_error: float | None = None

    def __call__(self, x: float, y: float) -> float:
        return ratfn_eval(self.fn, x, y)

    def values_at(self, xs, ys) -> np.ndarray:
        return ratfn_values(self.fn, xs, ys)


def _capped(terms: IntTerms) -> IntTerms:
    if len(terms) > TERM_CAP:
        raise ExpressionSwellError(len(terms), TERM_CAP)
    return terms


def _bareiss_last_rows(
    system: list[list[ParamExpr]], last_rows: list[list[ParamExpr]]
) -> list[ParamExpr]:
    """Determinants of `system` completed by each of `last_rows`, from one
    fraction-free (Bareiss) elimination over the polynomial ring that
    pivots on the system rows and carries every last row along.

    The k-th pivot is the leading minor det(I - P_SS) over the states
    S = {0..k}.  S is a proper subset, so for an irreducible chain I - P_SS
    is a nonsingular M-matrix and the minor is a nonzero polynomial: no
    pivot search or row exchange is needed, and every division by the
    previous pivot is exact.  A zero pivot means the system is singular.

    Every row is first scaled to integer coefficients.  That multiplies each
    determinant by the product of the scales of its rows and leaves the
    support of every intermediate entry as it is; the elimination then runs
    in integer arithmetic, and each result is divided by its last row's
    scale, so the two determinants share the factor of the system rows.
    """
    a = [_integer_row(row)[0] for row in system]
    tails, scales = zip(*map(_integer_row, last_rows))
    previous = {(0, 0): 1}
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
                row[j] = _capped(
                    _int_exact_div(_int_cross(pivot, row[j], factor, pivot_row[j]), previous)
                )
        previous = pivot
    return [_from_integer(row[-1], scale) for row, scale in zip(tails, scales)]


def symbolic_fingerprint(
    player: PlayerMachine,
    probe: Probe,
    payoff: PayoffMatrix,
    validate: bool = True,
) -> SymbolicFingerprint:
    """Solve the stationary system symbolically and return the fingerprint as
    a rational function of (x, y).

    Requires the chain to be irreducible at the generic interior point
    (1/3, 1/3); reducible chains raise ReducibleChainError (use grid mode).
    """
    chain = compose(player, probe, payoff)
    decomposition = closed_classes(evaluate(chain, *GENERIC_POINT)[0])
    classes = decomposition.classes
    if len(classes) != 1 or not classes[0].closed:
        raise ReducibleChainError(
            "chain is reducible at the generic interior point; "
            f"classes: {decomposition.describe()}; use grid mode instead",
            classes=decomposition,
        )

    n = chain.n_states
    # Stationary equations pi (I - P) = 0, transposed to columns; the last
    # equation is replaced by the normalization sum(pi) = 1.  By Cramer's
    # rule and cofactor expansion along that last row, the payoff-weighted
    # sum of the solution collapses to a ratio of two determinants: the
    # system's, and the system's with the normalization row replaced by the
    # payoff vector.  Both share the same minimal denominator, so no spurious
    # factors appear.
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
        fp.agreement_max_error = _check_agreement(chain, result)
    return fp


def _check_agreement(chain: ParamChain, fn: RationalFn) -> float:
    """Max |closed form - numeric| over interior nodes of the validation lattice."""
    n = VALIDATION_N
    nodes = _lattice(n)
    nodes = nodes[(nodes[:, 0] > 0) & (nodes[:, 1] > 0) & (nodes.sum(axis=1) < n)]
    xs, ys = nodes[:, 0] / n, nodes[:, 1] / n
    worst = float(np.max(np.abs(ratfn_values(fn, xs, ys) - _values(chain, xs, ys))))
    if worst > AGREEMENT_TOL:
        raise AssertionError(
            f"closed form disagrees with numeric path by {worst} (tol {AGREEMENT_TOL})"
        )
    return worst


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
