"""L2 distances between fingerprints over the parameter triangle.

The distance is the square root of the integral of the squared pointwise
difference over the triangle {x, y >= 0, x + y <= 1}, approximated by the
centroid rule on the n-subdivision into n^2 congruent subtriangles (both
orientations), each of area 1/(2 n^2).  The rule is second-order accurate
and exact for affine integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .chain import check_in_simplex
from .fingerprint import FingerprintGrid

Evaluable = Callable[[float, float], float]

DEFAULT_QUADRATURE_N = 200


class _GridEvaluator:
    """A lattice fingerprint extended to arbitrary triangle points by
    barycentric interpolation on its own subtriangles: at one point by
    calling it, or at many at once by `values_at`.  A point outside the
    closed triangle raises OutOfSimplexError, as it does for a pointwise
    fingerprint."""

    def __init__(self, grid: FingerprintGrid):
        self.resolution = grid.resolution
        # the cells off the lattice hold 0; they are read but never used
        self.table = grid.table

    def __call__(self, x: float, y: float) -> float:
        return float(self.values_at([x], [y])[0])

    def values_at(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        check_in_simplex(xs, ys)
        n, table = self.resolution, self.table
        u = xs * n
        v = ys * n
        i = np.minimum(u.astype(int), n - 1)
        j = np.minimum(v.astype(int), n - 1)
        # a point on (or within roundoff of) the hypotenuse uses the
        # boundary cell that contains it
        j = np.where(i + j > n - 1, n - 1 - i, j)
        fu = u - i
        fv = v - j
        lower = (1.0 - fu - fv) * table[i, j] + fu * table[i + 1, j] + fv * table[i, j + 1]
        upper = (
            (1.0 - fv) * table[i + 1, j]
            + (1.0 - fu) * table[i, j + 1]
            + (fu + fv - 1.0) * table[i + 1, j + 1]
        )
        return np.where((fu + fv <= 1.0) | (i + j == n - 1), lower, upper)


def make_grid_evaluator(grid: FingerprintGrid) -> _GridEvaluator:
    """Extend a lattice fingerprint to arbitrary triangle points by
    barycentric interpolation on its own subtriangles."""
    return _GridEvaluator(grid)


def _centroids(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Centroids of the n-subdivision: the upward subtriangle of every cell
    (i, j), i + j < n, then the downward ones, each in lexicographic order."""
    i, j = np.nonzero(np.add.outer(np.arange(n), np.arange(n)) < n)
    down = i + j < n - 1
    xs = np.concatenate(((3 * i + 1) / (3 * n), (3 * i[down] + 2) / (3 * n)))
    ys = np.concatenate(((3 * j + 1) / (3 * n), (3 * j[down] + 2) / (3 * n)))
    return xs, ys


def _sample(f: Evaluable, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """f at every point: one `values_at` call where f has one, else one call
    per point."""
    if hasattr(f, "values_at"):
        return np.asarray(f.values_at(xs, ys), dtype=float)
    return np.array([f(x, y) for x, y in zip(xs.tolist(), ys.tolist())], dtype=float)


def _distance(a: np.ndarray, b: np.ndarray, n: int) -> float:
    """Centroid-rule L2 distance between two sample rows; (a - b)^2 equals
    (b - a)^2 exactly, so the result is symmetric and zero for equal rows."""
    diff = a - b
    return float(np.sqrt(np.sum(diff * diff) * (1.0 / (2.0 * n * n))))


def _check_resolution(n: int) -> None:
    if n < 1:
        raise ValueError("quadrature resolution must be >= 1")


def l2_distance(f: Evaluable, g: Evaluable, n: int = DEFAULT_QUADRATURE_N) -> float:
    """Quadrature approximation of the L2 distance between two fingerprints."""
    _check_resolution(n)
    xs, ys = _centroids(n)
    return _distance(_sample(f, xs, ys), _sample(g, xs, ys), n)


@dataclass
class DistanceMatrix:
    """Symmetric matrix of pairwise fingerprint distances."""

    names: tuple[str, ...]
    d: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_csv(self, extra_meta: dict | None = None) -> str:
        lines = []
        meta = {**self.meta, **(extra_meta or {})}
        for key in sorted(meta):
            lines.append(f"# {key}: {meta[key]}")
        lines.append("name," + ",".join(self.names))
        for i, name in enumerate(self.names):
            cells = ",".join(f"{self.d[i, j]:.17g}" for j in range(len(self.names)))
            lines.append(f"{name},{cells}")
        return "\n".join(lines) + "\n"


def distance_matrix(
    corpus: Sequence[tuple[str, Evaluable]], n: int = DEFAULT_QUADRATURE_N
) -> DistanceMatrix:
    """Pairwise distances.  Each source is sampled once at every centroid;
    the upper triangle is computed from those samples and mirrored."""
    names = tuple(name for name, _ in corpus)
    if len(set(names)) != len(names):
        raise ValueError("fingerprint names must be unique")
    _check_resolution(n)
    xs, ys = _centroids(n)
    samples = []
    for name, f in corpus:
        try:
            samples.append(_sample(f, xs, ys))
        except Exception as exc:
            # annotate with the offending source, keeping the exception type
            exc.args = (f"fingerprint {name}: {exc}",)
            raise
    size = len(corpus)
    d = np.zeros((size, size))
    for i in range(size):
        for j in range(i + 1, size):
            d[i, j] = d[j, i] = _distance(samples[i], samples[j], n)
    return DistanceMatrix(names=names, d=d, meta={"quadrature_n": n})
