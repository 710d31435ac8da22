"""Independent reference values for checking the program's outputs.

The fingerprint at (x, y) is init @ L @ payoff, where L is the Cesaro limit
of the joint transition matrix P.  It is computed here by repeated squaring
of the lazy chain (I + P) / 2, which has the same Cesaro limit as P and is
aperiodic, so its powers converge to L.  Nothing from probefp is used.
"""

from __future__ import annotations

import math

import numpy as np

from gen import Joint

# 2**SQUARINGS lazy steps: far beyond the mixing time of any point the
# benchmark uses (the slowest escape rate it meets is about 1e-9).
SQUARINGS = 56

# interior_offset mode pulls boundary points this far toward the centroid.
OFFSET_EPS = 1e-6
BOUNDARY_TOL = 1e-12


def affine_parts(joint: Joint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(3, S, S) transition parts, (3, S) initial parts, (S,) payoffs."""
    n = joint.n_states
    trans = np.zeros((3, n, n))
    for s, row in enumerate(joint.trans):
        for t, w in row.items():
            trans[:, s, t] = w
    init = np.zeros((3, n))
    for s, w in joint.init.items():
        init[:, s] = w
    return trans, init, np.asarray(joint.payoff, dtype=float)


def limits(joint: Joint, points) -> tuple[np.ndarray, np.ndarray]:
    """Cesaro-limit matrices (K, S, S) and initial distributions (K, S) of
    the joint chain at each (x, y) in `points`."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    trans, init, _ = affine_parts(joint)
    coef = np.column_stack([np.ones(len(pts)), pts])  # (K, 3)
    p = np.einsum("kc,cst->kst", coef, trans)
    lazy = 0.5 * (p + np.eye(joint.n_states))
    for _ in range(SQUARINGS):
        lazy = lazy @ lazy
        lazy /= lazy.sum(axis=2, keepdims=True)
    return lazy, coef @ init


def values(joint: Joint, points) -> np.ndarray:
    """Cesaro-limit payoff of the joint chain at each (x, y) in `points`."""
    limit, start = limits(joint, points)
    return np.einsum("ks,kst,t->k", start, limit, np.asarray(joint.payoff, dtype=float))


def single_closed_class(joint: Joint, point) -> bool:
    """Whether the limit forgets the starting state, i.e. the chain at this
    point has one closed class."""
    limit, _ = limits(joint, [point])
    return float(np.ptp(limit[0], axis=0).max()) < 1e-9


def run_average(joint: Joint, point, rounds: int, burn_in: int) -> float:
    """Expected mean payoff over rounds burn_in .. rounds - 1 of one run,
    round 0 being the initial draw."""
    trans, init, payoff = affine_parts(joint)
    coef = np.array([1.0, *point])
    p = np.einsum("c,cst->st", coef, trans)
    dist = coef @ init
    total = 0.0
    for t in range(rounds):
        if t >= burn_in:
            total += dist @ payoff
        dist = dist @ p
    return total / (rounds - burn_in)


def offset_point(x: float, y: float) -> tuple[float, float]:
    """Where interior_offset mode evaluates a lattice point."""
    if x <= BOUNDARY_TOL or y <= BOUNDARY_TOL or x + y >= 1 - BOUNDARY_TOL:
        dx, dy = 1 / 3 - x, 1 / 3 - y
        norm = math.hypot(dx, dy)
        return x + OFFSET_EPS * dx / norm, y + OFFSET_EPS * dy / norm
    return x, y


def lattice(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]


def centroids(n: int) -> np.ndarray:
    """Centroids of the n-subdivision of the triangle into n^2 subtriangles."""
    out = []
    for i in range(n):
        for j in range(n - i):
            out.append(((3 * i + 1) / (3 * n), (3 * j + 1) / (3 * n)))
            if i + j < n - 1:
                out.append(((3 * i + 2) / (3 * n), (3 * j + 2) / (3 * n)))
    return np.array(out)


def interpolate(grid: dict[tuple[int, int], float], n: int, points: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of lattice values on their subtriangles."""
    out = np.empty(len(points))
    for k, (x, y) in enumerate(points):
        u, v = x * n, y * n
        i, j = min(int(u), n - 1), min(int(v), n - 1)
        fu, fv = u - i, v - j
        if fu + fv <= 1:
            out[k] = (1 - fu - fv) * grid[(i, j)] + fu * grid[(i + 1, j)] + fv * grid[(i, j + 1)]
        else:
            out[k] = ((1 - fv) * grid[(i + 1, j)] + (1 - fu) * grid[(i, j + 1)]
                      + (fu + fv - 1) * grid[(i + 1, j + 1)])
    return out


def l2(f: np.ndarray, g: np.ndarray, n: int) -> float:
    """Centroid-rule L2 distance from values at `centroids(n)`."""
    return math.sqrt(float(np.sum((f - g) ** 2)) / (2 * n * n))
