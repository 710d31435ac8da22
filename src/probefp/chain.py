"""Joint player-probe Markov chains and their limiting distributions.

`compose` builds the parametrized chain over joint states (player state,
probe state, last player move, last probe move); `evaluate_points`
instantiates it at many parameter points at once; `limit_distributions`
computes the limiting (Cesaro) state distribution at each, handling
reducible and periodic chains via closed-class decomposition: absorption
probabilities into each closed class times the unique stationary
distribution inside it.  An evaluated chain is a pair of arrays, transition
matrices (N, n, n) and initial distributions (N, n), with one row per point;
`evaluate` is the batch of one, and a fingerprint value is the limit
distribution times `ParamChain.payoff_vector()`.

The classes come from the reachability closure of the support graph, worked
out once per support pattern among the points.  One GTH elimination
(Grassmann, Taksar & Heyman, Oper. Res. 33, 1985) over a class-ordered flow
matrix, run for all points of a pattern together, gives both the absorption
probabilities and the stationary distributions: each eliminated state's
diagonal is the sum of its off-diagonal out-flow rather than 1 - p_ii, so
nothing is subtracted and the results keep entrywise relative accuracy even
when escape rates are tiny.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .automata import PayoffMatrix, PlayerMachine, Probe
from .errors import (
    AlphabetMismatchError,
    NegativeWeightError,
    OutOfSimplexError,
    ProbeValidationError,
    SingularSystemError,
)
from .polyexpr import ParamExpr, PolyTable

# Evaluated probabilities above this count as support edges; identically-zero
# polynomials evaluate to exact 0.0, so this separates structure from roundoff.
SUPPORT_CUTOFF = 1e-14

ROW_SUM_TOL = 1e-12
ENTRY_TOL = 1e-12
SIMPLEX_TOL = 1e-12
RESIDUAL_TOL = 1e-9
# Mass sums in _solve_pattern: GTH never subtracts, so roundoff alone stays far below this.
MASS_TOL = 1e-10


@dataclass(frozen=True)
class JointState:
    """One round of joint play: machine states plus the moves just played."""

    player_state: int
    probe_state: int
    player_action: str
    probe_action: str


@dataclass
class ParamChain:
    """Markov chain with polynomial transition weights over joint states."""

    states: tuple[JointState, ...]
    init: tuple[ParamExpr, ...]
    trans: tuple[dict[int, ParamExpr], ...]  # sparse rows
    payoff: tuple[Fraction, ...]
    player_name: str
    probe_name: str

    @property
    def n_states(self) -> int:
        return len(self.states)

    def row_sum_residuals(self) -> list[ParamExpr]:
        """1 minus each row sum; all zero polynomials for a valid chain."""
        one = ParamExpr.one()
        residuals = []
        for row in self.trans:
            total = ParamExpr.zero()
            for weight in row.values():
                total = total + weight
            residuals.append(one - total)
        return residuals

    def init_residual(self) -> ParamExpr:
        total = ParamExpr.zero()
        for weight in self.init:
            total = total + weight
        return ParamExpr.one() - total

    @cached_property
    def weights(self) -> PolyTable:
        """Every transition weight P[s, t] in row-major order (the zero
        polynomial where there is no edge), then every init weight, compiled
        once for evaluation at many points."""
        zero = ParamExpr.zero()
        cells = [row.get(t, zero) for row in self.trans for t in range(self.n_states)]
        return PolyTable(cells + list(self.init))

    def payoff_vector(self) -> np.ndarray:
        return np.array([float(p) for p in self.payoff])


@dataclass
class ChainClass:
    """A strongly connected component of the support graph."""

    states: tuple[int, ...]
    closed: bool


@dataclass
class ClassDecomposition:
    classes: tuple[ChainClass, ...]

    def closed_classes(self) -> list[ChainClass]:
        return [c for c in self.classes if c.closed]

    def transient_states(self) -> list[int]:
        out: list[int] = []
        for c in self.classes:
            if not c.closed:
                out.extend(c.states)
        return sorted(out)

    def describe(self) -> str:
        parts = []
        for c in self.classes:
            kind = "closed" if c.closed else "transient"
            parts.append(f"{kind} {{{', '.join(map(str, c.states))}}}")
        return "; ".join(parts)


def compose(player: PlayerMachine, probe: Probe, payoff: PayoffMatrix) -> ParamChain:
    """Build the joint chain of simultaneous play.

    Each round the player reads the probe's previous move and moves
    deterministically; the probe reads the player's previous move and draws
    an outcome with polynomial weight.  Only states reachable under generic
    interior parameters (nonzero weight polynomials) are retained; indexing
    is breadth-first from the initial support, outcomes in canonical
    (action, state) order.
    """
    if player.alphabet != probe.alphabet:
        raise AlphabetMismatchError(
            f"player alphabet {player.alphabet} != probe alphabet {probe.alphabet}"
        )
    payoff.validate_total(player.alphabet)

    index: dict[JointState, int] = {}
    states: list[JointState] = []
    init_weights: list[ParamExpr] = []

    def intern(js: JointState) -> int:
        if js not in index:
            index[js] = len(states)
            states.append(js)
            init_weights.append(ParamExpr.zero())
        return index[js]

    queue: deque[int] = deque()
    for action, probe_state, weight in probe.init:
        if weight.is_zero():
            continue
        js = JointState(player.initial_state, probe_state, player.initial_action, action)
        was_new = js not in index
        s = intern(js)
        if was_new:
            init_weights[s] = weight
            queue.append(s)
        else:
            init_weights[s] = init_weights[s] + weight

    rows: list[dict[int, ParamExpr]] = [dict() for _ in states]
    while queue:
        s = queue.popleft()
        js = states[s]
        next_player, next_action = player.step[(js.player_state, js.probe_action)]
        for probe_action, next_probe, weight in probe.step[
            (js.probe_state, js.player_action)
        ]:
            if weight.is_zero():
                continue
            succ = JointState(next_player, next_probe, next_action, probe_action)
            was_new = succ not in index
            t = intern(succ)
            if was_new:
                rows.append(dict())
                queue.append(t)
            row = rows[s]
            row[t] = row[t] + weight if t in row else weight

    chain = ParamChain(
        states=tuple(states),
        init=tuple(init_weights),
        trans=tuple(rows),
        payoff=tuple(payoff.value(js.player_action, js.probe_action) for js in states),
        player_name=player.name,
        probe_name=probe.name,
    )

    # Row sums and the init sum must be the constant polynomial 1 exactly;
    # anything else means the probe's distributions were invalid.
    for s, residual in enumerate(chain.row_sum_residuals()):
        if not residual.is_zero():
            raise ProbeValidationError(
                f"joint chain row {s} sums to 1 - ({residual.render()})"
            )
    if not chain.init_residual().is_zero():
        raise ProbeValidationError(
            f"joint chain init sums to 1 - ({chain.init_residual().render()})"
        )
    return chain


def check_in_simplex(xs: np.ndarray, ys: np.ndarray) -> None:
    """Raise OutOfSimplexError naming the first point (xs[p], ys[p]) that is
    not in the closed triangle, within SIMPLEX_TOL."""
    # "not inside" rather than "outside", so that NaN coordinates fail too
    outside = ~((xs >= -SIMPLEX_TOL) & (ys >= -SIMPLEX_TOL) & (xs + ys <= 1 + SIMPLEX_TOL))
    if outside.any():
        p = int(np.argmax(outside))
        raise OutOfSimplexError(float(xs[p]), float(ys[p]))


def evaluate_points(chain: ParamChain, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrices (N, n, n) and initial distributions (N, n) of the
    chain at the N points (xs[p], ys[p]) of the closed triangle.

    Entries within ENTRY_TOL below zero are clipped to zero and every row is
    divided by its sum; an error names the first point that fails a check.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    check_in_simplex(xs, ys)
    n = chain.n_states
    values = chain.weights.evaluate(xs, ys)
    # the init weights form row n, after the n transition rows
    rows = np.maximum(values, 0.0).reshape(-1, n + 1, n)
    sums = rows.sum(axis=2)
    negative = values < -ENTRY_TOL
    failed = negative.any(axis=1) | (np.abs(sums - 1.0) > ROW_SUM_TOL).any(axis=1)
    if failed.any():
        p = int(np.argmax(failed))
        point = (float(xs[p]), float(ys[p]))
        if negative[p].any():
            s, t = divmod(int(np.argmax(negative[p])), n)
            value = float(values[p, s * n + t])
            raise NegativeWeightError(
                f"transition probability {value!r} in row {s} (to state {t}) below tolerance"
                if s < n
                else f"initial probability {value!r} of state {t} below tolerance",
                point,
            )
        s = int(np.argmax(np.abs(sums[p] - 1.0)))
        what = f"transition row {s}" if s < n else "initial distribution"
        raise NegativeWeightError(f"{what} sums to {float(sums[p, s])!r}", point)
    rows /= sums[:, :, None]
    return rows[:, :n], rows[:, n]


def evaluate(chain: ParamChain, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix (n, n) and initial distribution (n,) of the chain at
    one point of the closed triangle: the batch of one of `evaluate_points`."""
    matrix, init = evaluate_points(chain, [x], [y])
    return matrix[0], init[0]


# ---------------------------------------------------------------------------
# Closed-class decomposition (reachability closure of the support graph)
# ---------------------------------------------------------------------------


def closed_classes(matrix: np.ndarray) -> ClassDecomposition:
    """Strongly connected components of the support graph of an evaluated
    (n, n) transition matrix, its entries above SUPPORT_CUTOFF, each flagged
    closed (no edges leave it) or transient, ordered by smallest state.

    Squaring the 0/1 walk matrix (support plus self-loops) k times covers
    every path of up to 2^k steps, so (n-1).bit_length() squarings give the
    reachability closure; states that reach each other form one class, and
    a class is closed when nothing it reaches lies outside it.
    """
    n = len(matrix)
    walk = np.maximum(matrix > SUPPORT_CUTOFF, np.eye(n))
    for _ in range((n - 1).bit_length()):
        walk = np.minimum(walk @ walk, 1.0)
    reach = walk > 0
    same = reach & reach.T
    closed = ~np.any(reach & ~same, axis=1)
    heads = np.flatnonzero(same.argmax(axis=1) == np.arange(n))
    return ClassDecomposition(
        classes=tuple(
            ChainClass(states=tuple(np.flatnonzero(same[h]).tolist()), closed=bool(closed[h]))
            for h in heads
        )
    )


# ---------------------------------------------------------------------------
# Subtraction-free (GTH) elimination, batched by support pattern
# ---------------------------------------------------------------------------


def limit_distributions(matrix: np.ndarray, init: np.ndarray, points) -> np.ndarray:
    """Limiting state distributions (N, n) of N evaluated chains over the
    same states, with transition matrices `matrix` (N, n, n), initial
    distributions `init` (N, n) and parameter points `points` (N, 2).

    The points are grouped by support pattern (matrix > SUPPORT_CUTOFF).
    Each pattern's classes are worked out once, from its first point, and
    its points are solved together by `_solve_pattern`.  An error names a
    failing point.
    """
    matrix = np.asarray(matrix, dtype=float)
    init = np.asarray(init, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    support = np.packbits((matrix > SUPPORT_CUTOFF).reshape(len(matrix), -1), axis=1)
    # one opaque byte string per point, so that np.unique sorts rows as scalars
    keys = support.view(np.dtype((np.void, support.shape[1]))).ravel()
    _, first, pattern = np.unique(keys, return_index=True, return_inverse=True)
    pi = np.empty_like(init)
    for k in np.argsort(first):
        group = np.flatnonzero(pattern == k)
        pi[group] = _solve_pattern(matrix[group], init[group], points[group])
    return pi


def _solve_pattern(matrix: np.ndarray, init: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Limit distributions of chains that share one support pattern.

    One GTH pass over flow matrices ordered [start, the head (first state)
    of each closed class, the other closed-class states, the transient
    states] does both solves, with a leading point axis.  The start row is
    the initial distribution and a closed-class row keeps only its own
    class's entries, so flow below SUPPORT_CUTOFF cannot leak between
    classes.  Eliminating every state after the heads leaves the start row
    holding the absorption probabilities; back-substituting from head weight
    1, with the start row left out, gives each class's stationary vector.
    Each elimination takes the out-flow of state k as the sum of its
    off-diagonal entries, never 1 - p_kk, so the pass only adds, multiplies
    and divides nonnegative numbers, and leaves column k holding the in-flow
    per unit out-flow, which is what back-substitution needs.
    """
    count, n = init.shape
    decomposition = closed_classes(matrix[0])
    closed = decomposition.closed_classes()
    c = len(closed)
    others = [s for cls in closed for s in cls.states[1:]]
    order = np.array(
        [cls.states[0] for cls in closed] + others + decomposition.transient_states()
    )
    label = np.full(n, -1)  # closed class of each state, -1 if transient
    for j, cls in enumerate(closed):
        label[list(cls.states)] = j
    label = label[order]

    def check(ok: np.ndarray, fault) -> None:
        """Raise at the first point where `ok` is false; fault(p) says why."""
        if not ok.all():
            p = int(np.argmin(ok))
            point = tuple(float(v) for v in points[p])
            raise SingularSystemError(f"{fault(p)} at point {point}")

    def describe(state: int) -> str:
        cls = next(cl for cl in decomposition.classes if state in cl.states)
        kind = "closed" if cls.closed else "transient"
        return f"state {state} of {kind} class {list(cls.states)}"

    flow = np.zeros((count, 1 + n, 1 + n))
    flow[:, 0, 1:] = init[:, order]
    keep = (label[:, None] == label) | (label[:, None] < 0)
    flow[:, 1:, 1:] = np.where(keep, matrix[:, order[:, None], order], 0.0)
    for k in range(n, c, -1):
        out = flow[:, k, :k].sum(axis=1)
        check(out > 0, lambda p: f"zero out-flow from {describe(int(order[k - 1]))}")
        flow[:, :k, k] /= out[:, None]
        flow[:, :k, :k] += flow[:, :k, k, None] * flow[:, None, k, :k]
    absorption = flow[:, 0, 1 : 1 + c]
    total = absorption.sum(axis=1)
    check(
        np.abs(total - 1.0) <= MASS_TOL,
        lambda p: f"absorption probabilities sum to {float(total[p])!r}",
    )
    absorption = absorption / total[:, None]

    size = c + len(others)
    weight = np.zeros((count, 1 + size))
    weight[:, 1 : 1 + c] = 1.0
    for k in range(1 + c, 1 + size):
        weight[:, k] = np.einsum("pi,pi->p", weight[:, :k], flow[:, :k, k])
    weight = weight[:, 1:]
    label = label[:size]
    mass = weight @ (label[:, None] == np.arange(c))
    pi = np.zeros((count, n))
    pi[:, order[:size]] = absorption[:, label] * (weight / mass[:, label])

    residual = np.abs(np.einsum("pi,pij->pj", pi, matrix) - pi).max(axis=1)
    check(
        residual <= RESIDUAL_TOL,
        lambda p: f"limit distribution residual {float(residual[p])!r} exceeds tolerance",
    )
    total = pi.sum(axis=1)
    check(
        np.abs(total - 1.0) <= MASS_TOL,
        lambda p: f"limit distribution sums to {float(total[p])!r}",
    )
    return pi / total[:, None]

