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
(Grassmann, Taksar & Heyman, Oper. Res. 33, 1985) over class-ordered flow
matrices, run once for all points of a call with the point axis last and
the points sorted by their number of closed classes, gives both the
absorption probabilities and the stationary distributions: each eliminated
state's diagonal is the sum of its off-diagonal out-flow rather than
1 - p_ii, so nothing is subtracted and the results keep entrywise relative
accuracy even when escape rates are tiny.
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
# Mass sums in limit_distributions: GTH never subtracts, so roundoff alone stays far below this.
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
    # anything else means the probe's distributions were invalid.  A joint
    # row holds the weights of its probe row, so each probe row is summed once.
    residuals: dict[tuple[int, str], ParamExpr] = {}
    for s, js in enumerate(states):
        key = (js.probe_state, js.player_action)
        if key not in residuals:
            total = sum((weight for _, _, weight in probe.step[key]), ParamExpr.zero())
            residuals[key] = ParamExpr.one() - total
        if not residuals[key].is_zero():
            raise ProbeValidationError(
                f"joint chain row {s} sums to 1 - ({residuals[key].render()})"
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
# Subtraction-free (GTH) elimination, one pass per batch
# ---------------------------------------------------------------------------


def limit_distributions(matrix: np.ndarray, init: np.ndarray, points) -> np.ndarray:
    """Limiting state distributions (N, n) of N evaluated chains over the
    same states, with transition matrices `matrix` (N, n, n), initial
    distributions `init` (N, n) and parameter points `points` (N, 2).

    The points are grouped by support pattern (matrix > SUPPORT_CUTOFF), and
    each pattern's classes are worked out once, from its first point.  One
    GTH pass then serves every point, over flow matrices (1 + n, 1 + n, N)
    with the point axis last, each ordered [start, the head (first state)
    of each closed class, the other closed-class states, the transient
    states].  The start row is the initial distribution and a closed-class
    row keeps only its own class's entries, so flow below SUPPORT_CUTOFF
    cannot leak between classes.  Eliminating every state after the heads
    leaves the start row holding the absorption probabilities;
    back-substituting from head weight 1, with the start row left out, gives
    each class's stationary vector, and the transient states weight exactly
    0.  Each elimination takes the out-flow of state k as the sum of its
    off-diagonal entries, never 1 - p_kk, so the pass only adds, multiplies
    and divides nonnegative numbers, and leaves column k holding the in-flow
    per unit out-flow, which is what back-substitution needs.

    The points are sorted by head count, then pattern, so that those that
    eliminate state k (fewer than k heads) are a leading slice and each
    pattern is one run; the sort is undone on return.  No reduction runs
    across points, so a point's result does not depend on its place in the
    batch.  An error names the first failing point of the batch as given.
    """
    matrix = np.asarray(matrix, dtype=float)
    init = np.asarray(init, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    count, n = init.shape
    support = np.packbits((matrix > SUPPORT_CUTOFF).reshape(count, -1), axis=1)
    if (support == support[0]).all():  # one pattern, the common call
        first, pattern = [0], np.zeros(count, dtype=int)
    else:
        # one opaque byte string per point, so that np.unique sorts rows as scalars
        keys = support.view(np.dtype((np.void, support.shape[1]))).ravel()
        _, first, pattern = np.unique(keys, return_index=True, return_inverse=True)

    decompositions, orders, labels = [], [], []
    heads = np.empty(len(first), dtype=int)
    closed_size = 0  # most closed-class states of any pattern
    for g, p in enumerate(first):
        decomposition = closed_classes(matrix[p])
        closed = decomposition.closed_classes()
        others = [s for cls in closed for s in cls.states[1:]]
        order = np.array(
            [cls.states[0] for cls in closed] + others + decomposition.transient_states()
        )
        label = np.full(n, -1)  # closed class of each state, -1 if transient
        for j, cls in enumerate(closed):
            label[list(cls.states)] = j
        decompositions.append(decomposition)
        orders.append(order)
        labels.append(label[order])
        heads[g] = len(closed)
        closed_size = max(closed_size, len(closed) + len(others))

    sort = None
    runs = [(0, slice(None))]
    if len(first) > 1:
        sort = np.lexsort((pattern, heads[pattern]))
        matrix, init, points, pattern = matrix[sort], init[sort], points[sort], pattern[sort]
        cuts = [0, *(np.flatnonzero(pattern[1:] != pattern[:-1]) + 1).tolist(), count]
        runs = [(int(pattern[a]), slice(a, b)) for a, b in zip(cuts, cuts[1:])]
    heads = heads[pattern]
    live = np.searchsorted(heads, np.arange(1 + n)).tolist()  # live[k]: points with < k heads

    def check(ok: np.ndarray, fault) -> None:
        """Raise at the first failing point of the batch as given; fault(q)
        says why point q of the sorted batch fails."""
        if not ok.all():
            bad = np.flatnonzero(~ok)
            q = int(bad[np.argmin(bad if sort is None else sort[bad])])
            point = tuple(float(v) for v in points[q])
            raise SingularSystemError(f"{fault(q)} at point {point}")

    def stuck(q: int) -> str:
        """The first state that point q could not eliminate, with its class."""
        k = n - int(np.argmin(out[::-1, q] > 0))
        state = int(orders[pattern[q]][k - 1])
        cls = next(cl for cl in decompositions[pattern[q]].classes if state in cl.states)
        kind = "closed" if cls.closed else "transient"
        return f"zero out-flow from state {state} of {kind} class {list(cls.states)}"

    flow = np.zeros((1 + n, 1 + n, count))
    for g, run in runs:
        order, label = orders[g], labels[g]
        keep = (label[:, None] == label) | (label[:, None] < 0)
        flow[0, 1:, run] = init[run][:, order].T
        flow[1:, 1:, run] = np.where(
            keep[:, :, None], matrix[run].transpose(1, 2, 0)[order[:, None], order], 0.0
        )
    out = np.ones((1 + n, count))  # out-flow of each eliminated state
    # a zero out-flow is reported after the pass, so its inf and NaN are expected here
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n, heads[0], -1):
            m = live[k]
            np.add.reduce(flow[k, :k, :m], axis=0, out=out[k, :m])
            flow[:k, k, :m] /= out[k, :m]
            flow[:k, :k, :m] += flow[:k, k, None, :m] * flow[k, :k, :m]
    check((out > 0).all(axis=0), stuck)

    c = heads[-1]
    is_head = np.arange(c)[:, None] < heads
    absorption = np.where(is_head, flow[0, 1 : 1 + c], 0.0)
    total = np.add.reduce(absorption, axis=0)
    check(
        np.abs(total - 1.0) <= MASS_TOL,
        lambda q: f"absorption probabilities sum to {float(total[q])!r}",
    )
    absorption /= total

    weight = np.zeros((n, count))  # weight[i] is flow state 1 + i
    weight[:c] = is_head
    for k in range(heads[0], closed_size):
        m = live[k + 1]
        np.add.reduce(weight[:k, :m] * flow[1 : 1 + k, 1 + k, :m], axis=0, out=weight[k, :m])
    pi = np.empty((count, n))
    for g, run in runs:
        label = labels[g]
        mass = np.add.reduce((label == np.arange(c)[:, None])[:, :, None] * weight[:, run], axis=1)
        label = np.maximum(label, 0)  # a transient state weighs 0 in any class
        pi[run, orders[g]] = (absorption[label, run] * (weight[:, run] / mass[label])).T

    residual = np.abs(np.einsum("pi,pij->pj", pi, matrix) - pi).max(axis=1)
    check(
        residual <= RESIDUAL_TOL,
        lambda q: f"limit distribution residual {float(residual[q])!r} exceeds tolerance",
    )
    total = pi.sum(axis=1)
    check(
        np.abs(total - 1.0) <= MASS_TOL,
        lambda q: f"limit distribution sums to {float(total[q])!r}",
    )
    pi /= total[:, None]
    if sort is not None:
        pi[sort] = pi.copy()  # back to the order of the batch as given
    return pi
