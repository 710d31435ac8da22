"""Joint player-probe Markov chains and their limiting distributions.

`compose` builds the parametrized chain over joint states (player state,
probe state, last player move, last probe move), whose cells index the
probe's compiled weights; `evaluate_points` instantiates it at many
parameter points at once, evaluating each distinct weight polynomial once
per point and copying it into every cell it fills;
`limit_distributions` computes the limiting (Cesaro) state distribution at
each, handling reducible and periodic chains via closed-class decomposition:
absorption probabilities into each closed class times the unique stationary
distribution inside it.  An evaluated chain is a pair of arrays, transition
matrices (N, n, n) and initial distributions (N, n), with one row per point;
`evaluate` is the batch of one, and a fingerprint value is the limit
distribution times `ParamChain.payoff_vector()`.

The classes come from the reachability closure of the support graph, worked
out once per support pattern among the points, all patterns of a call in
one stacked closure (`classify_supports`).  One GTH elimination
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

import numpy as np

from .automata import PayoffMatrix, PlayerMachine, Probe
from .errors import (
    AlphabetMismatchError,
    NegativeWeightError,
    OutOfSimplexError,
    SingularSystemError,
)
from .polyexpr import PolyTable

# Evaluated probabilities above this count as support edges; cells with no
# weight take the zero polynomial, exact 0.0, so this separates structure
# from roundoff.
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
    """Markov chain with polynomial transition weights over joint states.

    `index` is the column of the probe's `weights` that fills each cell of
    the (n + 1) x n array of transition rows P[s, t] then the init row,
    flattened row-major, 0 (the zero polynomial) for none; `successors`
    lists the targets of each of those rows in the probe's outcome order."""

    states: tuple[JointState, ...]
    successors: tuple[tuple[int, ...], ...]
    payoff: tuple[Fraction, ...]
    weights: PolyTable
    index: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)

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
    is breadth-first from the initial support, each row's outcomes in the
    probe's order.  A `Probe` names each outcome of a group once and checks
    that each group sums to the constant polynomial 1, so each cell records
    one probe weight's column, and nothing is added here.
    """
    if player.alphabet != probe.alphabet:
        raise AlphabetMismatchError(
            f"player alphabet {player.alphabet} != probe alphabet {probe.alphabet}"
        )
    payoff.validate_total(player.alphabet)

    # keyed by JointState's fields in order: a tuple hashes far faster
    index: dict[tuple[int, int, str, str], int] = {}
    states: list[JointState] = []
    rows: dict[int, list[int]] = {-1: []}  # successors of each row; -1 is the init row
    cells: list[int] = []  # row, state, column of each weight
    queue: deque[int] = deque()

    def intern(key: tuple[int, int, str, str]) -> int:
        """Index of the joint state `key`, queued with an empty row if new."""
        s = index.get(key)
        if s is None:
            s = index[key] = len(states)
            states.append(JointState(*key))
            rows[s] = []
            queue.append(s)
        return s

    for (action, probe_state, _), column in zip(probe.init, probe.columns["init"]):
        if column:  # not the zero polynomial
            t = intern((player.initial_state, probe_state, player.initial_action, action))
            rows[-1].append(t)
            cells += -1, t, column
    while queue:
        s = queue.popleft()
        js = states[s]
        next_player, next_action = player.step[(js.player_state, js.probe_action)]
        key = (js.probe_state, js.player_action)
        for (probe_action, next_probe, _), column in zip(probe.step[key], probe.columns[key]):
            if column:
                t = intern((next_player, next_probe, next_action, probe_action))
                rows[s].append(t)
                cells += s, t, column

    n = len(states)
    columns = np.zeros((n + 1, n), dtype=int)
    sources, targets, filled = np.array(cells).reshape(-1, 3).T
    columns[sources, targets] = filled
    return ParamChain(
        states=tuple(states),
        successors=tuple(tuple(rows[s]) for s in [*range(n), -1]),
        payoff=tuple(payoff.value(js.player_action, js.probe_action) for js in states),
        weights=probe.weights,
        index=columns.ravel(),
    )


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

    Each distinct weight is evaluated once per point and copied into every
    cell it fills; cells with no weight are exact 0.0.  Entries within
    ENTRY_TOL below zero are clipped to zero and every row is divided by its
    sum; an error names the first point that fails a check, and the first
    failing row and state there.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    check_in_simplex(xs, ys)
    n = chain.n_states
    index = chain.index
    values = chain.weights.evaluate(xs, ys)
    negative = values < -ENTRY_TOL
    # the init weights form row n, after the n transition rows
    rows = np.take(np.maximum(values, 0.0), index, axis=1).reshape(-1, n + 1, n)
    sums = rows.sum(axis=2)
    failed = negative.any(axis=1) | (np.abs(sums - 1.0) > ROW_SUM_TOL).any(axis=1)
    if failed.any():
        p = int(np.argmax(failed))
        point = (float(xs[p]), float(ys[p]))
        if negative[p].any():
            s, t = divmod(int(np.argmax(negative[p, index])), n)
            value = float(values[p, index[s * n + t]])
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


def classify_supports(support: np.ndarray) -> list[ClassDecomposition]:
    """Strongly connected components of each support graph of a (G, n, n)
    boolean stack, each flagged closed (no edges leave it) or transient,
    ordered by smallest state.

    Squaring the 0/1 walk matrices (support plus self-loops) k times covers
    every path of up to 2^k steps, so (n-1).bit_length() batched squarings
    give every graph's reachability closure; states that reach each other
    form one class, headed by its smallest state, and a class is closed when
    nothing it reaches lies outside it.
    """
    n = support.shape[-1]
    walk = (support | np.eye(n, dtype=bool)).astype(float)
    for _ in range((n - 1).bit_length()):
        walk = np.minimum(walk @ walk, 1.0)
    reach = walk > 0
    same = reach & reach.transpose(0, 2, 1)
    closed = ~np.any(reach & ~same, axis=2)
    decompositions = []
    for heads, flags in zip(same.argmax(axis=2).tolist(), closed.tolist()):
        members: dict[int, list[int]] = {}  # by head, so in order of smallest state
        for state, head in enumerate(heads):
            members.setdefault(head, []).append(state)
        decompositions.append(
            ClassDecomposition(
                tuple(ChainClass(tuple(states), flags[head]) for head, states in members.items())
            )
        )
    return decompositions


def closed_classes(matrix: np.ndarray) -> ClassDecomposition:
    """The classes of one evaluated (n, n) transition matrix's support graph,
    its entries above SUPPORT_CUTOFF: the stack of one of `classify_supports`."""
    return classify_supports(matrix[None] > SUPPORT_CUTOFF)[0]


# ---------------------------------------------------------------------------
# Subtraction-free (GTH) elimination, one pass per batch
# ---------------------------------------------------------------------------


def limit_distributions(matrix: np.ndarray, init: np.ndarray, points) -> np.ndarray:
    """Limiting state distributions (N, n) of N evaluated chains over the
    same states, with transition matrices `matrix` (N, n, n), initial
    distributions `init` (N, n) and parameter points `points` (N, 2).

    The points are grouped by support pattern (matrix > SUPPORT_CUTOFF), and
    the classes of all patterns are worked out together, by one
    `classify_supports` call over the stacked support of each pattern's
    first point.  One GTH pass then serves every point, over flow matrices
    (1 + n, 1 + n, N) with the point axis last, each ordered [start, the
    head (first state) of each closed class, the other closed-class states,
    the transient states].  The start row is the initial distribution and a closed-class
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
    if count == 0:
        return np.zeros((0, n))
    edges = matrix > SUPPORT_CUTOFF
    support = np.packbits(edges.reshape(count, -1), axis=1)
    if (support == support[0]).all():  # one pattern, the common call
        first, pattern = [0], np.zeros(count, dtype=int)
    else:
        # one opaque byte string per point, so that np.unique sorts rows as scalars
        keys = support.view(np.dtype((np.void, support.shape[1]))).ravel()
        _, first, pattern = np.unique(keys, return_index=True, return_inverse=True)

    decompositions = classify_supports(edges[first])
    orders, labels = [], []
    heads = np.empty(len(first), dtype=int)
    closed_size = 0  # most closed-class states of any pattern
    for g, decomposition in enumerate(decompositions):
        closed = decomposition.closed_classes()
        others = [s for cls in closed for s in cls.states[1:]]
        order = np.array(
            [cls.states[0] for cls in closed] + others + decomposition.transient_states()
        )
        label = np.full(n, -1)  # closed class of each state, -1 if transient
        for j, cls in enumerate(closed):
            label[list(cls.states)] = j
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
