"""Joint player-probe Markov chains and their limiting distributions.

`compose` builds the parametrized chain over joint states (player state,
probe state, last player move, last probe move); `evaluate` instantiates it
at a parameter point; `limit_distribution` computes the limiting (Cesaro)
state distribution, handling reducible and periodic chains via closed-class
decomposition: absorption probabilities into each closed class times the
unique stationary distribution inside it.

The classes come from the reachability closure of the support graph.  One
GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985) over a
class-ordered flow matrix gives both the absorption probabilities and the
stationary distributions: each eliminated state's diagonal is the sum of its
off-diagonal out-flow rather than 1 - p_ii, so nothing is subtracted and the
results keep entrywise relative accuracy even when escape rates are tiny.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .automata import PayoffMatrix, PlayerMachine, Probe
from .errors import (
    AlphabetMismatchError,
    NegativeWeightError,
    OutOfSimplexError,
    ProbeValidationError,
    SingularSystemError,
)
from .polyexpr import ParamExpr

# Evaluated probabilities above this count as support edges; identically-zero
# polynomials evaluate to exact 0.0, so this separates structure from roundoff.
SUPPORT_CUTOFF = 1e-14

ROW_SUM_TOL = 1e-12
ENTRY_TOL = 1e-12
SIMPLEX_TOL = 1e-12
RESIDUAL_TOL = 1e-9


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


@dataclass
class NumericChain:
    """A ParamChain instantiated at one parameter point."""

    point: tuple[float, float]
    matrix: np.ndarray
    init: np.ndarray
    payoff: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.init = np.asarray(self.init, dtype=float)
        self.payoff = np.asarray(self.payoff, dtype=float)
        rows = self.matrix.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-10):
            raise ValueError("transition rows must sum to 1")

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]


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


@dataclass
class LimitDistribution:
    """Limiting (Cesaro) state distribution of an evaluated chain."""

    pi: np.ndarray


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
        init_weights[s] = init_weights[s] + weight
        if was_new:
            queue.append(s)

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
            row[t] = row.get(t, ParamExpr.zero()) + weight

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


def evaluate(chain: ParamChain, x: float, y: float) -> NumericChain:
    """Instantiate the chain at a parameter point inside the closed triangle."""
    if x < -SIMPLEX_TOL or y < -SIMPLEX_TOL or x + y > 1 + SIMPLEX_TOL:
        raise OutOfSimplexError(x, y)
    n = chain.n_states
    matrix = np.zeros((n, n))
    for s, row in enumerate(chain.trans):
        for t, weight in row.items():
            matrix[s, t] = weight.evaluate(x, y)
    init = np.array([w.evaluate(x, y) for w in chain.init])

    for label, arr in (("transition", matrix), ("initial", init)):
        low = arr.min()
        if low < -ENTRY_TOL:
            raise NegativeWeightError(
                f"{label} probability {low} below tolerance", (x, y)
            )
    np.clip(matrix, 0.0, None, out=matrix)
    np.clip(init, 0.0, None, out=init)

    row_sums = matrix.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        worst = int(np.argmax(np.abs(row_sums - 1.0)))
        raise NegativeWeightError(
            f"transition row {worst} sums to {row_sums[worst]!r}", (x, y)
        )
    matrix /= row_sums[:, None]
    init_sum = init.sum()
    if abs(init_sum - 1.0) > ROW_SUM_TOL:
        raise NegativeWeightError(f"initial distribution sums to {init_sum!r}", (x, y))
    init /= init_sum

    return NumericChain(
        point=(x, y),
        matrix=matrix,
        init=init,
        payoff=np.array([float(p) for p in chain.payoff]),
    )


# ---------------------------------------------------------------------------
# Closed-class decomposition (reachability closure of the support graph)
# ---------------------------------------------------------------------------


def closed_classes(m: NumericChain) -> ClassDecomposition:
    """Strongly connected components of the support graph, each flagged
    closed (no edges leave it) or transient, ordered by smallest state.

    Squaring the 0/1 walk matrix (support plus self-loops) k times covers
    every path of up to 2^k steps, so (n-1).bit_length() squarings give the
    reachability closure; states that reach each other form one class, and
    a class is closed when nothing it reaches lies outside it.
    """
    n = m.n_states
    walk = np.maximum(m.matrix > SUPPORT_CUTOFF, np.eye(n))
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
# Subtraction-free (GTH) elimination
# ---------------------------------------------------------------------------


def _censor(a: np.ndarray, k: int, where) -> None:
    """One GTH step: remove state k from the flow matrix a[:k+1, :k+1] and
    reroute the flow into k along k's out-flows to the states 0..k-1.

    The out-flow is the sum of k's off-diagonal entries, never 1 - a[k, k],
    so the step only adds, multiplies and divides nonnegative numbers.
    Column k is left holding the in-flow per unit out-flow, which is what
    back-substitution needs.  `where(k)` describes state k for the error.
    """
    out = a[k, :k].sum()
    if not out > 0:
        raise SingularSystemError(f"zero out-flow from {where(k)}")
    a[:k, k] /= out
    a[:k, :k] += np.outer(a[:k, k], a[k, :k])


def limit_distribution(m: NumericChain) -> LimitDistribution:
    """Limiting state distribution: absorption probability of each closed
    class from the initial distribution, times the stationary distribution
    within the class (its Cesaro limit also when the class is periodic).

    One GTH pass over a flow matrix ordered [start, the head (first state)
    of each closed class, the other closed-class states, the transient
    states] does both solves.  The start row is the initial distribution and
    a closed-class row keeps only its own class's entries, so flow below
    SUPPORT_CUTOFF cannot leak between classes.  Eliminating every state
    after the heads leaves the start row holding the absorption
    probabilities; back-substituting from head weight 1, with the start row
    left out, gives each class's stationary vector.
    """
    n = m.n_states
    decomposition = closed_classes(m)
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

    flow = np.zeros((1 + n, 1 + n))
    flow[0, 1:] = m.init[order]
    keep = (label[:, None] == label) | (label[:, None] < 0)
    flow[1:, 1:] = np.where(keep, m.matrix[np.ix_(order, order)], 0.0)

    def where(k):
        state = int(order[k - 1])
        cls = next(cl for cl in decomposition.classes if state in cl.states)
        kind = "closed" if cls.closed else "transient"
        return f"state {state} of {kind} class {list(cls.states)} at point {m.point}"

    for k in range(n, c, -1):
        _censor(flow, k, where)
    absorption = flow[0, 1 : 1 + c]

    total = absorption.sum()
    if abs(total - 1.0) > 1e-10:
        raise SingularSystemError(
            f"absorption probabilities sum to {total!r} at point {m.point}"
        )
    absorption /= total

    size = c + len(others)
    weight = np.zeros(1 + size)
    weight[1 : 1 + c] = 1.0
    for k in range(1 + c, 1 + size):
        weight[k] = weight[:k] @ flow[:k, k]
    weight = weight[1:]
    label = label[:size]
    mass = np.bincount(label, weights=weight, minlength=c)
    pi = np.zeros(n)
    pi[order[:size]] = absorption[label] * (weight / mass[label])

    residual = np.max(np.abs(pi @ m.matrix - pi))
    if not residual <= RESIDUAL_TOL:
        raise SingularSystemError(
            f"limit distribution residual {residual!r} exceeds tolerance at {m.point}"
        )
    total = pi.sum()
    if abs(total - 1.0) > 1e-10:
        raise SingularSystemError(f"limit distribution sums to {total!r} at {m.point}")
    return LimitDistribution(pi=pi / total)


def expected_payoff_exact(
    pi: LimitDistribution, payoff: Sequence[Fraction]
) -> Fraction:
    """Exact dot product of the limit distribution with the payoff vector.

    Float probabilities convert to Fractions losslessly, so scaling the
    payoff vector by a rational scales the result by exactly that rational.
    """
    vec = pi.pi
    if len(vec) != len(payoff):
        raise ValueError("payoff vector length does not match chain")
    total = Fraction(0)
    for p, value in zip(vec, payoff):
        total += Fraction(float(p)) * Fraction(value)
    return total


def expected_payoff(pi: LimitDistribution, payoff: Sequence[Fraction]) -> float:
    if len(pi.pi) != len(payoff):
        raise ValueError("payoff vector length does not match chain")
    return float(pi.pi @ np.array([float(p) for p in payoff]))
