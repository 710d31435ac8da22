"""Independent oracles and random-instance generators for the test suite.

Everything here deliberately avoids the production solvers: the Cesaro
oracle uses matrix powers, the corner oracle walks deterministic cycles with
exact rationals, the polynomial oracle sums one term at a time in plain
floats, the integration oracle uses closed-form monomial integrals
over the triangle, the determinant oracle is a general pivoting Bareiss
elimination, the fingerprint oracle solves one point at a time, and the
Monte Carlo oracle picks each round's outcome with one searchsorted in
its state's cumulative row and takes the exact mean of the paid payoffs.
The grid CSV oracle converts each field with float(), one line at a time.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction

import numpy as np

from probefp.automata import PayoffMatrix, PlayerMachine, Probe, validate_probe
from probefp.chain import (
    ENTRY_TOL,
    RESIDUAL_TOL,
    ROW_SUM_TOL,
    SIMPLEX_TOL,
    SUPPORT_CUTOFF,
    ParamChain,
    compose,
    evaluate,
)
from probefp.errors import (
    ExactDivisionError,
    InputError,
    NegativeWeightError,
    OutOfSimplexError,
    SingularSystemError,
)
from probefp.fingerprint import BOUNDARY_TOL, OFFSET_EPS
from probefp.polyexpr import ParamExpr, PolyTable


# ---------------------------------------------------------------------------
# Cesaro averages by matrix powers
# ---------------------------------------------------------------------------


def cesaro_average_literal(matrix: np.ndarray, init: np.ndarray, n: int) -> np.ndarray:
    """(1/n) * sum_{k=1..n} init P^k by the plain sequential loop."""
    vec = np.array(init, dtype=float)
    acc = np.zeros_like(vec)
    for _ in range(n):
        vec = vec @ matrix
        acc += vec
    return acc / n


def cesaro_average(matrix: np.ndarray, init: np.ndarray, n: int) -> np.ndarray:
    """Same quantity via binary splitting of the partial-sum recursion
    S(2m) = S(m) + P^m S(m), so n = 10^6 costs ~40 matrix products.

    test_chain cross-checks this against the literal loop.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = np.array(matrix, dtype=float)
    bits = bin(n)[2:]
    total = p.copy()  # S(1)
    power = p.copy()  # P^1
    for bit in bits[1:]:
        total = total + power @ total
        power = power @ power
        if bit == "1":
            power = power @ p
            total = total + power
    return (np.asarray(init, dtype=float) @ total) / n


# ---------------------------------------------------------------------------
# Class structure by breadth-first reachability
# ---------------------------------------------------------------------------


def support_classes(support) -> list[tuple[tuple[int, ...], bool]]:
    """(states, closed) for each strongly connected class of a boolean
    support graph, ordered by smallest state: one breadth-first search per
    state gives its reachable set, mutual reachability gives the classes,
    and a class is closed when its states reach nothing outside it."""
    n = len(support)
    reach = []
    for s in range(n):
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if support[u][v] and v not in seen:
                    seen.add(v)
                    queue.append(v)
        reach.append(seen)
    classes = []
    assigned: set[int] = set()
    for s in range(n):
        if s in assigned:
            continue
        members = tuple(t for t in range(n) if t in reach[s] and s in reach[t])
        assigned.update(members)
        classes.append((members, reach[s] <= set(members)))
    return classes


# ---------------------------------------------------------------------------
# Polynomials one term at a time
# ---------------------------------------------------------------------------


def scalar_evaluator(expr: ParamExpr):
    """expr as a plain (x, y) -> float callable that sums its terms one at a
    time in descending graded-lex order.  Where the sum falls below 1/16 of
    the summed term magnitudes, float cancellation has cost relative
    accuracy, so the exact value is rounded once instead.  The zero
    polynomial gives 0.0."""
    terms = [(float(coeff), i, j) for (i, j), coeff in expr.sorted_terms()]

    def value(x: float, y: float) -> float:
        total = magnitude = 0.0
        for coeff, i, j in terms:
            term = coeff * x**i * y**j
            total += term
            magnitude += abs(term)
        if abs(total) < magnitude / 16:
            return float(expr.evaluate_exact(x, y))
        return total

    return value


def chain_rows(chain: ParamChain) -> tuple[list[dict[int, ParamExpr]], dict[int, ParamExpr]]:
    """Each transition row of `chain` as {target: weight}, and its init row
    the same way, in `successors` order, read from the probe's weights
    through `index`."""
    n = chain.n_states
    exprs, index = chain.weights.exprs, chain.index.tolist()
    rows = [
        {t: exprs[index[s * n + t]] for t in targets} for s, targets in enumerate(chain.successors)
    ]
    return rows[:n], rows[n]


def compose_by_search(player: PlayerMachine, probe: Probe):
    """The joint chain of `player` against `probe` by a plain breadth-first
    search over their steps: the joint states as (player state, probe
    state, player action, probe action) in order of discovery, each state's
    row as [(target, weight)] in the order of the probe's outcomes, and the
    init row the same way.  Outcomes whose weight is the zero polynomial
    are left out."""
    states: list[tuple[int, int, str, str]] = []
    number: dict[tuple[int, int, str, str], int] = {}

    def visit(key: tuple[int, int, str, str]) -> int:
        if key not in number:
            number[key] = len(states)
            states.append(key)
        return number[key]

    start_state, start_action = player.initial_state, player.initial_action
    init = [
        (visit((start_state, q, start_action, a)), w) for a, q, w in probe.init if not w.is_zero()
    ]
    rows = []
    while len(rows) < len(states):  # the states not yet expanded are the queue
        player_state, probe_state, player_action, probe_action = states[len(rows)]
        next_state, next_action = player.step[(player_state, probe_action)]
        outcomes = probe.step[(probe_state, player_action)]
        rows.append(
            [(visit((next_state, q, next_action, a)), w) for a, q, w in outcomes if not w.is_zero()]
        )
    return states, rows, init


def all_cells_points(chain: ParamChain, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrices (N, n, n) and initial distributions (N, n) at
    points where the chain is valid, from one `PolyTable` column per cell of
    the (n + 1) x n array of transition rows then the init row (the zero
    polynomial where a cell has no weight), each row clipped at zero and
    divided by its sum."""
    n = chain.n_states
    zero = ParamExpr.zero()
    trans, init = chain_rows(chain)
    cells = [row.get(t, zero) for row in trans + [init] for t in range(n)]
    values = PolyTable(cells).evaluate(xs, ys)
    rows = np.maximum(values, 0.0).reshape(-1, n + 1, n)
    rows /= rows.sum(axis=2)[:, :, None]
    return rows[:, :n], rows[:, n]


def chain_sum_residuals(chain: ParamChain) -> list[dict]:
    """1 minus the sum of each transition row of `chain` and then of its
    init, as {exponents: coefficient} with the zero terms left out, summed
    one term at a time: all empty for a chain of distributions."""
    trans, init = chain_rows(chain)
    residuals = []
    for weights in [list(row.values()) for row in trans + [init]]:
        total = {(0, 0): Fraction(-1)}
        for weight in weights:
            for key, coeff in weight.terms.items():
                total[key] = total.get(key, Fraction(0)) + coeff
        residuals.append({key: -coeff for key, coeff in total.items() if coeff})
    return residuals


# ---------------------------------------------------------------------------
# Fingerprints one point at a time
# ---------------------------------------------------------------------------


class PointOracle:
    """A chain evaluated and solved one point at a time.  Each weight becomes
    a `scalar_evaluator` once, so that many points of one chain pay for the
    float coefficients once."""

    def __init__(self, chain: ParamChain):
        self.n = chain.n_states
        trans, init = chain_rows(chain)
        self.trans = [[(t, scalar_evaluator(w)) for t, w in row.items()] for row in trans]
        zero = ParamExpr.zero()
        self.init = [scalar_evaluator(init.get(t, zero)) for t in range(self.n)]
        self.payoff = chain.payoff_vector()

    def evaluate(self, x: float, y: float) -> tuple[np.ndarray, np.ndarray]:
        """Transition matrix and initial distribution at one point, one
        evaluator call per weight, checked, clipped and normalised row by
        row."""
        if not (x >= -SIMPLEX_TOL and y >= -SIMPLEX_TOL and x + y <= 1 + SIMPLEX_TOL):
            raise OutOfSimplexError(x, y)
        matrix = np.zeros((self.n, self.n))
        for s, row in enumerate(self.trans):
            for t, weight in row:
                matrix[s, t] = weight(x, y)
        init = np.array([weight(x, y) for weight in self.init])
        for label, arr in (("transition", matrix), ("initial", init)):
            if arr.min() < -ENTRY_TOL:
                raise NegativeWeightError(
                    f"{label} probability {arr.min()} below tolerance", (x, y)
                )
        np.clip(matrix, 0.0, None, out=matrix)
        np.clip(init, 0.0, None, out=init)
        row_sums = matrix.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            raise NegativeWeightError("transition row sum off", (x, y))
        if abs(init.sum() - 1.0) > ROW_SUM_TOL:
            raise NegativeWeightError("initial distribution sum off", (x, y))
        return matrix / row_sums[:, None], init / init.sum()

    def value(self, x: float, y: float, offset: bool = False) -> float:
        """The fingerprint at one point, solved on its own."""
        if offset:
            x, y = offset_point(x, y)
        return float(limit_distribution_point(*self.evaluate(x, y)) @ self.payoff)


def _censor(a: np.ndarray, k: int) -> None:
    """One GTH step: remove state k from the flow matrix a[:k+1, :k+1],
    taking its out-flow as the sum of its off-diagonal entries."""
    out = a[k, :k].sum()
    if not out > 0:
        raise SingularSystemError(f"zero out-flow from flow state {k}")
    a[:k, k] /= out
    a[:k, :k] += np.outer(a[:k, k], a[k, :k])


def limit_distribution_point(matrix: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Limit distribution of one evaluated chain: classes by breadth-first
    search, then one GTH pass over [start, class heads, other closed-class
    states, transient states] whose start row ends up holding the
    absorption probabilities, then back-substitution for each class's
    stationary vector."""
    n = len(matrix)
    classes = support_classes((matrix > SUPPORT_CUTOFF).tolist())
    closed = [states for states, is_closed in classes if is_closed]
    c = len(closed)
    others = [s for states in closed for s in states[1:]]
    transient = sorted(s for states, is_closed in classes if not is_closed for s in states)
    order = np.array([states[0] for states in closed] + others + transient)
    label = np.full(n, -1)
    for j, states in enumerate(closed):
        label[list(states)] = j
    label = label[order]

    flow = np.zeros((1 + n, 1 + n))
    flow[0, 1:] = init[order]
    keep = (label[:, None] == label) | (label[:, None] < 0)
    flow[1:, 1:] = np.where(keep, matrix[np.ix_(order, order)], 0.0)
    for k in range(n, c, -1):
        _censor(flow, k)
    absorption = flow[0, 1 : 1 + c] / flow[0, 1 : 1 + c].sum()

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
    if not np.max(np.abs(pi @ matrix - pi)) <= RESIDUAL_TOL:
        raise SingularSystemError("limit distribution residual exceeds tolerance")
    return pi / pi.sum()


def offset_point(x: float, y: float) -> tuple[float, float]:
    """A boundary point moved OFFSET_EPS toward the centroid (1/3, 1/3)."""
    if x > BOUNDARY_TOL and y > BOUNDARY_TOL and x + y < 1 - BOUNDARY_TOL:
        return x, y
    dx, dy = 1.0 / 3.0 - x, 1.0 / 3.0 - y
    norm = math.hypot(dx, dy)
    return x + OFFSET_EPS * dx / norm, y + OFFSET_EPS * dy / norm


# ---------------------------------------------------------------------------
# Monte Carlo play by one searchsorted per lane and round
# ---------------------------------------------------------------------------


def searchsorted_table(chain: ParamChain, x: float, y: float):
    """Sampling table of the chain at one point: for each joint state, and
    last for the init row, its outcomes' cumulative probabilities in
    `cumulative[s]`, 1.0 from the first that equals the row's sum on, and
    one successor each in `successors[s]`."""
    matrix, init = evaluate(chain, x, y)
    trans, first = chain_rows(chain)
    successors = [list(row) for row in trans + [first]]
    cumulative = []
    for probs, row in zip([*matrix, init], successors):
        sums = np.cumsum(probs[row])
        top = min(i for i, total in enumerate(sums.tolist()) if total == sums[-1])
        sums[top:] = 1.0
        cumulative.append(sums)
    return cumulative, successors


def run_lanes_searchsorted(
    chain: ParamChain, x: float, y: float, rounds: int, burn_in: int, seeds
) -> np.ndarray:
    """Per-lane mean payoff after burn-in, each round picking the lane's
    outcome with one searchsorted of its uniform in its state's cumulative
    row.  A mean is the exact sum of the paid rounds' `chain.payoff`
    fractions, tallied by state, over their count, rounded once."""
    cumulative, successors = searchsorted_table(chain, x, y)
    means = []
    for seed in seeds:
        gen = np.random.Generator(np.random.PCG64(int(seed)))
        # the init row is last
        state = successors[-1][cumulative[-1].searchsorted(gen.random(), side="right")]
        visits = [0] * chain.n_states  # paid rounds that end in each state
        if burn_in == 0:
            visits[state] += 1
        for done, u in enumerate(gen.random(rounds - 1).tolist(), start=1):
            state = successors[state][cumulative[state].searchsorted(u, side="right")]
            if done >= burn_in:
                visits[state] += 1
        total = sum(count * payoff for count, payoff in zip(visits, chain.payoff))
        means.append(float(total / (rounds - burn_in)))
    return np.array(means)


# ---------------------------------------------------------------------------
# Determinants over the polynomial ring
# ---------------------------------------------------------------------------


def _grlex(key: tuple[int, int]) -> tuple[int, int]:
    return (key[0] + key[1], key[0])


def exact_div(a: ParamExpr, b: ParamExpr) -> ParamExpr:
    """Divide a by b over the rationals by leading-term reduction in
    graded-lex order, raising ExactDivisionError unless the division is
    exact."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    divisor = b.terms
    lead_b = max(divisor, key=_grlex)
    remainder = a.terms
    quotient: dict[tuple[int, int], Fraction] = {}
    while remainder:
        lead_r = max(remainder, key=_grlex)
        qi = lead_r[0] - lead_b[0]
        qj = lead_r[1] - lead_b[1]
        if qi < 0 or qj < 0:
            raise ExactDivisionError(
                f"{ParamExpr(remainder).render()!r} is not divisible by {b.render()!r}"
            )
        qc = remainder[lead_r] / divisor[lead_b]
        quotient[(qi, qj)] = quotient.get((qi, qj), Fraction(0)) + qc
        for (bi, bj), bc in divisor.items():
            key = (bi + qi, bj + qj)
            new = remainder.get(key, Fraction(0)) - qc * bc
            if new:
                remainder[key] = new
            else:
                remainder.pop(key, None)
    return ParamExpr(quotient)


def bareiss_det(matrix: list[list[ParamExpr]]) -> ParamExpr:
    """Determinant of any square polynomial matrix by fraction-free (Bareiss)
    elimination with pivot search and row exchange; every division by the
    previous pivot is exact."""
    n = len(matrix)
    if n == 0:
        return ParamExpr.one()
    a = [row[:] for row in matrix]
    previous = ParamExpr.one()
    sign = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if not a[r][k].is_zero()), None)
        if pivot_row is None:
            return ParamExpr.zero()
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = exact_div(pivot * a[i][j] - factor * a[k][j], previous)
            a[i][k] = ParamExpr.zero()
        previous = pivot
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def integer_row(row: list[ParamExpr]) -> tuple[list[dict[tuple[int, int], int]], int]:
    """The row's polynomials times the lcm of all their coefficient
    denominators, as integer term maps, and that lcm."""
    scale = math.lcm(*(c.denominator for e in row for c in e.terms.values()))
    return [{key: int(c * scale) for key, c in e.terms.items()} for e in row], scale


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd over the rationals: gcd(p1/q1, p2/q2) = gcd(p1, p2) / lcm(q1, q2)."""
    return Fraction(math.gcd(a.numerator, b.numerator), math.lcm(a.denominator, b.denominator))


def ratfn_normal_form(num: ParamExpr, den: ParamExpr) -> tuple[ParamExpr, ParamExpr]:
    """num and den divided by the rational gcd of all their coefficients,
    then negated if den's graded-lex leading coefficient is negative."""
    common = Fraction(0)
    for coeff in [*num.terms.values(), *den.terms.values()]:
        common = _frac_gcd(common, coeff)
    if den.leading_coefficient() < 0:
        common = -common
    return num.scale(1 / common), den.scale(1 / common)


def closed_form_rows(chain: ParamChain) -> list[list[ParamExpr]]:
    """The closed form's n + 1 rows by polynomial arithmetic: the n - 1
    stationary rows (row j is column j of I - P), the normalisation row of
    ones and the payoff row."""
    n = chain.n_states
    zero, one = ParamExpr.zero(), ParamExpr.one()
    cells = [chain.weights.exprs[k] for k in chain.index[: n * n].tolist()]
    system = [
        [(one if i == j else zero) - cells[i * n + j] for i in range(n)] for j in range(n - 1)
    ]
    return [*system, [one] * n, [ParamExpr.const(w) for w in chain.payoff]]


# ---------------------------------------------------------------------------
# Deterministic limit cycles against a constant opponent
# ---------------------------------------------------------------------------


def cycle_average_payoff(
    player: PlayerMachine, opponent_action: str, payoff: PayoffMatrix
) -> Fraction:
    """Exact limiting average payoff of a player whose opponent plays one
    fixed move forever; found by walking the deterministic trajectory until
    the (state, move) pair repeats."""
    node = (player.initial_state, player.initial_action)
    seen: dict[tuple[int, str], int] = {}
    payoffs: list[Fraction] = []
    while node not in seen:
        seen[node] = len(payoffs)
        payoffs.append(payoff.value(node[1], opponent_action))
        state, _ = node
        nxt, out = player.step[(state, opponent_action)]
        node = (nxt, out)
    cycle = payoffs[seen[node] :]
    return Fraction(sum(cycle), len(cycle))


# ---------------------------------------------------------------------------
# Exact integration over the parameter triangle
# ---------------------------------------------------------------------------


def triangle_monomial_integral(i: int, j: int) -> Fraction:
    """Integral of x^i y^j over {x,y >= 0, x+y <= 1} = i! j! / (i+j+2)!."""
    return Fraction(
        math.factorial(i) * math.factorial(j), math.factorial(i + j + 2)
    )


def integrate_exact(poly: ParamExpr) -> Fraction:
    total = Fraction(0)
    for (i, j), coeff in poly.terms.items():
        total += coeff * triangle_monomial_integral(i, j)
    return total


def exact_l2_distance(p: ParamExpr, q: ParamExpr) -> float:
    """Exact L2 distance between two polynomial fingerprints."""
    diff = p - q
    return math.sqrt(float(integrate_exact(diff * diff)))


# ---------------------------------------------------------------------------
# Random machines, probes, and points
# ---------------------------------------------------------------------------

ALPHABET = ("C", "D")


def random_player(rng: random.Random, max_states: int = 4) -> PlayerMachine:
    """A random deterministic strategy, restricted to its reachable states."""
    n = rng.randint(1, max_states)
    step = {
        (s, a): (rng.randrange(n), rng.choice(ALPHABET))
        for s in range(n)
        for a in ALPHABET
    }
    reachable = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for a in ALPHABET:
            t = step[(s, a)][0]
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)
    order = sorted(reachable)
    relabel = {old: new for new, old in enumerate(order)}
    machine = PlayerMachine(
        name=f"RAND{rng.randrange(10**6)}",
        alphabet=ALPHABET,
        state_names=tuple(str(s) for s in range(len(order))),
        initial_state=0,
        initial_action=rng.choice(ALPHABET),
        step={
            (relabel[s], a): (relabel[t], out)
            for (s, a), (t, out) in step.items()
            if s in reachable
            for t, out in [step[(s, a)]]
        },
    )
    machine.validate()
    return machine


def _random_distribution(rng: random.Random, outcomes: list[tuple[str, int]]):
    """Weights built as convex combinations of {x, y, 1-x-y} with rational
    proportions: automatically nonnegative on the triangle and summing to 1."""
    basis = [ParamExpr.var_x(), ParamExpr.var_y(),
             ParamExpr.one() - ParamExpr.var_x() - ParamExpr.var_y()]
    weights = [ParamExpr.zero() for _ in outcomes]
    for b in basis:
        shares = [rng.randint(0, 4) for _ in outcomes]
        if sum(shares) == 0:
            shares[rng.randrange(len(outcomes))] = 1
        total = sum(shares)
        for idx, share in enumerate(shares):
            if share:
                weights[idx] = weights[idx] + b.scale(Fraction(share, total))
    merged: dict[tuple[str, int], ParamExpr] = {}
    for (action, state), weight in zip(outcomes, weights):
        if not weight.is_zero():
            key = (action, state)
            merged[key] = merged.get(key, ParamExpr.zero()) + weight
    ordered = sorted(merged.items(), key=lambda kv: (ALPHABET.index(kv[0][0]), kv[0][1]))
    return tuple((a, s, w) for (a, s), w in ordered)


def random_probe(rng: random.Random, max_states: int = 4) -> Probe:
    """A random valid probe; weights sum to 1 exactly and are nonnegative on
    the whole triangle by construction."""
    while True:
        n = rng.randint(1, max_states)
        all_outcomes = [(a, s) for a in ALPHABET for s in range(n)]

        def pick_outcomes() -> list[tuple[str, int]]:
            k = rng.randint(1, min(3, len(all_outcomes)))
            return rng.sample(all_outcomes, k)

        init = _random_distribution(rng, pick_outcomes())
        step = {
            (s, a): _random_distribution(rng, pick_outcomes())
            for s in range(n)
            for a in ALPHABET
        }
        probe = Probe(
            name=f"RPROBE{rng.randrange(10**6)}",
            alphabet=ALPHABET,
            state_names=tuple(str(s) for s in range(n)),
            init=init,
            step=step,
        )
        report = validate_probe(probe)
        if report.unreachable_states:
            continue  # resample rather than rebuild around dead states
        assert report.ok, "generator produced an invalid probe"
        return probe


def random_oracle_pairs() -> list[tuple[PlayerMachine, Probe]]:
    """A fixed corpus of 40 random player/probe pairs (at most 4 states each)."""
    rng = random.Random(2024)
    return [(random_player(rng, 4), random_probe(rng, 4)) for _ in range(40)]


def irreducible_random_pairs(count: int) -> list[tuple[PlayerMachine, Probe]]:
    """`count` seeded random player/probe pairs (at most 4 states each) whose
    joint chain has at most 20 states and is irreducible on its structural
    support: `support_classes` over the chain's nonzero weights finds one
    class, holding every state.  The state cap keeps the closed forms quick:
    the first 32 pairs take about 0.3 s together, while the first 31-state
    chain of the same stream takes about 6 s."""
    rng = random.Random(2025)
    payoff = PayoffMatrix.default_prisoners_dilemma()
    pairs = []
    while len(pairs) < count:
        player, probe = random_player(rng, 4), random_probe(rng, 4)
        chain = compose(player, probe, payoff)
        trans, _ = chain_rows(chain)
        support = [[bool(row.get(t)) for t in range(chain.n_states)] for row in trans]
        if chain.n_states <= 20 and len(support_classes(support)) == 1:
            pairs.append((player, probe))
    return pairs


def random_interior_point(rng: random.Random, margin: float = 0.05):
    while True:
        x = rng.uniform(margin, 1.0 - margin)
        y = rng.uniform(margin, 1.0 - margin)
        if x + y <= 1.0 - margin:
            return x, y


# ---------------------------------------------------------------------------
# Fast-mixing corpus for the power-iteration comparison
#
# The Cesaro average over N rounds carries a transient bias of roughly
# (accumulated deviation)/N, so comparing the exact solver against the
# N = 10^6 oracle at 1e-6 is only meaningful when the chain mixes quickly.
# These generators produce random pairs whose joint chains provably mix:
# strongly connected players (no absorbing substructure) and probes whose
# distributions share a 3/4-weight common component (Doeblin coupling).
# ---------------------------------------------------------------------------


def strongly_connected_player(rng: random.Random, max_states: int = 4) -> PlayerMachine:
    """Random player whose transition digraph is strongly connected."""
    while True:
        n = rng.randint(1, max_states)
        step = {
            (s, a): (rng.randrange(n), rng.choice(ALPHABET))
            for s in range(n)
            for a in ALPHABET
        }
        connected = True
        for start in range(n):
            seen = {start}
            frontier = [start]
            while frontier:
                s = frontier.pop()
                for a in ALPHABET:
                    t = step[(s, a)][0]
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
            if len(seen) != n:
                connected = False
                break
        if not connected:
            continue
        machine = PlayerMachine(
            name=f"RSC{rng.randrange(10**6)}",
            alphabet=ALPHABET,
            state_names=tuple(str(s) for s in range(n)),
            initial_state=0,
            initial_action=rng.choice(ALPHABET),
            step=step,
        )
        machine.validate()
        return machine


def _dense_weights(rng: random.Random, k: int) -> list[ParamExpr]:
    basis = [
        ParamExpr.var_x(),
        ParamExpr.var_y(),
        ParamExpr.one() - ParamExpr.var_x() - ParamExpr.var_y(),
    ]
    out = [ParamExpr.zero()] * k
    for b in basis:
        shares = [rng.randint(1, 4) for _ in range(k)]
        total = sum(shares)
        for i, share in enumerate(shares):
            out[i] = out[i] + b.scale(Fraction(share, total))
    return out


def mixing_probe(
    rng: random.Random, max_states: int = 4, blend: Fraction = Fraction(3, 4)
) -> Probe:
    """Random valid probe where every distribution is blend*common +
    (1-blend)*specific with one shared common part per probe."""
    while True:
        n = rng.randint(1, max_states)
        all_out = [(a, s) for a in ALPHABET for s in range(n)]

        def pick() -> list[tuple[str, int]]:
            want = min(2 + rng.randint(0, 1), len(all_out))
            picks = [("C", rng.randrange(n)), ("D", rng.randrange(n))]
            while len(picks) < want:
                cand = rng.choice(all_out)
                if cand not in picks:
                    picks.append(cand)
            return picks

        common_out = pick()
        common_w = _dense_weights(rng, len(common_out))

        def distribution(extra: list[tuple[str, int]]):
            spec_w = _dense_weights(rng, len(extra))
            merged: dict[tuple[str, int], ParamExpr] = {}
            for (a, s), w in zip(common_out, common_w):
                merged[(a, s)] = merged.get((a, s), ParamExpr.zero()) + w.scale(blend)
            for (a, s), w in zip(extra, spec_w):
                merged[(a, s)] = merged.get((a, s), ParamExpr.zero()) + w.scale(
                    1 - blend
                )
            ordered = sorted(
                merged.items(), key=lambda kv: (ALPHABET.index(kv[0][0]), kv[0][1])
            )
            return tuple((a, s, w) for (a, s), w in ordered)

        probe = Probe(
            name=f"MPROBE{rng.randrange(10**6)}",
            alphabet=ALPHABET,
            state_names=tuple(str(s) for s in range(n)),
            init=distribution(pick()),
            step={(s, a): distribution(pick()) for s in range(n) for a in ALPHABET},
        )
        report = validate_probe(probe)
        if report.unreachable_states:
            continue
        assert report.ok, "generator produced an invalid probe"
        return probe


def random_polynomial(rng: random.Random, max_degree: int = 3, coeff_range: int = 3) -> ParamExpr:
    terms = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            if rng.random() < 0.5:
                c = rng.randint(-coeff_range, coeff_range)
                if c:
                    terms[(i, j)] = Fraction(c)
    return ParamExpr(terms)


# ---------------------------------------------------------------------------
# Grid CSV rows, read the plain way
# ---------------------------------------------------------------------------


def grid_csv_by_float(text: str) -> tuple[dict, np.ndarray]:
    """The meta lines and the (count, 3) rows of a grid CSV, each field read
    with float() one line at a time; InputError names the first data line
    that does not split into three floats."""
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
    return meta, np.array(rows).reshape(-1, 3)
