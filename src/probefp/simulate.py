"""Monte Carlo oracle: literally play the probe game at a fixed point.

The joint play of a deterministic player against an evaluated probe is a
finite Markov chain, so each trajectory is driven purely by inverse-CDF
draws over the probe's outcome distributions, taken in canonical outcome
order.  Replicates run in vectorized lockstep, each on its own seeded PCG64
stream, so a replicate inside `estimate` reproduces `play_once` bit for bit.

The draws go through tables built once per call (`_GameTable`).  Each
uniform is reduced to its rank, the index of the interval of [0, 1) it
falls in.  Uniforms are drawn and ranked in blocks of `_BLOCK` (512)
rounds.  The ranks of k consecutive rounds form one index into a table of
k-round successors, so one `take` advances every lane k rounds, and after
the block one more `take` fills in the rounds in between.  The trajectory
is the one a round-by-round walk gives, and payoffs are summed over it per
chunk of `_CHUNK` (4096) rounds, so estimates do not depend on k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import PayoffMatrix, PlayerMachine, Probe
from .chain import ParamChain, compose, evaluate

RNG_ID = "numpy-pcg64"

# Each chunk's payoffs are summed as one (lanes, rounds) array, an order the
# estimates depend on under a non-integer payoff; the block size bounds the
# memory of the per-round arrays.
_CHUNK = 4096
_BLOCK = 512
_BUCKETS = 4096
# Entries of each k-round table; larger caps measured no faster and cost
# memory.
_TABLE_CAP = 4096


@dataclass
class SimEstimate:
    """Replicate-averaged long-run payoff estimate."""

    mean: float
    stderr: float
    rounds: int
    burn_in: int
    replicates: int
    seed: int


def default_burn_in(rounds: int) -> int:
    return rounds // 10


class _GameTable:
    """Rank tables of the joint chain at one point.

    Outcome selection is inverse-CDF sampling: state s takes the first
    outcome whose cumulative boundary b = fl(s + c) exceeds fl(s + u), with
    the outcomes of each row of `chain.trans` in canonical order.  Since
    fl(s + u) rises with u, the test fl(s + u) >= b is u >= theta(s, b) for
    one threshold theta, the least float u in [0, 1] that passes it; bisection
    on the bit patterns of [0, 1] finds it under the kernel's own rounding.
    The distinct thresholds in (0, 1), `cuts`, split [0, 1) into
    R = len(cuts) + 1 intervals, and `step[r * n + s]` is the successor of
    state s for every u in interval r.

    Rounds are played `k` at a time.  A rank tuple (r_0, ..., r_{k-1}) of k
    consecutive rounds has the index t = sum(r_i * R**i), and
    `after[j, t * n + s]` is the state after j + 1 of those rounds from
    state s.  It depends only on `step`, so it is built once per call; k is
    the largest value, at most `_BLOCK`, with R**k * n <= `_TABLE_CAP`, and
    k = 1 when R**2 * n exceeds it.
    """

    def __init__(self, chain: ParamChain, x: float, y: float):
        matrix, init = evaluate(chain, x, y)
        n = len(chain.trans)

        # Each row of the composed chain lists the probe's outcomes with
        # nonzero weight polynomials in canonical order, one successor each;
        # the boundaries of state s are s + its cumulative probabilities.
        cumulative = []
        for s, row in enumerate(chain.trans):
            cumulative.append(np.cumsum(matrix[s, list(row)]))
            cumulative[-1][-1] = 1.0
        lengths = [len(row) for row in chain.trans]
        owner = np.repeat(np.arange(n, dtype=float), lengths)
        bound = owner + np.concatenate(cumulative)
        firsts = np.cumsum(lengths) - lengths
        successors = np.array([t for row in chain.trans for t in row], dtype=np.int64)

        # theta(s, b) by bisection; a boundary that no u in [0, 1] reaches
        # (a partial sum rounded above 1) ends at 1.0 and never counts.
        lo = np.zeros(len(bound), dtype=np.int64)
        hi = np.full(len(bound), np.float64(1.0).view(np.int64))
        while (lo < hi).any():
            mid = (lo + hi) // 2
            hit = owner + mid.view(np.float64) >= bound
            hi = np.where(hit, mid, hi)
            lo = np.where(hit, lo, mid + 1)
        theta = lo.view(np.float64)
        self.cuts = np.array(sorted(set(theta[(theta > 0) & (theta < 1)].tolist())))

        # Outcomes passed at the left end of each interval, per state.  A
        # draw with fl(s + u) == s + 1 (about 2**-53 per draw, s >= 1) passes
        # every boundary of row s; it takes the outcome whose interval ends
        # at s + 1, the last one with positive width, as u just below does.
        lefts = np.concatenate(([0.0], self.cuts))
        passed = np.add.reduceat(theta <= lefts[:, None], firsts, axis=1)
        below = np.add.reduceat(bound < owner + 1, firsts)
        self.step = successors[firsts + np.minimum(passed, below)].ravel()

        # after[j, t * n + s] is after[j - 1, t * n + s] advanced one round
        # at rank r_j, the digit j of t in base R, starting from s at j = 0.
        n_ranks = len(self.cuts) + 1
        k = 1
        while k < _BLOCK and n_ranks ** (k + 1) * n <= _TABLE_CAP:
            k += 1
        t = np.arange(n_ranks**k).repeat(n)
        state = np.tile(np.arange(n), n_ranks**k)
        self.after = np.empty((k, n_ranks**k * n), dtype=np.int64)
        for j in range(k):
            state = self.after[j] = self.step.take(t // n_ranks**j % n_ranks * n + state)
        self.k = k
        # t * n from the ranks of a group's k rounds
        self.tuple_weights = n * n_ranks ** np.arange(k)

        # Ranks by bucket: in bucket i, [i / B, (i + 1) / B), every uniform
        # has the rank of the bucket's left end unless a cut lies inside the
        # bucket; only those few buckets are searched.
        edges = np.arange(_BUCKETS + 1) / _BUCKETS
        self._base = self.cuts.searchsorted(edges[:-1], side="right")
        self._split = self.cuts.searchsorted(edges[1:], side="left") > self._base

        self.init_cdf = np.cumsum(init)
        self.init_cdf[-1] = 1.0
        self.payoff = chain.payoff_vector()

    def ranks(self, uniforms: np.ndarray) -> np.ndarray:
        """Interval index of each uniform, the number of cuts <= u, as a new
        C-contiguous array."""
        bucket = (uniforms * _BUCKETS).astype(np.intp)
        ranks = self._base.take(bucket)
        split = np.flatnonzero(self._split.take(bucket))
        if split.size:
            ranks.flat[split] = self.cuts.searchsorted(uniforms.flat[split], side="right")
        return ranks


def _run_lanes(
    table: _GameTable,
    rounds: int,
    burn_in: int,
    seeds: np.ndarray,
) -> np.ndarray:
    """Per-lane mean payoff over rounds after burn-in; lane i consumes the
    uniform stream of PCG64(seeds[i]) exactly as a standalone run would."""
    lanes = len(seeds)
    generators = [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]

    first = np.array([g.random() for g in generators])
    states = np.searchsorted(table.init_cdf, first, side="right")

    totals = np.zeros(lanes)
    counted = 0
    if burn_in == 0:
        totals += table.payoff[states]
        counted = 1
    done = 1  # rounds simulated so far (round 1 is the initial draw)

    k = table.k
    groups = -(-_BLOCK // k)
    add, take = np.add, table.after[-1].take
    paths = table.after.T.copy()  # row t * n + s: the k states a group visits
    traj = np.empty((lanes, _CHUNK), dtype=np.int64)
    # columns past a block's width stay 0.0, which has rank 0
    uniforms = np.zeros((lanes, groups * k))
    rows = list(uniforms)  # made once: indexing uniforms[lane] costs about a draw
    # index t * n + s of each group's rank tuple t and entry state s
    entries = np.empty((groups, lanes), dtype=np.int64)
    while done < rounds:
        span = min(_CHUNK, rounds - done)
        for offset in range(0, span, _BLOCK):
            width = min(_BLOCK, span - offset)
            used = -(-width // k)
            uniforms[:, width:] = 0.0
            for gen, row in zip(generators, rows):
                gen.random(out=row[:width])
            ranks = table.ranks(uniforms[:, : used * k]).reshape(lanes, used, k)
            tuples = np.ascontiguousarray((ranks @ table.tuple_weights).T)
            # every index is in range; "clip" skips the buffered bounds check
            for tuple_index, entry in zip(tuples, entries):
                states = take(add(tuple_index, states, out=entry), mode="clip")
            path = paths.take(entries[:used].T, axis=0).reshape(lanes, -1)
            traj[:, offset : offset + width] = path[:, :width]
            # the padded rounds moved the lanes on; their real state is the
            # block's last
            states = traj[:, offset + width - 1].copy()
        start = max(burn_in - done, 0)
        if start < span:
            totals += table.payoff[traj[:, start:span]].sum(axis=1)
            counted += span - start
        done += span
    return totals / counted


def _check_args(rounds: int, burn_in: int) -> None:
    if burn_in < 0 or rounds <= burn_in:
        raise ValueError("need rounds > burn_in >= 0")


def play_once(
    player: PlayerMachine,
    probe: Probe,
    payoff: PayoffMatrix,
    x: float,
    y: float,
    rounds: int,
    burn_in: int,
    seed: int,
) -> float:
    """Mean payoff of one seeded game of `rounds` rounds, skipping the first
    `burn_in` rounds.  Identical inputs give identical output."""
    _check_args(rounds, burn_in)
    table = _GameTable(compose(player, probe, payoff), x, y)
    return float(_run_lanes(table, rounds, burn_in, np.array([seed]))[0])


def estimate(
    player: PlayerMachine,
    probe: Probe,
    payoff: PayoffMatrix,
    x: float,
    y: float,
    rounds: int,
    burn_in: int | None = None,
    replicates: int = 16,
    seed: int = 0,
    *,
    chain: ParamChain | None = None,
) -> SimEstimate:
    """Replicated play_once runs with seeds seed, seed+1, ...; the standard
    error is the sample standard deviation of the replicate means divided by
    sqrt(replicates).  `chain` is the composed joint chain of player, probe
    and payoff, for a caller that has composed it already."""
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    if burn_in is None:
        burn_in = default_burn_in(rounds)
    _check_args(rounds, burn_in)
    if chain is None:
        chain = compose(player, probe, payoff)
    table = _GameTable(chain, x, y)
    seeds = np.array([seed + k for k in range(replicates)])
    means = _run_lanes(table, rounds, burn_in, seeds)
    return SimEstimate(
        mean=float(np.mean(means)),
        stderr=float(np.std(means, ddof=1) / np.sqrt(replicates)),
        rounds=rounds,
        burn_in=burn_in,
        replicates=replicates,
        seed=seed,
    )
