"""Monte Carlo oracle: literally play the probe game at a fixed point.

The joint play of a deterministic player against an evaluated probe is a
finite Markov chain, so each trajectory is driven purely by inverse-CDF
draws over the probe's outcomes in its own order (canonical for parsed and
Joss-Ann probes).  Replicates run in vectorized lockstep, and replicate k of
a call with seed s plays numpy's `PCG64(s + k)` stream, for any s >= 0, so
a replicate inside `estimate` reproduces `play_once` bit for bit.  The
streams' states are computed for all replicates at once (`_seed_words`):
numpy's `SeedSequence` hash, run over every lane in one pass of uint32
arrays, gives each lane the state words `PCG64(s + k)` would compute.

Each draw takes the first outcome of its state's row whose cumulative
probability exceeds the uniform.  The draws go through tables built once
per call (`_GameTable`).  Each uniform is reduced to its rank, the index of
the interval of [0, 1) between consecutive cumulative probabilities it
falls in: the count of those probabilities at or below it, one comparison
each, kept in the smallest unsigned integer type that holds it.  The ranks
of a group of k consecutive rounds form one index into a table of k-round
successors, so one `take` advances every lane k rounds.  The same index
reads, from a table of payoff-class counts, how many of the group's k
rounds end in each of the chain's distinct exact payoffs.  Everything runs
a chunk of `_CHUNK` (4096) rounds at a time: each lane draws the chunk's
uniforms in one call, the chunk is ranked at once, one walk crosses all of
its groups, and one `take` of count rows pays its whole groups, so memory
is O(lanes x `_CHUNK`) whatever the round count.  A lane's mean is the
exact mean of its paid payoffs, summed in integers over their common
denominator and rounded once, so it depends on neither k nor `_CHUNK`.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .automata import PayoffMatrix, PlayerMachine, Probe
from .chain import ParamChain, compose, evaluate

RNG_ID = "numpy-pcg64"

# Rounds drawn, ranked, walked and paid per step of every lane; the chunk
# bounds the memory of the per-round arrays, and no estimate depends on it.
_CHUNK = 4096
# Entries of each k-round table; larger caps measured no faster and cost
# memory.
_TABLE_CAP = 4096
# Rounds per group when play is deterministic (one rank, R = 1), the one case
# `_TABLE_CAP` does not bound k.  Groups of k rounds cost k Horner steps and
# `_CHUNK` / k walk steps per chunk; 32 and 64 measured alike.
_GROUP_CAP = 64

# Constants of numpy's `SeedSequence`, O'Neill's `seed_seq` hash from the
# PCG paper (HMC-CS-2014-0905): its pool of 4 words, the multipliers of the
# entropy hash (A) and of the state hash (B), and of the pool's mixing.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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

    Outcome selection is inverse-CDF sampling: a uniform u in [0, 1) takes
    the first outcome of its state's row whose cumulative probability
    exceeds u, in the order of `chain.successors`, whose last row, the
    init row, gives `init_cdf` and `init_states`.  The distinct cumulative
    probabilities in (0, 1) of the other rows, `cuts`, split [0, 1) into
    R = len(cuts) + 1 intervals, and `step[r * n + s]` is the successor of
    state s for every u in interval r.  `ranks` counts a uniform's r, the
    number of cuts <= u, one comparison per cut.

    Rounds are played `k` at a time.  A rank tuple (r_0, ..., r_{k-1}) of k
    consecutive rounds has the index t = sum(r_i * R**i), and
    `after[j, t * n + s]` is the state after j + 1 of those rounds from
    state s.  The payoff classes are the chain's distinct exact payoffs,
    `values`, and state s pays `values[classes[s]]`; `counts[t * n + s, c]`
    is the number of the k states after each round whose class is c.  Both
    tables depend only on `step`, so they are built once per call; k is the
    largest value, at most `_GROUP_CAP`, with R**k * n <= `_TABLE_CAP`, and
    k = 1 when R**2 * n exceeds it.
    """

    def __init__(self, chain: ParamChain, x: float, y: float):
        matrix, init = evaluate(chain, x, y)
        n = chain.n_states

        # Each row of the chain, init last, lists its outcomes in the probe's
        # order; the uniforms above the row's rounded sum go to the first
        # outcome at that sum, not to a later one of weight 0 at this point.
        rows = []
        for probs, row in zip((*matrix, init), chain.successors):
            rows.append(np.cumsum(probs[list(row)]))
            rows[-1][rows[-1].argmax() :] = 1.0
        *rows, self.init_cdf = rows
        self.init_states = np.array(chain.successors[n], dtype=np.int64)
        cumulative = np.concatenate(rows)
        lengths = [len(row) for row in rows]
        firsts = np.cumsum(lengths) - lengths
        successors = np.array([t for row in chain.successors[:n] for t in row], dtype=np.int64)
        self.cuts = np.unique(cumulative[(cumulative > 0) & (cumulative < 1)])

        # No cumulative probability lies inside an interval, so a uniform
        # passes the outcomes whose cumulative is at most the interval's left
        # end; the last is 1.0, which no uniform reaches.
        lefts = np.concatenate(([0.0], self.cuts))
        passed = np.add.reduceat(cumulative <= lefts[:, None], firsts, axis=1)
        self.step = successors[firsts + passed].ravel()

        n_ranks = len(self.cuts) + 1
        k = 1
        while k < _GROUP_CAP and n_ranks ** (k + 1) * n <= _TABLE_CAP:
            k += 1
        self.k = k
        self.values = sorted(set(chain.payoff))
        self.classes = np.array([self.values.index(p) for p in chain.payoff], dtype=np.int64)
        # after[j, t * n + s] depends on t only through r_0, ..., r_j, so row
        # j is its first R**(j + 1) * n entries, `period`, repeated; each
        # period is the one before (at first the states 0..n-1) advanced one
        # round at every rank r_j.
        shift = np.arange(n_ranks)[:, None] * n
        period = np.arange(n)
        self.after = np.empty((k, n_ranks**k * n), dtype=np.int64)
        for j in range(k):
            period = self.step.take(period + shift).ravel()
            self.after[j].reshape(-1, period.size)[:] = period
        # a count is at most k <= _GROUP_CAP, so one byte holds it
        onehot = np.eye(len(self.values), dtype=np.uint8)[self.classes]
        self.counts = onehot.take(self.after, axis=0).sum(axis=0, dtype=np.uint8)

    def ranks(self, uniforms: np.ndarray) -> np.ndarray:
        """Interval index of each uniform, the number of cuts <= u, as a new
        C-contiguous array of the smallest unsigned type holding len(cuts)."""
        ranks = np.zeros(uniforms.shape, np.min_scalar_type(len(self.cuts)))
        for cut in self.cuts:
            ranks += uniforms >= cut
        return ranks


def _hash_constants(first: int, multiplier: int, steps: int) -> np.ndarray:
    """The multipliers of `steps` steps of a `SeedSequence` hash, as a column:
    step t xors row t into its word and multiplies it by row t + 1."""
    constants = [first]
    for _ in range(steps):
        constants.append(constants[-1] * multiplier & 0xFFFFFFFF)
    return np.array(constants, dtype=np.uint32)[:, None]


def _hashmix(words: np.ndarray, constants: np.ndarray, t: int, steps: int) -> np.ndarray:
    """Hash steps t, ..., t + steps - 1, one per row of `words` (or of its
    one row, repeated), over every lane at once."""
    hashed = words ^ constants[t : t + steps]
    hashed *= constants[t + 1 : t + steps + 1]
    return hashed ^ hashed >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`SeedSequence`'s mix of hashed words y into pool words x."""
    mixed = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return mixed ^ mixed >> 16


def _seed_words(seeds) -> np.ndarray:
    """Row i is `SeedSequence(seeds[i]).generate_state(4, np.uint64)`, the
    state words that `PCG64(seeds[i])` seeds itself with, for every lane in
    one pass.

    A seed's entropy is its little-endian 32-bit words, at least one.  The
    pool hashes the first 4, zero-padded; then each pool word, hashed, is
    mixed into every other, and each word after the 4th, hashed, into every
    pool word of the lanes that have it.  The pool, cycled, hashes into 8
    words, paired little-endian into 4.  Every step's constants are the same
    in every lane, and the steps that mix one word into the pool's others
    are independent, so each is one operation on arrays of lanes."""
    seeds = [operator.index(s) for s in seeds]
    if min(seeds) < 0:
        raise ValueError("expected non-negative integer")
    lengths = np.array([max(-(-s.bit_length() // 32), 1) for s in seeds])
    width = max(_POOL, int(lengths.max()))
    data = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    # entropy[i]: word i of every lane
    entropy = np.frombuffer(data, "<u4").reshape(len(seeds), width).T.astype(np.uint32)

    constants = _hash_constants(_INIT_A, _MULT_A, _POOL * width + _POOL * (_POOL - 1))
    pool = _hashmix(entropy[:_POOL], constants, 0, _POOL)
    t = _POOL
    for src in range(_POOL):
        others = [dst for dst in range(_POOL) if dst != src]
        hashed = _hashmix(pool[src : src + 1], constants, t, _POOL - 1)
        pool[others] = _mix(pool[others], hashed)
        t += _POOL - 1
    for src in range(_POOL, width):
        hashed = _hashmix(entropy[src : src + 1], constants, t, _POOL)
        pool = np.where(lengths > src, _mix(pool, hashed), pool)
        t += _POOL

    constants = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(np.tile(pool, (2, 1)), constants, 0, 2 * _POOL)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _fixed_state() -> type:
    """A numpy `ISeedSequence` whose `generate_state` returns the words it is
    made with; made on first use, so that importing probefp does not import
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return FixedState


def _generators(seeds) -> list:
    """A numpy `Generator` on the stream of `PCG64(s)` for each seed s >= 0:
    PCG64 seeds itself from the words `_seed_words` computes."""
    state = _fixed_state()
    return [np.random.Generator(np.random.PCG64(state(w))) for w in _seed_words(seeds)]


def _run_lanes(
    table: _GameTable,
    rounds: int,
    burn_in: int,
    seeds,
) -> np.ndarray:
    """Per-lane mean payoff over rounds after burn-in; lane i consumes the
    uniform stream of PCG64(seeds[i]) exactly as a standalone run would."""
    lanes = len(seeds)
    generators = _generators(seeds)

    first = np.array([g.random() for g in generators])
    states = table.init_states[np.searchsorted(table.init_cdf, first, side="right")]

    # paid[lane, c]: the lane's paid rounds whose payoff class is c
    paid = np.zeros((lanes, len(table.values)), dtype=np.int64)
    lane = np.arange(lanes)
    counted = 0
    if burn_in == 0:
        np.add.at(paid, (lane, table.classes[states]), 1)
        counted = 1
    done = 1  # rounds simulated so far (round 1 is the initial draw)

    k, n_ranks, n = table.k, len(table.cuts) + 1, len(table.classes)
    groups = -(-_CHUNK // k)
    add, take = np.add, table.after[-1].take
    # Columns past a short last chunk keep uniforms of the chunk before, or
    # the initial zeros: valid ranks for rounds that are never paid.
    uniforms = np.zeros((lanes, groups * k))
    rows = list(uniforms)  # made once: indexing uniforms[lane] costs about a draw
    # index t * n + s of each group's rank tuple t and entry state s
    entries = np.empty((groups, lanes), dtype=np.int64)
    while done < rounds:
        span = min(_CHUNK, rounds - done)
        used = -(-span // k)
        for gen, row in zip(generators, rows):
            gen.random(out=row[:span])
        # digits[g, lane, j]: rank of round j of group g; t by Horner's rule
        digits = table.ranks(uniforms[:, : used * k]).reshape(lanes, used, k).transpose(1, 0, 2)
        tuples = entries[:used]
        np.copyto(tuples, digits[..., k - 1])
        for j in range(k - 2, -1, -1):
            tuples *= n_ranks
            tuples += digits[..., j]
        tuples *= n
        # every index is in range; "clip" skips the buffered bounds check
        for entry in tuples:
            states = take(add(entry, states, out=entry), mode="clip")
        # the padded rounds of the last group moved the lanes on; their real
        # state is the one after the chunk's last round
        states = table.after[span - 1 - (used - 1) * k].take(tuples[-1])
        start = max(burn_in - done, 0)
        if start < span:
            # groups lo..hi-1 lie inside the paid rounds, and each pays its
            # count row; the rounds of the at most two groups cut by the
            # burn-in or the chunk's end are paid one by one
            lo = -(-start // k)
            hi = max(span // k, lo)
            paid += table.counts.take(tuples[lo:hi], axis=0).sum(axis=0, dtype=np.int64)
            cut = np.r_[start : min(lo * k, span), hi * k : span]
            ends = table.after[(cut % k)[:, None], tuples[cut // k]]
            np.add.at(paid, (lane, table.classes[ends]), 1)
            counted += span - start
        done += span
    # each mean is the exact sum of the paid payoffs over their count, in
    # integers over the payoffs' common denominator, rounded once by the
    # integer division
    denominator = math.lcm(*(v.denominator for v in table.values))
    numerators = [v.numerator * (denominator // v.denominator) for v in table.values]
    return np.array([
        sum(c * v for c, v in zip(row, numerators)) / (denominator * counted)
        for row in paid.tolist()
    ])


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
    return float(_run_lanes(table, rounds, burn_in, [seed])[0])


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
    means = _run_lanes(table, rounds, burn_in, range(seed, seed + replicates))
    return SimEstimate(
        mean=float(np.mean(means)),
        stderr=float(np.std(means, ddof=1) / np.sqrt(replicates)),
        rounds=rounds,
        burn_in=burn_in,
        replicates=replicates,
        seed=seed,
    )
