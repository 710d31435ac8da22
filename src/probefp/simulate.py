"""Monte Carlo oracle: literally play the probe game at a fixed point.

The joint play of a deterministic player against an evaluated probe is a
finite Markov chain, so each trajectory is driven purely by inverse-CDF
draws over the probe's outcome distributions, taken in canonical outcome
order.  Replicates run in vectorized lockstep, each on its own seeded PCG64
stream, so a replicate inside `estimate` reproduces `play_once` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import PayoffMatrix, PlayerMachine, Probe
from .chain import ParamChain, compose, evaluate
from .errors import OutOfSimplexError

RNG_ID = "numpy-pcg64"

_CHUNK = 4096


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
    """Flattened sampling tables for the joint chain at one point.

    For each joint state, the outcomes of the probe's (state, input)
    distribution are laid out in canonical order as a cumulative block in
    `boundaries`; offsetting a uniform draw by the state index turns outcome
    selection into one searchsorted call.
    """

    def __init__(self, chain: ParamChain, x: float, y: float):
        numeric = evaluate(chain, x, y)

        # Each row of the composed chain lists the probe's outcomes with
        # nonzero weight polynomials in canonical order, one successor each.
        boundaries: list[float] = []
        successors: list[int] = []
        for s, row in enumerate(chain.trans):
            cumulative = np.cumsum(numeric.matrix[s, list(row)])
            cumulative[-1] = 1.0
            boundaries.extend(s + cumulative)
            successors.extend(row)
        self.boundaries = np.array(boundaries)
        self.successors = np.array(successors, dtype=np.int64)

        self.init_cdf = np.cumsum(numeric.init)
        self.init_cdf[-1] = 1.0
        self.payoff = numeric.payoff


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

    traj = np.empty((lanes, _CHUNK), dtype=np.int64)
    while done < rounds:
        span = min(_CHUNK, rounds - done)
        uniforms = np.empty((lanes, span))
        for lane, gen in enumerate(generators):
            uniforms[lane] = gen.random(span)
        for t in range(span):
            picks = table.boundaries.searchsorted(states + uniforms[:, t], side="right")
            states = table.successors[picks]
            traj[:, t] = states
        start = max(burn_in - done, 0)
        if start < span:
            totals += table.payoff[traj[:, start:span]].sum(axis=1)
            counted += span - start
        done += span
    return totals / counted


def _check_args(x: float, y: float, rounds: int, burn_in: int) -> None:
    if x < 0 or y < 0 or x + y > 1 + 1e-12:
        raise OutOfSimplexError(x, y)
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
    _check_args(x, y, rounds, burn_in)
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
    _check_args(x, y, rounds, burn_in)
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
