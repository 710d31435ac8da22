import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    chain_rows,
    mixing_probe,
    random_oracle_pairs,
    random_player,
    random_probe,
    run_lanes_searchsorted,
    searchsorted_table,
    strongly_connected_player,
)
from probefp.automata import PayoffMatrix, joss_ann, parse_probe
from probefp.chain import compose, evaluate
from probefp import simulate
from probefp.errors import OutOfSimplexError
from probefp.fingerprint import value_at
from probefp.simulate import (
    _GROUP_CAP,
    _TABLE_CAP,
    SimEstimate,
    _GameTable,
    _generators,
    _run_lanes,
    _seed_words,
    default_burn_in,
    estimate,
    play_once,
)


def test_deterministic_mutual_cooperation(players, const_c_probe, payoff):
    value = play_once(players["tft"], const_c_probe, payoff, 0.2, 0.3, 1000, 100, 5)
    assert value == 3.0


def test_forced_cooperate_corner(players, ja_tft, payoff):
    value = play_once(players["alld"], ja_tft, payoff, 1.0, 0.0, 1000, 100, 12345)
    assert value == 5.0


def test_play_once_is_deterministic(players, ja_tft, payoff):
    a = play_once(players["allc"], ja_tft, payoff, 0.25, 0.25, 5000, 500, 42)
    b = play_once(players["allc"], ja_tft, payoff, 0.25, 0.25, 5000, 500, 42)
    assert a == b


def test_estimate_replicates_match_standalone_runs(players, ja_tft, payoff):
    table = _GameTable(compose(players["allc"], ja_tft, payoff), 0.25, 0.25)
    means = _run_lanes(table, 5000, 500, np.array([42, 43, 44]))
    for offset in range(3):
        alone = play_once(players["allc"], ja_tft, payoff, 0.25, 0.25, 5000, 500, 42 + offset)
        assert means[offset] == alone


def test_estimate_is_bit_reproducible(players, ja_tft, payoff):
    kwargs = dict(rounds=20_000, burn_in=2_000, replicates=8, seed=99)
    a = estimate(players["tft"], ja_tft, payoff, 0.2, 0.4, **kwargs)
    b = estimate(players["tft"], ja_tft, payoff, 0.2, 0.4, **kwargs)
    assert a == b
    assert isinstance(a, SimEstimate)


def test_estimate_pinned_for_fixed_seeds(players, ja_tft, payoff):
    # recorded when the table was still built from player.step and
    # probe.step, so any change to the draws shows here
    rng = random.Random(10)
    cases = [
        (players["pavlov"], ja_tft, 0.3, 0.2, 2.420166666666667, 0.00868202580141649),
        (players["grim"], ja_tft, 0.3, 0.2, 2.1902222222222223, 0.0038404389323897854),
        (players["tft"], joss_ann(players["pavlov"]), 0.5, 0.0, 3.0, 0.0),
        (random_player(rng, 4), random_probe(rng, 4), 0.1, 0.7,
         2.1172222222222223, 0.012828241734868838),
    ]
    for player, probe, x, y, mean, stderr in cases:
        result = estimate(player, probe, payoff, x, y, rounds=5000, replicates=4, seed=11)
        assert (result.mean, result.stderr) == (mean, stderr)


def test_estimate_deterministic_game_has_zero_stderr(players, const_c_probe, payoff):
    result = estimate(
        players["tft"], const_c_probe, payoff, 0.5, 0.1, rounds=2000, replicates=2
    )
    assert result.stderr == 0.0
    assert result.mean == 3.0


def test_estimate_requires_two_replicates(players, ja_tft, payoff):
    with pytest.raises(ValueError):
        estimate(players["tft"], ja_tft, payoff, 0.2, 0.2, rounds=100, replicates=1)


def test_rounds_must_exceed_burn_in(players, ja_tft, payoff):
    with pytest.raises(ValueError):
        play_once(players["tft"], ja_tft, payoff, 0.2, 0.2, 100, 100, 1)


def test_out_of_simplex_rejected(players, ja_tft, payoff):
    for point in [(0.7, 0.7), (float("nan"), 0.2), (0.2, float("nan")), (float("inf"), 0.0)]:
        with pytest.raises(OutOfSimplexError):
            play_once(players["tft"], ja_tft, payoff, *point, 100, 10, 1)
        with pytest.raises(OutOfSimplexError):
            estimate(players["tft"], ja_tft, payoff, *point, rounds=100, replicates=2)


def test_default_burn_in():
    assert default_burn_in(1000) == 100
    assert default_burn_in(9) == 0


def test_estimate_agrees_with_exact_fingerprint(players, ja_tft, payoff):
    cases = [
        ("allc", 0.25, 0.25),
        ("alld", 0.5, 0.25),
        ("tft", 0.2, 0.4),
    ]
    for name, x, y in cases:
        result = estimate(
            players[name], ja_tft, payoff, x, y,
            rounds=100_000, burn_in=1_000, replicates=16, seed=7,
        )
        exact = value_at(compose(players[name], ja_tft, payoff), x, y)
        assert abs(result.mean - exact) <= 3 * result.stderr


def test_error_shrinks_with_more_rounds(players, ja_tft, payoff):
    exact = value_at(compose(players["tft"], ja_tft, payoff), 0.3, 0.25)
    results = {
        rounds: estimate(
            players["tft"], ja_tft, payoff, 0.3, 0.25,
            rounds=rounds, burn_in=rounds // 10, replicates=8, seed=11,
        )
        for rounds in (10_000, 100_000, 1_000_000)
    }
    err_small = abs(results[10_000].mean - exact)
    err_large = abs(results[1_000_000].mean - exact)
    both_tiny = (
        err_small <= 2 * results[10_000].stderr
        and err_large <= 2 * results[1_000_000].stderr
    )
    assert err_large < err_small or both_tiny


SEVENTHS = PayoffMatrix({
    ("C", "C"): Fraction(22, 7),
    ("C", "D"): Fraction(1, 7),
    ("D", "C"): Fraction(36, 7),
    ("D", "D"): Fraction(8, 7),
})

# interior, edges, corners and a near-edge point
POINTS = [
    (0.25, 0.35), (0.3, 0.0), (0.0, 0.45), (0.6, 0.4),
    (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.4, 1e-9),
]


def _chains(players, ja_tft):
    """Bundled strategies vs JA(TFT) and random chains of 6 to 29 states,
    all with a payoff in sevenths."""
    chains = [compose(players[name], ja_tft, SEVENTHS) for name in sorted(players)]
    rng = random.Random(2)
    for k in range(8):
        if k % 2:
            pair = (strongly_connected_player(rng, 5), mixing_probe(rng, 5))
        else:
            pair = (random_player(rng, 5), random_probe(rng, 5))
        chain = compose(*pair, SEVENTHS)
        if chain.n_states <= 30:
            chains.append(chain)
    return chains


def test_rank_table_matches_searchsorted_at_every_cut(players, ja_tft):
    # each cut is a cumulative probability where some state's successor
    # changes, so the cuts and their float neighbours are where an
    # off-by-one-ulp table errs
    checked = 0
    for chain in _chains(players, ja_tft):
        n = chain.n_states
        for x, y in POINTS:
            table = _GameTable(chain, x, y)
            cumulative, successors = searchsorted_table(chain, x, y)
            cuts = table.cuts
            us = np.concatenate(([0.0], cuts, np.nextafter(cuts, 0), np.nextafter(cuts, 1)))
            us = us[us < 1]
            ranks = table.ranks(us)
            assert np.array_equal(ranks, cuts.searchsorted(us, side="right"))
            for u, rank in zip(us.tolist(), ranks.tolist()):
                for s in range(n):
                    picked = cumulative[s].searchsorted(u, side="right")
                    assert table.step[rank * n + s] == successors[s][picked]
                    checked += 1
    assert checked > 10_000


def test_ranks_count_cuts_in_the_smallest_type(players, const_c_probe, payoff):
    # deterministic play has no cut; past 255 cuts a rank no longer fits in
    # one byte, so the synthetic cut sets straddle that width
    table = _GameTable(compose(players["allc"], const_c_probe, payoff), 0.3, 0.2)
    assert len(table.cuts) == 0
    rng = np.random.default_rng(5)
    for count in (0, 1, 255, 256, 300):
        if count:
            table.cuts = np.unique(rng.random(count))
            assert len(table.cuts) == count
        cuts = table.cuts
        us = np.concatenate(([0.0], cuts, np.nextafter(cuts, 0), np.nextafter(cuts, 1)))
        us = us[us < 1]
        ranks = table.ranks(us)
        assert ranks.dtype == (np.uint8 if count <= 255 else np.uint16)
        assert ranks.flags.c_contiguous
        assert np.array_equal(ranks, cuts.searchsorted(us, side="right"))
        # a strided (lanes, rounds) view ranks like its copy
        block = np.resize(us, (3, 2 * len(us)))[:, ::2]
        assert np.array_equal(table.ranks(block), cuts.searchsorted(block, side="right"))


def test_largest_uniform_takes_each_rows_last_outcome_of_positive_weight(players, ja_tft):
    # u = 1 - 2**-53 is the largest uniform; it lies above every cumulative
    # probability below 1, so it takes the row's last outcome, or at y = 0
    # its last outcome of positive weight
    u = 1 - 2.0**-53
    chain = compose(players["pavlov"], ja_tft, SEVENTHS)
    n = chain.n_states
    for x, y in [(0.3, 0.2), (0.3, 0.0)]:
        matrix, _ = evaluate(chain, x, y)
        table = _GameTable(chain, x, y)
        rank = int(table.ranks(np.array([u]))[0])
        trans, _ = chain_rows(chain)
        for s in range(n):
            row = list(trans[s])
            last = max(i for i, t in enumerate(row) if matrix[s, t] > 0)
            assert table.step[rank * n + s] == row[last]
            if y > 0:
                assert last == len(row) - 1


# On the edge x + y = 1 its last init outcome has weight 0, and the other
# two sum to 0.9999999999999999 at (0.875, 0.125).
EDGE_INIT_PROBE = """probe EDGEINIT
alphabet C D
init C 0 : 1/5 + 4/5*x + 7/15*y
init D 0 : 1/3*y
init D 1 : 4/5 - 4/5*x - 4/5*y
0 C -> C 0 : 1
0 D -> C 0 : 1
1 C -> C 1 : 1
1 D -> C 1 : 1
"""


def test_largest_uniform_starts_in_the_last_state_of_positive_initial_probability(
    players, payoff
):
    # where the init row's sum rounds below 1, u = 1 - 2**-53 lies above it;
    # the initial draw follows the rule of every row and takes the init
    # row's last outcome of positive weight: not the chain's last state, of
    # initial probability 0, nor an outcome of weight 0 (EDGE_INIT_PROBE)
    u = 1 - 2.0**-53
    pairs = random_oracle_pairs()
    cases = [
        (*pairs[8], 0.38356113676553627, 0.5010101590562377),
        (*pairs[22], 0.9016189778449342, 0.09823032585247607),
        (players["allc"], parse_probe(EDGE_INIT_PROBE), 0.875, 0.125),
    ]
    for player, probe, x, y in cases:
        chain = compose(player, probe, payoff)
        _, init = evaluate(chain, x, y)
        first = list(chain.successors[-1])
        assert np.cumsum(init[first])[-1] < 1
        expected = [t for t in first if init[t] > 0][-1]
        table = _GameTable(chain, x, y)
        assert table.init_states[np.searchsorted(table.init_cdf, u, side="right")] == expected
        cumulative, successors = searchsorted_table(chain, x, y)
        assert successors[-1][cumulative[-1].searchsorted(u, side="right")] == expected


def test_lanes_match_searchsorted_oracle(players, ja_tft):
    # 4796 rounds span a full and a partial chunk; under a payoff in sevenths
    # a float sum of the payoffs would depend on its order, the exact mean
    # does not
    seeds = np.array([5, 6])
    runs = 0
    for c, chain in enumerate(_chains(players, ja_tft)):
        for p, (x, y) in enumerate(POINTS):
            burn_in = (0, 300, 4500)[(c + p) % 3]
            expected = run_lanes_searchsorted(chain, x, y, 4796, burn_in, seeds)
            got = _run_lanes(_GameTable(chain, x, y), 4796, burn_in, seeds)
            assert np.array_equal(got, expected), (chain.n_states, x, y, burn_in)
            runs += 1
    assert runs >= 80


def _tables_of_every_k(players, ja_tft, const_c_probe):
    """A deterministic chain, whose one rank lets k reach _GROUP_CAP; Pavlov vs
    JA(TFT), with k in between; and random chains whose many cuts put
    R**2 * n over the cap, so that k = 1."""
    chains = [
        compose(players["tft"], const_c_probe, SEVENTHS),
        compose(players["pavlov"], ja_tft, SEVENTHS),
    ]
    chains += [c for c in _chains(players, ja_tft) if c.n_states >= 16]
    return chains, [_GameTable(chain, 0.25, 0.35) for chain in chains]


def test_k_is_the_largest_that_fits_the_cap(players, ja_tft, const_c_probe):
    chains, tables = _tables_of_every_k(players, ja_tft, const_c_probe)
    ks = [table.k for table in tables]
    assert ks[0] == _GROUP_CAP and 1 < ks[1] < _GROUP_CAP and 1 in ks
    for chain, table in zip(chains, tables):
        n, n_ranks, k = chain.n_states, len(table.cuts) + 1, table.k
        assert table.after.shape == (k, n_ranks**k * n)
        assert k == 1 or table.after.shape[1] <= _TABLE_CAP
        assert k == _GROUP_CAP or n_ranks ** (k + 1) * n > _TABLE_CAP


def test_k_round_table_is_k_single_steps(players, ja_tft, const_c_probe):
    chains, tables = _tables_of_every_k(players, ja_tft, const_c_probe)
    for chain, table in zip(chains, tables):
        n, n_ranks = chain.n_states, len(table.cuts) + 1
        step, after, counts = table.step.tolist(), table.after.tolist(), table.counts.tolist()
        assert table.values == sorted(set(chain.payoff))
        assert [table.values[c] for c in table.classes] == list(chain.payoff)
        for t in range(n_ranks**table.k):
            for s in range(n):
                state, digits = s, t
                tally = [0] * len(table.values)
                for j in range(table.k):
                    state = step[digits % n_ranks * n + state]
                    digits //= n_ranks
                    assert after[j][t * n + s] == state
                    tally[table.values.index(chain.payoff[state])] += 1
                assert counts[t * n + s] == tally


def test_lanes_match_searchsorted_oracle_at_group_edges(players, ja_tft, const_c_probe):
    # rounds that end a chunk, or one round into a group of k or a chunk,
    # and burn-ins that end inside a group, in the first or second chunk
    seeds = np.array([3, 4, 5])
    chains, tables = _tables_of_every_k(players, ja_tft, const_c_probe)
    for chain, table in zip(chains, tables):
        k = table.k
        second = 4097 + k // 2 + k * (2000 // k)
        for rounds in (1, 2, k + 1, 513, 4097, 4796, 8192, 8193, 8192 + k + 1):
            inside = 1 + k // 2 + k * ((rounds - 1) // (2 * k))
            burn_ins = [0] + [inside] * (inside < rounds) + [second] * (second < rounds)
            for burn_in in burn_ins:
                expected = run_lanes_searchsorted(chain, 0.25, 0.35, rounds, burn_in, seeds)
                got = _run_lanes(table, rounds, burn_in, seeds)
                assert np.array_equal(got, expected), (chain.n_states, k, rounds, burn_in)


def test_chunk_and_k_do_not_change_an_estimate(players, ja_tft, monkeypatch):
    # chunks that end inside a group or far from one, and table caps that
    # take k down to 1; a payoff with a 30-digit denominator would overflow
    # any int64 sum of numerators
    huge = PayoffMatrix({
        ("C", "C"): 3 + Fraction(1, 10**30),
        ("C", "D"): Fraction(0),
        ("D", "C"): Fraction(5),
        ("D", "D"): Fraction(1),
    })
    chains = _chains(players, ja_tft) + [compose(players["pavlov"], ja_tft, huge)]
    seeds = np.array([5, 6, 7])
    settings = [(4096, 4096), (37, 4096), (1000, 4096), (4096, 64), (37, 16), (1000, 256)]
    ks = set()
    for chain in chains:
        runs = []
        for chunk, cap in settings:
            monkeypatch.setattr(simulate, "_CHUNK", chunk)
            monkeypatch.setattr(simulate, "_TABLE_CAP", cap)
            table = _GameTable(chain, 0.25, 0.35)
            ks.add(table.k)
            runs.append(_run_lanes(table, 4796, 301, seeds))
        for run in runs[1:]:
            assert np.array_equal(run, runs[0]), chain.n_states
    assert len(ks) >= 4 and 1 in ks
    expected = run_lanes_searchsorted(chains[-1], 0.25, 0.35, 4796, 301, seeds)
    assert np.array_equal(runs[0], expected)


def _stream_seeds() -> list[int]:
    """Seeds 0-39, four seeds across each of the entropy's word boundaries
    at 2**32, 2**64 and 2**128 (4 words to 5) and 2**160 (5 to 6), and 50
    random seeds below 2**300."""
    seeds = list(range(40))
    for start in (2**32 - 2, 2**64 - 2, 2**128 - 2, 2**160 - 1):
        seeds += range(start, start + 4)
    rng = random.Random(300)
    return seeds + [rng.randrange(2**300) for _ in range(50)]


def test_seed_words_are_seed_sequence_states():
    seeds = _stream_seeds()
    words = _seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for seed, row in zip(seeds, words):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64)), seed
    # one lane alone, and numpy integers
    assert np.array_equal(_seed_words([2**200]), _seed_words([1, 2**200])[1:])
    assert np.array_equal(_seed_words(np.array([38, 39])), words[38:40])


def test_lanes_play_the_pcg64_streams_of_their_seeds():
    seeds = _stream_seeds()
    for seed, generator in zip(seeds, _generators(seeds)):
        expected = np.random.Generator(np.random.PCG64(seed)).random(1000)
        assert np.array_equal(generator.random(1000), expected), seed


def test_negative_seed_is_refused_as_pcg64_refuses_it(players, ja_tft, payoff):
    with pytest.raises(ValueError):
        np.random.PCG64(-1)
    with pytest.raises(ValueError):
        _seed_words([3, -1])
    with pytest.raises(ValueError):
        play_once(players["tft"], ja_tft, payoff, 0.2, 0.3, 100, 10, -1)
    with pytest.raises(ValueError):
        estimate(players["tft"], ja_tft, payoff, 0.2, 0.3, 100, 10, replicates=4, seed=-2)


def test_import_leaves_numpy_random_unimported():
    # numpy.random costs about 10 ms to import, and only simulate uses it
    src = Path(simulate.__file__).resolve().parent.parent
    check = "import sys, probefp; print('numpy.random' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", check], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"


def test_affine_payoffs_give_the_affine_estimate(players, ja_tft, payoff):
    # F under a M + b is a F + b.  Scaling every payoff by -1 or a power of 2
    # commutes with every rounding, so the mean and stderr scale exactly; a
    # shift moves each replicate mean by b up to one rounding, so both hold
    # within 1e-12 of the payoffs' scale |b| + max |M|.
    pairs = [(player, ja_tft) for player in players.values()] + random_oracle_pairs()[:6]
    bound = max(map(abs, payoff.entries.values()))
    kwargs = dict(rounds=3000, burn_in=300, replicates=4, seed=5)
    for player, probe in pairs:
        base = estimate(player, probe, payoff, 0.25, 0.35, **kwargs)
        for a in (2, -1, Fraction(1, 4)):
            scaled = estimate(player, probe, payoff.scaled(a), 0.25, 0.35, **kwargs)
            assert scaled.mean == float(a) * base.mean
            assert scaled.stderr == abs(float(a)) * base.stderr
        for b in (Fraction(-5, 7), 10**6):
            shifted = PayoffMatrix({move: v + b for move, v in payoff.entries.items()})
            result = estimate(player, probe, shifted, 0.25, 0.35, **kwargs)
            tol = 1e-12 * float(abs(b) + bound)
            assert abs(result.mean - (base.mean + float(b))) <= tol
            assert abs(result.stderr - base.stderr) <= tol
