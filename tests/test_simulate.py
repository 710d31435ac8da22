import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    mixing_probe,
    random_player,
    random_probe,
    run_lanes_searchsorted,
    searchsorted_table,
    strongly_connected_player,
)
from probefp.automata import PayoffMatrix, joss_ann
from probefp.chain import compose
from probefp.errors import OutOfSimplexError
from probefp.fingerprint import value_at
from probefp.simulate import (
    _BLOCK,
    _TABLE_CAP,
    SimEstimate,
    _GameTable,
    _run_lanes,
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
    # each cut is a threshold where some state's successor changes, so the
    # cuts and their float neighbours are where an off-by-one-ulp table errs
    checked = 0
    for chain in _chains(players, ja_tft):
        n = chain.n_states
        for x, y in POINTS:
            table = _GameTable(chain, x, y)
            boundaries, successors, _, _ = searchsorted_table(chain, x, y)
            cuts = table.cuts
            us = np.concatenate(([0.0], cuts, np.nextafter(cuts, 0), np.nextafter(cuts, 1)))
            us = us[us < 1]
            ranks = table.ranks(us)
            assert np.array_equal(ranks, cuts.searchsorted(us, side="right"))
            for u, rank in zip(us.tolist(), ranks.tolist()):
                for s in range(n):
                    if s + u == s + 1:
                        continue  # a draw that rounds up; tested below
                    picked = boundaries.searchsorted(s + u, side="right")
                    assert table.step[rank * n + s] == successors[picked]
                    checked += 1
    assert checked > 10_000


def test_draw_that_rounds_up_to_the_next_state_takes_the_rows_last_outcome(players, ja_tft):
    # fl(s + u) == s + 1 for u = 1 - 2**-53 and s >= 1; searchsorted would
    # pick from row s + 1, or index past the table for the last state.  The
    # draw takes what the largest sum below s + 1 takes: the row's last
    # outcome, or at y = 0 its last outcome of positive weight.
    u = 1 - 2.0**-53
    chain = compose(players["pavlov"], ja_tft, SEVENTHS)
    n = chain.n_states
    for x, y in [(0.3, 0.2), (0.3, 0.0)]:
        table = _GameTable(chain, x, y)
        boundaries, successors, _, _ = searchsorted_table(chain, x, y)
        rank = int(table.ranks(np.array([u]))[0])
        for s in range(1, n):  # middle states, then the last
            assert s + u == s + 1
            below = boundaries.searchsorted(np.nextafter(s + 1.0, 0.0), side="right")
            assert table.step[rank * n + s] == successors[below]
            if y > 0:
                assert table.step[rank * n + s] == list(chain.trans[s])[-1]


def test_lanes_match_searchsorted_oracle(players, ja_tft):
    # 4796 rounds span a full and a partial chunk of payoff sums; a payoff in
    # sevenths makes the sums depend on their order
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
    """A deterministic chain, whose one rank lets k reach _BLOCK; Pavlov vs
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
    assert ks[0] == _BLOCK and 1 < ks[1] < _BLOCK and 1 in ks
    for chain, table in zip(chains, tables):
        n, n_ranks, k = chain.n_states, len(table.cuts) + 1, table.k
        assert table.after.shape == (k, n_ranks**k * n)
        assert k == 1 or table.after.shape[1] <= _TABLE_CAP
        assert k == _BLOCK or n_ranks ** (k + 1) * n > _TABLE_CAP


def test_k_round_table_is_k_single_steps(players, ja_tft, const_c_probe):
    chains, tables = _tables_of_every_k(players, ja_tft, const_c_probe)
    for chain, table in zip(chains, tables):
        n, n_ranks = chain.n_states, len(table.cuts) + 1
        step, after = table.step.tolist(), table.after.tolist()
        for t in range(n_ranks**table.k):
            for s in range(n):
                state, digits = s, t
                for j in range(table.k):
                    state = step[digits % n_ranks * n + state]
                    digits //= n_ranks
                    assert after[j][t * n + s] == state


def test_lanes_match_searchsorted_oracle_at_group_edges(players, ja_tft, const_c_probe):
    # rounds that end a block or a chunk one round into a group of k, and
    # burn-ins that end inside a group
    seeds = np.array([3, 4, 5])
    chains, tables = _tables_of_every_k(players, ja_tft, const_c_probe)
    for chain, table in zip(chains, tables):
        k = table.k
        for rounds in (1, 2, k + 1, 513, 4097, 4796):
            inside = 1 + k // 2 + k * ((rounds - 1) // (2 * k))
            for burn_in in [0] + [inside] * (inside < rounds):
                expected = run_lanes_searchsorted(chain, 0.25, 0.35, rounds, burn_in, seeds)
                got = _run_lanes(table, rounds, burn_in, seeds)
                assert np.array_equal(got, expected), (chain.n_states, k, rounds, burn_in)
