import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    PointOracle,
    all_cells_points,
    cesaro_average,
    cesaro_average_literal,
    chain_rows,
    chain_sum_residuals,
    classes_of,
    compose_by_search,
    limit_distribution_point,
    mixing_probe,
    offset_point,
    random_interior_point,
    random_oracle_pairs,
    random_player,
    random_probe,
    strongly_connected_player,
    support_classes,
)
from probefp.automata import Probe, joss_ann
import probefp.chain as chain_module
from probefp.chain import (
    SUPPORT_CUTOFF,
    classify_supports,
    compose,
    evaluate,
    evaluate_points,
    limit_distributions,
)
from probefp.errors import (
    AlphabetMismatchError,
    OutOfSimplexError,
    ProbeValidationError,
    SingularSystemError,
)
from probefp.polyexpr import expr_parse


# -- compose ------------------------------------------------------------------


def test_compose_allc_vs_ja_tft(players, ja_tft, payoff):
    chain = compose(players["allc"], ja_tft, payoff)
    assert [(s.player_action, s.probe_action) for s in chain.states] == [
        ("C", "C"),
        ("C", "D"),
    ]
    expected_row = {0: expr_parse("1 - y"), 1: expr_parse("y")}
    trans, _ = chain_rows(chain)
    assert trans[0] == expected_row
    assert trans[1] == expected_row
    assert chain.payoff == (Fraction(3), Fraction(0))


def test_compose_tft_vs_constant_c(players, const_c_probe, payoff):
    chain = compose(players["tft"], const_c_probe, payoff)
    assert chain.n_states == 1
    assert chain.states[0].player_action == "C"
    assert chain.states[0].probe_action == "C"
    trans, _ = chain_rows(chain)
    assert trans[0] == {0: expr_parse("1")}


def test_compose_alld_vs_ja_tft(players, ja_tft, payoff):
    chain = compose(players["alld"], ja_tft, payoff)
    assert [(s.player_action, s.probe_action) for s in chain.states] == [
        ("D", "C"),
        ("D", "D"),
    ]
    expected_row = {0: expr_parse("x"), 1: expr_parse("1 - x")}
    trans, _ = chain_rows(chain)
    assert trans[0] == expected_row
    assert trans[1] == expected_row


def _d_first_probe() -> Probe:
    """A two-state probe built directly with each group's outcomes in
    non-canonical order, D before C."""
    x, y, rest = expr_parse("x"), expr_parse("y"), expr_parse("1 - x - y")
    return Probe(
        name="DFIRST",
        alphabet=("C", "D"),
        state_names=("0", "1"),
        init=(("D", 1, x + y), ("C", 0, rest)),
        step={
            (0, "C"): (("D", 1, y), ("C", 0, x + rest)),
            (0, "D"): (("D", 0, x), ("C", 1, y + rest)),
            (1, "C"): (("D", 0, x + y), ("C", 1, rest)),
            (1, "D"): (("D", 1, rest), ("C", 0, x), ("C", 1, y)),
        },
    )


def test_compose_matches_breadth_first_search(players, payoff):
    # the states, each row's targets in the probe's outcome order, and each
    # cell's weight, against a plain search over the two machines' steps
    bases = list(players.values())
    pairs = [(p, joss_ann(base)) for base in bases for p in bases] + random_oracle_pairs()
    rng = random.Random(6)
    pairs += [(random_player(rng, 6), random_probe(rng, 6)) for _ in range(300)]
    pairs += [(p, _d_first_probe()) for p in bases]
    unsorted = 0
    for player, probe in pairs:
        chain = compose(player, probe, payoff)
        states, rows, init = compose_by_search(player, probe)
        n = chain.n_states
        assert [
            (js.player_state, js.probe_state, js.player_action, js.probe_action)
            for js in chain.states
        ] == states
        rows.append(init)
        assert chain.successors == tuple(tuple(t for t, _ in row) for row in rows)
        exprs, index = chain.weights.exprs, chain.index.tolist()
        for s, row in enumerate(rows):
            for t, weight in row:
                assert exprs[index[s * n + t]] == weight
        assert np.count_nonzero(chain.index) == sum(map(len, rows))
        if probe.name == "DFIRST":
            unsorted += any(list(row) != sorted(row) for row in chain.successors)
    # against most players, some row's outcome order is not its targets' order
    assert unsorted >= 4


def test_compose_alphabet_mismatch(players, payoff):
    other = random_player(random.Random(3), 2)
    other.alphabet = ("D", "C")  # same symbols, different declared order
    with pytest.raises(AlphabetMismatchError):
        compose(other, joss_ann(players["tft"]), payoff)


def test_compose_wider_alphabet_needs_total_payoff(payoff):
    from fractions import Fraction as F

    from probefp.automata import parse_player, parse_probe
    from probefp.errors import PayoffError

    player = parse_player(
        "player TRIP\nalphabet C D X\nstart 0 C\n"
        "0 C -> 0 C\n0 D -> 0 C\n0 X -> 0 C\n"
    )
    probe = parse_probe(
        "probe TRI\nalphabet C D X\ninit C 0 : 1\n"
        "0 C -> C 0 : 1\n0 D -> C 0 : 1\n0 X -> C 0 : 1\n"
    )
    with pytest.raises(PayoffError):
        compose(player, probe, payoff)
    total = payoff.with_overrides(
        [(a, b, F(1)) for a in "CDX" for b in "CDX" if "X" in (a, b)]
    )
    chain = compose(player, probe, total)
    assert chain.n_states == 1


def test_row_that_does_not_sum_to_one_is_refused_when_built():
    # compose never sees such a probe: building it names the bad group
    with pytest.raises(ProbeValidationError) as err:
        Probe(
            name="SHORT",
            alphabet=("C", "D"),
            state_names=("0",),
            init=(("C", 0, expr_parse("1")),),
            step={
                (0, "C"): (("C", 0, expr_parse("1 - y")), ("D", 0, expr_parse("y"))),
                (0, "D"): (("C", 0, expr_parse("1 - 1/2*x")),),
            },
        )
    assert str(err.value) == "weights for state '0' input 'D' do not sum to 1; residual: 1/2*x"


def test_row_sum_identity_on_random_corpus(payoff):
    rng = random.Random(1234)
    for _ in range(15):
        player = random_player(rng, 4)
        probe = random_probe(rng, 4)
        chain = compose(player, probe, payoff)
        assert chain_sum_residuals(chain) == [{}] * (chain.n_states + 1)


# -- evaluate -----------------------------------------------------------------


def test_evaluate_example(players, ja_tft, payoff):
    chain = compose(players["allc"], ja_tft, payoff)
    matrix, init = evaluate(chain, 0.25, 0.25)
    np.testing.assert_allclose(matrix, [[0.75, 0.25], [0.75, 0.25]], atol=1e-15)
    np.testing.assert_allclose(init, [0.75, 0.25], atol=1e-15)
    assert chain.payoff_vector().tolist() == [3.0, 0.0]


def test_evaluate_out_of_simplex(players, ja_tft, payoff):
    chain = compose(players["allc"], ja_tft, payoff)
    with pytest.raises(OutOfSimplexError):
        evaluate(chain, 0.6, 0.6)
    with pytest.raises(OutOfSimplexError):
        evaluate(chain, -0.1, 0.5)


def test_evaluate_constant_chain(players, const_c_probe, payoff):
    chain = compose(players["tft"], const_c_probe, payoff)
    matrix, init = evaluate(chain, 0.9, 0.05)
    assert matrix.tolist() == [[1.0]]
    assert init.tolist() == [1.0]


# -- closed classes -----------------------------------------------------------


def _limit(matrix, init, point=(0.0, 0.0)):
    """Limit distribution of one evaluated chain, as a batch of one."""
    matrix = np.array([matrix], dtype=float)
    return limit_distributions(matrix, np.array([init], dtype=float), [point])[0]


def _classes(matrix):
    """(states, closed) for each class of one evaluated transition matrix's
    support graph, its entries above SUPPORT_CUTOFF: a stack of one."""
    head, closed = classify_supports(np.asarray(matrix)[None] > SUPPORT_CUTOFF)
    return classes_of(head[0], closed[0])


def _closed_count(matrix):
    return sum(shut for _, shut in _classes(matrix))


def _one_closed_class(stack):
    """Every graph of the stack misreported as one closed class."""
    return np.zeros(stack.shape[:2], dtype=int), np.ones(stack.shape[:2], dtype=bool)


def test_closed_classes_two_absorbing():
    assert _classes(np.array([[1.0, 0], [0, 1]])) == [
        ((0,), True),
        ((1,), True),
    ]


def test_closed_classes_cycle():
    assert _classes(np.array([[0.0, 1], [1, 0]])) == [((0, 1), True)]


def test_closed_classes_transient():
    assert _classes(np.array([[0.5, 0.5], [0, 1]])) == [
        ((0,), False),
        ((1,), True),
    ]


def _random_support_chain(rng):
    """A random row-stochastic matrix of 1-9 states whose support is a random
    digraph; some off-support entries carry flow below SUPPORT_CUTOFF."""
    n = int(rng.integers(1, 10))
    support = rng.random((n, n)) < rng.uniform(0.05, 0.6)
    support[~support.any(axis=1), 0] = True
    matrix = np.where(support, rng.uniform(0.1, 1.0, (n, n)), 0.0)
    matrix /= matrix.sum(axis=1, keepdims=True)
    noise = (rng.random((n, n)) < 0.1) & ~support
    matrix[noise] = SUPPORT_CUTOFF / 4
    return matrix


def test_closed_classes_match_reachability_oracle():
    matrices = [
        np.array([[1.0, 0], [0, 1]]),
        np.array([[0.0, 1], [1, 0]]),
        np.array([[0.5, 0.5], [0, 1]]),
    ]
    rng = np.random.default_rng(2024)
    matrices += [_random_support_chain(rng) for _ in range(1000)]
    for matrix in matrices:
        expected = support_classes((matrix > SUPPORT_CUTOFF).tolist())
        assert _classes(matrix) == expected

    # the same graphs stacked by size: one closure classifies each matrix
    # of the stack as it would alone
    for n in range(1, 10):
        stack = np.array([m > SUPPORT_CUTOFF for m in matrices if len(m) == n])
        assert len(stack) > 1
        head, closed = classify_supports(stack)
        assert head.shape == closed.shape == stack.shape[:2]
        for support, heads, flags in zip(stack, head, closed, strict=True):
            assert classes_of(heads, flags) == support_classes(support.tolist())


# -- limit distributions -------------------------------------------------------


def test_limit_identical_rows():
    pi = _limit([[0.75, 0.25], [0.75, 0.25]], [0.1, 0.9])
    np.testing.assert_allclose(pi, [0.75, 0.25], atol=1e-12)


def test_limit_periodic_cycle():
    np.testing.assert_allclose(_limit([[0, 1], [1, 0]], [1, 0]), [0.5, 0.5], atol=1e-12)


def test_limit_absorbing_preserves_init():
    np.testing.assert_allclose(_limit([[1, 0], [0, 1]], [0.3, 0.7]), [0.3, 0.7], atol=1e-12)


def test_limit_transient_absorption():
    pi = _limit([[0.5, 0.25, 0.25], [0, 1, 0], [0, 0, 1]], [1, 0, 0])
    np.testing.assert_allclose(pi, [0, 0.5, 0.5], atol=1e-12)
    # a transient state leaking eps and 2 eps splits its mass exactly 1 : 2
    for eps in (1e-3, 1e-8, 1e-13):
        pi = _limit([[1 - 3 * eps, eps, 2 * eps], [0, 1, 0], [0, 0, 1]], [1, 0, 0])
        np.testing.assert_allclose(pi, [0, 1 / 3, 2 / 3], rtol=1e-14, atol=0)


# -- expected payoff -----------------------------------------------------------


def test_expected_payoff_examples():
    assert _limit([[0.75, 0.25], [0.75, 0.25]], [1, 0]) @ np.array([3.0, 0.0]) == 2.25
    assert _limit([[0, 1], [1, 0]], [1, 0]) @ np.array([5.0, 1.0]) == 3.0
    assert _limit([[1.0]], [1.0]) @ np.array([3.0]) == 3.0


def test_payoff_bounds_property(payoff):
    rng = random.Random(99)
    for _ in range(10):
        player = random_player(rng, 4)
        probe = random_probe(rng, 4)
        chain = compose(player, probe, payoff)
        x, y = random_interior_point(rng)
        value = _limit(*evaluate(chain, x, y), (x, y)) @ chain.payoff_vector()
        low, high = payoff.bounds()
        assert float(low) - 1e-12 <= value <= float(high) + 1e-12


# -- solver internals ----------------------------------------------------------


def test_gth_stationary_weakly_coupled():
    # birth-death chain whose middle link carries eps one way and 2 eps back;
    # detailed balance gives pi proportional to 1, 1/2, 1/4, 1/8 for any eps
    exact = np.array([8, 4, 2, 1]) / 15
    for eps in (1e-3, 1e-8, 1e-13):
        pi = _limit(
            [
                [0.75, 0.25, 0, 0],
                [0.5, 0.5 - eps, eps, 0],
                [0, 2 * eps, 0.75 - 2 * eps, 0.25],
                [0, 0, 0.5, 0.5],
            ],
            [1, 0, 0, 0],
        )
        np.testing.assert_allclose(pi, exact, rtol=1e-14, atol=0)


def test_gth_zero_out_flow_raises(monkeypatch):
    # two absorbing states misreported as one closed class: state 1 has no
    # out-flow to state 0, so its elimination must refuse
    monkeypatch.setattr(chain_module, "classify_supports", _one_closed_class)
    with pytest.raises(SingularSystemError) as err:
        _limit([[1, 0], [0, 1]], [0.5, 0.5])
    message = str(err.value)
    assert "state 1" in message and "[0, 1]" in message and "(0.0, 0.0)" in message


def test_batched_zero_out_flow_names_the_failing_point(monkeypatch):
    # three points, two support patterns; the misreported single class is
    # right for the mixing points and leaves the absorbing one stuck
    mixing = [[0.5, 0.5], [0.25, 0.75]]
    absorbing = [[1.0, 0.0], [0.0, 1.0]]
    monkeypatch.setattr(chain_module, "classify_supports", _one_closed_class)
    with pytest.raises(SingularSystemError) as err:
        limit_distributions(
            np.array([mixing, mixing, absorbing]),
            np.full((3, 2), 0.5),
            [(0.1, 0.2), (0.3, 0.4), (0.5, 0.25)],
        )
    message = str(err.value)
    assert "state 1" in message and "[0, 1]" in message and "(0.5, 0.25)" in message

    # patterns with two heads and with one; the pass sorts them by head count,
    # and the error still names the first stuck point of the batch as given
    stuck = np.eye(3)

    def misreport(stack):
        head, closed = classify_supports(stack)
        merged = (stack == stuck.astype(bool)).all(axis=(1, 2))
        head[merged], closed[merged] = 0, True
        return head, closed

    monkeypatch.setattr(chain_module, "classify_supports", misreport)
    two_heads = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.25, 0.25]]
    with pytest.raises(SingularSystemError) as err:
        limit_distributions(
            np.array([two_heads, stuck, np.full((3, 3), 1 / 3), stuck]),
            np.full((4, 3), 1 / 3),
            [(0.1, 0.2), (0.3, 0.4), (0.5, 0.25), (0.6, 0.1)],
        )
    assert str(err.value) == (
        "zero out-flow from state 2 of closed class [0, 1, 2] at point (0.3, 0.4)"
    )


def test_empty_batch_gives_no_rows():
    pi = limit_distributions(np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros((0, 2)))
    assert pi.shape == (0, 3)


def test_sub_cutoff_flow_does_not_leak_between_classes():
    # 0 <-> 1 at eps (above the cutoff) is one closed class; 2 -> 1 at lam
    # (below it) is not an edge, so {2, 3} is a second closed class.  Each
    # class holds half the mass, spread evenly; letting the lam entry take
    # part in the class-{2, 3} solve would shift mass from 0 to 1.
    eps, lam = 1.2e-14, 0.9e-14
    pi = _limit(
        [
            [1 - eps, eps, 0, 0],
            [eps, 1 - eps, 0, 0],
            [0, lam, 0.5, 0.5 - lam],
            [0, 0, 0.5, 0.5],
        ],
        [0.5, 0, 0.5, 0],
    )
    np.testing.assert_allclose(pi, [0.25] * 4, rtol=0, atol=1e-14)


def _reducible_block_chain(rng):
    """2-3 closed classes (the first a deterministic cycle, so periodic) and
    1-3 transient states, under a random relabelling of the states."""
    extra = int(rng.integers(1, 3))
    sizes = [int(rng.integers(2, 4))] + [int(rng.integers(1, 4)) for _ in range(extra)]
    n_closed = sum(sizes)
    n = n_closed + int(rng.integers(1, 4))
    matrix = np.zeros((n, n))
    blocks, start = [], 0
    for j, size in enumerate(sizes):
        block = np.arange(start, start + size)
        if j == 0:
            matrix[block, np.roll(block, -1)] = 1.0
        else:
            matrix[np.ix_(block, block)] = rng.uniform(0.1, 1.0, (size, size))
        blocks.append(block)
        start += size
    transient = np.arange(n_closed, n)
    shape = (len(transient), n)
    matrix[transient] = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.6)
    matrix[transient, rng.integers(0, n_closed, len(transient))] += 0.2
    matrix /= matrix.sum(axis=1, keepdims=True)
    init = rng.uniform(0.0, 1.0, n)
    init /= init.sum()

    perm = rng.permutation(n)  # old state s becomes perm[s]
    relabelled = np.zeros_like(matrix)
    relabelled[np.ix_(perm, perm)] = matrix
    placed = np.zeros(n)
    placed[perm] = init
    return relabelled, placed, [perm[b] for b in blocks], perm[transient]


def test_reducible_block_chains_match_cesaro_and_absorption():
    rng = np.random.default_rng(7)
    for _ in range(40):
        matrix, init, blocks, transient = _reducible_block_chain(rng)
        pi = _limit(matrix, init)
        oracle = cesaro_average(matrix, init, 10**6)
        np.testing.assert_allclose(pi, oracle, rtol=0, atol=1e-5)

        q = matrix[np.ix_(transient, transient)]
        for block in blocks:
            into = matrix[np.ix_(transient, block)].sum(axis=1)
            absorbed = np.linalg.solve(np.eye(len(transient)) - q, into)
            mass = init[block].sum() + init[transient] @ absorbed
            assert pi[block].sum() == pytest.approx(mass, rel=1e-12, abs=1e-15)


def _mixed_batch(rng, n, count):
    """count random chains on n states, each with 1-3 closed classes (a class
    of 2+ states is sometimes a deterministic cycle, so periodic) and the
    other states transient, each under its own random relabelling."""
    matrices, inits = np.zeros((count, n, n)), np.zeros((count, n))
    for matrix, init in zip(matrices, inits):
        c = int(rng.integers(1, 4))
        n_closed = int(rng.integers(c, n + 1))
        cuts = [0, *sorted(rng.choice(np.arange(1, n_closed), c - 1, replace=False)), n_closed]
        for a, b in zip(cuts, cuts[1:]):
            block = np.arange(a, b)
            if b - a > 1 and rng.random() < 0.3:
                matrix[block, np.roll(block, -1)] = 1.0
            else:
                matrix[a:b, a:b] = rng.uniform(0.1, 1.0, (b - a, b - a))
        shape = (n - n_closed, n)
        matrix[n_closed:] = rng.uniform(0.0, 1.0, shape) * (rng.random(shape) < 0.5)
        matrix[np.arange(n_closed, n), rng.integers(0, n_closed, n - n_closed)] += 0.2
        matrix /= matrix.sum(axis=1, keepdims=True)
        init[:] = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.7)
        init[rng.integers(0, n)] += 0.1
        init /= init.sum()
        perm = rng.permutation(n)
        matrix[np.ix_(perm, perm)] = matrix.copy()
        init[perm] = init.copy()
    return matrices, inits


def _lattice(n):
    return [(i / n, j / n) for i in range(n + 1) for j in range(n + 1 - i)]


def test_mixed_batches_match_the_per_point_oracle(players, ja_tft, payoff):
    # one call solves many support patterns with 1-3 heads; every row must
    # match the same chain solved on its own
    rng = np.random.default_rng(11)
    for n in (3, 6, 9):
        matrices, inits = _mixed_batch(rng, n, 60)
        heads = {_closed_count(m) for m in matrices}
        assert heads == {1, 2, 3}
        pi = limit_distributions(matrices, inits, [(p / 60, 0.0) for p in range(60)])
        for row, matrix, init in zip(pi, matrices, inits):
            assert np.abs(row - limit_distribution_point(matrix, init)).max() <= 1e-12

    # the Cesaro grid of Grim vs JA(TFT): transient states on the edges and
    # two closed classes at (0, 0)
    chain = compose(players["grim"], ja_tft, payoff)
    oracle = PointOracle(chain)
    for n in (14, 20):
        points = np.array(_lattice(n))
        matrices, inits = evaluate_points(chain, *points.T)
        assert len({_closed_count(m) for m in matrices}) == 2
        pi = limit_distributions(matrices, inits, points)
        for row, (x, y) in zip(pi, points):
            assert abs(row @ oracle.payoff - oracle.value(x, y)) <= 1e-12


def test_distinct_weights_evaluate_like_one_column_per_cell(players, payoff):
    # each distinct weight is evaluated once and copied into its cells; the
    # arrays must equal those of one PolyTable column per cell, byte for byte
    rng = random.Random(16)
    pairs = [(p, joss_ann(base)) for base in players.values() for p in players.values()]
    pairs += [(random_player(rng, 6), random_probe(rng, 6)) for _ in range(20)]
    n = 14
    lattice = _lattice(n)
    points = np.array(
        lattice
        + [offset_point(x, y) for x, y in lattice]
        + [(i / n, 1 - i / n) for i in range(n + 1)]
        + [(x, 1e-9) for x in (0.0, 0.3, 0.5, 1 - 1e-9)]
    )
    shared = 0
    for player, probe in pairs:
        chain = compose(player, probe, payoff)
        weighted = chain.index[chain.index > 0]
        shared += len(np.unique(weighted)) < len(weighted)
        for got, expected in zip(
            evaluate_points(chain, *points.T), all_cells_points(chain, *points.T), strict=True
        ):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
    assert shared == len(pairs)  # every chain has some weight filling several cells


def test_shuffled_points_shuffle_the_rows_bit_for_bit(players, ja_tft, payoff):
    # no reduction runs across points, so a point's row does not depend on
    # where it sits in the batch
    rng = np.random.default_rng(12)
    batches = [_mixed_batch(rng, n, 40) for n in (4, 7, 10)]
    pair_rng = random.Random(13)  # 4 to 28 joint states
    pairs = [(players["grim"], ja_tft)] + [
        (random_player(pair_rng, 6), random_probe(pair_rng, 6)) for _ in range(10)
    ]
    points = np.array(_lattice(14))
    for player, probe in pairs:
        batches.append(evaluate_points(compose(player, probe, payoff), *points.T))
    shuffle_rng = np.random.default_rng(12)
    for matrices, inits in batches:
        count = len(inits)
        labels = np.column_stack((np.arange(count) / count, np.zeros(count)))
        pi = limit_distributions(matrices, inits, labels)
        for _ in range(3):
            perm = shuffle_rng.permutation(count)
            shuffled = limit_distributions(matrices[perm], inits[perm], labels[perm])
            assert np.array_equal(shuffled, pi[perm])


def test_cesaro_splitting_matches_literal_loop():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 17, 1000, 4219):
        m = rng.random((6, 6))
        m /= m.sum(axis=1, keepdims=True)
        init = rng.random(6)
        init /= init.sum()
        np.testing.assert_allclose(
            cesaro_average(m, init, n),
            cesaro_average_literal(m, init, n),
            atol=1e-12,
        )


def test_limit_matches_power_iteration_oracle(payoff):
    # fast-mixing corpus so the N = 10^6 Cesaro oracle is converged at 1e-6
    rng = random.Random(8)
    for _ in range(8):
        player = strongly_connected_player(rng, 4)
        probe = mixing_probe(rng, 4)
        chain = compose(player, probe, payoff)
        for _ in range(4):
            x, y = random_interior_point(rng, margin=0.1)
            matrix, init = evaluate(chain, x, y)
            pi = _limit(matrix, init, (x, y))
            oracle = cesaro_average(matrix, init, 10**6)
            assert np.max(np.abs(pi - oracle)) <= 1e-6
            assert np.max(np.abs(pi @ matrix - pi)) <= 1e-9
            assert pi.min() >= 0
            assert abs(pi.sum() - 1) <= 1e-10
