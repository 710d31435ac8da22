import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import exact_l2_distance, random_oracle_pairs, random_polynomial, scalar_evaluator
from probefp.automata import PayoffMatrix, joss_ann
from probefp.errors import OutOfSimplexError
from probefp.fingerprint import fingerprint_grid, pointwise_fingerprint, symbolic_fingerprint
from probefp.metrics import (
    DistanceMatrix,
    _centroids,
    distance_matrix,
    l2_distance,
    make_grid_evaluator,
)


def test_distance_to_self_is_zero(players, ja_tft, payoff):
    f = symbolic_fingerprint(players["tft"], ja_tft, payoff)
    assert l2_distance(f, f, 30) == 0.0


def test_constant_distance_exact_at_any_resolution():
    c3 = lambda x, y: 3.0
    c1 = lambda x, y: 1.0
    for n in (1, 2, 7, 40):
        assert l2_distance(c3, c1, n) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_allc_alld_distance_matches_analytic(players, ja_tft, payoff):
    # integral of (2 - 4x - 3y)^2 over the triangle, via the exact monomial oracle
    from probefp.polyexpr import expr_parse

    f_allc = expr_parse("3 - 3*y")
    f_alld = expr_parse("1 + 4*x")
    exact = exact_l2_distance(f_allc, f_alld)
    assert exact == pytest.approx(math.sqrt(5 / 12), abs=1e-15)

    fc = symbolic_fingerprint(players["allc"], ja_tft, payoff)
    fd = symbolic_fingerprint(players["alld"], ja_tft, payoff)
    assert l2_distance(fc, fd, 200) == pytest.approx(exact, abs=1e-3)


def test_quadrature_convergence_second_order():
    rng = random.Random(77)
    for _ in range(5):
        p = random_polynomial(rng, max_degree=3)
        q = random_polynomial(rng, max_degree=3)
        exact = exact_l2_distance(p, q)
        if exact == 0.0:
            continue
        errors = [
            abs(l2_distance(scalar_evaluator(p), scalar_evaluator(q), n) - exact)
            for n in (25, 50, 100)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            if coarse > 1e-13:
                assert coarse / max(fine, 1e-300) >= 3.0


def test_metric_axioms_on_random_triples():
    rng = random.Random(2024)
    for _ in range(25):
        f, g, h = (scalar_evaluator(random_polynomial(rng)) for _ in range(3))
        dfg = l2_distance(f, g, 40)
        dgf = l2_distance(g, f, 40)
        dfh = l2_distance(f, h, 40)
        dgh = l2_distance(g, h, 40)
        assert dfg >= 0.0
        assert dfg == dgf
        assert dfh <= dfg + dgh + 1e-9


def test_scale_property(players, ja_tft, payoff):
    base_c = pointwise_fingerprint(players["allc"], ja_tft, payoff)
    base_d = pointwise_fingerprint(players["alld"], ja_tft, payoff)
    reference = l2_distance(base_c, base_d, 30)
    for c in (4, 0.5, 3):
        scaled_payoff = payoff.scaled(c)
        sc = pointwise_fingerprint(players["allc"], ja_tft, scaled_payoff)
        sd = pointwise_fingerprint(players["alld"], ja_tft, scaled_payoff)
        scaled = l2_distance(sc, sd, 30)
        assert scaled == pytest.approx(abs(c) * reference, rel=1e-12)


def test_grid_source_refuses_points_outside_the_triangle(players, ja_tft, payoff):
    # interpolation used to wrap its indices here, or fail with an IndexError
    evaluator = make_grid_evaluator(fingerprint_grid(players["alld"], ja_tft, payoff, 4))
    pointwise = pointwise_fingerprint(players["alld"], ja_tft, payoff)
    for point in [(-0.5, 0.2), (0.2, -0.3), (0.9, 0.9), (1.2, 0.0), (float("nan"), 0.1)]:
        for f in (evaluator, pointwise):
            with pytest.raises(OutOfSimplexError) as caught:
                f(*point)
            assert np.array_equal(caught.value.point, point, equal_nan=True)
        with pytest.raises(OutOfSimplexError):
            evaluator.values_at([0.1, point[0]], [0.1, point[1]])


def test_grid_interpolation_matches_symbolic(players, ja_tft, payoff):
    # AllC's fingerprint is affine, so interpolation is exact up to roundoff
    grid_c = fingerprint_grid(players["allc"], ja_tft, payoff, 20)
    closed_c = symbolic_fingerprint(players["allc"], ja_tft, payoff)
    assert l2_distance(make_grid_evaluator(grid_c), closed_c, 50) <= 1e-12
    # TFT's fingerprint has a directional discontinuity at the origin corner,
    # so a lattice interpolant carries O(1) local error in those corner cells
    grid_t = fingerprint_grid(players["tft"], ja_tft, payoff, 20)
    interpolated = make_grid_evaluator(grid_t)
    closed_t = symbolic_fingerprint(players["tft"], ja_tft, payoff)
    assert l2_distance(interpolated, closed_t, 50) <= 2e-2
    # interpolation reproduces lattice nodes exactly
    for (i, j), value in grid_t.values.items():
        assert interpolated(i / 20, j / 20) == pytest.approx(value, abs=1e-12)


def test_distance_matrix_single_entry():
    matrix = distance_matrix([("only", lambda x, y: 1.0)], 10)
    assert matrix.names == ("only",)
    assert matrix.d.tolist() == [[0.0]]


def test_distance_matrix_allc_alld(players, ja_tft, payoff):
    fc = symbolic_fingerprint(players["allc"], ja_tft, payoff)
    fd = symbolic_fingerprint(players["alld"], ja_tft, payoff)
    matrix = distance_matrix([("ALLC", fc), ("ALLD", fd)], 200)
    assert matrix.d[0, 0] == 0.0
    assert matrix.d[1, 1] == 0.0
    assert matrix.d[0, 1] == matrix.d[1, 0]
    assert matrix.d[0, 1] == pytest.approx(math.sqrt(5 / 12), abs=1e-3)


def test_distance_matrix_identical_copies(players, ja_tft, payoff):
    f = symbolic_fingerprint(players["allc"], ja_tft, payoff)
    matrix = distance_matrix([("A", f), ("B", f)], 60)
    assert abs(matrix.d[0, 1]) <= 1e-12


def test_distance_matrix_duplicate_names():
    f = lambda x, y: 0.0
    with pytest.raises(ValueError):
        distance_matrix([("A", f), ("A", f)], 10)


def test_distance_matrix_csv_layout():
    matrix = DistanceMatrix(names=("A", "B"), d=np.array([[0.0, 1.5], [1.5, 0.0]]))
    lines = matrix.to_csv().splitlines()
    assert lines[0] == "name,A,B"
    assert lines[1] == "A,0,1.5"
    assert lines[2] == "B,1.5,0"


class CountingSource:
    """A pointwise source that counts the points it is evaluated at."""

    def __init__(self, source):
        self.source = source
        self.points = 0

    def __call__(self, x, y):
        self.points += 1
        return self.source(x, y)

    def values_at(self, xs, ys):
        self.points += len(xs)
        return self.source.values_at(xs, ys)


def test_distance_matrix_samples_each_source_once_per_centroid(players, ja_tft, payoff):
    n = 12
    sources = [
        (name, CountingSource(pointwise_fingerprint(players[name], ja_tft, payoff)))
        for name in ("allc", "tft", "grim", "pavlov")
    ]
    matrix = distance_matrix(sources, n)
    for _, source in sources:
        assert source.points == n * n
    for i, (_, f) in enumerate(sources):
        for j, (_, g) in enumerate(sources):
            assert matrix.d[i, j] == pytest.approx(l2_distance(f.source, g.source, n), abs=1e-15)


def test_mixed_corpus_is_symmetric_with_zero_diagonal(players, ja_tft, payoff):
    grid = fingerprint_grid(players["pavlov"], ja_tft, payoff, 10)
    corpus = [
        ("tft", pointwise_fingerprint(players["tft"], ja_tft, payoff)),
        ("grim", pointwise_fingerprint(players["grim"], joss_ann(players["pavlov"]), payoff)),
        ("pavlov grid", make_grid_evaluator(grid)),
        ("allc closed", symbolic_fingerprint(players["allc"], ja_tft, payoff)),
        ("alld plain", lambda x, y: 1 + 4 * x),
    ]
    matrix = distance_matrix(corpus, 30)
    assert np.array_equal(matrix.d, matrix.d.T)
    assert np.all(np.diag(matrix.d) == 0.0)
    for _, f in corpus:
        assert l2_distance(f, f, 30) == 0.0
    xs, ys = _centroids(30)
    for _, f in corpus[:4]:
        expected = [f(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        np.testing.assert_allclose(f.values_at(xs, ys), expected, rtol=1e-13, atol=1e-13)


def test_distance_matrix_rejects_resolution_below_one():
    corpus = [("A", lambda x, y: 0.0), ("B", lambda x, y: 1.0)]
    for n in (0, -3):
        with pytest.raises(ValueError, match="quadrature resolution must be >= 1"):
            distance_matrix(corpus, n)
        with pytest.raises(ValueError, match="quadrature resolution must be >= 1"):
            l2_distance(*(f for _, f in corpus), n)


def test_affine_payoffs_give_the_affine_distances(players, ja_tft, payoff):
    # F under a M + b is a F + b, so the distances scale by |a| and ignore b.
    # Scaling every payoff by -1 or a power of 2 commutes with every rounding,
    # so the matrix scales exactly; a shift holds within 1e-12 of the
    # payoffs' scale |b| + max |M|.
    pairs = [(player, ja_tft) for player in players.values()] + random_oracle_pairs()[:6]

    def matrix(game_payoff: PayoffMatrix) -> np.ndarray:
        corpus = [(f"s{k}", pointwise_fingerprint(player, probe, game_payoff))
                  for k, (player, probe) in enumerate(pairs)]
        return distance_matrix(corpus, 12).d

    base = matrix(payoff)
    assert base.max() > 1
    for a in (2, -1, Fraction(1, 4)):
        assert np.array_equal(matrix(payoff.scaled(a)), abs(float(a)) * base)
    bound = max(map(abs, payoff.entries.values()))
    for b in (Fraction(-5, 7), 10**6):
        shifted = matrix(PayoffMatrix({move: v + b for move, v in payoff.entries.items()}))
        assert np.abs(shifted - base).max() <= 1e-12 * float(abs(b) + bound)
