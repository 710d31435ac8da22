"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import random
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    cesaro_average,
    chain_sum_residuals,
    cycle_average_payoff,
    exact_l2_distance,
    mixing_probe,
    random_interior_point,
    random_polynomial,
    scalar_evaluator,
    strongly_connected_player,
)
from probefp import bundled_strategy_path
from probefp.chain import compose, evaluate, closed_classes, limit_distributions
from probefp.cli import main
from probefp.fingerprint import (
    fingerprint_grid,
    symbolic_fingerprint,
    value_at,
)
from probefp.metrics import l2_distance
from probefp.polyexpr import RationalFn, expr_parse, ratfn_equiv, ratfn_eval
from probefp.simulate import estimate

GRID_N = 20
ORACLE_SEED = 31415
MC_SEED = 90210


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] {label} ({time.perf_counter() - start:.2f}s)", flush=True)
        raise
    print(f"[PASS] {label} ({time.perf_counter() - start:.2f}s)", flush=True)


def test_criterion_01_closed_form_grids(players, ja_tft, payoff):
    with criterion("1 closed-form fingerprints on the n=20 grid"):
        grid_c = fingerprint_grid(players["allc"], ja_tft, payoff, GRID_N)
        grid_d = fingerprint_grid(players["alld"], ja_tft, payoff, GRID_N)
        for (i, j), value in grid_c.values.items():
            assert abs(value - (3 - 3 * j / GRID_N)) <= 1e-9
        for (i, j), value in grid_d.values.items():
            assert abs(value - (1 + 4 * i / GRID_N)) <= 1e-9


def test_criterion_02_symbolic_numeric_agreement(players, ja_tft, payoff):
    with criterion("2 symbolic/numeric agreement and closed-form equivalence"):
        results = {
            name: symbolic_fingerprint(players[name], ja_tft, payoff)
            for name in ("allc", "alld", "tft")
        }
        assert ratfn_equiv(results["allc"].fn, RationalFn(expr_parse("3 - 3*y")))
        assert ratfn_equiv(results["alld"].fn, RationalFn(expr_parse("1 + 4*x")))
        for name, result in results.items():
            chain = compose(players[name], ja_tft, payoff)
            for i in range(1, GRID_N):
                for j in range(1, GRID_N - i):
                    x, y = i / GRID_N, j / GRID_N
                    numeric = value_at(chain, x, y)
                    assert abs(ratfn_eval(result.fn, x, y) - numeric) <= 1e-8


def test_criterion_03_stationary_solver_oracle(payoff):
    with criterion("3 stationary solver vs Cesaro power-iteration oracle"):
        rng = random.Random(ORACLE_SEED)
        chains = []
        for _ in range(50):
            player = strongly_connected_player(rng, 4)
            probe = mixing_probe(rng, 4)
            chains.append(compose(player, probe, payoff))
        worst = 0.0
        for chain in chains:
            for _ in range(10):
                x, y = random_interior_point(rng, margin=0.1)
                matrix, init = evaluate(chain, x, y)
                pi = limit_distributions(matrix[None], init[None], [(x, y)])[0]
                oracle = cesaro_average(matrix, init, 10**6)
                worst = max(worst, float(np.max(np.abs(pi - oracle))))
                assert np.max(np.abs(pi - oracle)) <= 1e-6
                for cls in closed_classes(matrix).closed_classes():
                    idx = list(cls.states)
                    sub = matrix[np.ix_(idx, idx)]
                    residual = np.max(np.abs(pi[idx] @ sub - pi[idx]))
                    assert residual <= 1e-9
        print(f"  worst |pi - oracle| = {worst:.3e}", flush=True)


def test_criterion_04_row_sum_identities(players, ja_tft, const_c_probe, payoff):
    with criterion("4 exact symbolic row-sum identities"):
        rng = random.Random(ORACLE_SEED)
        chains = [
            compose(players[name], ja_tft, payoff) for name in players
        ] + [compose(players["tft"], const_c_probe, payoff)]
        for _ in range(25):
            chains.append(
                compose(strongly_connected_player(rng, 4), mixing_probe(rng, 4), payoff)
            )
        assert len(chains) >= 30
        for chain in chains:
            assert chain_sum_residuals(chain) == [{}] * (chain.n_states + 1)


def test_criterion_05_monte_carlo_agreement(players, ja_tft, payoff):
    with criterion("5 Monte Carlo agreement within 3 standard errors"):
        rng = random.Random(MC_SEED)
        points = [random_interior_point(rng) for _ in range(5)]
        hits = 0
        total = 0
        for name in ("allc", "alld", "tft"):
            chain = compose(players[name], ja_tft, payoff)
            for x, y in points:
                result = estimate(
                    players[name], ja_tft, payoff, x, y,
                    rounds=10**6, burn_in=10**5, replicates=32, seed=MC_SEED,
                )
                exact = value_at(chain, x, y)
                total += 1
                if abs(result.mean - exact) <= 3 * result.stderr:
                    hits += 1
        print(f"  {hits}/{total} cases within 3 standard errors", flush=True)
        assert total == 15
        assert hits >= 14


def test_criterion_06_distance_metric(players, ja_tft, payoff):
    with criterion("6 L2 distance metric"):
        closed_c = symbolic_fingerprint(players["allc"], ja_tft, payoff)
        closed_d = symbolic_fingerprint(players["alld"], ja_tft, payoff)
        assert l2_distance(closed_c, closed_c, 60) == 0.0
        forward = l2_distance(closed_c, closed_d, 200)
        backward = l2_distance(closed_d, closed_c, 200)
        assert forward == backward
        analytic = exact_l2_distance(expr_parse("3 - 3*y"), expr_parse("1 + 4*x"))
        assert analytic == pytest.approx(math.sqrt(5 / 12), abs=1e-15)
        assert abs(forward - analytic) <= 1e-3

        rng = random.Random(606)
        for _ in range(100):
            f, g, h = (random_polynomial(rng) for _ in range(3))
            fe, ge, he = (scalar_evaluator(p) for p in (f, g, h))
            dfg = l2_distance(fe, ge, 40)
            dfh = l2_distance(fe, he, 40)
            dgh = l2_distance(ge, he, 40)
            assert dfg >= 0.0
            assert l2_distance(ge, fe, 40) == dfg
            assert dfh <= dfg + dgh + 1e-9


def test_criterion_07_quadrature_convergence(players, ja_tft, payoff):
    with criterion("7 quadrature convergence at second order"):
        closed_c = symbolic_fingerprint(players["allc"], ja_tft, payoff)
        closed_d = symbolic_fingerprint(players["alld"], ja_tft, payoff)
        analytic = exact_l2_distance(expr_parse("3 - 3*y"), expr_parse("1 + 4*x"))
        errors = [
            abs(l2_distance(closed_c, closed_d, n) - analytic) for n in (25, 50, 100)
        ]
        print(f"  errors at n=25,50,100: {errors}", flush=True)
        assert errors[0] / errors[1] >= 3.0
        assert errors[1] / errors[2] >= 3.0


def test_criterion_08_corner_consistency(players, ja_tft, payoff):
    with criterion("8 corner values match deterministic cycle averages"):
        for name, player in players.items():
            chain = compose(player, ja_tft, payoff)
            vs_allc = float(cycle_average_payoff(player, "C", payoff))
            vs_alld = float(cycle_average_payoff(player, "D", payoff))
            assert abs(value_at(chain, 1.0, 0.0) - vs_allc) <= 1e-9
            assert abs(value_at(chain, 0.0, 1.0) - vs_alld) <= 1e-9


def test_criterion_09_reproducible_outputs(tmp_path):
    with criterion("9 byte-identical outputs across repeated runs"):
        for name in ("tft", "allc", "alld", "pavlov"):
            shutil.copy(bundled_strategy_path(name), tmp_path / f"{name}.player")
        pairs = [
            f"{tmp_path / 'allc.player'}:ja:{tmp_path / 'tft.player'}",
            f"{tmp_path / 'alld.player'}:ja:{tmp_path / 'tft.player'}",
        ]
        snapshots = []
        for tag in ("first", "second"):
            fp = tmp_path / f"fp_{tag}.csv"
            dm = tmp_path / f"dm_{tag}.csv"
            sim = tmp_path / f"sim_{tag}.json"
            assert main([
                "fingerprint", str(tmp_path / "pavlov.player"),
                "--joss-ann", str(tmp_path / "tft.player"),
                "-n", "8", "-o", str(fp),
            ]) == 0
            assert main(["distance", *pairs, "--quad-n", "50", "-o", str(dm)]) == 0
            assert main([
                "simulate", str(tmp_path / "tft.player"), "0.2", "0.3",
                "--joss-ann", str(tmp_path / "tft.player"),
                "--rounds", "20000", "--seed", "7", "-o", str(sim),
            ]) == 0
            snapshots.append((fp.read_bytes(), dm.read_bytes(), sim.read_bytes()))
        assert snapshots[0] == snapshots[1]


def test_criterion_10_failure_paths(tmp_path, capsys):
    with criterion("10 failure-path exit codes and diagnostics"):
        bad = tmp_path / "bad.probe"
        bad.write_text(
            "probe BAD\nalphabet C D\ninit C 0 : x\ninit D 0 : y\n"
            "0 C -> C 0 : 1\n0 D -> C 0 : 1\n"
        )
        code = main(["validate", str(bad)])
        out = capsys.readouterr().out
        assert code == 2
        assert "-x - y + 1" in out

        for name in ("grim", "tft"):
            shutil.copy(bundled_strategy_path(name), tmp_path / f"{name}.player")
        code = main([
            "symbolic", str(tmp_path / "grim.player"),
            "--joss-ann", str(tmp_path / "tft.player"),
        ])
        err = capsys.readouterr().err
        assert code == 4
        assert "closed {2, 3}" in err
        assert "transient" in err
