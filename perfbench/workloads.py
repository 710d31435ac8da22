"""The four benchmark workloads: seeded set-up, operations, and checks.

An operation is one user-level call: one grid, one CLI `distance` run, one
closed form, one CLI `simulate` run.  Each workload has two steps.  The
first draws its inputs from the seed; this is the benchmark's own work and
uses no probefp.  The second is the program's set-up: it writes the files the
program reads, parses them with probefp and builds the operations.  Every
operation's first output is checked against the independent reference in
reference.py.

Program functions are looked up on their module at call time, so that the
tracer's wrappers take effect.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import reference
from probefp import automata, cli, polyexpr
from probefp import fingerprint as fp

# Tolerances of the checks, each against the reference of reference.py.
# Both sides are double precision solves of chains of at most ~30 states
# whose smallest escape rate is about 1e-9, so 1e-8 leaves room for the
# program's absorption solve and for the reference's squarings.
VALUE_TOL = 1e-8  # grid values, closed forms, exact fingerprints: |a - b| <= tol * (1 + |b|)
DISTANCE_TOL = 1e-9  # distances: |a - b| <= tol, plus exact symmetry and zero diagonal
Z_MAX = 6.0  # simulate: |z| bound; with 32 replicates P(|t_31| > 6) < 1e-6
CLOSED_FORM_POINTS = 8  # fresh random interior points per closed form

TOLERANCES = {"value": VALUE_TOL, "distance": DISTANCE_TOL, "z_max": Z_MAX,
              "closed_form_points": CLOSED_FORM_POINTS}


class Refused(Exception):
    """The program declined an operation (a non-zero CLI exit)."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]  # raises on failure
    output: Callable[[object], bytes]  # output bytes, compared across passes
    check: Callable[[object], list[str]]  # problems with the first output
    units: float  # work done when the operation succeeds
    counts: dict = field(default_factory=dict)


@dataclass
class Setup:
    ops: list[Op]
    cases: list[dict]
    source_nodes: int = 0  # distance: (pointwise source, node) pairs per pass


def _seeded(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _program_case(case: gen.Case, directory: Path):
    """Write the case's files and parse them with probefp."""
    paths = gen.write_case_files(case, directory)
    player = automata.parse_player(paths["player"].read_text())
    if case.base is not None:
        probe = automata.joss_ann(automata.parse_player(paths["base"].read_text()))
    else:
        probe = automata.parse_probe(paths["probe"].read_text())
    return paths, player, probe


def _close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol * (1 + abs(b))


def _payoff():
    return automata.PayoffMatrix.default_prisoners_dilemma()


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

GRID_N = 14  # Grim in offset mode fails at n = 14 and 20 (not at 10, 12 or 16)
# Joint states of the generated pairs: each size irreducible and reducible,
# against JA(TFT) and against the Joss-Ann probe of a random base player.
GRID_TARGETS = (6, 8, 10, 12)


def grid_inputs(seed: int, bundled: dict) -> list[gen.Case]:
    rng = _seeded(seed, "grid")
    tft = bundled["tft"]
    cases = [gen.ja_case(bundled[name], tft, "bundled") for name in sorted(bundled)]
    for size in GRID_TARGETS:
        for irreducible in (True, False):
            for base in (tft, None):
                cases.append(gen.sized_case(rng, f"G{len(cases)}", size, irreducible, base=base))
    return cases


def grid_setup(cases: list[gen.Case], directory: Path) -> Setup:
    payoff = _payoff()
    closed_forms: dict = {}  # case name -> interior closed-form values, for the checks
    ops = []
    for case in cases:
        _, player, probe = _program_case(case, directory)
        for mode in (fp.CESARO, fp.INTERIOR_OFFSET):
            ops.append(Op(
                name=f"grid {case.name} vs {case.probe.name} {mode}",
                run=lambda p=player, q=probe, m=mode: fp.fingerprint_grid(p, q, payoff, GRID_N, m),
                output=lambda grid: grid.to_csv().encode(),
                check=lambda grid, c=case, p=player, q=probe: _check_grid(grid, c, p, q, closed_forms),
                units=len(reference.lattice(GRID_N)),
                counts={**case.counts(), "points": len(reference.lattice(GRID_N))},
            ))
    return Setup(ops, [c.counts() for c in cases])


def _check_grid(grid, case: gen.Case, player, probe, closed_forms: dict) -> list[str]:
    n = GRID_N
    nodes = reference.lattice(n)
    offset = grid.boundary_mode == fp.INTERIOR_OFFSET
    points = [reference.offset_point(i / n, j / n) if offset else (i / n, j / n) for i, j in nodes]
    expected = reference.values(case.joint, points)
    problems = [f"value at {node} is {grid.values[node]!r}, reference {ref!r}"
                for node, ref in zip(nodes, expected) if not _close(grid.values[node], ref)]
    interior = [(i, j) for i, j in nodes if i and j and i + j < n]
    if case.name not in closed_forms:
        if case.joint.irreducible():
            closed = fp.symbolic_fingerprint(player, probe, _payoff(), validate=False)
            closed_forms[case.name] = [polyexpr.ratfn_eval(closed.fn, i / n, j / n)
                                       for i, j in interior]
        elif case.player.name == "GRIM" and case.probe.name == "joss_ann(TFT)":
            closed_forms[case.name] = [1 + 4 * i / n for i, j in interior]
        else:
            closed_forms[case.name] = None
    form = closed_forms[case.name]
    if form is not None:
        problems += [f"value at {node} is {grid.values[node]!r}, closed form {ref!r}"
                     for node, ref in zip(interior, form) if not _close(grid.values[node], ref)]
    return problems[:3]


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

QUAD_N = 2
GRID_FILE_N = 24
JA_TARGETS = (4, 6, 6, 8, 8, 8, 10, 10, 12, 12)  # pointwise PLAYER:ja:BASE sources
PROBE_TARGETS = (4, 6, 8, 10, 12)  # pointwise PLAYER:PROBE sources
FILE_TARGETS = (4, 6, 6, 8, 8, 10, 10, 12)  # grid files, alternately .json and .csv
# Each operation: 2 Joss-Ann sources, 1 probe-file source, 2 grid files; the
# pools' sizes make all DISTANCE_OPS combinations distinct.
DISTANCE_OPS = 40


def distance_inputs(seed: int, bundled: dict):
    rng = _seeded(seed, "distance")
    # Irreducible and reducible chains alternate, so every seed has as many
    # of each: the two take different paths through the solver.
    ja = [gen.sized_case(rng, f"J{k}", s, k % 2 == 0) for k, s in enumerate(JA_TARGETS)]
    probed = [gen.sized_case(rng, f"N{k}", s, k % 2 == 0, probe_file=True)
              for k, s in enumerate(PROBE_TARGETS)]
    filed = [gen.sized_case(rng, f"F{k}", s, k % 2 == 0, base=bundled["tft"])
             for k, s in enumerate(FILE_TARGETS)]
    # Grid files hold reference values, so the program reads exact lattice data.
    lattice = reference.lattice(GRID_FILE_N)
    grids = [dict(zip(lattice, reference.values(
        case.joint, [(i / GRID_FILE_N, j / GRID_FILE_N) for i, j in lattice]))) for case in filed]
    return ja, probed, list(zip(filed, grids))


def distance_setup(inputs, directory: Path) -> Setup:
    ja, probed, filed = inputs
    centroids = reference.centroids(QUAD_N)
    sources = {}  # name -> (CLI source spec, reference values at the centroids)
    for case in ja + probed:
        paths, _, _ = _program_case(case, directory)
        probe_part = f"ja:{paths['base']}" if case.base is not None else str(paths["probe"])
        sources[case.name] = (f"{paths['player']}:{probe_part}",
                              lambda j=case.joint: reference.values(j, centroids))
    for k, (case, grid) in enumerate(filed):
        path = directory / f"{case.name}.{'json' if k % 2 == 0 else 'csv'}"
        path.write_text(_grid_file(case.name, grid, path.suffix))
        sources[case.name] = (str(path),
                              lambda g=grid: reference.interpolate(g, GRID_FILE_N, centroids))

    ops = []
    for k in range(DISTANCE_OPS):
        names = [ja[k % len(ja)].name, ja[(k + 3) % len(ja)].name, probed[k % len(probed)].name,
                 filed[k % len(filed)][0].name, filed[(k + 5) % len(filed)][0].name]
        out = directory / f"distance{k}.csv"
        argv = ["distance", *(sources[n][0] for n in names), "--quad-n", str(QUAD_N), "-o", str(out)]
        m = len(names)
        ops.append(Op(
            name=f"distance {' '.join(names)}",
            run=lambda a=argv, o=out: _cli(a, o),
            output=Path.read_bytes,
            check=lambda path, ns=names: _check_distance(path.read_bytes(), ns, sources),
            units=m * (m - 1) // 2,
            counts={"sources": m, "pointwise": 3, "nodes": len(centroids), "quad_n": QUAD_N},
        ))
    cases = [{**c.counts(), "source": kind} for kind, group in
             (("ja", ja), ("probe_file", probed), ("grid_file", [c for c, _ in filed]))
             for c in group]
    return Setup(ops, cases, source_nodes=DISTANCE_OPS * 3 * len(centroids))


def _grid_file(name: str, grid: dict, suffix: str) -> str:
    n = GRID_FILE_N
    if suffix == ".json":
        doc = {"meta": {"player": name, "resolution": n, "boundary_mode": "cesaro"},
               "values": [[i / n, j / n, v] for (i, j), v in grid.items()]}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    rows = [f"{i / n:.17g},{j / n:.17g},{v:.17g}" for (i, j), v in grid.items()]
    return "\n".join([f"# player: {name}", "x,y,value", *rows]) + "\n"


def _check_distance(data: bytes, names: list[str], sources: dict) -> list[str]:
    rows = [line.split(",") for line in data.decode().splitlines() if not line.startswith("#")]
    if rows[0][1:] != names or [r[0] for r in rows[1:]] != names:
        return [f"names {rows[0][1:]} differ from sources {names}"]
    d = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    problems = []
    if not np.array_equal(d, d.T):
        problems.append("matrix is not symmetric")
    if np.any(np.diag(d) != 0.0):
        problems.append("diagonal is not zero")
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            ref = reference.l2(sources[names[i]][1](), sources[names[j]][1](), QUAD_N)
            if abs(d[i, j] - ref) > DISTANCE_TOL:
                problems.append(f"d({names[i]}, {names[j]}) = {d[i, j]!r}, reference {ref!r}")
    return problems[:3]


# ---------------------------------------------------------------------------
# symbolic
# ---------------------------------------------------------------------------

SYMBOLIC_TARGETS = (6, 8, 10, 12) * 9


def symbolic_inputs(seed: int, bundled: dict):
    """Cases, each with fresh random interior points for its check."""
    rng = _seeded(seed, "symbolic")
    tft = bundled["tft"]
    cases = [gen.ja_case(bundled[name], tft, "bundled") for name in sorted(bundled)]
    cases = [c for c in cases if c.joint.irreducible()]  # Grim is reducible: grid mode only
    cases += [gen.sized_case(rng, f"S{k}", s, True) for k, s in enumerate(SYMBOLIC_TARGETS)]
    return [(case, [gen.interior_point(rng) for _ in range(CLOSED_FORM_POINTS)])
            for case in cases]


def symbolic_setup(inputs, directory: Path) -> Setup:
    payoff = _payoff()
    ops = []
    for case, points in inputs:
        _, player, probe = _program_case(case, directory)
        ops.append(Op(
            name=f"symbolic {case.name} vs {case.probe.name}",
            run=lambda p=player, q=probe: fp.symbolic_fingerprint(p, q, payoff),
            output=lambda r: f"{r.fn.num.render()}\n{r.fn.den.render()}\n{r.agreement_max_error!r}".encode(),
            check=lambda r, c=case, pts=points: _check_closed_form(r, c, pts),
            units=1,
            counts=case.counts(),
        ))
    return Setup(ops, [case.counts() for case, _ in inputs])


def _check_closed_form(result, case: gen.Case, points) -> list[str]:
    expected = reference.values(case.joint, points)
    return [f"closed form at {pt} is {polyexpr.ratfn_eval(result.fn, *pt)!r}, reference {ref!r}"
            for pt, ref in zip(points, expected)
            if not _close(polyexpr.ratfn_eval(result.fn, *pt), ref)][:3]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

ROUNDS = 5_000
REPLICATES = 32
# generated players, alternately against JA(TFT) and a random base player
SIM_TARGETS = (4, 4, 6, 6, 6, 8, 8, 8, 10)


def simulate_inputs(seed: int, bundled: dict):
    """Cases, each with its (kind, point, simulation seed) runs."""
    rng = _seeded(seed, "simulate")
    tft = bundled["tft"]
    cases = [gen.ja_case(bundled[name], tft, "bundled") for name in sorted(bundled)]
    # every combination of (irreducible, base) in turn, as in distance
    cases += [gen.sized_case(rng, f"M{k}", s, k // 2 % 2 == 0, base=tft if k % 2 == 0 else None)
              for k, s in enumerate(SIM_TARGETS)]
    inputs = []
    for case in cases:
        x, y = gen.interior_point(rng)
        t = rng.random()
        edge = rng.choice([(t, 0.0), (0.0, t), (t, 1.0 - t)])
        runs = [(kind, point, rng.randrange(2**31))
                for kind, point in (("interior", (x, y)), ("edge", edge), ("near-edge", (x, 1e-9)))]
        inputs.append((case, runs))
    return inputs


def simulate_setup(inputs, directory: Path) -> Setup:
    ops = []
    for case, runs in inputs:
        paths, _, _ = _program_case(case, directory)
        for kind, (px, py), sim_seed in runs:
            out = directory / f"simulate-{case.name}-{kind}.json"
            argv = ["simulate", str(paths["player"]), repr(px), repr(py), "--joss-ann", str(paths["base"]),
                    "--rounds", str(ROUNDS), "--replicates", str(REPLICATES),
                    "--seed", str(sim_seed), "-o", str(out)]
            ops.append(Op(
                name=f"simulate {case.name} vs {case.probe.name} {kind} ({px!r}, {py!r})",
                run=lambda a=argv, o=out: _cli(a, o),
                output=Path.read_bytes,
                check=lambda path, c=case, pt=(px, py), k=kind: _check_simulate(path.read_bytes(), c, pt, k),
                units=ROUNDS * REPLICATES,
                counts={**case.counts(), "point": [px, py], "rounds": ROUNDS, "replicates": REPLICATES},
            ))
    return Setup(ops, [case.counts() for case, _ in inputs])


def _check_simulate(data: bytes, case: gen.Case, point, kind: str) -> list[str]:
    doc = json.loads(data)
    est = doc["estimate"]
    problems = []
    ref = float(reference.values(case.joint, [point])[0])
    if not _close(doc["exact_fingerprint"], ref):
        problems.append(f"exact fingerprint {doc['exact_fingerprint']!r}, reference {ref!r}")
    low, high = min(gen.PD_PAYOFF.values()), max(gen.PD_PAYOFF.values())
    if not low <= est["mean"] <= high:
        problems.append(f"mean {est['mean']!r} outside the payoff range")
    # The z test needs replicate means that are close to normal: at an
    # interior point every chain here mixes within tens of rounds, and with
    # one closed class the means do not split between classes.  Near an edge
    # the chain mixes in about 1/y rounds, far more than a run plays, and on
    # an edge it may have several closed classes; there only the bounds hold.
    # The mean is compared with the exact expectation of the same finite run.
    if kind == "interior" and reference.single_closed_class(case.joint, point):
        expected = reference.run_average(case.joint, point, est["rounds"], est["burn_in"])
        if abs(est["mean"] - expected) > Z_MAX * est["stderr"] + 1e-9:
            problems.append(f"mean {est['mean']!r} +- {est['stderr']!r}, expected {expected!r}")
    return problems


def _cli(argv: list[str], out: Path) -> Path:
    code = cli.main(argv)
    if code != 0:
        raise Refused(f"exit {code}")
    return out


# ---------------------------------------------------------------------------

@dataclass
class Workload:
    inputs: Callable  # (seed, bundled players) -> inputs, drawn from the seed
    setup: Callable  # (inputs, directory) -> Setup, the program's set-up
    rate_name: str  # what work_per_s counts on this workload
    rate_unit: str


WORKLOADS = {
    "grid": Workload(grid_inputs, grid_setup, "grid_points_per_s", "points/s"),
    "distance": Workload(distance_inputs, distance_setup, "pairs_per_s", "pairs/s"),
    "symbolic": Workload(symbolic_inputs, symbolic_setup, "closed_forms_per_s", "1/s"),
    "simulate": Workload(simulate_inputs, simulate_setup, "rounds_per_s", "rounds/s"),
}
