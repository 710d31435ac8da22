"""probefp benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; probefp is imported from ./src.
With --trace 0 it times repeated passes over the workload's operations and
prints the end-to-end metrics; with --trace 1 it runs half the time untraced
and half traced, and prints the per-layer metrics.  End-to-end times are
scaled to a fixed host speed, measured by a reference computation timed
after every operation (see measure()).  Every operation's output
is checked against an independent reference (see workloads.py).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`failed` counts operations that raised, exited non-zero or returned a value
outside tolerance; `correct` is false when any returned output was wrong or
differed between passes.  Details, machine facts and the trace go to
.bench_build/perfbench/.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

# Tiny matrices: BLAS threads only add noise.  Set before numpy loads.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
# Time of reference_work() on the baseline host (README, "Host speed") at
# full speed.  Timings are scaled by REFERENCE_S / its measured time.
REFERENCE_S = 0.00095
# Highest percentile with at least ten samples beyond it, from this ladder.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "distance", "symbolic", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Measured:
    """Timings and outputs of whole passes over a workload's operations."""

    def __init__(self, ops):
        self.ops = ops
        self.passes: list[float] = []
        self.samples: list[float] = []  # per (pass, op), scaled to REFERENCE_S
        self.raw: list[float] = []  # the same, as measured
        self.reference: list[float] = []  # reference_work() time after each op
        self.first: list = [None] * len(ops)  # first result, or the exception
        self.outputs: list = [None] * len(ops)  # first output bytes
        self.unstable: set[int] = set()  # ops whose output changed between passes


def reference_work() -> int:
    """A fixed computation in the style of the program's inner loops (dict
    lookups, small tuples, big-integer products), independent of probefp."""
    poly = {(i, j): i * 7 + j * 3 + 1 for i in range(6) for j in range(6)}
    acc = poly
    for _ in range(3):
        out: dict = {}
        for (a, b), c in poly.items():
            for (d, e), f in acc.items():
                key = (a + d, b + e)
                out[key] = out.get(key, 0) + c * f
        acc = {k: v % (1 << 200) + 1 for k, v in list(out.items())[:40]}
    return len(acc)


def time_reference() -> float:
    """Time of one reference_work(), with the collector off so that it
    measures the host's speed and not the program's heap."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure(ops, seconds: float, tracer=None) -> Measured:
    """Run as many whole passes as fit in `seconds` (at least one).

    The shared host's speed changes by up to 2x within minutes, for seconds
    at a time.  reference_work() is timed right after every operation, and
    the operation's time is scaled by REFERENCE_S over that time: the ratio
    stays within a few percent where the raw time moves by tens.
    """
    result = Measured(ops)
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        results = []
        pass_start = clock()
        for op in ops:
            start = clock()
            try:
                if tracer is None:
                    value = op.run()
                else:
                    with tracer.span("bench.op"):
                        value = op.run()
            except Exception as exc:  # a refused operation is a counted failure
                value = exc
            elapsed = clock() - start
            reference = time_reference()
            result.raw.append(elapsed)
            result.reference.append(reference)
            result.samples.append(elapsed * REFERENCE_S / reference)
            results.append(value)
        result.passes.append(clock() - pass_start)
        for k, (op, value) in enumerate(zip(ops, results)):
            output = repr(value).encode() if isinstance(value, Exception) else op.output(value)
            if result.outputs[k] is None:
                result.first[k], result.outputs[k] = value, output
            elif output != result.outputs[k]:
                result.unstable.add(k)
        # stop before a pass that would end past the deadline
        if clock() + result.passes[-1] > deadline:
            return result


def check(measured: Measured) -> tuple[list[str], list[str], int]:
    """Check each operation's first output.  Returns (refusals, wrong
    outputs, number of failing operations per pass)."""
    refused, wrong = [], []
    failing = 0
    for k, (op, value) in enumerate(zip(measured.ops, measured.first)):
        if isinstance(value, Exception):
            refused.append(f"{op.name}: {type(value).__name__}: {str(value)[:160]}")
            failing += 1
            continue
        problems = op.check(value)
        if k in measured.unstable:
            problems.append("output differs between passes")
        if problems:
            wrong.append(f"{op.name}: {'; '.join(problems)}")
            failing += 1
    return refused, wrong, failing


def median_latencies(measured: Measured) -> list[float]:
    """Each operation's median scaled time over the passes."""
    n = len(measured.ops)
    return [statistics.median(measured.samples[k::n]) for k in range(n)]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by the nearest-rank rule."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, ordered[math.ceil(n / 2) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # older numpy has no dict mode; the fact is optional
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "probefp" / "__init__.py").is_file():
        print(f"error: no probefp sources under {SRC}; run from a probefp checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import probefp

    if Path(probefp.__file__).resolve().parent != SRC / "probefp":
        print(f"error: imported probefp from {probefp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import gen
    import tracer as tracing
    import workloads

    import_s = time.perf_counter() - _START
    import_reference = statistics.median(time_reference() for _ in range(3))
    workload = workloads.WORKLOADS[args.workload]
    rate_name, rate_unit = workload.rate_name, workload.rate_unit
    start = time.perf_counter()
    inputs = workload.inputs(args.seed, gen.bundled_players(SRC / "probefp" / "strategies"))
    inputs_s = time.perf_counter() - start
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    def set_up():
        setup = workload.setup(inputs, workdir)
        setup.ops[0].run()  # warm-up
        return setup

    setup_times, setup_reference = [], []
    metrics: dict[str, tuple[float, str]] = {}
    details: dict = {}
    if args.trace == 0:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            setup = set_up()
            setup_times.append(time.perf_counter() - start)
            setup_reference.append(time_reference())
        measured = measure(setup.ops, args.seconds)
    else:
        setup = set_up()
        untraced = measure(setup.ops, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer:
            with tracer.span("bench.setup"):
                setup = set_up()
            measured = measure(setup.ops, args.seconds / 2, tracer)
        # traced outputs must match the untraced ones byte for byte
        measured.unstable |= {k for k, out in enumerate(measured.outputs)
                              if out != untraced.outputs[k]}
        layers = tracing.layer_metrics(tracer, len(measured.passes), setup.source_nodes)
        layers["trace_overhead_ratio"] = (sum(median_latencies(measured))
                                          / sum(median_latencies(untraced)))
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
        details["spans"] = len(tracer.spans)
        metrics = {name: (value, _layer_unit(name)) for name, value in sorted(layers.items())}

    refused, wrong, failing = check(measured)
    passes = len(measured.passes)
    # Every pass repeats the same operations, and a repeat must reproduce the
    # first output; so an operation is attempted, and fails, once per run,
    # whatever number of passes the host's speed allowed.
    attempted = len(measured.ops)
    failed = failing
    if args.trace == 0:
        latencies = median_latencies(measured)
        wall = sum(latencies)
        p, tail_value = tail(latencies)
        units = sum(op.units for op, first in zip(setup.ops, measured.first)
                    if not isinstance(first, Exception))
        metrics = {
            "setup_s": (REFERENCE_S * (import_s / import_reference + statistics.median(
                t / r for t, r in zip(setup_times, setup_reference))), "s"),
            "wall_s": (wall, "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (tail_value, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "work_per_s": (units / wall, "1/s"),
        }
        details.update({rate_name: {"value": units / wall, "unit": rate_unit},
                        "tail_percentile": p, "latency_samples": len(latencies),
                        "ops_failed_ratio": failed / attempted,
                        "median_pass_s": statistics.median(measured.passes),
                        "setup_runs_s": setup_times, "import_s": import_s,
                        "import_reference_s": import_reference,
                        "setup_reference_s": setup_reference,
                        "raw_wall_s": sum(statistics.median(measured.raw[k::len(setup.ops)])
                                          for k in range(len(setup.ops))),
                        "inputs_s": inputs_s})

    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "tolerances": workloads.TOLERANCES,
        "passes": passes, "ops_per_pass": len(setup.ops), "pass_s": measured.passes,
        "op_samples_s": [measured.samples[k::len(setup.ops)] for k in range(len(setup.ops))],
        "op_raw_s": [measured.raw[k::len(setup.ops)] for k in range(len(setup.ops))],
        "reference_s": _quartiles(measured.reference), "reference_nominal_s": REFERENCE_S,
        "cases": setup.cases, "ops": [op.counts | {"name": op.name} for op in setup.ops],
        "refused": refused, "wrong": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str) + "\n")

    print(f"# probefp benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# machine: {json.dumps(details['machine'])}")
    print(f"# {passes} passes of {len(setup.ops)} operations; {attempted} attempted, {failed} failed")
    if args.trace == 0:
        print(f"# op latency is each operation's median of {passes} passes, scaled to the "
              f"reference host speed; op_tail_s is "
              f"p{details['tail_percentile']:g} of {details['latency_samples']} latencies; "
              f"work_per_s is {rate_name}")
        print(f"{'ops_failed_ratio':32s} {failed / attempted:.6g} ratio")
        print(f"{rate_name:32s} {units / wall:.6g} {rate_unit}")
    for line in refused:
        print(f"# refused: {line}")
    for line in wrong:
        print(f"# WRONG: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_point", "_per_source_node")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
