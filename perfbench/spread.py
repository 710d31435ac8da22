"""Run the benchmark over several seeds and report each metric's median and
quartile spread (Q3 - Q1 as a share of the median).

    python3 perfbench/spread.py --workloads grid simulate --seeds 1 2 3 4 5 --seconds 20
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline perfbench/baseline.json

Runs are sequential, one process at a time, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else float("nan"),
            "min": min(values), "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["grid", "distance", "symbolic", "simulate"])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        summary[workload] = {
            "seeds": args.seeds,
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {name: {**summarize([r["metrics"][name]["value"] for r in runs]),
                               "unit": runs[0]["metrics"][name]["unit"]}
                        for name in runs[0]["metrics"]},
        }
        print(f"{workload}: correct {summary[workload]['correct']} "
              f"failed/attempted {list(zip(summary[workload]['failed'], summary[workload]['attempted']))}")
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if s["spread"] < bound / 3 else
                                             ("  WITHIN BOUND" if s["spread"] <= bound else "  OVER BOUND"))
            print(f"  {name:30s} median {s['median']:.6g} {s['unit']:9s} spread {s['spread']:.4f}"
                  f"{'' if bound is None else f' (bound {bound})'}{flag}")
        sys.stdout.flush()
    if args.baseline:
        args.baseline.write_text(json.dumps(
            {"seconds": seconds, "trace": args.trace, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
