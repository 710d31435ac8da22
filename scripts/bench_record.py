#!/usr/bin/env python3
"""Paired perfbench runs of a parent revision and the working tree, recorded
in BENCH_<label>.json at the root of the repository.

    python3 scripts/bench_record.py --label LABEL --parent REV \\
        --workloads grid symbolic --seeds 9 23 --pairs 10

The committed files of the parent revision are exported with `git archive`
into a temporary directory; the working tree runs from the repository root,
uncommitted changes included.  For every workload and seed, each pair runs
`perfbench/run.py --trace 0` once on each side with the same settings, and
the side that runs first alternates from pair to pair.  Every run lasts
BENCHMARK.json's `run_seconds`.

The file holds, per workload and seed and for every end-to-end metric that
BENCHMARK.json names, each side's median and quartiles, the relative change
of the medians, the parent's interquartile range and the pairs the working
tree won (ties count for neither), then every run's metrics, correctness
and failure counts; plus the revisions, seeds, seconds, pair count and the
machine facts from the runs' result files.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "working")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(revision: str, directory: Path) -> None:
    """Write the committed files of `revision` into `directory`."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `tree`: its summary line and the
    machine facts of its result file."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    result = tree / ".bench_build" / "perfbench" / f"result-{workload}-seed{seed}-trace0.json"
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "machine": json.loads(result.read_text())["machine"],
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change of the medians, the
    parent's interquartile range and the working tree's wins."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent, working = stats["parent"]["median"], stats["working"]["median"]
        wins = sum(
            (w < p) if lower else (w > p) for p, w in zip(values["parent"], values["working"])
        )
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            **stats,
            "change": working / parent - 1 if parent else None,
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "wins": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]

    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    record = {
        "label": args.label,
        "parent": parent,
        "working": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "seconds": seconds,
        "pairs": args.pairs,
        "seeds": args.seeds,
        "machine": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "working": ROOT}
        export(parent, trees["parent"])
        for workload in args.workloads:
            for seed in args.seeds:
                pairs = []
                for k in range(args.pairs):
                    order = SIDES if k % 2 == 0 else SIDES[::-1]
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run(trees[side], workload, seed, seconds)
                        record["machine"] = record["machine"] or {
                            key: value for key, value in pair[side]["machine"].items()
                            if key != "commit"
                        }
                        del pair[side]["machine"]
                    pairs.append(pair)
                    wall = {side: round(pair[side]["metrics"]["wall_s"], 5) for side in SIDES}
                    print(f"{workload} seed {seed} pair {k + 1}/{args.pairs}: wall_s {wall}",
                          file=sys.stderr)
                record["workloads"].setdefault(workload, {})[str(seed)] = {
                    "summary": summarise(pairs, benchmark["end_to_end"]),
                    "runs": pairs,
                }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
