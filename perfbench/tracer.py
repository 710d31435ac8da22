"""Outside-in tracing of probefp: wrap the public functions of every probefp
module for the length of a traced run, record a span per call, restore.

A function imported with ``from .x import f`` is bound in the importing
module too, so every module attribute that refers to a wrapped function is
replaced, not only the one in the defining module.  Spans are kept in memory
as [name, start, end, parent index, raised, count] and written out at the
end; `count` is the work a call reports (replicate-rounds of an estimate, the
exit code of a CLI run), else None.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def probefp_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "probefp" or name.startswith("probefp."))]


def public_functions(modules) -> dict[int, tuple[str, object]]:
    """id -> (layer.name, function) for public functions defined in probefp."""
    found = {}
    for module in modules:
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__
            if home.startswith("probefp.") and obj.__name__ == attr:
                found[id(obj)] = (f"{home.split('.', 1)[1]}.{attr}", obj)
    return found


class Tracer:
    """Records spans for calls into probefp while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        modules = probefp_modules()
        wrappers = {key: self._wrap(name, fn)
                    for key, (name, fn) in public_functions(modules).items()}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def restore(self) -> None:
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- spans ----------------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _BenchSpan(self, name)

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                self._close(rec)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[5] = hook(bound.arguments, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as handle:
            for k, span in enumerate(self.spans):
                handle.write(json.dumps([k, *span]) + "\n")


class _BenchSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer._open(self.name)

    def __exit__(self, exc_type, *_):
        self.rec[4] = exc_type is not None
        self.tracer._close(self.rec)


_HOOKS = {
    "simulate.estimate": lambda arguments, result: arguments["rounds"] * arguments["replicates"],
    "cli.main": lambda arguments, result: result,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, passes: int, source_nodes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced set-up and `passes`
    traced passes.  Parsing is reported for one set-up plus one pass, since
    set-up parses too; everything else for one pass.

    `source_nodes` is the number of (pointwise source, quadrature node)
    pairs in one pass of the distance workload, 0 elsewhere.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    # Spans are stored in the order they open, so a parent precedes its
    # children and ancestor flags can be propagated in one forward sweep.
    marks = ("bench.setup", "fingerprint.symbolic_fingerprint", "simulate.estimate",
             "metrics.l2_distance")
    flags: list[frozenset] = []
    for name, start, end, parent, *_ in spans:
        inherited = flags[parent] if parent >= 0 else frozenset()
        flags.append(inherited | {name} if name in marks else inherited)
        if parent >= 0:
            child_time[parent] += end - start

    total = defaultdict(float)  # inclusive time per name, passes only
    self_time = defaultdict(float)
    calls = Counter()
    raised = Counter()
    crosscheck = table = l2_evals = rounds = exit_nonzero = 0.0
    setup_parse_s = setup_parse_calls = 0
    for k, (name, start, end, parent, failed, count) in enumerate(spans):
        duration = end - start
        if "bench.setup" in flags[k]:
            if name in ("automata.parse_player", "automata.parse_probe"):
                setup_parse_s += duration
                setup_parse_calls += 1
            continue
        total[name] += duration
        self_time[name] += duration - child_time[k]
        calls[name] += 1
        raised[name] += failed
        if name in ("fingerprint.value_at", "polyexpr.ratfn_eval") and \
                "fingerprint.symbolic_fingerprint" in flags[k]:
            crosscheck += duration
        if name in ("chain.compose", "chain.evaluate") and "simulate.estimate" in flags[k]:
            table += duration
        if name == "fingerprint.value_at" and "metrics.l2_distance" in flags[k]:
            l2_evals += 1
        if name == "simulate.estimate" and not failed:
            rounds += count
        if name == "cli.main":
            exit_nonzero += count != 0

    m = {
        "chain.evaluate_s": total["chain.evaluate"],
        "chain.evaluate_calls": calls["chain.evaluate"],
        "chain.classify_s": total["chain.closed_classes"],
        "chain.classify_calls": calls["chain.closed_classes"],
        # The solve stage: limit_distribution less classification, plus the
        # dense solves it calls.
        "chain.solve_s": self_time["chain.limit_distribution"] + total["chain.solve_linear"],
        "chain.solve_calls": calls["chain.limit_distribution"],
        "chain.solve_failures": raised["chain.limit_distribution"],
        "chain.payoff_s": total["chain.expected_payoff"],
        "chain.compose_s": total["chain.compose"],
        "chain.compose_calls": calls["chain.compose"],
        "fingerprint.value_at_s": self_time["fingerprint.value_at"],
        "fingerprint.points": calls["fingerprint.value_at"],
        "fingerprint.grid_self_s": self_time["fingerprint.fingerprint_grid"],
        "fingerprint.eliminate_s": self_time["fingerprint.symbolic_fingerprint"],
        "fingerprint.crosscheck_s": crosscheck,
        "polyexpr.exact_div_s": total["polyexpr.exact_div"],
        "polyexpr.exact_div_calls": calls["polyexpr.exact_div"],
        "metrics.l2_self_s": self_time["metrics.l2_distance"],
        "metrics.l2_calls": calls["metrics.l2_distance"],
        "simulate.kernel_s": self_time["simulate.estimate"],
        "simulate.table_s": table,
        "simulate.rounds": rounds,
        "cli.self_s": self_time["cli.main"],
        "cli.calls": calls["cli.main"],
        "cli.exit_nonzero": exit_nonzero,
    }
    m = {name: value / passes for name, value in m.items()}
    parse_names = ("automata.parse_player", "automata.parse_probe")
    m["automata.parse_s"] = setup_parse_s + sum(total[n] for n in parse_names) / passes
    m["automata.parse_calls"] = setup_parse_calls + sum(calls[n] for n in parse_names) / passes
    evaluates = calls["chain.evaluate"]
    m["chain.classify_per_point"] = calls["chain.closed_classes"] / evaluates if evaluates else 0.0
    m["metrics.evals_per_source_node"] = l2_evals / passes / source_nodes if source_nodes else 0.0
    return m
