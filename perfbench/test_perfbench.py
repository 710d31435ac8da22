"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BUNDLED = gen.bundled_players(ROOT / "src" / "probefp" / "strategies")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload, tmp_path):
    spec = workloads.WORKLOADS[workload]
    runs = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        directory = tmp_path / name
        directory.mkdir()
        setup = spec.setup(spec.inputs(seed, BUNDLED), directory)
        runs.append((_files(directory), setup.cases, [op.name for op in setup.ops]))
    assert runs[0] == runs[1]
    assert runs[0][0] != runs[2][0]


def _bindings() -> dict:
    return {(m.__name__, attr): obj for m in tracing.probefp_modules()
            for attr, obj in vars(m).items()}


def test_every_wrapped_function_is_restored():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        # `from .chain import evaluate` binds it in fingerprint too: both wrapped
        import probefp.chain
        import probefp.fingerprint
        assert probefp.fingerprint.evaluate is probefp.chain.evaluate
        assert probefp.chain.evaluate is not before[("probefp.chain", "evaluate")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert sum(during[key] is not before[key] for key in before) > 30


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_outputs_are_identical_with_tracing_on_and_off(workload, tmp_path):
    spec = workloads.WORKLOADS[workload]
    setup = spec.setup(spec.inputs(3, BUNDLED), tmp_path)
    ops = setup.ops[:4]

    def outputs():
        result = []
        for op in ops:
            try:
                result.append(op.output(op.run()))
            except Exception as exc:
                result.append(repr(exc).encode())
        return result

    untraced = outputs()
    tracer = tracing.Tracer()
    with tracer:
        traced = outputs()
    assert traced == untraced
    assert any(name.startswith("chain.") for name, *_ in tracer.spans)
