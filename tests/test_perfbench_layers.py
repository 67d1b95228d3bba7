"""Every function the benchmark's tracer wraps still exists, so that
`perfbench/run.py --trace 1` does not fail on a deleted or renamed name."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "spec", [s for specs in tracing.LAYERS.values() for s in specs])
def test_traced_function_resolves(spec):
    owner, attr = tracing._resolve(spec)
    assert callable(getattr(owner, attr))
