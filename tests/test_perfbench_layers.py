"""Every function the benchmark's tracer wraps still exists, and what it
reads off their results is still there, so that `perfbench/run.py --trace 1`
does not fail on a deleted or renamed name."""

import importlib.util
from pathlib import Path

import pytest

from stringcone import fixtures as fx
from stringcone import koszul as kz
from stringcone import semigroup as sg

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "spec", [s for specs in tracing.LAYERS.values() for s in specs])
def test_traced_function_resolves(spec):
    owner, attr = tracing._resolve(spec)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("spec", [
    s for specs in tracing.LAYERS.values() for s in specs
    if tracing._BEFORE.get(tracing._resolve(s)[1]) is tracing._misses])
def test_cache_read_by_the_tracer_exists(spec):
    # the tracer reads cache_info() of these before every call; a dropped
    # lru_cache would break `perfbench/run.py --trace 1`
    owner, attr = tracing._resolve(spec)
    assert callable(getattr(owner, attr).cache_info)


def test_build_complex_trace_reads_the_complex():
    # the tracer records the size of every built complex; a renamed
    # attribute would break `perfbench/run.py --trace 1` on koszul
    pair = fx.reflexive_pair("diamond")
    complex_ = kz.build_complex(pair, sg.random_degree_one(pair.cone, 0),
                                sg.random_degree_one(pair.dual, 17))
    info = tracing._AFTER["build_complex"](
        kz.build_complex, (), {}, complex_, None)
    assert info == {"space": complex_.space.total_dim(),
                    "blocks": len(complex_.blocks)}
