"""Every function the benchmark's tracer wraps still exists, and what it
reads off their results is still there, so that `perfbench/run.py --trace 1`
does not fail on a deleted or renamed name."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from oracles import dense

from stringcone import fixtures as fx
from stringcone import intlinalg as la
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


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4, 5)])
def test_modp_trace_reads_triplets_like_their_dense_form(shape):
    # the tracer sizes the matrix of every mod-p rank call; it reads a
    # SparseMatrix through len(), row 0 and row iteration
    rng = np.random.default_rng(0)
    mat = la.SparseMatrix.of(rng.integers(-2, 3, shape) * (
        rng.random(shape) < .5))
    record = [None] * 7
    record[tracing.PARENT] = -1
    before = tracing._BEFORE["ranks_with_prefix_mod_p"]
    info = before(la.ranks_with_prefix_mod_p, (mat,), {}, [], record)
    assert info == before(la.ranks_with_prefix_mod_p, (dense(mat),), {}, [],
                          record) == {"cells": mat.shape[0] * mat.shape[1],
                                      "nnz": np.count_nonzero(mat.vals)}
