"""Every function the benchmark's tracer wraps still exists, and what it
reads off their results is still there, so that `perfbench/run.py --trace 1`
does not fail on a deleted or renamed name.  The benchmark's repeated ops
reuse the geometry that the first one built."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import dense

from stringcone import fixtures as fx
from stringcone import intlinalg as la
from stringcone import koszul as kz
from stringcone import lattice as lat
from stringcone import semigroup as sg


def perfbench_module(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = perfbench_module("tracing")


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


def test_repeated_ops_build_no_geometry(monkeypatch):
    # a ring-dims op on the cone and stellar subdivision of the op before
    # it, with another field and seed, and a koszul op with another seed
    workloads = perfbench_module("workloads")
    ring, koszul = (workloads.make_batch(w, 5) for w in ("ring-dims", "koszul"))
    pairs = [(ring[2], ring[3]), (koszul[3], koszul[4])]
    for first, repeat in pairs:
        assert first.label.split("/")[:2] == repeat.label.split("/")[:2]
        assert first.label != repeat.label and "stellar" in first.label
        first.run()
    calls = []
    for owner, name in ((lat, "_cone_facets_fulldim"),
                        (lat, "validate_subdivision"), (la, "rref_fraction")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    builds = [lat._cone_from_generators, lat._regular_subdivision]
    misses = [f.cache_info().misses for f in builds]
    assert [repeat.run() for _, repeat in pairs] == [
        repeat.expected for _, repeat in pairs]
    assert calls == []
    assert [f.cache_info().misses for f in builds] == misses
