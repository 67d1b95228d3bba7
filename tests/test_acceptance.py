"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one PASS/FAIL line per sub-check (run pytest with -s or
rely on the captured output on failure).  All comparisons are exact
integer/rational equalities; runtime budgets are enforced where stated.
"""

import dataclasses
import time

from stringcone import fixtures as fx
from stringcone import koszul as kz
from stringcone import lattice as lat
from stringcone import stringy as st
from stringcone import verify as vf
from stringcone.polynomials import UnivariatePolynomial


def _report(results, budget=None, elapsed=None):
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f"  ({res.detail})" if res.detail else ""
        print(f"{status} {res.name}{detail}")
        ok = ok and res.passed
    if budget is not None:
        status = "PASS" if elapsed < budget else "FAIL"
        print(f"{status} runtime {elapsed:.1f}s < {budget}s")
        ok = ok and elapsed < budget
    assert ok


def test_criterion_1_two_formula_agreement():
    start = time.time()
    results = vf.criterion_two_formula()
    _report(results, budget=60, elapsed=time.time() - start)


def test_criterion_2_mirror_duality():
    _report(vf.criterion_mirror_duality())


def test_criterion_3_golden_hodge_numbers():
    start = time.time()
    results = vf.criterion_golden_hodge()
    _report(results, budget=600, elapsed=time.time() - start)


def test_criterion_4_poset_identities():
    _report(vf.criterion_poset_identities())


def test_criterion_5_tilde_s_suite():
    _report(vf.criterion_tilde_s())


def test_criterion_6_graded_quotient_dimensions():
    start = time.time()
    results = vf.criterion_graded_dimensions(seeds=(0, 1, 2))
    _report(results, budget=300, elapsed=time.time() - start)


def test_criterion_6_backend_check_can_fail():
    cone = lat.gorenstein_cone_over(fx.polytope("p2"))
    sub = lat.stellar_subdivision(cone)
    report = vf._dims_match_with_retries(cone, sub, 5, "rational")
    assert report.seed % 1000 == 5  # the effective seed
    assert vf._prime_backend_agrees(cone, sub, report)
    r0 = report.dims_R0
    wrong = dataclasses.replace(report, dims_R0=r0[:-1] + (r0[-1] + 1,))
    assert not vf._prime_backend_agrees(cone, sub, wrong)


def test_criterion_7_box_points():
    _report(vf.criterion_box_points())


def test_criterion_8_toric_stringy_e():
    _report(vf.criterion_toric())


def test_criterion_9_koszul_comparison():
    start = time.time()
    results = vf.criterion_koszul(seeds=(0, 1, 2))
    _report(results, budget=600, elapsed=time.time() - start)


def test_criterion_9_fails_when_d_squared_is_not_zero(monkeypatch):
    # a complex whose D^2 check fails must fail the criterion even though
    # its cohomology still matches the face-sum prediction
    assert all(r.passed for r in vf.criterion_koszul(seeds=(0,),
                                                     names=("segment",)))
    monkeypatch.setattr(kz.KoszulComplex, "verify_d_squared",
                        lambda self: False)
    results = vf.criterion_koszul(seeds=(0,), names=("segment",))
    assert [r.passed for r in results] == [False]
    assert "D^2 != 0" in results[0].detail


def test_criterion_10_cohomology_table_consistency():
    _report(vf.criterion_cohomology_table())


def test_criterion_10_fails_when_tilde_s_is_perturbed(monkeypatch):
    # tilde-S of every ray raised by t: the table and the tilde-S
    # E-function move together, the oracle E-function does not
    names = ("segment", "diamond", "cube", "quintic")
    assert all(r.passed for r in vf.criterion_cohomology_table(names))
    original = st.face_tilde_s

    def bumped(face):
        ts = original(face)
        return ts + UnivariatePolynomial((0, 1)) if face.dim == 1 else ts

    monkeypatch.setattr(st, "face_tilde_s", bumped)
    assert not any(r.passed for r in vf.criterion_two_formula(names))
    results = vf.criterion_cohomology_table(names)
    assert [r.passed for r in results] == [False] * len(names)
    assert "out of range" in results[0].detail
