"""The acceptance/verification suite over the bundled fixtures.

Each criterion is a function returning CheckResult records; the CLI
`verify` subcommand and the acceptance tests both run these.  Golden
values are derived by the independent oracle path before the main
formula is trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixtures as fx
from . import intlinalg as la
from . import koszul as kz
from . import lattice as lat
from . import posets as po
from . import semigroup as sg
from . import stringy as st
from .errors import NotGenericAfterRetries
from .polynomials import UnivariatePolynomial

GENERICITY_RETRIES = 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail=""):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _unique_fixture_cones(names):
    cones = []
    for name in names:
        pair = fx.reflexive_pair(name)
        for cone in (pair.cone, pair.dual):
            if cone not in cones:
                cones.append(cone)
    return cones


# -- criterion 1: two-formula agreement -------------------------------------

def criterion_two_formula(names=fx.REFLEXIVE_NAMES) -> list[CheckResult]:
    out = []
    for name in names:
        pair = fx.reflexive_pair(name)
        direct = st.e_st_hypersurface(pair)
        oracle = st.e_st_oracle(pair)
        out.append(_result(f"two-formula[{name}]", direct == oracle,
                           f"E_st = {direct}"))
    return out


# -- criterion 2: mirror duality ---------------------------------------------

def criterion_mirror_duality() -> list[CheckResult]:
    out = []
    for a, b in fx.MIRROR_PAIRS:
        pa = fx.reflexive_pair(a)
        pb = fx.reflexive_pair(b)
        cy_dim = pa.cone.dim - 2  # hypersurface dimension d-1
        ea = st.e_st_hypersurface(pa)
        eb = st.e_st_hypersurface(pb)
        ok = ea == st.mirror_transform(eb, cy_dim)
        out.append(_result(f"mirror-duality[{a}/{b}]", ok))
    return out


# -- criterion 3: golden Hodge numbers ---------------------------------------

def criterion_golden_hodge() -> list[CheckResult]:
    out = []
    # elliptic curve: every entry 1
    pair = fx.reflexive_pair("diamond")
    oracle = st.e_st_oracle(pair)
    table = st.stringy_hodge_table(oracle, 1)
    ok = table.as_dict() == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    ok = ok and st.e_st_hypersurface(pair) == oracle
    out.append(_result("golden[elliptic-curve]", ok, str(table.as_dict())))
    # K3: h^{1,1} = 20
    pair = fx.reflexive_pair("quartic")
    oracle = st.e_st_oracle(pair)
    table = st.stringy_hodge_table(oracle, 2)
    ok = table.entry(1, 1) == 20 and st.e_st_hypersurface(pair) == oracle
    out.append(_result("golden[K3-quartic]", ok, f"h11={table.entry(1, 1)}"))
    # quintic and its mirror transpose
    pair = fx.reflexive_pair("quintic")
    oracle = st.e_st_oracle(pair)
    table = st.stringy_hodge_table(oracle, 3)
    ok = (table.entry(1, 1), table.entry(2, 1)) == (1, 101)
    ok = ok and st.e_st_hypersurface(pair) == oracle
    out.append(_result("golden[quintic]", ok,
                       f"h11={table.entry(1, 1)} h21={table.entry(2, 1)}"))
    mirror = fx.reflexive_pair("quintic_mirror")
    m_oracle = st.e_st_oracle(mirror)
    m_table = st.stringy_hodge_table(m_oracle, 3)
    ok = (m_table.entry(1, 1), m_table.entry(2, 1)) == (101, 1)
    ok = ok and st.e_st_hypersurface(mirror) == m_oracle
    out.append(_result("golden[quintic-mirror]", ok,
                       f"h11={m_table.entry(1, 1)} h21={m_table.entry(2, 1)}"))
    return out


# -- criterion 4: poset identities -------------------------------------------

def criterion_poset_identities() -> list[CheckResult]:
    out = []
    total = 0
    failures = 0
    for cone in _unique_fixture_cones(fx.REFLEXIVE_NAMES):
        poset = lat.face_lattice(cone).poset
        for x in poset.elements:
            for y in poset.elements:
                if not poset.le(x, y):
                    continue
                interval = poset.interval(x, y)
                total += 1
                if po.b_polynomial(interval) != po.b_via_g(interval):
                    failures += 1
                elif interval.total_rank() >= 1 \
                        and not po.convolution_inverse_check(interval):
                    failures += 1
    out.append(_result("poset-identities", failures == 0 and total >= 200,
                       f"{total} intervals checked, {failures} failures"))
    return out


# -- criterion 5: tilde-S suite ----------------------------------------------

def criterion_tilde_s() -> list[CheckResult]:
    palin_ok = simp_ok = inv_ok = True
    faces_checked = 0
    for cone in _unique_fixture_cones(fx.REFLEXIVE_NAMES):
        fl = lat.face_lattice(cone)
        for face in fl.faces:
            c = face.as_cone()
            faces_checked += 1
            ts = st.tilde_s_polynomial(c)
            if not (ts.is_zero() or ts.is_palindromic(c.dim)):
                palin_ok = False
            if c.is_simplicial() and st.tilde_s_simplicial(c) != ts:
                simp_ok = False
            # inversion identity: S(C) = sum tildeS(C1) G([C1,C]*, t)
            s = UnivariatePolynomial.zero()
            for sub, _ in fl.below(face):
                iv = fl.poset.interval(sub.gen_indices, face.gen_indices)
                s = s + st.tilde_s_polynomial(sub.as_cone()) \
                    * po.g_polynomial(iv.dual())
            if s != st.s_polynomial(c):
                inv_ok = False
    return [
        _result("tilde-s-palindromicity", palin_ok, f"{faces_checked} faces"),
        _result("tilde-s-simplicial-agreement", simp_ok),
        _result("tilde-s-inversion-identity", inv_ok),
    ]


# -- criterion 6: graded quotient dimensions ---------------------------------

def _dims_match_with_retries(cone, subdivision, seed, field):
    """First report, reseeding with seed + 1000*attempt, whose dims match
    the S and tilde-S vectors; its seed is the effective one."""
    expect_r0 = tuple(st.s_polynomial(cone).coeff_list(cone.dim))
    expect_r1 = tuple(st.tilde_s_polynomial(cone).coeff_list(cone.dim))
    for attempt in range(GENERICITY_RETRIES):
        effective = seed + 1000 * attempt
        g = sg.random_degree_one(cone, effective, field=field)
        report = sg.graded_quotient_dims(g, subdivision, seed=effective)
        if report.dims_R0 == expect_r0 and report.dims_R1 == expect_r1 \
                and report.top_degree_dims == (0, 0):
            return report
    raise NotGenericAfterRetries(
        f"no generic element found for {cone} after {GENERICITY_RETRIES} tries")


def _raw_dims(report):
    return report.dims_R0, report.dims_R1, report.top_degree_dims


def _prime_backend_agrees(cone, subdivision, rational_report) -> bool:
    """Raw prime-field dims of the element the rational backend accepted,
    with no reseed filter; an unlucky prime gets one retry with the next
    prime before the backends count as disagreeing."""
    seed = rational_report.seed
    for p in (la.DEFAULT_PRIME, next(la.primes_below(la.DEFAULT_PRIME))):
        g = sg.random_degree_one(cone, seed, field=f"prime:{p}")
        report = sg.graded_quotient_dims(g, subdivision, seed=seed)
        if _raw_dims(report) == _raw_dims(rational_report):
            return True
    return False


def criterion_graded_dimensions(seeds=(0, 1, 2)) -> list[CheckResult]:
    out = []
    for cone in _unique_fixture_cones(fx.SMALL_REFLEXIVE_NAMES):
        subdivisions = [lat.trivial_subdivision(cone),
                        lat.stellar_subdivision(cone)]
        ok = True
        detail = []
        for sub in subdivisions:
            for seed in seeds:
                try:
                    rep_q = _dims_match_with_retries(
                        cone, sub, seed, "rational")
                except NotGenericAfterRetries as exc:
                    ok = False
                    detail.append(str(exc))
                    continue
                if not _prime_backend_agrees(cone, sub, rep_q):
                    ok = False
                    detail.append(
                        f"backend disagreement at seed {rep_q.seed}")
        label = f"dim{cone.dim}/{len(cone.generators)}gens"
        out.append(_result(f"graded-dims[{label}@{cone.generators[0]}]", ok,
                           "; ".join(detail) or
                           f"S={st.s_polynomial(cone)}"))
    return out


# -- criterion 7: box points --------------------------------------------------

def criterion_box_points() -> list[CheckResult]:
    checked = 0
    failures = 0
    cones = _unique_fixture_cones(fx.REFLEXIVE_NAMES)
    for fan_name in fx.fan_names():
        cones.extend(c for c in fx.fan(fan_name).cones if c.dim > 0)
    for cone in cones:
        for face in lat.face_lattice(cone).faces:
            c = face.as_cone()
            if not c.is_simplicial():
                continue
            checked += 1
            table = st.box_points(c)
            ts = st.tilde_s_polynomial(c)
            expected = {l: ts.coeff(l) for l in range(1, max(c.dim, 1))
                        if ts.coeff(l)}
            got = {l: len(v) for l, v in table.by_shift.items()}
            if got != expected:
                failures += 1
    return [_result("box-points", failures == 0 and checked > 0,
                    f"{checked} simplicial cones")]


# -- criterion 8: toric stringy E ---------------------------------------------

def criterion_toric() -> list[CheckResult]:
    from .polynomials import BivariateLaurentPolynomial as B
    out = []
    expectations = {
        "p1": B({(0, 0): 1, (1, 1): 1}),
        "p2": B({(0, 0): 1, (1, 1): 1, (2, 2): 1}),
        "p112": B({(0, 0): 1, (1, 1): 2, (2, 2): 1}),
    }
    for name, expected in expectations.items():
        fan = fx.fan(name)
        computed = st.e_st_toric(fan)
        ok = computed == expected
        # decomposition over orbit closures must rebuild the same value
        total = B.zero()
        for cone in fan.cones:
            total = total + st.e_int_orbit_closure(fan, cone) \
                * st.tilde_s_polynomial(cone).to_bivariate(1, 1)
        ok = ok and total == expected
        out.append(_result(f"toric-e[{name}]", ok, str(computed)))
    ray = lat.cone_from_generators([(1, 0)], 2)
    e_ray = st.e_int_orbit_closure(fx.fan("p2"), ray)
    out.append(_result("toric-e[p2-ray-closure]",
                       e_ray == st.e_st_toric(fx.fan("p1")), str(e_ray)))
    return out


# -- criterion 9: Koszul comparison -------------------------------------------

def criterion_koszul(seeds=(0, 1, 2),
                     names=("diamond", "segment", "p2")) -> list[CheckResult]:
    out = []
    for name in names:
        pair = fx.reflexive_pair(name)
        ok = True
        detail = []
        for seed in seeds:
            f = sg.random_degree_one(pair.cone, seed)
            g = sg.random_degree_one(pair.dual, seed + 17)
            for sub in (None, lat.stellar_subdivision(pair.dual)):
                complex_ = kz.build_complex(pair, f, g, dual_subdivision=sub)
                if not complex_.verify_d_squared():
                    ok = False
                    detail.append(f"seed {seed}: D^2 != 0")
                report = kz.decomposition_report(complex_)
                if not report.matches:
                    ok = False
                    detail.append(f"seed {seed}: {report.computed} "
                                  f"!= {report.expected}")
        out.append(_result(f"koszul[{name}]", ok, "; ".join(detail)))
    return out


# -- criterion 10: string cohomology table consistency -------------------------

def criterion_cohomology_table(names=fx.REFLEXIVE_NAMES) -> list[CheckResult]:
    """The tilde-S table against the Hodge table of the oracle E-function,
    entry by entry; a table the tilde-S route cannot build fails."""
    out = []
    for name in names:
        pair = fx.reflexive_pair(name)
        oracle = st.stringy_hodge_table(st.e_st_oracle(pair), pair.cone.dim - 2)
        try:
            base = st.string_cohomology_table(pair)
            ok, detail = base == oracle, f"{len(base.entries)} entries"
        except ValueError as exc:
            ok, detail = False, str(exc)
        out.append(_result(f"cohomology-table[{name}]", ok, detail))
    return out


CRITERIA = {
    "1-two-formula": criterion_two_formula,
    "2-mirror-duality": criterion_mirror_duality,
    "3-golden-hodge": criterion_golden_hodge,
    "4-poset-identities": criterion_poset_identities,
    "5-tilde-s": criterion_tilde_s,
    "6-graded-dims": criterion_graded_dimensions,
    "7-box-points": criterion_box_points,
    "8-toric-e": criterion_toric,
    "9-koszul": criterion_koszul,
    "10-cohomology-table": criterion_cohomology_table,
}


def run_criteria(selected=None):
    """Run the numbered criteria; returns (lines, all_passed)."""
    lines = []
    all_ok = True
    for key, func in CRITERIA.items():
        if selected and key not in selected:
            continue
        for res in func():
            status = "PASS" if res.passed else "FAIL"
            all_ok = all_ok and res.passed
            suffix = f"  ({res.detail})" if res.detail else ""
            lines.append(f"{status} {key} {res.name}{suffix}")
    return lines, all_ok
