"""End-to-end acceptance run.

Each test prints one PASS/FAIL line for its criterion (visible with -s or in
the captured output of a failing run) and asserts the same condition.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpc

from rrcf5 import cache, icosa, tables
from rrcf5.classdata import class_poly, reduced_forms
from rrcf5.curve5 import (
    delta_identity_symbolic,
    det_D_identity,
    division_poly_factors_symbolic,
    g2g3_delta_rewrite,
    master_torsion_identity,
    tau_and_isogeny_checks,
    verify_C5_solution,
    verify_j_forms,
)
from rrcf5.exactmath import (
    Poly,
    poly_compose_rational,
    poly_discriminant,
    poly_resultant,
)
from rrcf5.hpnum import _fixed, eta, reconstruct_int_poly, rr_r
from rrcf5.pipeline import (
    J5_DEN,
    J5_NUM,
    build_F_G,
    build_p_q,
    build_Q,
    disc_conjecture_check,
    run_pipeline,
    verify_cor42,
    verify_T_invariance,
    z_plane_checks,
)

rng = random.Random(20260823)

ALL_DS = tables.TABLE1_DS + tables.TABLE2_DS


@pytest.fixture(scope="module")
def pipeline_results():
    return {d: run_pipeline(d) for d in ALL_DS}


def _report(n, label, ok):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({label}) failed"


def _table_ok(res, d):
    return (res.p == Poly(tables.P_TABLE[d])
            and dict(res.disc_report.factors) == tables.DISC_TABLE[d]
            and res.disc_report.cofactor == 1
            and res.all_ok)


def test_criterion_1_table1(pipeline_results):
    ok = all(_table_ok(pipeline_results[d], d) for d in tables.TABLE1_DS)
    _report(1, "table 1 reproduction", ok)


def test_criterion_2_table2(pipeline_results):
    ok = all(_table_ok(pipeline_results[d], d) for d in tables.TABLE2_DS)
    _report(2, "table 2 reproduction", ok)


TABLES_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "tables.json"


def test_pipeline_results_match_the_benchmark_references(pipeline_results):
    # H, R, S, Q, p, q and disc of all 28 d, as the cache stores them
    refs = json.loads(TABLES_REFS.read_text())
    assert sorted(map(int, refs)) == sorted(ALL_DS)
    for d, res in pipeline_results.items():
        entry = cache.result_to_entry(res)
        fields = ("H", "R", "S", "Q", "p", "q", "disc")
        assert {k: entry[k] for k in fields} == refs[str(d)]["entry"], d


def test_disc_through_S_matches_the_subresultant_route(pipeline_results):
    for d, res in pipeline_results.items():
        report = disc_conjecture_check(res.S, d)
        assert report.disc == poly_discriminant(res.p), d


def test_z_plane_checks_match_the_x_plane_route(pipeline_results):
    # The x-plane route is the reference: Q | F and p | G(x^5) in x.  H + 1
    # compares the two routes where both must say no.
    results = list(pipeline_results.values()) + [run_pipeline(d) for d in (479, 959)]
    for res in results:
        for H, got in ((res.H, (res.F_check, res.G_check)),
                       (res.H + 1, z_plane_checks(res.H + 1, res.R))):
            F = poly_compose_rational(H, J5_NUM, J5_DEN, res.h)
            Gx5 = build_F_G(H)
            assert got == (res.Q.divides(F), res.p.divides(Gx5)), res.d


def test_criterion_3_printed_intermediates(pipeline_results):
    checks = []
    # the six printed class polynomials beyond the h = 1 cases
    for d in (24, 36, 51, 64, 91, 99):
        checks.append(class_poly(reduced_forms(d)) == tables.H_TABLE[d])
    # all printed minimal polynomials of z
    for d, coeffs in tables.R_TABLE.items():
        checks.append(pipeline_results[d].R == Poly(coeffs))
    # Q_d for the class-number-one discriminants
    for d, coeffs in tables.Q_TABLE.items():
        checks.append(build_Q(Poly(tables.R_TABLE[d])) == Poly(coeffs))
    # F_19, F_4, G_4(x^5)
    F19 = poly_compose_rational(Poly(tables.H_TABLE[19]), J5_NUM, J5_DEN, 1)
    f1, f2 = (Poly(c) for c in tables.F19_FACTORS)
    checks.append(F19 == f1 * f2)
    H4 = Poly(tables.H_TABLE[4])
    F4, G4x5 = poly_compose_rational(H4, J5_NUM, J5_DEN, 1), build_F_G(H4)
    q4, f4 = (Poly(c) for c in tables.F4_FACTORS)
    checks.append(F4 == (q4 * f4) ** 2)
    printed_G4 = Poly((1,))
    for c in tables.G4_FACTORS:
        printed_G4 = printed_G4 * Poly(c) ** 2
    checks.append(G4x5 == printed_G4)
    # the printed degree-16 cofactor q_19
    _, q19 = build_p_q(Poly((5, 1, 1)), Poly(tables.Q_TABLE[19]))
    checks.append(q19 == Poly(tables.Q19_COFACTOR))
    _report(3, "printed intermediates", all(checks))


def test_criterion_4_exact_identities():
    checks = [
        verify_j_forms(),
        delta_identity_symbolic(),
        g2g3_delta_rewrite(),
        division_poly_factors_symbolic(),
        all(tau_and_isogeny_checks().values()),
        all(det_D_identity()),
        all(master_torsion_identity()),
        icosa.verify_f5_invariance(),
    ]
    group = icosa.generate_g60()
    checks.append(all(icosa.group_structure_report(group).values()))
    for d in ALL_DS:
        checks.append(verify_T_invariance(Poly(tables.P_TABLE[d])))
    for coeffs in tables.R_TABLE.values():
        checks.append(verify_cor42(Poly(coeffs)))
    _report(4, "exact identity suite", all(checks))


def test_criterion_5_g60_orbits():
    group = icosa.generate_g60()
    checks = [len(group) == 60,
              Counter(m.element_order() for m in group) == {1: 1, 2: 15, 3: 20, 5: 24}]
    for d in (11, 16, 19):
        Gx5 = build_F_G(Poly(tables.H_TABLE[d]))
        orbit_size, stab = icosa.orbit_and_stabilizer(
            Poly(tables.P_TABLE[d]), group, Gx5)
        checks.append(orbit_size == 15)
        checks.append(stab == icosa.expected_stabilizer())
    _report(5, "G60 orbit/stabilizer", all(checks))


def test_criterion_6_d4_corpus():
    rep = icosa.verify_d4_corpus()
    _report(6, "d=4 cyclotomic corpus", all(rep.values()))


def test_criterion_7_diophantine():
    ok = True
    for d in ALL_DS:
        rep = verify_C5_solution(d, prec=512)
        if not (rep.all_ok and rep.residual_bits > 256):
            ok = False
            print(f"  d={d}: {rep}")
    _report(7, "quintic solutions at prec 512", ok)


def test_criterion_8_worked_examples():
    rep = icosa.verify_worked_examples()
    _report(8, "worked radical examples", all(rep.values()))


def _random_tau():
    return mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.8))


def test_criterion_9a_hpnum_property_suite():
    prec = 192
    ok = True
    with mp.workprec(prec + 64):
        zeta = mpmath.exp(2j * mp.pi / 5)
        pi = mp.pi
        for _ in range(20):
            tau = _random_tau()
            e, r = eta(tau, prec), rr_r(tau, prec)
            tol = mpmath.mpf(2) ** (-(prec - 48))
            if abs(eta(tau + 1, prec) - mpmath.exp(1j * pi / 12) * e) > tol:
                ok = False
            if abs(eta(-1 / tau, prec) - mpmath.sqrt(-1j * tau) * e) > tol:
                ok = False
            if abs(rr_r(tau + 1, prec) - zeta * r) > tol:
                ok = False
            quotient = (e / eta(5 * tau, prec)) ** 6
            if abs(1 / r**5 - 11 - r**5 - quotient) > tol * max(1, abs(quotient)):
                ok = False
    # reconstruction round-trip on random squarefree integer polynomials
    for _ in range(10):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(4, 8))] + [1]
        p = Poly(coeffs)
        if poly_discriminant(p) == 0:
            continue
        with mp.workprec(256):
            roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=256)
        if reconstruct_int_poly([_fixed(r, 256 + 64) for r in roots], 256) != p.int_coeffs():
            ok = False
    _report("9a", "hpnum self-oracles", ok)


def _random_poly(max_deg=4, min_deg=1):
    deg = rng.randint(min_deg, max_deg)
    coeffs = [rng.randint(-9, 9) for _ in range(deg)]
    coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(coeffs)


def test_criterion_9b_resultant_discriminant_oracles():
    ok = True
    for _ in range(100):
        p, q = _random_poly(), _random_poly()
        m, n = p.degree, q.degree
        # antisymmetry and multiplicativity
        if poly_resultant(p, q) != (-1) ** (m * n) * poly_resultant(q, p):
            ok = False
        r = _random_poly(3)
        if poly_resultant(p, q * r) != poly_resultant(p, q) * poly_resultant(p, r):
            ok = False
        # disc(pq) = disc(p) disc(q) Res(p,q)^2, needing degrees >= 2
        a, b = _random_poly(min_deg=2), _random_poly(min_deg=2)
        lhs = poly_discriminant(a * b)
        rhs = (Fraction(poly_discriminant(a)) * Fraction(poly_discriminant(b))
               * Fraction(poly_resultant(a, b)) ** 2)
        if Fraction(lhs) != rhs:
            ok = False
    _report("9b", "resultant/discriminant oracles", ok)


def test_criterion_9c_cache_roundtrip(pipeline_results, tmp_path):
    ok = True
    for d, res in pipeline_results.items():
        cache.save(str(tmp_path), res)
        if cache.load(str(tmp_path), d) != res or not cache.roundtrip_ok(res):
            ok = False
    _report("9c", "cache round-trip on all entries", ok)
