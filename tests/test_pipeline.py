from fractions import Fraction
from hashlib import sha256
from math import ceil, prod

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from rrcf5 import classdata, hpnum, icosa, pipeline, tables
from rrcf5.classdata import ClassDataError, choose_v, class_poly, n_system, reduced_forms
from rrcf5.exactmath import (
    CycloElem,
    ExactDomainError,
    MoebiusMap,
    Poly,
    lift_to_cyclo,
    poly_compose_rational,
    poly_discriminant,
)
from rrcf5.hpnum import (
    GUARD_BITS,
    PrecisionError,
    PrecisionPolicy,
    _to_mpc,
    check_j_by_r,
    eta,
    j_from_tau,
    log2_one_plus_abs_j,
    r_transformation_laws,
    reconstruct_int_poly,
)
from rrcf5.pipeline import (
    COR42,
    J5_DEN,
    J5_NUM,
    J5Z_DEN,
    J5Z_NUM,
    J55Z_DEN,
    J55Z_NUM,
    T,
    PipelineIntegrityError,
    _heegner_args,
    _heegner_roots,
    _primes_up_to,
    build_F_G,
    build_p_q,
    build_Q,
    disc_conjecture_check,
    heegner_values,
    is_fixed_by,
    lift_through_x_minus_inv,
    pullback_at,
    run_pipeline,
    verify_cor42,
    verify_T_invariance,
    z_plane_checks,
)


def test_pipeline_R_printed_values():
    for d in (19, 91, 96):
        assert run_pipeline(d).R == Poly(tables.R_TABLE[d])


def test_pipeline_S_small_cases():
    # exact algebra oracle: with s^2 = s - 3, z = s^5+5s^3+5s = 4s - 24;
    # then z^2+4z+48 = 16(s-3)... = 0, matching the d=11 row
    assert run_pipeline(11).S == Poly((3, -1, 1))
    # with s^2 = -s - 5: z = s^5+5s^3+5s = -4s - 20 and z^2+36z+400 = 0
    assert run_pipeline(19).S == Poly((5, 1, 1))


def test_build_Q_printed():
    for d in (11, 16, 19):
        assert build_Q(Poly(tables.R_TABLE[d])) == Poly(tables.Q_TABLE[d])


def test_build_Q_rejects_zero_constant_term():
    with pytest.raises(PipelineIntegrityError):
        build_Q(Poly((0, 0, 1)))


def test_build_p_q_printed_cofactor():
    S = Poly((5, 1, 1))
    Q = Poly(tables.Q_TABLE[19])
    p, q = build_p_q(S, Q)
    assert p == Poly(tables.P_TABLE[19])
    assert q == Poly(tables.Q19_COFACTOR)


def F_of(H, h):
    """F(x) = x^{5h} (1-11x-x^2)^h H(j5(x)), which build_F_G does not build."""
    return poly_compose_rational(H, J5_NUM, J5_DEN, h)


def test_F19_matches_printed_factorization():
    H = Poly(tables.H_TABLE[19])
    F = F_of(H, 1)
    f1, f2 = (Poly(c) for c in tables.F19_FACTORS)
    assert F == f1 * f2


def test_F4_and_G4_printed():
    H = Poly(tables.H_TABLE[4])
    F, Gx5 = F_of(H, 1), build_F_G(H)
    q4, f4 = (Poly(c) for c in tables.F4_FACTORS)
    assert F == (q4 * f4) ** 2
    g = Poly((1,))
    for c in tables.G4_FACTORS:
        g = g * Poly(c) ** 2
    assert Gx5 == g


def test_verify_cor42():
    assert verify_cor42(Poly(tables.R_TABLE[11]))
    assert verify_cor42(Poly(tables.R_TABLE[84]))
    assert not verify_cor42(Poly((1, 0, 1)))  # negative control


def test_verify_cor42_rejects_R_plus_one():
    for d, coeffs in tables.R_TABLE.items():
        assert verify_cor42(Poly(coeffs)), d
        assert not verify_cor42(Poly(coeffs) + 1), d


def test_pullback_at_refuses_a_form_above_degree_n():
    # a polynomial of degree n + 1 is no form of degree n: its pullback
    # (cz+d)^n P((az+b)/(cz+d)) is no polynomial
    for n in (0, 2, 8):
        P = Poly((0,) * (n + 1) + (1,))
        with pytest.raises(ExactDomainError):
            pullback_at(P, n, COR42, 0)
        with pytest.raises(ExactDomainError):
            is_fixed_by(P, COR42, n)


def test_the_numeric_T_law_uses_the_entries_of_T():
    # hpnum imports no package module, so r(-1/tau) = T(r(tau)) writes T out
    # again in mpmath; it must be the map the exact checks use
    r, (_, (_, rhs)) = r_transformation_laws(mpc(0.1, 0.9), 256)
    with mp.workprec(320):
        s5 = mpmath.sqrt(5)
        a, b, c, d = (x + y * s5 for x, y in T)
        assert abs(rhs - (a * r + b) / (c * r + d)) < mpf(2) ** -300


def conjugate(m):
    return tuple((x, -y) for x, y in m)


U = ((0, 0), (-1, 0), (1, 0), (0, 0))  # z -> -1/z
MAPS = {"T": T, "T2": conjugate(T), "COR42": COR42, "U": U}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=12),
       st.integers(0, 3), st.sampled_from(["T", "T2", "COR42", "U"]))
def test_pullback_at_matches_the_exact_pullback(cs, extra, name):
    # (cz+d)^n P((az+b)/(cz+d)) over Q(zeta_5), by exact_pullback, read at
    # z = 0..n
    m = MAPS[name]
    P = Poly(cs)
    n = max(P.degree, 0) + extra
    exact = exact_pullback(P, n, m)
    s5 = CycloElem.sqrt5()
    for z in range(n + 1):
        x, y = pullback_at(P, n, m, z)
        assert x + y * s5 == exact(z)


def exact_pullback(P, n, m):
    """P|m over Q(zeta_5) as sum_k p_k N^k D^(n-k), N = ax + b, D = cx + d,
    from tables of powers made by repeated products: a reference that shares
    no code with binary_form, which pullback_at and poly_compose_rational
    both run."""
    s5 = CycloElem.sqrt5()
    a, b, c, d = (x + y * s5 for x, y in m)
    N_pows, D_pows = [Poly((1,))], [Poly((1,))]
    for _ in range(n):
        N_pows.append(N_pows[-1] * Poly((b, a)))
        D_pows.append(D_pows[-1] * Poly((d, c)))
    return sum((N_pows[k] * D_pows[n - k] * p for k, p in enumerate(P.coeffs)), Poly())


def fixed_forms(name):
    """Integer forms fixed by the map: products of tabulated p (stabilizer
    {1, T, U, T2}) or of tabulated R (COR42)."""
    table = tables.R_TABLE if name == "COR42" else tables.P_TABLE
    return st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=2).map(
        lambda ds: prod((Poly(table[d]) for d in ds), start=Poly.const(1)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MAPS)).flatmap(lambda name: st.tuples(
           st.just(name),
           st.one_of(fixed_forms(name),
                     st.lists(st.integers(-10**12, 10**12), min_size=1,
                              max_size=12).map(Poly)),
           st.integers(0, 2), st.integers(0, 40), st.integers(-2, 2))))
def test_is_fixed_by_agrees_with_the_exact_pullback(case):
    # the one-point verdict is the verdict of the whole pullback over
    # Q(zeta_5): P|m = (-det m)^(n/2) P, on forms that are fixed, forms one
    # coefficient away and random forms; n = deg P + 2 * pad
    name, P, pad, k, bump = case
    m = MAPS[name]
    if k <= P.degree:
        P = P + Poly((0,) * k + (bump,))
    n = P.degree + P.degree % 2 + 2 * pad
    a, b, c, _ = (x + y * CycloElem.sqrt5() for x, y in m)
    lam = (a * a + b * c) ** (n // 2)
    assert is_fixed_by(P, m, n) == (exact_pullback(P, n, m) == lift_to_cyclo(P) * lam)


def test_the_four_maps_are_involutions():
    for m in (T, conjugate(T), COR42, U):
        (a0, a1), _, _, (d0, d1) = m
        assert (a0 + d0, a1 + d1) == (0, 0), m


def test_every_tabulated_p_is_fixed_by_its_stabilizer():
    # the stabilizer {1, T, U, T2} of icosa, built from the pairs, fixes
    # every p_d: p|m = (-det m)^(2h) p
    s5 = CycloElem.sqrt5()
    pairs = (T, U, conjugate(T))
    maps = {MoebiusMap(*(x + y * s5 for x, y in m)) for m in pairs}
    assert maps | {MoebiusMap.identity()} == icosa.expected_stabilizer()
    for d, coeffs in tables.P_TABLE.items():
        p = Poly(coeffs)
        assert all(is_fixed_by(p, m, p.degree) for m in pairs), d


def test_fixed_point_quadratics_take_the_other_sign():
    # the fixed-point quadratic of an involution m is multiplied by
    # -(-det m), so it is not fixed: z^2 + 22z - 4 for COR42 (-det = 125)
    # and z^2 + 1 for U (-det = -1)
    for P, m, minus_det in ((Poly((-4, 22, 1)), COR42, 125), (Poly((1, 0, 1)), U, -1)):
        assert all(pullback_at(P, 2, m, z) == (-minus_det * P(z), 0) for z in range(3))
        assert not is_fixed_by(P, m, 2)


def test_agreement_at_a_small_point_fixes_nothing():
    # P = 2z^4 - 3z under U at n = 4: P|U = z^4 P(-1/z) = 2 + 3z^3 and
    # (-det U)^2 = 1, so P|U and P agree at z = 2 (both 26), but P is not
    # fixed; the point must exceed the bound on the coefficients
    P = Poly((0, -3, 0, 0, 2))
    assert pullback_at(P, 4, U, 2) == (P(2), 0) == (26, 0)
    assert not is_fixed_by(P, U, 4)


def test_is_fixed_by_refuses_a_non_involution_and_odd_n():
    p = Poly(tables.P_TABLE[11])
    with pytest.raises(ExactDomainError):
        is_fixed_by(p, ((1, 0), (1, 0), (0, 0), (1, 0)), 4)  # z -> z + 1
    with pytest.raises(ExactDomainError):
        is_fixed_by(p, T, 5)
    # the coefficient bound of the one-point proof needs integer coefficients
    with pytest.raises(ExactDomainError):
        is_fixed_by(Poly((Fraction(1, 2), 0, 1)), U, 2)


def test_verify_T_invariance():
    assert verify_T_invariance(Poly(tables.P_TABLE[11]))
    assert verify_T_invariance(Poly(tables.P_TABLE[36]))
    # cyclotomic near-miss
    assert not verify_T_invariance(Poly((1, -1, 1, -1, 1)))


def test_verify_T_invariance_accepts_every_tabulated_p():
    for d, coeffs in tables.P_TABLE.items():
        assert verify_T_invariance(Poly(coeffs)), d


def test_verify_T_invariance_rejects_perturbed_p():
    for d, coeffs in tables.P_TABLE.items():
        n = len(coeffs) - 1
        for k in (0, n // 2, n - 1):
            bumped = list(coeffs)
            bumped[k] += 1
            assert not verify_T_invariance(Poly(bumped)), (d, k)


def test_disc_conjecture_examples():
    rep = disc_conjecture_check(Poly((3, -1, 1)), 11)
    assert rep.disc == 5 * 11**2
    assert rep.exact_power_ok and rep.smooth_ok
    rep = disc_conjecture_check(Poly((23, -2, 3, 4, 1)), 91)
    assert dict(rep.factors) == {2: 8, 3: 4, 5: 6, 7: 4, 13: 4}
    assert rep.cofactor == 1


def test_run_pipeline_d11_full():
    r = run_pipeline(11)
    assert r.all_ok
    assert r.p == Poly(tables.P_TABLE[11])
    assert r.R == Poly(tables.R_TABLE[11])
    assert r.Q == Poly(tables.Q_TABLE[11])
    assert r.h == 1 and r.v == 17
    assert r.p.degree == 4 and r.q.degree == 16
    assert abs(r.p.coeffs[0]) == 1


def test_run_pipeline_d24_intermediates():
    r = run_pipeline(24)
    assert r.all_ok
    assert r.R == Poly(tables.R_TABLE[24])
    assert r.H == Poly(tables.H_TABLE[24])
    assert r.p == Poly(tables.P_TABLE[24])
    # Q(x^5) = p * q exactly
    assert r.Q.subst_x_pow(5) == r.p * r.q


# d = 119 (h = 10) is beyond the printed H and R tables; these are the
# polynomials the product-formula kernel reconstructed at 1,589 bits.
H119 = (
    -11669920442373800031513478208679663025064587635901689887,
    346485626218561739292181172729923937711295004460654234,
    -292223928830848711011022637790896567674102040378617,
    29494022920507896313766601313371285654722780443,
    12480611255809545689627144542329203076373873,
    4794937071328670764609540039796857947016,
    -52855712468679496581065487695942573, 585035810262130969538043606647,
    -70241355662808988599, 764872171216961, 1,
)
R119 = (
    10664149813577101068217, 11493740669938481544102, 739626422216774521067,
    -3741852526689683635534, -245890793852055939393, 749378610723234587160,
    355237628469700124261, 86014078537699894859, 14470050016221731194,
    2037415884757129573, 241637776424241245, 19935597905633026,
    823975385356532, -6305525408205, -1893713649200, -37734693822, 1828910742,
    85093915, 1047667, 1634, 1,
)
S119 = (
    392407, -758898, 1435817, -1525394, 1683482, -1280160, 1073931, -652581,
    463394, -236767, 147415, -62764, 33982, -11405, 5325, -1267, 532, -70, 32,
    -1, 1,
)


def test_run_pipeline_d119_sized_first_step():
    r = run_pipeline(119)
    assert r.precision_used < 400
    assert (r.H, r.R, r.S) == (Poly(H119), Poly(R119), Poly(S119))
    assert r.p == Poly(tables.P_TABLE[119]) and r.all_ok


def test_run_pipeline_escalates_from_a_low_first_step():
    r = run_pipeline(24, PrecisionPolicy(initial_bits=32))
    assert r.precision_used > 32
    assert r.H == Poly(tables.H_TABLE[24])
    assert r.R == Poly(tables.R_TABLE[24])
    assert r.S == Poly((7, -10, 5, -2, 1))
    assert r.p == Poly(tables.P_TABLE[24]) and r.all_ok


def test_run_pipeline_d239_disc_through_S_and_T_check():
    # h = 15, beyond the tables: the route through S equals the subresultant
    # discriminant of the degree-60 polynomial p
    r = run_pipeline(239)
    assert r.T_check
    assert r.disc_report.disc == poly_discriminant(r.p)


@pytest.mark.parametrize("d, h, powers", [
    (196, 4, {7: 14}),  # d = 2^2 7^2: 7^14, not 7^(2h)
    (319, 10, {11: 44, 29: 20}),  # d = 11 * 29: 29^(2h) holds, 11^44 does not
])
def test_run_pipeline_exact_power_fails_but_smooth_holds(d, h, powers):
    r = run_pipeline(d)
    factors = dict(r.disc_report.factors)
    assert r.h == h and {q: factors[q] for q in powers} == powers
    assert not r.disc_report.exact_power_ok and r.disc_report.smooth_ok
    assert r.flags == {
        "F_check": True, "G_check": True, "div_check": True, "cor42_check": True,
        "T_check": True, "heegner_check": True,
        "disc_exact_power": False, "disc_smooth": True,
    }
    assert list(r.flags) == ["F_check", "G_check", "div_check", "cor42_check", "T_check",
                             "heegner_check", "disc_exact_power", "disc_smooth"]
    assert not r.all_ok


def test_run_pipeline_rejects_d4():
    # d = 4 is bad input, refused like a non-discriminant
    with pytest.raises(ClassDataError):
        run_pipeline(4)


def test_anti_palindromic_symmetry():
    r = run_pipeline(19)
    for poly in (r.p, r.q):
        n = poly.degree
        # x^n poly(-1/x) == poly
        flipped = Poly([(-1) ** k * c for k, c in enumerate(reversed(poly.coeffs))])
        assert flipped == poly


@pytest.mark.parametrize("d, bits", (
    (11, 80), (24, 98), (71, 184), (119, 247), (144, 153),
    (16, 83), (19, 84), (31, 115), (36, 105), (39, 129), (44, 114), (51, 107),
    (56, 138), (59, 123), (64, 107), (76, 124), (79, 167), (84, 147), (91, 116),
    (96, 144), (99, 120), (104, 180), (111, 219), (116, 191), (124, 134),
    (131, 171), (136, 165), (139, 140)))
def test_sized_ladder_succeeds_at_its_first_step(d, bits):
    # sum log2(1 + |j(w)|) plus GUARD_BITS; the step that succeeds is the first
    assert run_pipeline(d).precision_used == bits


def test_z_forms_lift_to_F_and_G():
    # x^(6h) F_z(x - 1/x) = F and x^(6h) G_z(x - 1/x) = G; with the lift
    # multiplicative, R | F_z gives Q | F and R | G_z gives Q | G
    for d, coeffs in tables.H_TABLE.items():
        H = Poly(coeffs)
        F, Gx5 = F_of(H, H.degree), build_F_G(H)
        F_z = poly_compose_rational(H, J5Z_NUM, J5Z_DEN, H.degree)
        G_z = poly_compose_rational(H, J55Z_NUM, J55Z_DEN, H.degree)
        assert F_z.degree == G_z.degree == 6 * H.degree, d
        # so no root of an R dividing F_z is z = -11, the pole of j5 and j55
        assert (F_z(-11), G_z(-11)) == (5 ** (3 * H.degree), 5 ** (15 * H.degree)), d
        assert lift_through_x_minus_inv(F_z) == F, d
        assert lift_through_x_minus_inv(G_z).subst_x_pow(5) == Gx5, d


@pytest.mark.parametrize("d", (11, 24, 71, 119, 144))
def test_z_plane_checks_reject_perturbed_H_and_R(d):
    # a unit change of H or R breaks both divisions, however large |j| is
    r = run_pipeline(d)
    H, R, h = r.H, r.R, r.h
    assert r.F_check and r.G_check
    bumped_top = list(H.coeffs)
    bumped_top[h - 1] += 1
    for H_bad, R_bad in ((H + H.coeffs[0], R), (H + 1, R), (H, R + 1),
                         (Poly(bumped_top), R)):
        assert z_plane_checks(H_bad, R_bad) == (False, False)


def rel_close(a, b, bits):
    """Relative closeness with floor 1 to avoid division blowups near zero."""
    with mp.workprec(bits + 64):
        scale = max(abs(mpc(a)), abs(mpc(b)), mpf(1))
        return abs(mpc(a) - mpc(b)) / scale < mpf(2) ** (-bits)


# d = 84 has the argument with the smallest Im(w/25) among the tabulated d.
# At d = 1571's sized step of 605 bits, b = r(w/5)^5 at its fifth argument
# nears eps^5, and 1 - 11 b - b^2 is 2^-32: heegner_values takes that
# argument again with 32 more bits.
_ETA_CASES = {d: (128, slice(None)) for d in (11, 24, 71, 119, 144, 84)}
_ETA_CASES[1571] = (605, slice(4, 5))


@pytest.mark.parametrize("d", _ETA_CASES)
def test_heegner_values_match_the_eta_quotients(d):
    # The values from r(w/5) must equal the quotients of eta values taken
    # one by one, and j must pass the check through r, both read from one
    # root per argument in the order a step takes them.
    prec, picked = _ETA_CASES[d]
    args = _heegner_args(d)[3][picked]
    xs = _heegner_roots(args)
    checks = [check_j_by_r(x, prec) for x in xs]
    zs, ss, js = heegner_values(xs, prec)
    assert len(zs) == len(ss) == len(js) == len(args)
    for arg, check, z, s, j in zip(args, checks, zs, ss, js):
        with mp.workprec(prec + 64):
            w = mpc(-arg.b_adj, mp.sqrt(arg.d)) / (2 * arg.form.a)
            e1, e5, e25 = (eta(w / k, prec + 32) for k in (1, 5, 25))
            c = (e5 / e1) ** 6
            for got, want in ((z, -11 - c), (s, -1 - e25 / e1),
                              (j, (c**2 + 10 * c + 5) ** 3 / c)):
                assert rel_close(_to_mpc(got, prec + 64), want, prec - 16)
        check(j)


def _scaled(j, log2_rel):
    """The pair j times 1 + 2^log2_rel, log2_rel < 0."""
    return tuple(part + (part >> -log2_rel) for part in j)


@pytest.mark.parametrize("d, prec", ((11, 80), (71, 184), (119, 247), (144, 153)))
def test_j_check_rejects_j_off_by_2_to_33_minus_prec(d, prec):
    # At each step's own bits the check lets a j through that is off by
    # relative 2^(31 - prec) and stops one off by 2^(33 - prec), on either
    # side of its 2^(32 - prec) bound.
    xs = _heegner_roots(_heegner_args(d)[3])
    checks = [check_j_by_r(x, prec) for x in xs]
    for check, j in zip(checks, heegner_values(xs, prec)[2]):
        check(j)
        check(_scaled(j, 31 - prec))
        with pytest.raises(PrecisionError, match="routes disagree"):
            check(_scaled(j, 33 - prec))


def test_j_check_rejects_class_poly_j_off_by_2_to_33_minus_prec():
    # the same bound on the class_poly route at d = 24
    prec = 98
    cd = reduced_forms(24)
    for arg in n_system(cd, choose_v(24, cd.f)[0]):
        x = arg.root()
        check = check_j_by_r(x, prec)
        j = j_from_tau(x, prec)
        check(j)
        check(_scaled(j, 31 - prec))
        with pytest.raises(PrecisionError, match="routes disagree"):
            check(_scaled(j, 33 - prec))


def _ladder_with_scaled_j(monkeypatch, ladder, log2_rel):
    """run_pipeline(24) or class_poly at d = 24, at the one step of 98 bits
    its sizing gives, with every j of the step times 1 + 2^(log2_rel - prec)
    before the check sees it."""
    policy = PrecisionPolicy(max_bits=98)
    if ladder == "run_pipeline":
        def values(xs, prec):
            zs, ss, js = heegner_values(xs, prec)
            return zs, ss, [_scaled(j, log2_rel - prec) for j in js]
        monkeypatch.setattr(pipeline, "heegner_values", values)
        return run_pipeline(24, policy).H.coeffs
    monkeypatch.setattr(classdata, "j_from_tau",
                        lambda x, prec: _scaled(j_from_tau(x, prec), log2_rel - prec))
    return class_poly(reduced_forms(24), policy)


@pytest.mark.parametrize("ladder", ("run_pipeline", "class_poly"))
def test_each_ladder_checks_its_j_at_the_bound(monkeypatch, ladder):
    # on the path each ladder runs, j off by relative 2^(31 - prec) gives
    # H_24, and j off by 2^(33 - prec) stops the step
    assert _ladder_with_scaled_j(monkeypatch, ladder, 31) == tables.H_TABLE[24]
    with pytest.raises(PrecisionError, match="routes disagree"):
        _ladder_with_scaled_j(monkeypatch, ladder, 33)


def test_run_pipeline_calls_no_mpmath_log(monkeypatch):
    # the first step is sized from j in double precision, and every value
    # of a step is combined on ints
    def log(*args):
        raise AssertionError("mpmath.log called")

    monkeypatch.setattr(mpmath, "log", log)
    r = run_pipeline(71)
    assert r.precision_used == 184 and r.all_ok


def _counting_exps(monkeypatch):
    """The exps taken: a Heegner root's mpf_exp from the form's integers, and
    mpmath.exp, which no ladder should call."""
    calls = []
    exp, mpf_exp = mpmath.exp, hpnum.mpf_exp
    monkeypatch.setattr(mpmath, "exp", lambda z: calls.append("mpmath.exp") or exp(z))
    monkeypatch.setattr(hpnum, "mpf_exp", lambda *a: calls.append("mpf_exp") or mpf_exp(*a))
    return calls


def test_run_pipeline_24_takes_one_exp_per_argument(monkeypatch):
    # at its one step, the check's sums at q(w) = t^25 take one exp per
    # argument and heegner_values' sums at q(w/5) = t^5 reuse it; sizing the
    # step takes none
    calls = _counting_exps(monkeypatch)
    r = run_pipeline(24)
    assert (r.h, r.precision_used, calls) == (2, 98, ["mpf_exp"] * 2)


def test_class_poly_24_takes_one_exp_per_argument(monkeypatch):
    # the check's sums take one exp per argument and j_from_tau's reuse it
    calls = _counting_exps(monkeypatch)
    assert class_poly(reduced_forms(24)) == tables.H_TABLE[24]
    assert calls == ["mpf_exp"] * 2


def test_j_from_tau_is_the_j_of_heegner_values_bit_for_bit(monkeypatch):
    # one route to j: at every argument of the tabulated d, at the sized
    # first step, and at d = 1571's fifth argument at 605 bits, where the
    # cancellation retry sums r(w/5) twice
    cases = []
    for d in tables.TABLE1_DS + tables.TABLE2_DS:
        args = _heegner_args(d)[3]
        bits = ceil(sum(log2_one_plus_abs_j(arg.w_double) for arg in args)) + GUARD_BITS
        cases += [(arg, bits) for arg in args]
    cases.append((_heegner_args(1571)[3][4], 605))
    sums = []
    jacobi_f = hpnum._jacobi_f
    monkeypatch.setattr(hpnum, "_jacobi_f", lambda *a: sums.append(a) or jacobi_f(*a))
    for arg, bits in cases:
        sums.clear()
        j = j_from_tau(arg.root(), bits)
        assert j == heegner_values([arg.root()], bits)[2][0], (arg, bits)
    assert len(cases) == 105 and len(sums) == 4


@pytest.mark.parametrize("d", (239, 479))
def test_class_poly_reconstructs_the_j_values_of_run_pipeline(monkeypatch, d):
    # both ladders hand reconstruct_int_poly the same j-values, to the last
    # bit, at the same steps, and so give the same H
    seen = {classdata: [], pipeline: []}
    for module, calls in seen.items():
        def reconstruct(roots, prec, conjugates=False, calls=calls):
            if not conjugates:
                calls.append((prec, roots))
            return reconstruct_int_poly(roots, prec, conjugates)
        monkeypatch.setattr(module, "reconstruct_int_poly", reconstruct)
    assert class_poly(reduced_forms(d)) == run_pipeline(d).H.coeffs
    assert seen[classdata] == seen[pipeline] != []


# sha256 of repr((H, R, S, Q, p, q) coefficient tuples + (precision_used,)):
# a change to how the Heegner values are taken or reconstructed from must
# leave the tower and the step that succeeds as they are
_PINNED = {
    239: "0cce7709325b336c4b6c45fe29c0b0fab5222058d6e880a37dcba89f96093dc5",
    479: "5136cca66a7c237a878106cad17368241668dc2d686119a5b3a6035ba851e42c",
    959: "a52671c673ec66ba4be5ba92f4251a627e5254b7b79efc1e22969112fd1f8e1b",
}


@pytest.mark.parametrize("d", _PINNED)
def test_the_tower_and_its_precision_are_pinned(d):
    r = run_pipeline(d)
    key = tuple(tuple(getattr(r, n).coeffs) for n in ("H", "R", "S", "Q", "p", "q"))
    assert sha256(repr(key + (r.precision_used,)).encode()).hexdigest() == _PINNED[d]


def test_the_disc_primes_are_sieved_once():
    _primes_up_to.cache_clear()
    run_pipeline(11)
    run_pipeline(24)
    info = _primes_up_to.cache_info()
    assert (info.misses, info.hits) == (1, 1)
