import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from rrcf5 import tables
from rrcf5.classdata import choose_v, n_system, reduced_forms
from rrcf5.exactmath import (
    CycloElem,
    ExactDomainError,
    Poly,
    lift_to_cyclo,
    poly_compose_rational,
    poly_discriminant,
)
from rrcf5.hpnum import (
    PrecisionError,
    PrecisionPolicy,
    _to_mpc,
    check_j_by_r,
    eta,
    j_from_tau,
    r_transformation_laws,
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
    _heegner_ws,
    _primes_up_to,
    build_F_G,
    build_p_q,
    build_Q,
    disc_conjecture_check,
    heegner_values,
    lift_through_x_minus_inv,
    pullback_values,
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
    F, Gx5 = F_of(H, 1), build_F_G(H, 1)
    q4, f4 = (Poly(c) for c in tables.F4_FACTORS)
    assert F == (q4 * f4) ** 2
    g = Poly((1,))
    for c in tables.G4_FACTORS:
        g = g * Poly(c) ** 2
    assert Gx5 == g


def test_verify_cor42():
    assert verify_cor42(Poly(tables.R_TABLE[11]), 1)
    assert verify_cor42(Poly(tables.R_TABLE[84]), 4)
    assert not verify_cor42(Poly((1, 0, 1)), 1)  # negative control


def test_verify_cor42_rejects_R_plus_one():
    for d, coeffs in tables.R_TABLE.items():
        h = tables.class_number(d)
        assert verify_cor42(Poly(coeffs), h), d
        assert not verify_cor42(Poly(coeffs) + 1, h), d


def test_pullback_values_refuse_a_form_above_degree_n():
    # n + 1 points cannot fix the pullback of a polynomial of degree n + 1
    for n in (0, 2, 8):
        with pytest.raises(ExactDomainError):
            pullback_values(Poly((0,) * (n + 1) + (1,)), n, COR42)


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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=12),
       st.integers(0, 3), st.sampled_from(["T", "T2", "COR42", "U"]))
def test_pullback_values_match_the_exact_pullback(cs, extra, name):
    # (cz+d)^n P((az+b)/(cz+d)) over Q(zeta_5), by poly_compose_rational,
    # read at z = 0..n
    m = {"T": T, "T2": conjugate(T), "COR42": COR42, "U": U}[name]
    P = Poly(cs)
    n = max(P.degree, 0) + extra
    s5 = CycloElem.sqrt5()
    a, b, c, d = (x + y * s5 for x, y in m)
    exact = poly_compose_rational(lift_to_cyclo(P), Poly((b, a)), Poly((d, c)), n)
    got = pullback_values(P, n, m)
    assert len(got) == n + 1
    assert all(x + y * s5 == exact(z) for z, (x, y) in enumerate(got))


def test_verify_T_invariance():
    assert verify_T_invariance(Poly(tables.P_TABLE[11]), 1)
    assert verify_T_invariance(Poly(tables.P_TABLE[36]), 2)
    # cyclotomic near-miss
    assert not verify_T_invariance(Poly((1, -1, 1, -1, 1)), 1)


def test_verify_T_invariance_accepts_every_tabulated_p():
    for d, coeffs in tables.P_TABLE.items():
        assert verify_T_invariance(Poly(coeffs), tables.class_number(d)), d


def test_verify_T_invariance_rejects_perturbed_p_and_wrong_h():
    for d, coeffs in tables.P_TABLE.items():
        h = tables.class_number(d)
        for k in (0, 2 * h, 4 * h - 1):
            bumped = list(coeffs)
            bumped[k] += 1
            assert not verify_T_invariance(Poly(bumped), h), (d, k)
        assert not verify_T_invariance(Poly(coeffs), h + 1), d


def test_disc_conjecture_examples():
    rep = disc_conjecture_check(Poly((3, -1, 1)), 11, 1)
    assert rep.disc == 5 * 11**2
    assert rep.exact_power_ok and rep.smooth_ok
    rep = disc_conjecture_check(Poly((23, -2, 3, 4, 1)), 91, 2)
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
    with pytest.raises(PipelineIntegrityError):
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
        F, Gx5 = F_of(H, H.degree), build_F_G(H, H.degree)
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
        assert z_plane_checks(H_bad, R_bad, h) == (False, False)


def rel_close(a, b, bits):
    """Relative closeness with floor 1 to avoid division blowups near zero."""
    with mp.workprec(bits + 64):
        scale = max(abs(mpc(a)), abs(mpc(b)), mpf(1))
        return abs(mpc(a) - mpc(b)) / scale < mpf(2) ** (-bits)


# d = 84 has the argument with the smallest Im(w/25) among the tabulated d.
@pytest.mark.parametrize("d", (11, 24, 71, 119, 144, 84))
def test_heegner_values_match_the_eta_quotients(d):
    # The eta prefactors cancel to powers of t = e^(2 pi i w/25); the values
    # must equal the quotients of eta values taken one by one.
    prec = 128
    ws = _heegner_ws(_heegner_args(d)[3], prec)
    zs, ss, js = heegner_values(ws, prec)
    for w, z, s, j in zip(ws, zs, ss, js):
        with mp.workprec(prec + 64):
            e1, e5, e25 = (eta(w / k, prec + 32) for k in (1, 5, 25))
            c = (e5 / e1) ** 6
            for got, want in ((z, -11 - c), (s, -1 - e25 / e1),
                              (j, (c**2 + 10 * c + 5) ** 3 / c)):
                assert rel_close(_to_mpc(got, prec + 64), want, prec - 16)
    # the other h roots of R and S are the complex conjugates
    h = len(ws)
    assert zs[h:] == [(re, -im) for re, im in zs[:h]]
    assert ss[h:] == [(re, -im) for re, im in ss[:h]]


def _scaled(j, log2_rel):
    """The pair j times 1 + 2^log2_rel, log2_rel < 0."""
    return tuple(part + (part >> -log2_rel) for part in j)


@pytest.mark.parametrize("d, prec", ((11, 80), (71, 184), (119, 247), (144, 153)))
def test_j_check_rejects_j_off_by_2_to_33_minus_prec(d, prec):
    # At each step's own bits the check lets a j through that is off by
    # relative 2^(31 - prec) and stops one off by 2^(33 - prec), on either
    # side of its 2^(32 - prec) bound.
    ws = _heegner_ws(_heegner_args(d)[3], prec)
    for w, j in zip(ws, heegner_values(ws, prec)[2]):
        check_j_by_r(j, w, prec)
        check_j_by_r(_scaled(j, 31 - prec), w, prec)
        with pytest.raises(PrecisionError, match="routes disagree"):
            check_j_by_r(_scaled(j, 33 - prec), w, prec)


def test_j_check_rejects_class_poly_j_off_by_2_to_33_minus_prec():
    # the same bound on the class_poly route at d = 24
    prec = 98
    cd = reduced_forms(24)
    for arg in n_system(cd, choose_v(24, cd.f)[0]):
        w = arg.w(prec + 64)
        j = j_from_tau(w, prec)
        check_j_by_r(j, w, prec)
        check_j_by_r(_scaled(j, 31 - prec), w, prec)
        with pytest.raises(PrecisionError, match="routes disagree"):
            check_j_by_r(_scaled(j, 33 - prec), w, prec)


def test_run_pipeline_calls_no_mpmath_log(monkeypatch):
    # the first step is sized from j in double precision, and every value
    # of a step is combined on ints
    def log(*args):
        raise AssertionError("mpmath.log called")

    monkeypatch.setattr(mpmath, "log", log)
    r = run_pipeline(71)
    assert r.precision_used == 184 and r.all_ok


def test_run_pipeline_24_takes_two_exps_per_argument(monkeypatch):
    # at its one step, heegner_values and check_j_by_r take one exp each per
    # argument; sizing the step takes none
    calls = []
    exp = mpmath.exp
    monkeypatch.setattr(mpmath, "exp", lambda z: calls.append(z) or exp(z))
    r = run_pipeline(24)
    assert (r.h, r.precision_used, len(calls)) == (2, 98, 4)


def test_the_disc_primes_are_sieved_once():
    _primes_up_to.cache_clear()
    run_pipeline(11)
    run_pipeline(24)
    info = _primes_up_to.cache_info()
    assert (info.misses, info.hits) == (1, 1)
