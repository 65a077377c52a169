from collections import Counter
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from mpmath import mp, mpc, mpf

from rrcf5 import icosa, tables
from rrcf5.classdata import choose_v, reduced_forms
from rrcf5.exactmath import (
    CycloElem,
    ExactDomainError,
    MoebiusMap,
    Poly,
    in_stabilizer,
    lift_to_cyclo,
    moebius_act_on_poly,
    poly_compose_rational,
)
from rrcf5.hpnum import rr_r
from rrcf5.icosa import (
    ELL,
    F5_DEN,
    F5_NUM,
    OMEGA,
    IcosaError,
    S_map,
    T2_map,
    T_map,
    U_map,
    _f5_invariant,
    expected_stabilizer,
    generate_g60,
    group_structure_report,
    orbit_and_stabilizer,
    verify_d4_corpus,
    verify_f5_invariance,
    verify_worked_examples,
    unwitnessed,
)
from rrcf5.pipeline import T, build_F_G, pullback_at


def reference_orbit_and_stabilizer(p, group, Gd5=None):
    """The exact route, kept as a reference: all pullbacks of p over
    Q(zeta_5), made monic, and one division of Gd5 per distinct image when
    Gd5 is given.  Returns (orbit, stabilizer)."""
    base = moebius_act_on_poly(MoebiusMap.identity(), p)
    orbit = set()
    stabilizer = []
    for m in group:
        image = moebius_act_on_poly(m, p)
        if image.degree != p.degree:
            raise IcosaError("degenerate pullback in orbit computation")
        orbit.add(image)
        if image == base:
            stabilizer.append(m)
    if Gd5 is not None:
        lifted_G = lift_to_cyclo(Gd5)
        if not all(image.divides(lifted_G) for image in orbit):
            raise IcosaError("orbit element does not divide G_d(x^5)")
    return frozenset(orbit), frozenset(stabilizer)


def orbit_root_match(d, orbit, prec=256):
    """Numerically locate the orbit element vanishing at zeta^j r(-1/w);
    returns the (element index, j) found or None."""
    cd = reduced_forms(d)
    v, _ = choose_v(d, cd.f)
    with mp.workprec(prec + 64):
        w = (v + mpmath.sqrt(mpc(-d))) / 2
        Y = rr_r(-1 / w, prec)
        zeta = mpmath.exp(2j * mp.pi / 5)
        tol = mpf(2) ** (-(prec // 2))
        for idx, q in enumerate(sorted(orbit, key=repr)):
            q_num = q.map_coeffs(lambda c: Poly(c.nums)(zeta) / c.den)
            for j in range(5):
                val = zeta**j * Y
                if abs(q_num(val)) < tol * max(1, abs(val)) ** q.degree:
                    return idx, j
    return None


@pytest.fixture(scope="module")
def g60():
    return generate_g60()


def test_group_order_and_census(g60):
    assert len(g60) == 60
    assert Counter(m.element_order() for m in g60) == {1: 1, 2: 15, 3: 20, 5: 24}


def test_orders_from_the_trace_match_repeated_products(g60):
    for m in g60:
        acc, n = m, 1
        while acc != MoebiusMap.identity():
            acc, n = acc * m, n + 1
        assert m.element_order() == n, m


def test_generator_orders():
    assert S_map().element_order() == 5
    assert T_map().element_order() == 2
    assert U_map().element_order() == 2


def test_structure_relations(g60):
    rep = group_structure_report(g60)
    assert all(rep.values()), rep


def test_f5_invariance():
    assert verify_f5_invariance()


def lam_times(lam, P):
    """lam P(z) at z = 0..60, for lam = (a, b) = a + b sqrt5."""
    return [(lam[0] * P(z), lam[1] * P(z)) for z in range(61)]


def pulled_by_T(P):
    """P|T at z = 0..60, for P read as a form of degree 60 (pullback_at)."""
    return [pullback_at(P, 60, T, z) for z in range(61)]


def test_f5_check_rejects_a_perturbed_form():
    # +1 on x^10 keeps S-invariance and breaks T; +1 on x^7 breaks S
    for k in (10, 7):
        bump = Poly((0,) * k + (1,))
        assert not _f5_invariant(F5_NUM + bump, F5_DEN), k
        assert not _f5_invariant(F5_NUM, F5_DEN + bump), k
    # T multiplies p_11^15 by the same lam as F5_NUM, but S does not fix it
    lam = pullback_at(F5_NUM, 60, T, 0)  # F5_NUM(0) = 1
    p15 = Poly(tables.P_TABLE[11]) ** 15
    assert pulled_by_T(p15) == lam_times(lam, p15)
    assert not _f5_invariant(p15, F5_DEN)


def test_f5_check_needs_one_multiplier():
    # W is the product of the fixed-point forms x^2 + (1 +- sqrt5) x - 1 of
    # T and T2; T multiplies W^15 by -lam, where it multiplies A and B by lam.
    # S rejects W^15 too: T multiplies every S-invariant form of degree 60
    # that it multiplies by a scalar by lam, as A5 has no nontrivial character.
    W15 = Poly((1, -2, -6, 2, 1)) ** 15
    lam = pullback_at(F5_NUM, 60, T, 0)
    assert pulled_by_T(W15) == lam_times((-lam[0], -lam[1]), W15)
    assert not _f5_invariant(F5_NUM, W15)
    assert not _f5_invariant(W15, F5_DEN)


def test_f5_check_rejects_a_form_above_degree_60():
    # x^65 passes the exponent test for S, but it is no form of degree 60:
    # its pullback (cz+d)^60 x65((az+b)/(cz+d)) is no polynomial
    x65 = Poly((0,) * 65 + (1,))
    with pytest.raises(ExactDomainError):
        pullback_at(x65, 60, T, 0)
    with pytest.raises(ExactDomainError):
        _f5_invariant(F5_NUM + x65, F5_DEN)


def test_the_T_multiplier_matches_the_exact_pullback():
    # T multiplies both forms by (-det T)^30 = (10 + 2 sqrt5)^30
    s5, two = CycloElem.sqrt5(), CycloElem.from_rational(2)
    lam = (10 + 2 * s5) ** 30
    x, y = pullback_at(F5_NUM, 60, T, 0)  # F5_NUM(0) = 1
    assert x + y * s5 == lam
    for P in (F5_NUM, F5_DEN):
        A = lift_to_cyclo(P)
        pulled = poly_compose_rational(A, Poly((two, -(1 + s5))), Poly((1 + s5, two)), 60)
        assert pulled == A * lam


def test_witness_prime_and_root_of_unity():
    assert all(ELL % q for q in range(2, isqrt(ELL) + 1))
    assert ELL % 5 == 1
    assert OMEGA != 1 and pow(OMEGA, 5, ELL) == 1


def test_witnesses_leave_only_the_stabilizer_at_d11(g60):
    p = Poly(tables.P_TABLE[11])
    left = unwitnessed(g60, p)
    assert len(left) == 4  # 56 maps have a witness
    assert set(left) == expected_stabilizer()


def test_exact_fallback_alone_gives_the_stabilizer(g60, monkeypatch):
    monkeypatch.setattr(icosa, "unwitnessed", lambda elements, p: list(elements))
    Gx5 = build_F_G(Poly(tables.H_TABLE[11]))
    assert orbit_and_stabilizer(Poly(tables.P_TABLE[11]), g60, Gx5) == (
        15, expected_stabilizer())


def test_no_witness_where_the_reduction_mod_ell_fails():
    p = Poly(tables.P_TABLE[11])
    # ELL divides a denominator, so the map has no image mod ELL
    m = MoebiusMap(1, Fraction(1, ELL), 0, 1)
    assert unwitnessed([m], p) == [m]
    # the pullback is a form, so a pole of z/(z - 3) at the point 3 is no gap
    assert unwitnessed([MoebiusMap(1, 0, 1, -3), MoebiusMap(1, 0, 1, -4)], p) == []


@pytest.mark.parametrize("d", [11, 16, 19, 24])
def test_orbit_and_stabilizer(d, g60):
    p = Poly(tables.P_TABLE[d])
    Gx5 = build_F_G(Poly(tables.H_TABLE[d]))
    orbit, stab = reference_orbit_and_stabilizer(p, g60, Gx5)
    assert (len(orbit), stab) == (15, expected_stabilizer())
    assert orbit_and_stabilizer(p, g60, Gx5) == (15, expected_stabilizer())
    # the one-point test agrees with the monic pullback on all 60 maps
    assert {m for m in g60 if in_stabilizer(m, p)} == stab


@pytest.mark.parametrize("bump, stab_expected", [
    ({1: 1, 3: -1}, {MoebiusMap.identity(), U_map()}),  # still anti-palindromic
    ({1: 1}, {MoebiusMap.identity()}),
])
def test_perturbed_p_matches_the_exact_route(bump, stab_expected, g60):
    cs = list(tables.P_TABLE[11])
    for k, c in bump.items():
        cs[k] += c
    p = Poly(cs)
    orbit, stab = reference_orbit_and_stabilizer(p, g60)
    assert orbit_and_stabilizer(p, g60, p) == (len(orbit), stab)
    assert stab == stab_expected
    assert {m for m in g60 if in_stabilizer(m, p)} == stab


def test_orbit_rejects_wrong_target(g60):
    # p_11's orbit cannot divide G_19(x^5)
    G19 = build_F_G(Poly(tables.H_TABLE[19]))
    with pytest.raises(IcosaError):
        orbit_and_stabilizer(Poly(tables.P_TABLE[11]), g60, G19)


def test_orbit_root_match_d19(g60):
    Gx5 = build_F_G(Poly(tables.H_TABLE[19]))
    orbit, _ = reference_orbit_and_stabilizer(Poly(tables.P_TABLE[19]), g60, Gx5)
    hit = orbit_root_match(19, orbit)
    assert hit is not None
    _, j = hit
    assert 0 <= j <= 4


def test_stabilizer_is_klein_four():
    stab = expected_stabilizer()
    assert len(stab) == 4
    for a in stab:
        for b in stab:
            assert a * b in stab
    assert T_map() * U_map() == T2_map()


def test_T_maps_carry_the_entries_of_T_and_its_conjugate():
    s5 = CycloElem.sqrt5()
    assert T == ((-1, -1), (2, 0), (2, 0), (1, 1))
    assert T_map() == MoebiusMap(-(1 + s5), 2, 2, 1 + s5)
    assert T2_map() == MoebiusMap(-(1 - s5), 2, 2, 1 - s5)
    assert T_map() != T2_map()


def test_conjugate_map_outside_stabilizer():
    conj = S_map().inverse() * U_map() * S_map()
    assert conj not in expected_stabilizer()
    assert conj.element_order() == 2


def test_d4_corpus():
    rep = verify_d4_corpus()
    assert all(rep.values()), rep


@pytest.mark.parametrize("name, index, coord, broken", (
    ("G4_FACTOR_ROOTS_Z20", 1, 0, {"G4_factor_roots"}),
    # every alpha_k also enters a fifth-power relation, which breaks with it
    ("F4_QUARTIC_ROOTS_Z20", 1, 2, {"f4_roots", "fifth_power_a1a22"}),
    ("F4_QUARTIC_ROOTS_Z20", 2, 7, {"f4_roots", "a1a3_is_minus_one"}),
    ("F4_FIFTH_POWER_BASES", 0, 3, {"fifth_power_a1a22"}),
    ("F4_FIFTH_POWER_BASES", 2, 5, {"fifth_power_a1a43"}),
))
def test_d4_corpus_fails_exactly_where_its_data_is_perturbed(monkeypatch, name, index,
                                                             coord, broken):
    rows = list(getattr(tables, name))
    row = list(rows[index])
    row[coord] += 1
    rows[index] = tuple(row)
    monkeypatch.setattr(tables, name, tuple(rows))
    rep = verify_d4_corpus()
    assert {k for k, ok in rep.items() if not ok} == broken


def test_worked_examples():
    rep = verify_worked_examples()
    assert all(rep.values()), rep


T_FIXED_NORM = Poly((1, -2, -6, 2, 1))  # z^4 + 2z^3 - 6z^2 - 2z + 1


def test_t_fixed_norm_roots_are_fixed_by_t_and_t2():
    # the quartic's roots are the two fixed points of T and the two of its
    # Galois conjugate T2, which is T with sqrt5 -> -sqrt5
    roots = mpmath.polyroots(list(reversed(T_FIXED_NORM.coeffs)), extraprec=64)
    s5 = mpmath.sqrt(5)
    fixed_by = [[abs((-(1 + s) * z + 2) / (2 * z + 1 + s) - z) < 1e-12 for s in (s5, -s5)]
                for z in roots]
    assert sorted(fixed_by) == [[False, True]] * 2 + [[True, False]] * 2


def test_t_fixed_point_never_a_root():
    ds = sorted(tables.P_TABLE)
    assert icosa.t_fixed_point_check(ds)
    # numeric reference: |p_d(z1)| stays far from 0 at the fixed point z1
    s5 = mpmath.sqrt(5)
    z1 = (-1 - s5 + mpmath.sqrt(10 + 2 * s5)) / 2
    assert abs(T_FIXED_NORM(z1)) < 1e-12
    assert all(abs(Poly(tables.P_TABLE[d])(z1)) > 2**-32 for d in ds)


def test_t_fixed_point_check_sees_the_quartic(monkeypatch):
    p11 = Poly(tables.P_TABLE[11])
    monkeypatch.setitem(tables.P_TABLE, 11, (p11 * T_FIXED_NORM).coeffs)
    assert not icosa.t_fixed_point_check([11])
    assert icosa.t_fixed_point_check([16, 19])
    monkeypatch.setitem(tables.P_TABLE, 11, (p11 * Poly((-1, 1, 1))).coeffs)
    assert icosa.t_fixed_point_check([11])  # z^2 + z - 1 is prime to the quartic


def test_identity_canonicalization():
    # scaled entries canonicalize to the same projective map
    z = MoebiusMap(2, 0, 0, 2)
    assert z == MoebiusMap.identity()
