import functools
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from rrcf5 import curve5, exactmath
from rrcf5.curve5 import (
    C5Report,
    CurveError,
    TateCurve5,
    _master_at_point,
    _psi2sq_psi3,
    delta_identity_symbolic,
    det_D_identity,
    division_poly_5,
    division_poly_factors_symbolic,
    doubling_proves_5_torsion,
    five_torsion_by_doubling,
    g2g3_delta_rewrite,
    master_torsion_identity,
    tau_and_isogeny_checks,
    torsion_A_coeffs,
    verify_C5_solution,
    verify_duke_identities,
    vandermonde_zeta5,
    verify_j_forms,
)
from rrcf5.exactmath import CycloElem, Poly, poly_compose_rational, poly_resultant

rng = random.Random(20260823)


def test_invariants_at_rational_b():
    from fractions import Fraction

    E = TateCurve5(Fraction(3, 7))
    # b2, b4, b6, b8 from the Weierstrass coefficients
    b = Fraction(3, 7)
    assert E.b2 == b * b + 6 * b + 1
    assert E.b4 == b * (1 + b)
    assert E.b6 == b * b
    assert E.b8 == b**3
    assert E.g2**3 - 27 * E.g3**2 == E.delta


def test_delta_identity_symbolic():
    assert delta_identity_symbolic()


def _on_curve(E, x, y):
    """(x, y) satisfies the Weierstrass equation of E exactly."""
    return (y * y + E.a1 * x * y + E.a3 * y
            == x**3 + E.a2 * x * x + E.a4 * x + E.a6)


def test_five_torsion_base_points():
    # the four affine points of <(0,0)> lie on the curve over Q[b]
    b = Poly.x()
    E = TateCurve5(b)
    zero = Poly()
    pts = [(zero, zero), (zero, -b), (-b, zero), (-b, b * b)]
    assert all(_on_curve(E, x, y) for x, y in pts)
    assert not _on_curve(E, b, zero)


def test_g2g3_delta_rewrite():
    assert g2g3_delta_rewrite()


def test_division_poly_degree_and_factors():
    psi = division_poly_5(TateCurve5(Poly.x()))
    assert psi.degree == 12
    assert division_poly_factors_symbolic()


def test_division_poly_rejects_singular_b():
    with pytest.raises(CurveError):
        division_poly_5(TateCurve5(0))


def test_master_torsion_identity_all_twists():
    assert all(master_torsion_identity())


def test_master_torsion_identity_is_five_bools():
    for perturb in (0, 1):
        verdicts = master_torsion_identity(perturb_A1=perturb)
        assert type(verdicts) is tuple and len(verdicts) == 5
        assert all(type(v) is bool for v in verdicts)


def test_master_torsion_identity_negative_control():
    assert not any(master_torsion_identity(perturb_A1=1))


@pytest.mark.parametrize("t", range(5))
def test_master_torsion_identity_negative_control_every_twist(t):
    assert not master_torsion_identity(perturb_A1=1)[t]


def schoolbook(a, b):
    """The product of two coefficient lists, coefficient by coefficient."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def naive_compose(H, num, den, h):
    """sum_k H_k num^k den^(h-k) by schoolbook products, independent of
    poly_compose_rational and Poly.__mul__; a coefficient H_k that is a Poly
    is a polynomial in the variable of num and den."""
    num_pows, den_pows = [[1]], [[1]]
    for _ in range(h):
        num_pows.append(schoolbook(num_pows[-1], num.coeffs))
        den_pows.append(schoolbook(den_pows[-1], den.coeffs))
    total = []
    for k, c in enumerate(H.coeffs):
        term = list(c.coeffs) if isinstance(c, Poly) else [c]
        term = schoolbook(schoolbook(term, num_pows[k]), den_pows[h - k])
        total = [x + y for x, y in zip(total, term)] + total[len(term):] + term[len(total):]
    return Poly(total)


def composed_master_poly(twist, perturb_A1):
    """bden^33 psi_5(X(zeta^twist u), b(u)) composed for this twist alone by
    naive_compose: zeta^(twist k) goes into the coefficient of u^k of XA
    before the composition."""
    a = CycloElem.sqrt5()
    one = CycloElem.from_rational(1)
    bnum_v = Poly(((-11 - 5 * a) * Fraction(1, 2), (-11 + 5 * a) * Fraction(1, 2)))
    bden_v = Poly((one, one))

    def clear_b(poly_in_b, h):
        return naive_compose(poly_in_b, bnum_v, bden_v, h).subst_x_pow(5)

    A4, A3, A2, A1, A0 = torsion_A_coeffs()
    A1 = A1 + perturb_A1
    XA = Poly()
    for k, Ak in enumerate((A0, A1, A2, A3, A4)):
        XA = XA + Poly([0] * k + list((clear_b(Ak, 2) * CycloElem.zeta() ** (k * twist)).coeffs))
    psi5 = division_poly_5(TateCurve5(Poly.x()))
    Cs = Poly([clear_b(cj, 9) if cj else Poly() for cj in psi5.coeffs])
    bden = bden_v.subst_x_pow(5)
    bden2 = Poly(schoolbook(bden.coeffs, bden.coeffs))
    return naive_compose(Cs, XA * ((5 - a) * Fraction(1, 100)), bden2, 12)


@pytest.mark.parametrize("perturb", (0, 1))
def test_twisted_master_polys_match_the_per_twist_composition(perturb):
    # each twist P_t has coefficient k equal to zeta^(tk) times that of P_0,
    # which is why master_torsion_identity reads all five verdicts off P_0
    P0 = composed_master_poly(0, perturb)
    zeta = CycloElem.zeta()
    for t in range(1, 5):
        twisted = Poly([c * zeta ** (t * k) for k, c in enumerate(P0.coeffs)])
        assert twisted.coeffs == composed_master_poly(t, perturb).coeffs
    if perturb:
        # P_0 != 0 here, with live coefficients at every exponent class mod
        # 5, so every zeta^(tk) factor is compared with the reference
        live = {k % 5 for k, c in enumerate(P0.coeffs) if c}
        assert live == set(range(5))


def sqrt5_pair(c):
    """c = x + y sqrt5 in Q(zeta_5) as the integer pair (x, y)."""
    c0, c1, c2, c3 = c.coords  # x - y, 0, -2y, -2y
    assert c1 == 0 and c2 == c3
    x, y = c0 - c2 / 2, -c2 / 2
    assert x.denominator == y.denominator == 1
    return int(x), int(y)


PERTURBATIONS = range(-3, 4)


@functools.lru_cache(maxsize=None)
def scaled_reference(perturb):
    """The coefficients of P = 2^33 (25 + 5 sqrt5)^12 P_0, P_0 from
    composed_master_poly, as integer pairs: the multiple of P_0 that
    _master_at_point evaluates."""
    scale = 2**33 * (25 + 5 * CycloElem.sqrt5()) ** 12
    return [sqrt5_pair(c * scale) for c in composed_master_poly(0, perturb).coeffs]


@pytest.mark.parametrize("perturb", PERTURBATIONS)
def test_the_one_point_verdict_is_whether_the_reference_is_zero(perturb):
    P = scaled_reference(perturb)
    assert master_torsion_identity(perturb) == (not P,) * 5
    assert bool(P) == bool(perturb)
    # and the value at 2^s is the reference's
    s, value = _master_at_point(perturb)
    u0 = 1 << s
    assert value == (sum(x * u0**k for k, (x, _) in enumerate(P)),
                     sum(y * u0**k for k, (_, y) in enumerate(P)))


@pytest.mark.parametrize("perturb", PERTURBATIONS)
def test_the_point_clears_every_coordinate_of_the_reference(perturb):
    # the bound in _master_at_point's docstring, with a bit to spare
    s, _ = _master_at_point(perturb)
    bound = 2 ** (s - 1)
    assert all(abs(x) < bound and abs(y) < bound for x, y in scaled_reference(perturb))


def test_master_identity_is_one_evaluation_on_pairs(monkeypatch):
    # no composition and no product over Q(zeta_5): one binary_form on
    # Z[sqrt5] pairs per call, for the identity and the negative control
    calls = []

    def record(name, f):
        return lambda *args: calls.append(name) or f(*args)

    for module in (curve5, exactmath):
        monkeypatch.setattr(module, "poly_compose_rational",
                            record("compose", module.poly_compose_rational))
    monkeypatch.setattr(exactmath, "_mul4", record("Q(zeta_5)", exactmath._mul4))
    monkeypatch.setattr(CycloElem, "__mul__", record("CycloElem", CycloElem.__mul__))
    monkeypatch.setattr(CycloElem, "__rmul__", record("CycloElem", CycloElem.__rmul__))
    monkeypatch.setattr(curve5, "binary_form", record("binary_form", curve5.binary_form))
    for perturb in (0, 1):
        calls.clear()
        master_torsion_identity(perturb)
        assert calls == ["binary_form"]


def test_det_D_closed_form():
    closed_ok, conj_ok, vanishes = det_D_identity()
    assert closed_ok
    assert conj_ok
    assert vanishes  # D = 0 at b = (sqrt5 - 1)/2


def _cofactor_det(matrix):
    """The determinant by cofactor expansion along the first row: a reference
    for the column factorisation det_D_identity uses."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = None
    for j in range(len(matrix)):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * _cofactor_det(minor)
        term = -term if j % 2 else term
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("bump", (0, 1))
def test_det_D_is_the_A_product_times_the_vandermonde(bump):
    # entry (i, j) is A_{4-j} (zeta^i)^(4-j); bump = 1 moves A_1 off its value
    A4, A3, A2, A1, A0 = torsion_A_coeffs()
    A1 = A1 + bump
    As = (A4, A3, A2, A1, A0)
    zeta = CycloElem.zeta()
    matrix = [[As[j] * zeta ** ((4 - j) * i) for j in range(5)] for i in range(5)]
    assert _cofactor_det(matrix) == A4 * A3 * A2 * A1 * A0 * vandermonde_zeta5()


def test_vandermonde_of_the_fifth_roots_of_unity():
    assert vandermonde_zeta5() == -25 * CycloElem.sqrt5()


def test_tau_and_isogeny():
    checks = tau_and_isogeny_checks()
    assert all(checks.values()), checks


def test_j5_tau_check_rejects_a_perturbed_j55(monkeypatch):
    cs = list(curve5.J55_NUM.coeffs)
    cs[7] += 1
    monkeypatch.setattr(curve5, "J55_NUM", Poly(cs))
    checks = tau_and_isogeny_checks()
    assert not checks["j5_tau_is_j55"]
    assert all(v for k, v in checks.items() if k != "j5_tau_is_j55")


def test_j_forms_agree():
    assert verify_j_forms()


RATIONAL_BS = [Fraction(1, 2), Fraction(3), Fraction(-7, 5), Fraction(2, 9), Fraction(1)]


X = sympy.Symbol("X")


def sympy_poly(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                      X, domain="QQ")


def doubling_parts(b):
    """(psi5, psi3, N, D) of E5(b), with x(2P) = N/D."""
    E = TateCurve5(b)
    D, psi3 = _psi2sq_psi3(E)
    N = Poly((-E.b8, -2 * E.b6, -E.b4, 0, 1))
    return division_poly_5(E), psi3, N, D


@pytest.mark.parametrize("b", RATIONAL_BS)
def test_group_law_5P_by_doubling(b):
    assert five_torsion_by_doubling(b)
    psi5, psi3, N, D = doubling_parts(b)
    N4, D4 = (poly_compose_rational(P, N, D, 4) for P in (N, D))
    assert N4 - Poly.x() * D4 == -(psi5 * psi3)
    shared = Poly((b, 1))  # X + b
    for f, g in ((psi5, psi3), (psi5, D), (N, D)):
        # sympy's gcd over Q is the independent reference for coprimality
        assert sympy.gcd(sympy_poly(f), sympy_poly(g)).degree() == 0
        assert poly_resultant(f, g) != 0
        assert poly_resultant(f * shared, g * shared) == 0  # negative control


@pytest.mark.parametrize("b", RATIONAL_BS)
def test_doubling_map_on_the_base_points(b):
    # x(2P) = N/D takes x(P) = 0 to x(2P) = -b and -b to x(4P) = x(-P) = 0
    _, _, N, D = doubling_parts(b)
    assert N(0) == -b * D(0) and D(0)
    assert N(-b) == 0 and D(-b)


@pytest.mark.parametrize("b", RATIONAL_BS)
def test_group_law_5P_negative_controls(b):
    psi5, psi3, N, D = doubling_parts(b)
    assert doubling_proves_5_torsion(psi5, psi3, N, D)
    assert not doubling_proves_5_torsion(psi5 + 1, psi3, N, D)
    assert not doubling_proves_5_torsion(psi5, psi3, N + 1, D)


@pytest.mark.parametrize("d", [11, 16, 19, 24])
def test_C5_solutions(d):
    rep = verify_C5_solution(d, prec=384)
    assert isinstance(rep, C5Report)
    assert rep.all_ok
    assert rep.residual_bits >= 192


@pytest.mark.parametrize("d", [479, 4])
def test_C5_solution_needs_a_tabulated_d(d):
    with pytest.raises(CurveError, match=f"d = {d} is not tabulated"):
        verify_C5_solution(d)


def test_duke_identities_random_taus():
    taus = [mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))
            for _ in range(4)]
    assert verify_duke_identities(taus)
