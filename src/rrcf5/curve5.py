"""The Tate normal form E5(b) with a rational point of order 5, its
5-division polynomial and an exact proof by doubling that its roots are
5-torsion, the explicit order-5 X-coordinate formulas over Q(sqrt5)(u) and
the proof that they annihilate psi_5, at one point over Z[sqrt5], the
tau/isogeny structure, and numeric verification of the quintic diophantine
solutions and the continued-fraction transformation identities."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

import mpmath
from mpmath import mp, mpc, mpf

from . import tables
from .classdata import choose_v, reduced_forms
from .exactmath import (CycloElem, ExactDomainError, Poly, RatFunc, binary_form, golden_unit,
                        lift_to_cyclo, poly_compose_rational, poly_resultant, powers,
                        sqrt5_size, times_sqrt5)
from .hpnum import eta, r_transformation_laws, rr_r
from .pipeline import J5_DEN, J5_NUM, J55_DEN, J55_NUM, TAU, pullback_at
from .pipeline import J5Z_DEN, J5Z_NUM, J55Z_DEN, J55Z_NUM


class CurveError(ExactDomainError):
    """A failed exact computation here: an ExactDomainError, so cli.main exits 1."""


# ---------------------------------------------------------------------------
# curve data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TateCurve5:
    """Y^2 + (1+b)XY + bY = X^3 + bX^2, with (0,0) of order 5."""

    b: object

    @property
    def a1(self):
        return 1 + self.b

    @property
    def a2(self):
        return self.b

    @property
    def a3(self):
        return self.b

    @property
    def a4(self):
        return 0 * self.b

    @property
    def a6(self):
        return 0 * self.b

    @property
    def b2(self):
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self):
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self):
        return (self.a1 * self.a1 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 * self.a3
                - self.a4 * self.a4)

    @property
    def g2(self):
        b = self.b
        return Fraction(1, 12) * (b**4 + 12 * b**3 + 14 * b**2 - 12 * b + 1)

    @property
    def g3(self):
        b = self.b
        return Fraction(-1, 216) * (b**2 + 1) * (b**4 + 18 * b**3 + 74 * b**2 - 18 * b + 1)

    @property
    def delta(self):
        b = self.b
        return b**5 * (1 - 11 * b - b**2)


def delta_identity_symbolic() -> bool:
    """g2^3 - 27 g3^2 = b^5 (1 - 11b - b^2) exactly, over Q[b]."""
    b = Poly.x()
    E = TateCurve5(b)
    return E.g2**3 - 27 * E.g3**2 == E.delta


def g2g3_delta_rewrite() -> bool:
    """g2 g3 / Delta = (1/2592) (z^2+12z+16)(z^2+18z+76)/(z+11) * (b^2+1)/b^2
    under z = b - 1/b, as an exact rational-function identity."""
    b = Poly.x()
    E = TateCurve5(b)
    lhs = RatFunc(E.g2 * E.g3, E.delta)
    z = RatFunc(Poly((-1, 0, 1)), b)
    x = RatFunc(b)
    zpart = (z * z + 12 * z + 16) * (z * z + 18 * z + 76) / (z + 11)
    rhs = Fraction(1, 2592) * zpart * (x * x + 1) / (x * x)
    return lhs == rhs


# ---------------------------------------------------------------------------
# 5-division polynomial
# ---------------------------------------------------------------------------


def division_poly_5(curve: TateCurve5) -> Poly:
    """psi_5 as a degree-12 polynomial in X; coefficients live in the same
    domain as curve.b (use a Poly-valued b for the symbolic version)."""
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    if not curve.delta:
        raise CurveError("singular curve: delta = 0")
    psi2sq, psi3 = _psi2sq_psi3(curve)
    omega4 = Poly((
        b4 * b8 - b6 * b6,
        b2 * b8 - b4 * b6,
        10 * b8,
        10 * b6,
        5 * b4,
        b2,
        2 * b2**0,
    ))
    return psi2sq * psi2sq * omega4 - psi3 * psi3 * psi3


def _psi2sq_psi3(curve: TateCurve5):
    """psi_2^2 = 4X^3 + b2 X^2 + 2 b4 X + b6 and
    psi_3 = 3X^4 + b2 X^3 + 3 b4 X^2 + 3 b6 X + b8."""
    b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
    return (Poly((b6, 2 * b4, b2, 4 * b2**0)),
            Poly((b8, 3 * b6, 3 * b4, b2, 3 * b2**0)))


def division_poly_factors_symbolic() -> bool:
    """psi_5 = X (X + b) * (degree-10 cofactor) exactly over Q(b)."""
    b = Poly.x()
    psi5 = division_poly_5(TateCurve5(b))
    # divide by X and then X + b; both divisions must be exact
    if psi5.coeffs[0]:
        return False
    shifted = Poly(psi5.coeffs[1:])
    quo, rem = divmod(shifted, Poly((b, b**0)))
    return rem.is_zero() and quo.degree == 10


def doubling_proves_5_torsion(psi5: Poly, psi3: Poly, N: Poly, D: Poly) -> bool:
    """Every root of psi5 is x(P) for a point P with 5P = O, given
    x(2P) = N/D (Silverman III.2.3), the identity N4 - X D4 = -psi5 psi3
    with N4 = D^4 N(N/D) and D4 = D^4 D(N/D), and a nonzero resultant (no
    common root) for (psi5, psi3), (psi5, D) and (N, D).

    At a root x of psi5: D(x) != 0, so 2P != O and x(2P) = N(x)/D(x).
    D4(x) = 0 would force N4(x) = 0, that is N and D both vanishing at
    x(2P); so 4P != O and x(4P) = N4(x)/D4(x) = x.  Then 4P = +-P, and
    3P != O since psi3(x) != 0, so 5P = O."""
    coprime = all(poly_resultant(f, g) != 0 for f, g in ((psi5, psi3), (psi5, D), (N, D)))
    N4, D4 = (poly_compose_rational(P, N, D, 4) for P in (N, D))
    return coprime and N4 - Poly.x() * D4 == -(psi5 * psi3)


def five_torsion_by_doubling(b) -> bool:
    """doubling_proves_5_torsion for E5(b) at a rational b, with
    N = X^4 - b4 X^2 - 2 b6 X - b8 and D = psi_2^2."""
    E = TateCurve5(b)
    D, psi3 = _psi2sq_psi3(E)
    N = Poly((-E.b8, -2 * E.b6, -E.b4, 0, 1))
    return doubling_proves_5_torsion(division_poly_5(E), psi3, N, D)


# ---------------------------------------------------------------------------
# the solved X-coordinates over Q(sqrt5)(u)
# ---------------------------------------------------------------------------


# A_4..A_0, each as its coefficients of 1, b, b^2, each a pair (x, y) = x + y sqrt5
_A_TABLE = (
    ((-18, 8), (-12, 6), (-2, 0)),
    ((-7, 3), (12, -4), (2, 0)),
    ((-3, 1), (-7, 7), (-2, 0)),
    ((-2, 0), (22, 0), (2, 0)),
    ((-3, -1), (-7, 3), (-2, 0)),
)


def torsion_A_coeffs():
    """The five polynomials A_4..A_0 in b (lowest-degree-first coefficient
    tuples over Q(sqrt5)) from the solved quintic."""
    # x + y sqrt5 = (x - y) - 2y zeta^2 - 2y zeta^3 in the power basis
    return tuple(Poly([CycloElem((x - y, 0, -2 * y, -2 * y)) if y else x for x, y in Ak])
                 for Ak in _A_TABLE)


def _master_at_point(perturb_A1: int = 0):
    """(s, P(2^s)) for P = D^12 bden^9 psi_5(N/D, bnum/bden) in Z[sqrt5][u],
    the value a pair (x, y) = x + y sqrt5; perturb_A1 adds to A_1.

    b = (eps^5 u^5 + epsbar^5)/(u^5 + 1) = bnum/bden with bnum =
    (-11 - 5 sqrt5) + (-11 + 5 sqrt5) u^5 and bden = 2 + 2 u^5 (2 eps^5 =
    -11 + 5 sqrt5), and X = lam sum_k A_k(b) u^k with lam = (5 - sqrt5)/100
    = 1/(25 + 5 sqrt5) is N/D, N = sum_k u^k bden^2 A_k(bnum/bden) and D =
    (25 + 5 sqrt5) bden^2.  With psi_5 = sum_j psi_j(b) X^j, deg psi_j <= 9,
    P = sum_j C_j N^j D^(12-j), C_j = sum_i psi_ji bnum^i bden^(9-i), and
    P = 2^33 (25 + 5 sqrt5)^12 P_0 for P_0 = (u^5 + 1)^33 psi_5(X(u), b(u)).

    Why one point is enough: nu(x + y sqrt5) = |x| + 3|y| bounds both
    coordinates and is submultiplicative, and so is its sum over the
    coefficients of a polynomial in u.  nu(bnum) = 52, nu(bden) = 4 and
    nu(25 + 5 sqrt5) = 40, so nu(C_j) <= c_j = sum_i |psi_ji| 52^i 4^(9-i),
    nu(N) <= n = sum_k sum_i nu(A_ki) 52^i 4^(2-i), nu(D) <= 640, and every
    coordinate of every coefficient of P is at most
    B = sum_j c_j n^j 640^(12-j).  Take s with 2^s > B.  Each coordinate of
    P(u0), u0 = 2^s, is an integer polynomial in u0 with coefficients of
    modulus below u0; if it is not zero, its value is u0^k (f_k + u0 g(u0))
    for its lowest nonzero coefficient f_k, and u0 cannot divide f_k, so the
    value is not zero.  Hence P(u0) = (0, 0) exactly when P = 0, that is
    when P_0 = 0."""
    psi = [[(c, 0) for c in cj.coeffs] for cj in division_poly_5(TateCurve5(Poly.x())).coeffs]
    As = [list(Ak) for Ak in reversed(_A_TABLE)]  # A_0..A_4
    x, y = As[1][0]
    As[1][0] = (x + perturb_A1, y)
    nu = sqrt5_size
    n = sum(nu(c) * 52**i * 4**(2 - i) for Ak in As for i, c in enumerate(Ak))
    B = sum(sum(nu(c) * 52**i * 4**(9 - i) for i, c in enumerate(cj)) * n**j * 640**(12 - j)
            for j, cj in enumerate(psi))
    s = B.bit_length()
    v0 = 1 << (5 * s)
    bnum, bden = (-11 - 11 * v0, 5 * v0 - 5), 2 + 2 * v0
    bnum_pows = [(1, 0)] + [*map(powers(bnum, times_sqrt5), range(1, 10))]

    def monomials(m):
        """bnum^i bden^(m-i) for i = 0..m; bden is an integer."""
        return [(x * bden**(m - i), y * bden**(m - i))
                for i, (x, y) in enumerate(bnum_pows[:m + 1])]

    def dot(cs, ms):
        x = y = 0
        for c, m in zip(cs, ms):
            p, q = times_sqrt5(c, m)
            x, y = x + p, y + q
        return x, y

    m9, m2 = monomials(9), monomials(2)
    Cs = [dot(cj, m9) for cj in psi]
    N = (0, 0)
    for k, Ak in enumerate(As):
        x, y = dot(Ak, m2)
        N = N[0] + (x << (k * s)), N[1] + (y << (k * s))
    D = times_sqrt5((25, 5), (bden * bden, 0))
    return s, binary_form(Cs, N, D, times_sqrt5)


def master_torsion_identity(perturb_A1: int = 0):
    """psi_5(X(zeta_5^t u), b(u)) = 0 identically in u, for t = 0..4, proven
    at one point (_master_at_point).  perturb_A1 is a negative-control knob
    that must break the identity when nonzero.  Every C_j, bden and every
    coefficient of N in u^k is a polynomial in u^5, so the twist P_t
    (X(zeta^t u) for X(u)) is P_0(zeta^t u): coefficient k of P_t is the unit
    zeta^(tk) times that of P_0, and each entry is whether P_0 is zero."""
    _, value = _master_at_point(perturb_A1)
    return (value == (0, 0),) * 5


# ---------------------------------------------------------------------------
# the determinant of the linear system for (u^4, ..., u, 1)
# ---------------------------------------------------------------------------


def vandermonde_zeta5():
    """V = prod_{0 <= i < j <= 4} (zeta^j - zeta^i) in Q(zeta_5), which is
    -25 sqrt5."""
    z = [CycloElem.zeta() ** i for i in range(5)]
    return prod(z[j] - z[i] for j in range(5) for i in range(j))


def det_D_identity():
    """The 5x5 determinant of the twisted linear system equals the closed
    form, and the alpha -> -alpha conjugate product matches the printed
    integer polynomial.  Returns (closed_form_ok, conjugate_product_ok,
    vanishes_at_golden_unit).

    Entry (i, j) of the matrix is A_{4-j} (zeta^i)^(4-j), so column j is
    A_{4-j} times a column of the Vandermonde matrix in 1, zeta, ..., zeta^4
    taken in reverse order.  Reversing five columns is an even permutation,
    so det D = A_4 A_3 A_2 A_1 A_0 V with V = vandermonde_zeta5()."""
    a = CycloElem.sqrt5()
    A4, A3, A2, A1, A0 = torsion_A_coeffs()
    det = A4 * A3 * A2 * A1 * A0 * vandermonde_zeta5()

    f1 = Poly((a - 1, -2))       # -2b - 1 + alpha
    f2 = Poly((a + 1, 2))        # 2b + alpha + 1
    f3 = Poly((5 * a + 11, 2))   # 2b + 11 + 5 alpha
    f4 = Poly((a + 2, -1))       # -b + 2 + alpha
    f5 = Poly((5 * a - 11, -2))  # -2b - 11 + 5 alpha
    core = A0 * f1 * f2 * f3 * f4 * f5**4
    closed = core * (a * Fraction(-25, 8))
    closed_ok = det == closed or det == -closed

    conj = core.map_coeffs(lambda c: c.galois(2))  # alpha -> -alpha
    product = core * conj
    printed = (
        Poly((-1, -4, 1))
        * Poly((1, 18, 4, 7, 1))
        * Poly((-1, 11, 1)) ** 5
        * Poly((-1, 1, 1)) ** 2
        * 2**16
    )
    printed_c = lift_to_cyclo(printed)
    conj_ok = product == printed_c or product == -printed_c

    vanishes = not det(golden_unit())
    return closed_ok, conj_ok, vanishes


# ---------------------------------------------------------------------------
# tau(b), phi(b), the 5-isogeny, and the two j-invariant forms
# ---------------------------------------------------------------------------


def verify_j_forms() -> bool:
    """Both j-invariant rational functions of b collapse to the forms in
    z = b - 1/b that run_pipeline composes H with."""
    z_of_b = RatFunc(Poly((-1, 0, 1)), Poly.x())
    ok5 = RatFunc(J5Z_NUM, J5Z_DEN).substitute(z_of_b) == RatFunc(J5_NUM, J5_DEN)
    ok55 = RatFunc(J55Z_NUM, J55Z_DEN).substitute(z_of_b) == RatFunc(J55_NUM, J55_DEN)
    return ok5 and ok55


def _compose(m, n):
    """The matrix product m n, the map m after n, of maps (a, b, c, d) with
    entries in Z[sqrt5] as pairs (x, y) = x + y sqrt5."""
    def dot(x, y, u, v):
        (p, q), (r, s) = times_sqrt5(x, y), times_sqrt5(u, v)
        return p + r, q + s
    a, b, c, d = m
    e, f, g, h = n
    return dot(a, e, b, g), dot(a, f, b, h), dot(c, e, d, g), dot(c, f, d, h)


def _same_map(m, n):
    """m and n are the same Moebius map: m is not zero and is proportional
    to n, that is every cross product m_i n_j - m_j n_i is zero."""
    return any(map(any, m)) and all(times_sqrt5(x, v) == times_sqrt5(y, u)
                                    for (x, u), (y, v) in combinations(zip(m, n), 2))


def tau_and_isogeny_checks():
    """Exact checks on the involution tau(b) = (-b + eps^5)/(eps^5 b + 1)
    (pipeline.TAU, cleared by 2): (i) j5(tau(b)) = j55(b); (ii) tau is an
    involution; (iii) phi(tau(b)) = 1/(eps^5 b); (iv) the isogeny X-map has
    poles exactly at {0, -b1}; (v) the two closed forms of phi(b) agree.
    Returns a dict of booleans.

    (ii), (iii) and (v) are identities of Moebius maps, proven on their
    matrices over Z[sqrt5] by matrix products (_compose) and projective
    equality (_same_map).  (i) reads
    J5_NUM|TAU J55_DEN = J55_NUM J5_DEN|TAU, both pullbacks read as forms
    of degree 12, proven at the one point z0 = 2^s as in
    pipeline.is_fixed_by: with M = max(nu(a) + nu(b), nu(c) + nu(d)) = 28
    and l(P) the sum of |p_k|, every coordinate of every coefficient of the
    difference is at most B = M^12 (l(J5_NUM) l(J55_DEN) + l(J5_DEN)
    l(J55_NUM)), and 2^s > B."""
    e5 = TAU[1]  # 2 eps^5
    minus_e5bar = -e5[0], e5[1]  # -2 epsbar^5
    out = {}
    ell = [sum(map(abs, P.coeffs)) for P in (J5_NUM, J5_DEN, J55_NUM, J55_DEN)]
    nu = sqrt5_size
    M = max(nu(TAU[0]) + nu(TAU[1]), nu(TAU[2]) + nu(TAU[3]))
    z0 = 1 << (M**12 * (ell[0] * ell[3] + ell[1] * ell[2])).bit_length()
    lhs = (x * J55_DEN(z0) for x in pullback_at(J5_NUM, 12, TAU, z0))
    rhs = (J55_NUM(z0) * x for x in pullback_at(J5_DEN, 12, TAU, z0))
    out["j5_tau_is_j55"] = tuple(lhs) == tuple(rhs)

    out["tau_involution"] = _same_map(_compose(TAU, TAU), ((1, 0), (0, 0), (0, 0), (1, 0)))

    phi = ((2, 0), minus_e5bar, (-2, 0), e5)  # (b - epsbar^5)/(eps^5 - b)
    out["phi_tau"] = _same_map(_compose(phi, TAU), ((0, 0), (2, 0), e5, (0, 0)))

    phi_other = ((2, 0), (11, 5), (-2, 0), (-11, 5))
    out["phi_two_forms"] = _same_map(phi, phi_other)

    # isogeny X-coordinate: numerator in x with Poly-in-b1 coefficients
    b1 = Poly.x()
    num = Poly((
        b1**4,
        3 * b1**3 + b1**4,
        3 * b1**2 + b1**3,
        b1 - b1**2 - b1**3,
        Poly(),
        Poly((1,)),
    ))
    at0 = num.coeffs[0]
    at_minus_b1 = num(-b1)
    out["isogeny_pole_at_0"] = at0 == b1**4 and bool(at0)
    out["isogeny_pole_at_minus_b1"] = bool(at_minus_b1)
    return out


# ---------------------------------------------------------------------------
# numeric verifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class C5Report:
    d: int
    residual_bits: int  # -log2 of the quintic-equation residual
    p_at_X_ok: bool
    zeta_index: int  # the unique j with p(zeta^j Y) ~ 0
    xi5_is_tau_eta5: bool

    @property
    def all_ok(self):
        return self.p_at_X_ok and 1 <= self.zeta_index <= 4 and self.xi5_is_tau_eta5


def verify_C5_solution(d: int, prec: int = 512) -> C5Report:
    """X = r(w/5), Y = r(-1/w) satisfy X^5 + Y^5 = eps^5 (1 - X^5 Y^5);
    X is a root of p_d and exactly one of zeta^j Y (j = 1..4) is too, for a
    d tabulated in tables.P_TABLE."""
    if d not in tables.P_TABLE:
        raise CurveError(f"d = {d} is not tabulated: tables.P_TABLE has no p_d")
    p = Poly(tables.P_TABLE[d])
    v, _ = choose_v(d, reduced_forms(d).f)
    with mp.workprec(prec + 64):
        w = (v + mpmath.sqrt(mpc(-d))) / 2
        X = rr_r(w / 5, prec)
        Y = rr_r(-1 / w, prec)
        eps5 = ((-1 + mpmath.sqrt(5)) / 2) ** 5
        residual = abs(X**5 + Y**5 - eps5 * (1 - X**5 * Y**5))
        res_bits = int(-mpmath.log(residual, 2)) if residual > 0 else prec
        tol = mpf(2) ** (-(prec // 2))
        p_ok = abs(p(X)) < tol
        zeta = mpmath.exp(2j * mp.pi / 5)
        hits = [j for j in range(1, 5) if abs(p(zeta**j * Y)) < tol]
        j_idx = hits[0] if len(hits) == 1 else 0
        # xi^5 = tau(eta^5) with eta = X, xi = zeta^j Y: fifth powers kill zeta
        b = X**5
        tau_b = (-b + eps5) / (eps5 * b + 1)
        xi5_ok = abs(Y**5 - tau_b) < tol * max(1, abs(tau_b))
    return C5Report(d=d, residual_bits=res_bits, p_at_X_ok=p_ok,
                    zeta_index=j_idx, xi5_is_tau_eta5=xi5_ok)


def verify_duke_identities(tau_samples) -> bool:
    """Three transformation laws of r(tau), checked numerically at 192 bits:
    the level-5 Fricke relation for r^5, the full Fricke relation via T,
    and the degree-1 eta-quotient identity."""
    prec = 192
    with mp.workprec(prec + 64):
        tol = mpf(2) ** (-(prec - 32))
        for tau in tau_samples:
            tau = mpc(tau)
            r, laws = r_transformation_laws(tau, prec + 32)
            if any(abs(lhs - rhs) > tol * max(1, abs(rhs)) for lhs, rhs in laws):
                return False
            lhs3 = 1 / r - 1 - r
            rhs3 = eta(tau / 5, prec + 32) / eta(5 * tau, prec + 32)
            if abs(lhs3 - rhs3) > tol * max(1, abs(rhs3)):
                return False
    return True
