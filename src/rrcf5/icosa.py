"""The order-60 Moebius group generated by S(z) = zeta_5 z and T (pipeline.T,
over Q(sqrt5)), its invariant f5 = j55(x^5), the
stabilizer and orbit size of a minimal polynomial (witnesses mod a prime for
non-members), the exact Q(zeta_20) corpus for d = 4 (computed in
Q[x]/Phi_20), the checks of the two worked radical examples, and the exact
proof that no fixed point of T is a root of a tabulated p_d."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from operator import mul

import mpmath
from mpmath import mp, mpc, mpf

from . import tables
from .exactmath import (
    CycloElem,
    ExactDomainError,
    MoebiusMap,
    Poly,
    in_stabilizer,
    lift_to_cyclo,
    poly_discriminant,
    poly_resultant,
)
from .hpnum import rr_r
from .pipeline import J55_DEN, J55_NUM, T, build_F_G, is_fixed_by, lift_through_x_minus_inv


class IcosaError(ExactDomainError):
    """A failed exact computation here: an ExactDomainError, so cli.main exits 1."""


def S_map() -> MoebiusMap:
    return MoebiusMap(CycloElem.zeta(), 0, 0, 1)


def T_map() -> MoebiusMap:
    s5 = CycloElem.sqrt5()
    return MoebiusMap(*(x + y * s5 for x, y in T))


def U_map() -> MoebiusMap:
    return MoebiusMap(0, -1, 1, 0)


def T2_map() -> MoebiusMap:
    """T with sqrt5 -> -sqrt5 (zeta_5 -> zeta_5^2)."""
    return MoebiusMap(*(e.galois(2) for e in T_map().entries()))


def generate_g60() -> tuple:
    """The 60 maps of the closure of {S, T} under composition; the closure
    must stop at 60 elements."""
    S, T = S_map(), T_map()
    seen = {MoebiusMap.identity(), S, T}
    frontier = [S, T]
    while frontier:
        nxt = []
        for m in frontier:
            for g in (S, T):
                prod = m * g
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > 60:
                        raise IcosaError("closure exceeded 60 elements")
        frontier = nxt
    if len(seen) != 60:
        raise IcosaError(f"closure stopped at {len(seen)} elements")
    return tuple(seen)


# f5(x) = j55(x^5) = F5_NUM / F5_DEN, both read as forms of degree 60
F5_NUM, F5_DEN = J55_NUM.subst_x_pow(5), J55_DEN.subst_x_pow(5)


def _f5_invariant(A: Poly, B: Poly) -> bool:
    """A/B, for A and B read as forms of degree 60, is invariant under S: every
    exponent is a multiple of 5; and under T: both forms are fixed by T,
    P|T = (10 + 2 sqrt5)^30 P (is_fixed_by)."""
    if any(k % 5 for P in (A, B) for k, c in enumerate(P.coeffs) if c):
        return False
    return is_fixed_by(A, T, 60) and is_fixed_by(B, T, 60)


def verify_f5_invariance() -> bool:
    """f5 is invariant under S and T (_f5_invariant), hence under the group,
    and not under a translation.  The common multiplier gives
    G_d(x^5)|g = lam_g^h G_d(x^5), so p | G_d(x^5) carries over to every
    orbit image of p."""
    A, B = F5_NUM, F5_DEN
    shifted = any(A(z + 1) * B(z) != B(z + 1) * A(z) for z in range(61))
    return shifted and _f5_invariant(A, B)


# zeta_5 -> OMEGA, of order 5 mod the prime ELL = 1 (mod 5), maps every
# element of Q(zeta_5) whose denominator is prime to ELL into F_ELL
ELL = 1_000_081
OMEGA = pow(3, (ELL - 1) // 5, ELL)


def unwitnessed(elements, p: Poly) -> list:
    """The maps m = (a, b, c, d) without a witness that p o m is not
    proportional to the integer polynomial p of degree n.  The witness is
    P_m(3) P(7) - P_m(7) P(3) != 0 mod ELL, for P = p and
    P_m(x) = sum p_k (ax+b)^k (cx+d)^(n-k) the pullback: proportional P_m and
    P make it 0 in Q(zeta_5), hence 0 mod ELL.  A map with an entry that does
    not reduce mod ELL has no witness."""
    n, p3, p7 = p.degree, p(3) % ELL, p(7) % ELL
    powers = [pow(OMEGA, k, ELL) for k in range(4)]  # the images of zeta_5^k
    out = []
    for m in elements:
        if any(not e.den % ELL for e in m.entries()):
            out.append(m)
            continue
        a, b, c, d = (sum(map(mul, e.nums, powers)) * pow(e.den, -1, ELL)
                      for e in m.entries())
        # pow sums, not binary_form: three-argument pow keeps every product
        # below ELL^2, and binary_form on 1-tuples mod ELL took twice as long
        m3, m7 = (sum(pk * pow(a * x + b, k, ELL) * pow(c * x + d, n - k, ELL)
                      for k, pk in enumerate(p.coeffs)) for x in (3, 7))
        if not (m3 * p7 - m7 * p3) % ELL:
            out.append(m)
    return out


def orbit_and_stabilizer(p: Poly, group: tuple, Gd5: Poly):
    """(orbit size, stabilizer) of the integer polynomial p, which must divide
    Gd5 over Z.  in_stabilizer decides each unwitnessed map at one point over
    Z[zeta_5]; the others are not in the stabilizer.  The orbit size is the
    index."""
    if not p.divides(Gd5):
        raise IcosaError("p does not divide G_d(x^5)")
    stabilizer = frozenset(m for m in unwitnessed(group, p) if in_stabilizer(m, p))
    return len(group) // len(stabilizer), stabilizer


def expected_stabilizer() -> frozenset:
    return frozenset((MoebiusMap.identity(), T_map(), U_map(), T2_map()))


def group_structure_report(group: tuple) -> dict:
    """The printed relations among S, T, U, T2, and the order census."""
    S, T, U, T2 = S_map(), T_map(), U_map(), T2_map()
    zeta = CycloElem.zeta()
    out = {}
    S2, S3 = S * S, S * S * S
    out["U_from_generators"] = (T * S2 * T * S3 * T * S2) == U
    out["orders"] = (S.element_order(), T.element_order(), U.element_order(),
                     T2.element_order()) == (5, 2, 2, 2)
    out["klein_four"] = T * U == T2 and U * T == T2 and T2 * T2 == MoebiusMap.identity()
    conj = S.inverse() * U * S
    out["conjugate_is_printed"] = conj == MoebiusMap(0, -(zeta**3), 1, 0)
    out["conjugate_not_in_H"] = conj not in expected_stabilizer()
    out["census"] = Counter(m.element_order() for m in group) == {1: 1, 2: 15, 3: 20, 5: 24}
    return out


# ---------------------------------------------------------------------------
# the d = 4 cyclotomic corpus
# ---------------------------------------------------------------------------


# Q(zeta_20) = Q[x]/PHI20 with zeta_20 -> x: an element with power-basis
# coordinates (c_0, ..., c_7) is the polynomial sum c_k x^k
PHI20 = Poly((1, 0, -1, 0, 1, 0, -1, 0, 1))


def verify_d4_corpus() -> dict:
    """All exact Q(zeta_20) facts for the degenerate discriminant d = 4.  An
    identity among elements of Q(zeta_20) holds exactly when PHI20 divides
    the difference of its sides as polynomials; in particular alpha is a
    root of f exactly when PHI20 divides f(alpha)."""
    out = {}
    H4 = Poly(tables.H_TABLE[4])
    Gx5 = build_F_G(H4)
    printed = Poly((1,))
    for fac in tables.G4_FACTORS:
        printed = printed * Poly(fac) ** 2
    out["G4_printed_product"] = Gx5 == printed

    # Q_4(x^5) = x^10 + 1 = (x^2+1) PHI20
    out["Q4_factorization"] = Poly((1, 0, 1)).subst_x_pow(5) == Poly((1, 0, 1)) * PHI20

    # x_1, x_2, x_3 are roots of the quartic and the two octic factors
    out["G4_factor_roots"] = all(
        PHI20.divides(Poly(fac)(Poly(coords)))
        for coords, fac in zip(tables.G4_FACTOR_ROOTS_Z20, tables.G4_FACTORS[1:]))

    # the quartic square factor f_4 of F_4 and its four zeta_20 roots
    f4 = Poly(tables.F4_FACTORS[1])
    alphas = [Poly(c) for c in tables.F4_QUARTIC_ROOTS_Z20]
    out["f4_roots"] = all(PHI20.divides(f4(a)) for a in alphas)

    # fifth-power relations among the roots
    a1, a2, a3, a4 = alphas
    w12, _, w14 = tables.F4_FIFTH_POWER_BASES
    out["fifth_power_a1a22"] = PHI20.divides(a1 * a2 * a2 - Poly(w12) ** 5)
    out["a1a3_is_minus_one"] = PHI20.divides(a1 * a3 + 1)
    out["fifth_power_a1a43"] = PHI20.divides(a1 * a4**3 - Poly(w14) ** 5)

    # disc(f_4(x^5)) = 2^40 3^20 5^35
    disc = poly_discriminant(Poly(tables.F4_FACTORS[1]).subst_x_pow(5))
    out["disc_f4_x5"] = disc == 2**40 * 3**20 * 5**35
    return out


# ---------------------------------------------------------------------------
# the two worked radical examples
# ---------------------------------------------------------------------------


# working bits of the numeric example checks, whose tolerance is 10^-60
EXAMPLES_PREC = 384


def nested_radical_example1():
    """The real value (-8-3s5-sqrt(125+60 s5)+sqrt(250+108 s5+(16+6 s5)
    sqrt(125+60 s5)))/4, taking the positive branch of every radical."""
    with mp.workprec(EXAMPLES_PREC):
        s5 = mpmath.sqrt(mpf(5))
        t = mpmath.sqrt(125 + 60 * s5)
        inner = mpmath.sqrt(250 + 108 * s5 + (16 + 6 * s5) * t)
        return (-8 - 3 * s5 - t + inner) / 4


def ramanujan_r3i():
    """sqrt(c^2+1) - c with 2c = sqrt5 (q+2-sqrt3+sqrt5)/(q-2+sqrt3-sqrt5) + 1,
    q = 60^(1/4)."""
    with mp.workprec(EXAMPLES_PREC):
        s3, s5 = mpmath.sqrt(mpf(3)), mpmath.sqrt(mpf(5))
        q = mpf(60) ** Fraction(1, 4)
        c = (s5 * (q + 2 - s3 + s5) / (q - 2 + s3 - s5) + 1) / 2
        return mpmath.sqrt(c * c + 1) - c


def t_fixed_point_check(ds) -> bool:
    """No fixed point of T is a root of p_d for any d in ds.  The fixed
    points of T = (az + b)/(cz + d) are the roots of c z^2 + (d - a) z - b
    = rat(z) + irr(z) sqrt5, so it suffices that p_d is prime to the norm
    rat^2 - 5 irr^2 = 4 (z^4 + 2z^3 - 6z^2 - 2z + 1) of that quadratic to Q:
    that their resultant, taken on the integer subresultant PRS, is not 0."""
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = T
    rat, irr = Poly((-b0, d0 - a0, c0)), Poly((-b1, d1 - a1, c1))
    norm = rat * rat - irr * irr * 5
    return all(poly_resultant(Poly(tables.P_TABLE[k]), norm) != 0 for k in ds)


def verify_worked_examples() -> dict:
    """Exact and numeric checks for the two worked examples (d = 19, 36)."""
    out = {}
    tol = mpf(10) ** (-60)

    # Example 1: the nested radical is a root of the printed degree-8 poly
    with mp.workprec(EXAMPLES_PREC):
        alpha = nested_radical_example1()
        out["ex1_radical_root"] = abs(Poly(tables.P19_TILDE_NEG)(alpha)) < tol

        # -alpha is a root of q_19(T(zeta^2 x))
        zeta = mpmath.exp(2j * mp.pi / 5)
        s5 = mpmath.sqrt(mpf(5))
        a, b, c, d = (x + y * s5 for x, y in T)
        arg = zeta**2 * (-alpha)
        val = (a * arg + b) / (c * arg + d)
        out["ex1_q19_root"] = abs(Poly(tables.Q19_COFACTOR)(val)) < tol

    # ptilde_19(x) divides G_19(x^5) exactly over Q
    ptilde = Poly([(-1) ** k * c for k, c in enumerate(tables.P19_TILDE_NEG)])
    G19x5 = build_F_G(Poly(tables.H_TABLE[19]))
    out["ex1_ptilde_divides_G19"] = ptilde.divides(G19x5)

    # Example 2: r(3i) equals the Ramanujan radical
    with mp.workprec(EXAMPLES_PREC):
        r3i = rr_r(mpc(0, 3), EXAMPLES_PREC)
        out["ex2_r3i_radical"] = abs(r3i - ramanujan_r3i()) < tol
        out["ex2_r3i_min_poly"] = abs(Poly(tables.M36)(r3i)) < tol

    # m(x) divides G_36(x^5) exactly
    m = Poly(tables.M36)
    G36x5 = build_F_G(Poly(tables.H_TABLE[36]))
    out["ex2_m_divides_G36"] = m.divides(G36x5)

    # m = m1 * conj(m1) over Q(sqrt5)
    s5e = CycloElem.sqrt5()

    def sqrt5_poly(pairs):
        return Poly([r + s * s5e for r, s in pairs])

    m1 = sqrt5_poly(tables.M36_FACTOR_SQRT5)
    out["ex2_m1_conj_product"] = m1 * m1.map_coeffs(lambda c: c.galois(2)) == lift_to_cyclo(m)

    # m1(x) = x^4 m2(x - 1/x)
    m2 = sqrt5_poly(tables.M36_QUARTIC_SQRT5)
    out["ex2_m1_from_m2"] = lift_through_x_minus_inv(m2) == m1

    # m2 = (x^2 + (19+11s5)/2 x + (27+11s5)/2)^2 - 75 ((1+s5)/2)^4 (x+1)^2
    half = Fraction(1, 2)
    A = Poly(((27 + 11 * s5e) * half, (19 + 11 * s5e) * half, 1))
    B = Poly((1, 1))
    eps4 = ((1 + s5e) * half) ** 4
    out["ex2_m2_difference_of_squares"] = A * A - B * B * (75 * eps4) == m2

    # the T fixed point avoids every tabulated p_d
    out["t_fixed_point_never_root"] = t_fixed_point_check(sorted(tables.P_TABLE))
    return out
