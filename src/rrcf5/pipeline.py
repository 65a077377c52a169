"""The polynomial tower for an admissible discriminant -d: conjugate eta
quotient values, their integer minimal polynomials R_d and S_d, the lifted
polynomials Q_d, p_d, q_d, the class-equation composites F_z and G_z (H_{-d}
at j5 and j55 written in z), exact invariance identities, and the
discriminant factorization report.

The lift P -> x^deg(P) P(x - 1/x) is multiplicative and takes R to Q, S to p
and F_z, G_z to F and G, the composites in x (build_F_G returns G(x^5)).  So
R | F_z proves Q | F, and R | G_z with p | Q(x^5) proves p | G(x^5)."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .classdata import ClassDataError, check_discriminant, choose_v, n_system, reduced_forms
from .exactmath import (ExactDomainError, Poly, binary_form, poly_compose_rational,
                        poly_discriminant, powers, sqrt5_size, times_sqrt5)
from .hpnum import PrecisionError, PrecisionPolicy, climb, heegner_values, reconstruct_int_poly


class PipelineIntegrityError(RuntimeError):
    """A certified exactness check failed; names the failing stage."""


# j-invariant of the 5-isogeny pair as rational functions of b
# (numerator/denominator pairs, coefficients lowest degree first)
J5_NUM = Poly((1, -12, 14, 12, 1)) ** 3
J5_DEN = Poly((0, 0, 0, 0, 0, 1)) * Poly((1, -11, -1))
J55_NUM = Poly((1, 228, 494, -228, 1)) ** 3
J55_DEN = Poly((0, 1)) * Poly((1, -11, -1)) ** 5

# the same pair in z = b - 1/b: j5 = -A^3/(z+11), j55 = -B^3/(z+11)^5
A = Poly((16, 12, 1))
B = Poly((496, -228, 1))
J5Z_NUM, J5Z_DEN = A**3, -Poly((11, 1))
J55Z_NUM, J55Z_DEN = B**3, -Poly((11, 1)) ** 5


def _heegner_roots(args):
    """t = e^(2 pi i w/25) for the Heegner argument w of each HeegnerArg,
    taken from the form's integers; no exp is taken until a sum asks for one."""
    return [arg.root() for arg in args]


def compute_z_values(args, prec: int):
    """z(w) = -11 - (eta(w/5)/eta(w))^6 = b - 1/b, b = r(w/5)^5, from
    heegner_values, so j is checked too.  The name stays, since
    perfbench/tracer.py times pipeline.compute_z_values."""
    return heegner_values(_heegner_roots(args), prec)[0]


def compute_s_values(args, prec: int):
    """s(w) = -1 - eta(w/25)/eta(w) = r - 1/r, r = r(w/5), from
    heegner_values, so j is checked too.  Their link
    z = phi(s) = s^5 + 5 s^3 + 5 s is proven by p | Q(x^5), as
    x^5 - x^-5 = phi(x - 1/x).  The name stays, since perfbench/tracer.py
    times pipeline.compute_s_values."""
    return heegner_values(_heegner_roots(args), prec)[1]


def _heegner_args(d: int):
    cd = reduced_forms(d)
    v, relaxed = choose_v(d, cd.f)
    return cd, v, relaxed, n_system(cd, v)


def lift_through_x_minus_inv(S: Poly) -> Poly:
    """x^deg(S) * S(x - 1/x): doubles the degree, preserves integrality."""
    n = S.degree
    return poly_compose_rational(S, Poly((-1, 0, 1)), Poly((0, 1)), n)


def build_Q(R: Poly) -> Poly:
    """Q(x) = x^{2h} R(x - 1/x); rejects R with zero constant term, which
    would break the anti-palindromic symmetry."""
    if R.is_zero() or not R.coeffs[0]:
        raise PipelineIntegrityError("R must have a nonzero constant term")
    return lift_through_x_minus_inv(R)


def build_p_q(S: Poly, Q: Poly):
    """p(x) = x^{2h} S(x - 1/x) and the exact cofactor q = Q(x^5) / p."""
    p = lift_through_x_minus_inv(S)
    Qx5 = Q.subst_x_pow(5)
    quo, rem = divmod(Qx5, p)
    if not rem.is_zero():
        raise PipelineIntegrityError("p does not divide Q(x^5) exactly")
    if not quo.is_integral():
        raise PipelineIntegrityError("cofactor q is not integral")
    return p, Poly(quo.int_coeffs())


def build_F_G(H: Poly) -> Poly:
    """G(x^5) = x^{5h} (1-11x^5-x^10)^{5h} H(j55(x^5)) of degree 60h,
    h = deg H.  Its partner F(x) = x^{5h} (1-11x-x^2)^h H(j5(x)) is
    poly_compose_rational(H, J5_NUM, J5_DEN, h); no caller needs it.  The
    name stays, since perfbench/tracer.py times pipeline.build_F_G."""
    return poly_compose_rational(H, J55_NUM, J55_DEN, H.degree).subst_x_pow(5)


def z_plane_checks(H: Poly, R: Poly):
    """(R | F_z, R | G_z) for F_z = (-(z+11))^h H(j5(z)) and
    G_z = (-(z+11)^5)^h H(j55(z)), h = deg H, each of degree 6h; they prove
    Q | F and p | G(x^5) for the F and G of build_F_G."""
    h = H.degree
    return (R.divides(poly_compose_rational(H, J5Z_NUM, J5Z_DEN, h)),
            R.divides(poly_compose_rational(H, J55Z_NUM, J55Z_DEN, h)))


# Moebius maps z -> (az + b)/(cz + d) as (a, b, c, d), each entry a pair (x, y)
# = x + y sqrt5: T, with r(-1/tau) = T(r(tau)), Cor. 4.2's (-11z + 4)/(z + 11),
# and the involution tau(b) = (eps^5 - b)/(eps^5 b + 1), eps = (-1 + sqrt5)/2,
# cleared by 2: 2 eps^5 = (-1 + sqrt5)^5 / 16 = -11 + 5 sqrt5
T = ((-1, -1), (2, 0), (2, 0), (1, 1))
COR42 = ((-11, 0), (4, 0), (1, 0), (11, 0))
_TWO_EPS5 = tuple(x >> 4 for x in powers((-1, 1), times_sqrt5)(5))
TAU = ((-2, 0), _TWO_EPS5, _TWO_EPS5, (2, 0))


def pullback_at(P: Poly, n: int, m, z: int):
    """(cz+d)^n P((az+b)/(cz+d)) at one integer z, for m = (a, b, c, d) with
    entries in Z[sqrt5] as pairs (x, y) = x + y sqrt5: the value of the
    pullback P|m of P, read as a form of degree n >= deg P, as a pair.  It is
    sum_k p_k N^k D^(n-k) with N = az + b and D = cz + d (binary_form)."""
    if P.degree > n:
        raise ExactDomainError(f"degree {P.degree} exceeds the form degree {n}")
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = m
    N, D = (a0 * z + b0, a1 * z + b1), (c0 * z + d0, c1 * z + d1)
    cs = [(p, 0) for p in P.coeffs] + [(0, 0)] * (n - P.degree)
    return binary_form(cs, N, D, times_sqrt5)


def is_fixed_by(P: Poly, m, n: int) -> bool:
    """P|m = (-det m)^(n/2) P for an integer P read as a form of degree n and
    m an involution (a + d = 0), proven at the one point z0 = 2^s.

    With d = -a, m^2 = (a^2 + bc) I = -det(m) I, so P|m = lam P forces
    lam^2 P = P|m^2 = (-det m)^n P: lam = +-(-det m)^(n/2), and only the
    sign is a fact to prove.

    Why one point is enough: nu(x + y sqrt5) = |x| + 3|y| bounds both
    coordinates and is submultiplicative, and so is its sum over the
    coefficients of a polynomial.  So every coefficient of
    (az+b)^k (cz+d)^(n-k) has nu at most M^n, M = max(nu(a) + nu(b),
    nu(c) + nu(d)), and every coordinate of every coefficient of
    P|m - lam P is at most B = sum_k |p_k| (M^n + nu(lam)).  Take s with
    2^s > B.  Each coordinate of P|m(z0) - lam P(z0) is an integer
    polynomial in z0 with coefficients of modulus below z0; if it is not
    zero, its value is z0^j (f_j + z0 g(z0)) for its lowest nonzero
    coefficient f_j, and z0 cannot divide f_j, so the value is not zero.
    Hence P|m = lam P once both coordinates vanish at z0.  The left side is
    pullback_at(P, n, m, z0); lam P(z0) is lam times the sum of the shifts
    p_k << (k s).

    Raises ExactDomainError when a + d != 0, n is odd, P is not integral or
    deg P > n."""
    a, b, c, d = m
    if a[0] + d[0] or a[1] + d[1]:
        raise ExactDomainError(f"{m} is not an involution: a + d != 0")
    if n % 2:
        raise ExactDomainError(f"the form degree {n} is odd")
    (x0, x1), (y0, y1) = times_sqrt5(a, a), times_sqrt5(b, c)
    lam = powers((x0 + y0, x1 + y1), times_sqrt5)(n // 2) if n else (1, 0)
    cs = P.int_coeffs()
    nu = sqrt5_size
    M = max(nu(a) + nu(b), nu(c) + nu(d))
    s = (sum(map(abs, cs)) * (M**n + nu(lam))).bit_length()
    x, y = pullback_at(P, n, m, 1 << s)
    Pz = sum(p << (k * s) for k, p in enumerate(cs))
    return x == lam[0] * Pz and y == lam[1] * Pz


def verify_cor42(R: Poly) -> bool:
    """(z+11)^n R((-11z+4)/(z+11)) = 125^h R(z), n = deg R = 2h: R|COR42 =
    5^{3h} R (is_fixed_by)."""
    return is_fixed_by(R, COR42, R.degree)


def verify_T_invariance(p: Poly) -> bool:
    """p|T = (10 + 2 sqrt5)^{2h} p = (120 + 40 sqrt5)^h p over Q(sqrt5),
    read at n = deg p = 4h (is_fixed_by)."""
    return is_fixed_by(p, T, p.degree)


@lru_cache(maxsize=1)
def _primes_up_to(n: int):
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return tuple(i for i in range(2, n + 1) if sieve[i])


@dataclass(frozen=True)
class DiscReport:
    disc: int
    factors: tuple  # ((prime, exponent), ...)
    cofactor: int
    exact_power_ok: bool  # every prime q | d with q > 5 appears to power 2h
    smooth_ok: bool  # no prime factor exceeds d


def disc_conjecture_check(S: Poly, d: int) -> DiscReport:
    """Factor disc(p) for p(x) = x^m S(x - 1/x), m = deg S = 2h.

    Each root s of S gives the roots x, -1/x of p, with (x + 1/x)^2 = s^2 + 4;
    the four differences between two such pairs multiply to -(s_k - s_l)^2.
    So disc(p) = disc(S)^2 * prod (s_k^2 + 4) = disc(S)^2 * |S(2i)|^2, for
    any leading coefficient of S.
    """
    # S(x) = E(x^2) + x O(x^2), so S(2i) = E(-4) + 2i O(-4)
    re, im = Poly(S.coeffs[0::2])(-4), 2 * Poly(S.coeffs[1::2])(-4)
    disc = poly_discriminant(S) ** 2 * (re * re + im * im)
    if isinstance(disc, Fraction):
        assert disc.denominator == 1
        disc = disc.numerator
    n = abs(disc)
    primes = _primes_up_to(max(d, 10_000))  # sieved once for every d <= 10,000
    factors = []
    for q in primes:
        if n == 1:
            break
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            factors.append((q, e))
    fdict = dict(factors)
    # bound >= d, so the sieve holds every prime divisor of d
    exact_ok = all(fdict.get(q, 0) == S.degree for q in primes[:bisect_right(primes, d)]
                   if q > 5 and d % q == 0)
    smooth_ok = n == 1 and all(q <= d for q, _ in factors)
    return DiscReport(
        disc=disc,
        factors=tuple(factors),
        cofactor=n,
        exact_power_ok=exact_ok,
        smooth_ok=smooth_ok,
    )


def _antipalindromic(p: Poly) -> bool:
    n = p.degree
    cs = p.coeffs
    return all(cs[n - k] == (cs[k] if k % 2 == 0 else -cs[k]) for k in range(n + 1))


@dataclass(frozen=True)
class PipelineResult:
    d: int
    f: int
    h: int
    v: int
    v_relaxed: bool
    H: Poly
    R: Poly
    S: Poly
    Q: Poly
    p: Poly
    q: Poly
    F_check: bool
    G_check: bool
    cor42_check: bool
    T_check: bool
    disc_report: DiscReport
    precision_used: int

    @property
    def flags(self) -> dict:
        """Every check's verdict, by the name the CLI reports it under.
        div_check (build_p_q stops the run otherwise) and heegner_check
        (F_check and G_check) are implied; they keep the output format."""
        return {
            "F_check": self.F_check,
            "G_check": self.G_check,
            "div_check": True,
            "cor42_check": self.cor42_check,
            "T_check": self.T_check,
            "heegner_check": self.F_check and self.G_check,
            "disc_exact_power": self.disc_report.exact_power_ok,
            "disc_smooth": self.disc_report.smooth_ok,
        }

    @property
    def all_ok(self) -> bool:
        return all(self.flags.values())


def check_pipeline_d(d: int) -> None:
    """Refuse, before any work, d = 4 and the d that reduced_forms refuses
    (check_discriminant), as bad input (ClassDataError)."""
    if d == 4:
        raise ClassDataError("d = 4 produces square factors; use the cyclotomic corpus instead")
    check_discriminant(d)


def run_pipeline(d: int, policy: PrecisionPolicy | None = None) -> PipelineResult:
    """The whole tower for d.  H, R and S are reconstructed in one precision
    ladder from the checked values of heegner_values; unless the policy
    names its first step, climb sizes it from j at the Heegner arguments in
    double precision."""
    check_pipeline_d(d)
    cd, v, relaxed, args = _heegner_args(d)
    h = cd.h

    def step(bits):
        zs, ss, js = heegner_values(_heegner_roots(args), bits)
        H = Poly(reconstruct_int_poly(js, bits))
        R, S = (Poly(reconstruct_int_poly(roots, bits, conjugates=True)) for roots in (zs, ss))
        try:
            Q = build_Q(R)
            p, q = build_p_q(S, Q)
        except PipelineIntegrityError as exc:
            raise PrecisionError(str(exc)) from exc
        return bits, H, R, S, Q, p, q

    used, H, R, S, Q, p, q = climb(policy, step, [arg.w_double for arg in args],
                                   f"pipeline for d={d}")

    if p.degree != 4 * h or q.degree != 16 * h:
        raise PipelineIntegrityError("degree bookkeeping failed")
    if abs(p.coeffs[0]) != 1:
        raise PipelineIntegrityError("constant term of p is not a unit")
    if not (_antipalindromic(p) and _antipalindromic(q) and _antipalindromic(Q.subst_x_pow(5))):
        raise PipelineIntegrityError("anti-palindromic symmetry violated")

    F_check, G_check = z_plane_checks(H, R)
    cor42 = verify_cor42(R)
    t_check = verify_T_invariance(p)
    report = disc_conjecture_check(S, d)

    return PipelineResult(
        d=d, f=cd.f, h=h, v=v, v_relaxed=relaxed,
        H=H, R=R, S=S, Q=Q, p=p, q=q,
        F_check=F_check, G_check=G_check, cor42_check=cor42, T_check=t_check,
        disc_report=report, precision_used=used,
    )
