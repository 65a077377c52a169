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
from functools import lru_cache, reduce
from math import isqrt

from .classdata import choose_v, n_system, reduced_forms
from .exactmath import ExactDomainError, Poly, poly_compose_rational, poly_discriminant
from .hpnum import (
    PrecisionError,
    PrecisionPolicy,
    check_j_by_r,
    climb,
    eta_parts,
    fixed_div,
    fixed_mul,
    fixed_pow,
    j_from_c,
    reconstruct_int_poly,
)


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


def heegner_values(ws, prec: int):
    """z, s and j at each Heegner argument w in ws, from one exp per w, as
    pairs at scale 2^(prec + 64): t = e^(2 pi i w/25) gives q(w/25) = t,
    q(w/5) = t^5 and q(w) = t^25, and F_k = prod_{m>=1} (1 - q(w/k)^m) at
    each (eta_parts).  Since eta(w/k) = e^(2 pi i w/(24 k)) F_k, the eta
    prefactors cancel to powers of t:

        c = (eta(w/5)/eta(w))^6 = F5^6 / (F1^6 t^5),   z = -11 - c,
        s = -1 - eta(w/25)/eta(w) = -1 - F25 / (t F1),
        j = (c^2 + 10 c + 5)^3 / c   (j_from_c).

    t and the F_k come cut to prec significant bits in each part, before
    they are combined.  The products run at the scale eta_parts returns, over
    prec + 64 bits; one of modulus 2^-k keeps k bits fewer, and at d <= 2000
    k stays below 42 (F5^6 and t^5).  Returns (zs, ss, js); zs and ss
    also carry the complex conjugates, the other h roots of R and S.
    """
    w_bits = prec + 64
    one = 1 << w_bits
    zs, ss, js = [], [], []
    for w in ws:
        bits, t, (F25, F5, F1) = eta_parts(w, 25, (1, 5, 25), prec)
        c, j = j_from_c(fixed_pow(F5, 6, bits),
                        fixed_mul(fixed_pow(F1, 6, bits), fixed_pow(t, 5, bits), bits),
                        w_bits)
        qr, qi = fixed_div(F25, fixed_mul(t, F1, bits), w_bits)
        zs.append((-11 * one - c[0], -c[1]))
        ss.append((-one - qr, -qi))
        js.append(j)
    return (zs + [(re, -im) for re, im in zs], ss + [(re, -im) for re, im in ss], js)


def _heegner_ws(args, prec: int):
    """The Heegner argument w of each HeegnerArg, to prec + 64 bits."""
    return [arg.w(prec + 64) for arg in args]


def compute_z_values(args, prec: int):
    """z(w) = -11 - (eta(w/5)/eta(w))^6 at each argument, plus conjugates."""
    return heegner_values(_heegner_ws(args, prec), prec)[0]


def compute_s_values(args, prec: int):
    """s(w) = -1 - eta(w/25)/eta(w) at each argument, plus conjugates.  Their
    link z = phi(s) = s^5 + 5 s^3 + 5 s is proven by p | Q(x^5), as
    x^5 - x^-5 = phi(x - 1/x)."""
    return heegner_values(_heegner_ws(args, prec), prec)[1]


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


def build_F_G(H: Poly, h: int) -> Poly:
    """G(x^5) = x^{5h} (1-11x^5-x^10)^{5h} H(j55(x^5)) of degree 60h.  Its
    partner F(x) = x^{5h} (1-11x-x^2)^h H(j5(x)) is
    poly_compose_rational(H, J5_NUM, J5_DEN, h); no caller needs it.  The
    name stays, since perfbench/tracer.py times pipeline.build_F_G."""
    if h != H.degree:
        raise PipelineIntegrityError("h must equal deg H")
    return poly_compose_rational(H, J55_NUM, J55_DEN, h).subst_x_pow(5)


def z_plane_checks(H: Poly, R: Poly, h: int):
    """(R | F_z, R | G_z) for F_z = (-(z+11))^h H(j5(z)) and
    G_z = (-(z+11)^5)^h H(j55(z)), each of degree 6h; they prove Q | F and
    p | G(x^5) for the F and G of build_F_G."""
    return (R.divides(poly_compose_rational(H, J5Z_NUM, J5Z_DEN, h)),
            R.divides(poly_compose_rational(H, J55Z_NUM, J55Z_DEN, h)))


# Moebius maps z -> (az + b)/(cz + d) as (a, b, c, d), each entry a pair (x, y)
# = x + y sqrt5: T, with r(-1/tau) = T(r(tau)), and Cor. 4.2's (-11z + 4)/(z + 11)
T = ((-1, -1), (2, 0), (2, 0), (1, 1))
COR42 = ((-11, 0), (4, 0), (1, 0), (11, 0))


def _times_sqrt5(a, b):
    """(a0 + a1 sqrt5)(b0 + b1 sqrt5) on coordinate pairs."""
    return a[0] * b[0] + 5 * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def pullback_values(P: Poly, n: int, m):
    """(cz+d)^n P((az+b)/(cz+d)) at z = 0..n, for m = (a, b, c, d) with
    entries in Z[sqrt5]: the pullback P|m of P, read as a form of degree
    n >= deg P, as a homogeneous Horner pass on pairs (x, y) = x + y sqrt5.
    These n + 1 values fix P|m."""
    if P.degree > n:
        raise ExactDomainError(f"degree {P.degree} exceeds the form degree {n}")
    (a0, a1), (b0, b1), (c0, c1), (d0, d1) = m
    cs = P.coeffs + (0,) * (n - P.degree)
    out = []
    for z in range(n + 1):
        N, D = (a0 * z + b0, a1 * z + b1), (c0 * z + d0, c1 * z + d1)
        acc, D_pow = (cs[-1], 0), (1, 0)
        for c in reversed(cs[:-1]):
            D_pow = _times_sqrt5(D_pow, D)
            x, y = _times_sqrt5(acc, N)
            acc = x + c * D_pow[0], y + c * D_pow[1]
        out.append(acc)
    return out


def _pulls_back_to(P: Poly, m, lam) -> bool:
    """P|m = lam P, n = deg P, for lam in Z[sqrt5]: both sides are
    polynomials in z of degree at most n, so they are equal once they agree
    at z = 0..n (pullback_values)."""
    n = P.degree
    return all(t == (lam[0] * pz, lam[1] * pz)
               for t, pz in zip(pullback_values(P, n, m), map(P, range(n + 1))))


def verify_cor42(R: Poly, h: int) -> bool:
    """(z+11)^n R((-11z+4)/(z+11)) = 5^{3h} R(z), n = deg R: R|COR42 = 5^{3h} R
    (_pulls_back_to)."""
    return _pulls_back_to(R, COR42, (5 ** (3 * h), 0))


def verify_T_invariance(p: Poly, h: int) -> bool:
    """p|T = 2^{2h} (5+sqrt5)^{2h} p = (120 + 40 sqrt5)^h p over Q(sqrt5), read
    at n = deg p (_pulls_back_to)."""
    return _pulls_back_to(p, T, reduce(_times_sqrt5, [(120, 40)] * h, (1, 0)))


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


def disc_conjecture_check(S: Poly, d: int, h: int) -> DiscReport:
    """Factor disc(p) for p(x) = x^m S(x - 1/x), m = deg S.

    Each root s of S gives the roots x, -1/x of p, with (x + 1/x)^2 = s^2 + 4;
    the four differences between two such pairs multiply to -(s_k - s_l)^2.
    So disc(p) = disc(S)^2 * prod (s_k^2 + 4) = disc(S)^2 * |S(2i)|^2, for
    any leading coefficient of S.
    """
    re, im = 0, 0  # S(2i) by Horner over the Gaussian integers
    for c in reversed(S.coeffs):
        re, im = c - 2 * im, 2 * re
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
    exact_ok = all(fdict.get(q, 0) == 2 * h for q in primes[:bisect_right(primes, d)]
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


def run_pipeline(d: int, policy: PrecisionPolicy | None = None) -> PipelineResult:
    """The whole tower for d.  H, R and S are reconstructed in one precision
    ladder from the values of heegner_values; unless the policy names its
    first step, climb sizes it from j at the Heegner arguments in double
    precision."""
    if d == 4:
        raise PipelineIntegrityError(
            "d = 4 produces square factors; use the cyclotomic corpus instead"
        )
    cd, v, relaxed, args = _heegner_args(d)
    h = cd.h

    def step(bits):
        ws = _heegner_ws(args, bits)
        zs, ss, js = heegner_values(ws, bits)
        for w, j in zip(ws, js):
            check_j_by_r(j, w, bits)
        H, R, S = (Poly(reconstruct_int_poly(roots, bits)) for roots in (js, zs, ss))
        try:
            Q = build_Q(R)
            p, q = build_p_q(S, Q)
        except PipelineIntegrityError as exc:
            raise PrecisionError(str(exc)) from exc
        return bits, H, R, S, Q, p, q

    used, H, R, S, Q, p, q = climb(policy, step, [arg.w(53) for arg in args],
                                   f"pipeline for d={d}")

    if p.degree != 4 * h or q.degree != 16 * h:
        raise PipelineIntegrityError("degree bookkeeping failed")
    if abs(p.coeffs[0]) != 1:
        raise PipelineIntegrityError("constant term of p is not a unit")
    if not (_antipalindromic(p) and _antipalindromic(q) and _antipalindromic(Q.subst_x_pow(5))):
        raise PipelineIntegrityError("anti-palindromic symmetry violated")

    F_check, G_check = z_plane_checks(H, R, h)
    cor42 = verify_cor42(R, h)
    t_check = verify_T_invariance(p, h)
    report = disc_conjecture_check(S, d, h)

    return PipelineResult(
        d=d, f=cd.f, h=h, v=v, v_relaxed=relaxed,
        H=H, R=R, S=S, Q=Q, p=p, q=q,
        F_check=F_check, G_check=G_check, cor42_check=cor42, T_check=t_check,
        disc_report=report, precision_used=used,
    )
