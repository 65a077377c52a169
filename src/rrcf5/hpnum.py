"""Arbitrary-precision numerics: Dedekind eta, the Rogers-Ramanujan
continued fraction r(tau) and two of its transformation laws, the modular
j-invariant, reconstruction of integer polynomials from root lists, and the
precision ladder those reconstructions climb.

All precision arguments are in bits.  Everything a ladder reconstructs from
runs on fixed-point Gaussian integers: a value is a pair of ints (re, im)
standing for (re + i im) / 2^bits.  The q-series sums, the values combined
from them, the check of j through r(tau) and the root products all stay on
such pairs.  A ladder's first step is sized without them, from
log2(1 + |j|) at the Heegner arguments in double precision, each argument
first moved into the fundamental domain (log2_one_plus_abs_j).  At a step of
prec bits the values handed to reconstruct_int_poly (z, s and j) are pairs
at scale 2^(prec + 64); the inputs they are combined from are first cut to
prec significant bits in each part (r_parts), the rounding mpc(...) at
workprec(prec) makes, so a step is no more precise than its prec bits.
check_j_by_r tests its bound multiplied through by the denominator, on
squared norms in ints, and reconstruct_int_poly expands its root products
on them.  mpmath computes only the one exp per argument and the values
eta, rr_r and r_transformation_laws return.

Each q-series is summed at a fixed-point power of one root x of q, a QRoot
(x = e^(pi i tau/12) for eta, e^(2 pi i tau/5) for r); at a Heegner
argument w = (b + sqrt(-d))/den it is a HeegnerRoot t = e^(2 pi i w/25),
taken from those integers by mpmath.libmp's real exp and cos-sin, with no
complex w.  The same x is the prefactor, so in a quotient of eta values the
prefactors cancel to an integer power of x.  A QRoot takes its one exp at
the widest bits asked of it so far, and the caller that shares it between
sums sets those bits by the order it sums in.  Both ladders, run_pipeline
(through heegner_values) and class_poly, make one root per Heegner
argument at a step and read it through the checked evaluation j_from_tau,
which sets that order.  Only a sum asking for wider bits than the root's,
a cancellation retry mostly, takes the exp again.  Every public function
sets its own working precision and restores the caller's on exit.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from math import ceil, isqrt, log, log2, pi, sqrt

import mpmath
from mpmath import mp, mpc
from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_cos_sin, mpf_div,
                          mpf_exp, mpf_mul, mpf_pi, mpf_shift, mpf_sqrt, to_fixed)


class PrecisionError(ArithmeticError):
    """Raised when a computation cannot be certified at the working precision."""


# reconstruct_int_poly accepts a coefficient within 2^-ROUND_TOL_BITS of an
# integer.
ROUND_TOL_BITS = 32
# Bits added to the sized step.  A sized step leaves the rounding error about
# 2^-64, far below the 2^-ROUND_TOL_BITS tolerance.
GUARD_BITS = 64


@dataclass(frozen=True)
class PrecisionPolicy:
    """Doubling precision steps from initial_bits up to max_bits; with
    initial_bits None, climb sizes the first step."""

    initial_bits: int | None = None
    max_bits: int = 1 << 20

    def __post_init__(self):
        if (self.initial_bits is not None and self.initial_bits < 1) or self.max_bits < 1:
            raise ValueError(f"precision steps need at least 1 bit: {self}")

    def ladder(self):
        bits = self.initial_bits
        while bits <= self.max_bits:
            yield bits
            bits *= 2


def log2_one_plus_abs_j(tau) -> float:
    """log2(1 + |j(tau)|) in double precision, for Im(tau) > 0.

    tau is first moved into the fundamental domain by tau -> tau - n and
    tau -> -1/tau (j is SL2(Z)-invariant), where Im(tau) >= sqrt(3)/2 and
    |q| < 0.0044.  There j = E4^3 / Delta with
    E4 = 1 + 240 sum n^3 q^n / (1 - q^n) and Delta = q prod (1 - q^n)^24,
    both summed in complex floats down to |q|^n < 2^-60.  The logs are
    combined with log|q| = -2 pi Im(tau) taken as it stands, since q
    underflows a double once Im(tau) passes about 113.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("j needs Im(tau) > 0")
    while True:
        tau -= round(tau.real)
        if abs(tau) >= 1:
            break
        tau = -1 / tau
    y = tau.imag
    q = qn = cmath.exp(2j * pi * tau)
    e4 = prod = 1
    for n in range(1, ceil(60 * log(2) / (2 * pi * y)) + 1):
        e4 += 240 * n**3 * qn / (1 - qn)
        prod *= 1 - qn
        qn *= q
    bits = (3 * log(abs(e4)) + 2 * pi * y - 24 * log(abs(prod))) / log(2)  # log2|j|
    return max(bits, 0) + log2(1 + 2 ** -abs(bits))


def climb(policy: PrecisionPolicy | None, step, taus, what: str):
    """step(bits) at the first step of policy.ladder() where it raises no
    PrecisionError.

    A policy without a first step (None means PrecisionPolicy()) gets one
    from the Heegner arguments taus: sum log2(1 + |j(tau)|) over them
    (log2_one_plus_abs_j), a bound on the bits of the largest coefficient of
    prod (x - j(tau)), plus GUARD_BITS.  The pipeline's z and s are far
    smaller than j (their bound is at least 9 bits below it at every
    admissible d <= 2000); a step too narrow for them fails and the ladder
    doubles.
    """
    policy = policy or PrecisionPolicy()
    if policy.initial_bits is None:
        top = sum(map(log2_one_plus_abs_j, taus))
        policy = replace(policy, initial_bits=ceil(top) + GUARD_BITS)
    last = None
    for bits in policy.ladder():
        try:
            return step(bits)
        except PrecisionError as exc:
            last = exc
    reason = f"last failure: {last}" if last else "the first step is above the ceiling"
    raise PrecisionError(f"{what}: no step from {policy.initial_bits} bits up to the "
                         f"ceiling of {policy.max_bits} bits succeeded; {reason}")


def _fixed(x, w: int):
    """floor(x * 2^w) as an int pair (re, im), from x's own mantissa and exponent."""
    x = mp.convert(x)
    re, im = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)
    return to_fixed(re, w), to_fixed(im, w)


def _to_mpc(x, bits: int):
    """The pair x at scale 2^bits as an mpc, exactly."""
    return mp.make_mpc((from_man_exp(x[0], -bits), from_man_exp(x[1], -bits)))


def _cut(x, prec: int):
    """The pair x with each part rounded to prec significant bits, as
    mpc(...) at workprec(prec) rounds a value (ties go up, not to even)."""
    out = []
    for part in x:
        drop = abs(part).bit_length() - prec
        out.append(part if drop <= 0 else (((part >> (drop - 1)) + 1) >> 1) << drop)
    return tuple(out)


def fixed_mul(x, y, bits: int):
    """floor(x y / 2^bits) in each part: the product of pairs at scales 2^a
    and 2^b, at scale 2^(a + b - bits)."""
    (xr, xi), (yr, yi) = x, y
    return (xr * yr - xi * yi) >> bits, (xr * yi + xi * yr) >> bits


def fixed_div(x, y, bits: int):
    """floor(2^bits x / y) in each part: the quotient of pairs at one scale,
    at scale 2^bits."""
    (xr, xi), (yr, yi) = x, y
    n = yr * yr + yi * yi
    return ((xr * yr + xi * yi) << bits) // n, ((xi * yr - xr * yi) << bits) // n


def fixed_pow(x, n: int, bits: int):
    """x^n, n >= 1, for a fixed-point pair x at bits, by binary powering (not
    exactmath.powers: hpnum imports nothing from the package)."""
    r = x
    for bit in bin(n)[3:]:
        r = fixed_mul(r, r, bits)
        if bit == "1":
            r = fixed_mul(r, x, bits)
    return r


def _bit_length(x) -> int:
    """The bits of the larger part of the pair x."""
    return max(abs(x[0]), abs(x[1])).bit_length()


class QRoot:
    """x = e^(2 pi i tau / k), a k-th root of q = e^(2 pi i tau), for one
    argument tau (an mpc or a complex), by mpmath.exp: k = 24 for eta, 5
    for rr_r, and 25 for the r(tau/5) of r_parts and its check.  The one exp
    is taken at the widest bits asked for so far and reused below them, so
    the q-series that share a root take it once when the widest of them is
    summed first, as j_from_tau orders them.  im is Im(tau) as a float, the
    series' term budget."""

    def __init__(self, tau, k: int):
        self.tau, self.k, self.im = tau, k, float(tau.imag)
        self.bits, self.value = 0, None

    def exp(self, bits: int):
        """x at bits, from mpmath.exp of the complex tau."""
        with mp.workprec(bits):
            return mpmath.exp(2j * mp.pi * self.tau / self.k)

    def at(self, bits: int):
        if bits > self.bits:
            self.value, self.bits = self.exp(bits), bits
        return self.value

    def power(self, n: int):
        """bits -> x^n as a fixed-point pair at bits (the q_at of _jacobi_f)."""
        return lambda bits: fixed_pow(_fixed(self.at(bits), bits), n, bits)


class HeegnerRoot(QRoot):
    """The QRoot at tau = (b + sqrt(-d)) / den, taken from those integers:
    x = e^-y (cos + i sin)(theta) with y = 2 pi sqrt(d) / (den k) and
    theta = 2 pi (b mod den k) / (den k), from one mpf_exp and one
    mpf_cos_sin at wp = bits + 16 bits.  y is off by a few units of y 2^-wp,
    which moves x by |x| y as many, and y e^-y < 1/2; theta, below 2 pi, is
    off by a few units of 2^-(wp - 3).  So x is within about 2^-(bits + 11)
    of e^(2 pi i tau / k), closer than an mpmath.exp at bits bits."""

    def __init__(self, b: int, d: int, den: int, k: int):
        self.b, self.d, self.den, self.k, self.im = b, d, den, k, sqrt(d) / den
        self.bits, self.value = 0, None

    def exp(self, bits: int):
        wp, m = bits + 16, self.den * self.k
        two_pi = mpf_shift(mpf_pi(wp), 1)
        size = mpf_exp(mpf_div(mpf_mul(two_pi, mpf_sqrt(from_int(self.d), wp), wp),
                               from_int(-m), wp), wp)
        cos, sin = mpf_cos_sin(mpf_div(mpf_mul(two_pi, from_int(self.b % m), wp),
                                       from_int(m), wp), wp)
        return mp.make_mpc((mpf_mul(size, cos, wp), mpf_mul(size, sin, wp)))


def _jacobi_f(q_at, im_tau: float, pairs, prec: int):
    """The Jacobi triple products f(-q^a, -q^b), one for each (a, b) in pairs,
    all with the same a + b:

        sum_{n in Z} (-1)^n q^(a n(n+1)/2 + b n(n-1)/2)

    to relative 2^-prec, summed on Gaussian integers scaled by 2^bits, with
    q = e^(2 pi i tau), Im(tau) = im_tau, given by q_at(bits) as such a pair.
    One table q^0 .. q^(a+b) serves every pair.  Every term has modulus at
    most 1, so truncation and rounding errors are absolute: the terms kept are
    those above 2^-(prec + 64 + extra), counted from -log2|q| = 2 pi Im(tau) /
    ln 2 before the sum starts.  Each product rounds down by under 2^-bits per
    part and no factor exceeds 1, so with N terms per side the k-th step
    q^(a k + b (k-1)) is off by O(k) ulps, the k-th term by O(k^2) and the
    sum by O(N^3); bits adds 3 log2 N to prec + 64 + extra for that.  A q
    made as x^n from a root x is off by O(n) ulps itself, which for n <= 25
    costs a few of the 64 guard bits.  A sum
    below 2^-(extra + 32) has lost more bits to cancellation than the guard
    allows for, and every sum is taken again with that many more (twice
    that many when the sum lies within 8 bits of the rounding noise, whose
    size bounds the loss only from below), from a q made again at the wider
    bits (q_at's root takes its exp again only if it was not already taken
    that wide).

    Returns (bits, sums): the sums as pairs at scale 2^bits.
    """
    if im_tau <= 0:
        raise ValueError("q-series need Im(tau) > 0")
    step = sum(pairs[0])  # a + b
    extra = 0
    while True:
        bits = prec + 64 + extra
        top = bits * log(2) / (2 * pi * im_tau)  # largest exponent kept
        bits += 3 * isqrt(int(2 * top / step) + 1).bit_length()
        qr, qi = q_at(bits)
        powers = [(1 << bits, 0)]  # q^0 .. q^(a+b)
        for _ in range(step):
            xr, xi = powers[-1]
            powers.append(((xr * qr - xi * qi) >> bits, (xr * qi + xi * qr) >> bits))
        qab_r, qab_i = powers[-1]
        sums = []
        for a, b in pairs:
            sr, si = 1 << bits, 0
            # n >= 1 steps by -q^(a n + b (n-1)); n <= -1 is the same with a, b swapped
            for first in (a, b):
                dr, di = powers[first]
                dr, di, tr, ti, e, de = -dr, -di, 1 << bits, 0, first, first
                while e <= top:
                    tr, ti = (tr * dr - ti * di) >> bits, (tr * di + ti * dr) >> bits
                    sr += tr
                    si += ti
                    dr, di = (dr * qab_r - di * qab_i) >> bits, (dr * qab_i + di * qab_r) >> bits
                    de += step
                    e += de
            sums.append((sr, si))
        lost = max(bits - _bit_length(s) for s in sums)
        if lost <= extra + 32:
            return bits, sums
        # a sum within 8 bits of the rounding noise reads the noise floor
        extra = lost if lost < prec + 56 + extra else 2 * lost


def r_parts(x: QRoot, prec: int):
    """(bits, r, b, num) as pairs at scale 2^bits, for the root
    x = t = e^(2 pi i w/25): r = r(w/5) = t f(-q, -q^4) / f(-q^2, -q^3) with
    q = t^5, b = r^5 and num = 1 - 11 b - b^2, so that
    c = (eta(w/5)/eta(w))^6 = num / b (Duke, Bull. AMS 42 (2005)).  The
    sums (_jacobi_f, to relative 2^-prec) read q as a power of x's one exp;
    bits is theirs plus the bits of 1/|t|, and t and the sums are cut to
    prec significant bits in each part (_cut) before they are combined.
    num cancels where b nears eps^5, eps = (sqrt5 - 1)/2, and j, near 125/c
    there, keeps only the bits num keeps; when num falls below 2^-16 the
    parts are taken again, once, with as many more bits as it lost, from
    the same x: no second exp while those bits stay under the ones x was
    taken at.
    """
    extra = 0
    while True:
        cut = prec + extra
        fbits, (f14, f23) = _jacobi_f(x.power(5), x.im * 5 / x.k, ((1, 4), (2, 3)), cut)
        bits = fbits + int(2 * pi * x.im / (x.k * log(2)))
        t = _cut(_fixed(x.value, bits), cut)
        f14, f23 = (_cut((fr << (bits - fbits), fi << (bits - fbits)), cut)
                    for fr, fi in (f14, f23))
        one = 1 << bits
        r = fixed_div(fixed_mul(t, f14, bits), f23, bits)
        b = fixed_pow(r, 5, bits)
        br, bi = fixed_mul(b, (b[0] + 11 * one, b[1]), bits)
        num = (one - br, -bi)  # 1 - 11 b - b^2
        lost = bits - max(map(abs, num)).bit_length()
        if extra or lost <= 16:
            return bits, r, b, num
        extra = lost


def eta(tau, prec: int):
    """Dedekind eta(tau) = q^{1/24} prod_{n>=1} (1 - q^n), Im(tau) > 0,
    summed as Euler's pentagonal series u f(-q, -q^2) with u = e^(pi i tau/12)
    from one exp and q = u^24."""
    with mp.workprec(prec + 64):
        tau = mpc(tau)
        u = QRoot(tau, 24)
        bits, (f,) = _jacobi_f(u.power(24), float(tau.imag), ((1, 2),), prec)
        result = u.value * _to_mpc(f, bits)
    with mp.workprec(prec):
        return mpc(result)


def rr_r(tau, prec: int):
    """The Rogers-Ramanujan continued fraction
    r(tau) = q^{1/5} prod_{n>=1} (1 - q^n)^{(n|5)}   with (n|5) the Legendre symbol,
    summed as v f(-q, -q^4) / f(-q^2, -q^3) with v = e^(2 pi i tau/5) from one
    exp and q = v^5.
    """
    with mp.workprec(prec + 64):
        tau = mpc(tau)
        v = QRoot(tau, 5)
        bits, (num, den) = _jacobi_f(v.power(5), float(tau.imag), ((1, 4), (2, 3)), prec)
        result = v.value * _to_mpc(num, bits) / _to_mpc(den, bits)
    with mp.workprec(prec):
        return mpc(result)


def r_transformation_laws(tau, prec: int):
    """(r, (law5, lawT)) for r = r(tau) at prec bits, where each law is an
    (lhs, rhs) pair of values computed at prec + 64 bits:
    law5 is r(-1/(5 tau))^5 = (-r^5 + eps^5)/(eps^5 r^5 + 1) with
    eps = (-1 + sqrt5)/2, and lawT is r(-1/tau) = T(r) =
    (-(1 + sqrt5) r + 2)/(2r + 1 + sqrt5)."""
    with mp.workprec(prec + 64):
        tau = mpc(tau)
        r = rr_r(tau, prec)
        s5 = mpmath.sqrt(5)
        eps5 = ((-1 + s5) / 2) ** 5
        r5 = r**5
        law5 = (rr_r(-1 / (5 * tau), prec) ** 5, (-r5 + eps5) / (eps5 * r5 + 1))
        lawT = (rr_r(-1 / tau, prec), (-(1 + s5) * r + 2) / (2 * r + 1 + s5))
    return r, (law5, lawT)


def j_from_c(num, den, bits: int):
    """(c, j) as pairs at scale 2^bits, for c = num / den with num and den
    pairs at one scale, and j = (c^2 + 10 c + 5)^3 / c.  c is taken at
    2^(bits + K), K the bits of 1/|c|, so that j, near 125/c when c is
    small, keeps as many significant bits as c."""
    K = max(0, _bit_length(den) - _bit_length(num) + 1)
    s = bits + K
    c = fixed_div(num, den, s)
    cr, ci = fixed_mul(c, c, s)
    cube = fixed_pow((cr + 10 * c[0] + (5 << s), ci + 10 * c[1]), 3, s)
    return (c[0] >> K, c[1] >> K), fixed_div(cube, c, bits)


def check_j_by_r(x: QRoot, prec: int):
    """The independent route to j at tau, for the root x = e^(2 pi i tau/k):
    check(j) for a j that is a pair at scale 2^B, B = prec + 64, and must
    agree with the j that r = r(tau) gives,

        j = N / D,  N = (r^20 - 228 r^15 + 494 r^10 + 228 r^5 + 1)^3,
                    D = r^5 (1 - 11 r^5 - r^10)^5,

    to relative 2^(32-prec): |j - N/D| <= 2^(32-prec) max(|j|, 1).  check
    raises PrecisionError if it fails.  r is read from x, with q = x^k and
    r^5 = q rho, rho = (f(-q, -q^4) / f(-q^2, -q^3))^5; those sums need no j,
    so they are taken here, before check is made (j_from_tau makes it first).
    Multiplied through by |D| = |q| |D/q|, the bound reads

        |(j q)(D/q) - N| <= 2^(32-prec) max(|j q|, |q|) |D/q|,

    and D/q = rho (1 - 11 r^5 - r^10)^5 needs no division by q.  q is taken
    at scale 2^(B + K), K the bits of 1/|q|, so that j q keeps B bits; every
    other value is a pair at 2^B, and the bound is tested on squared norms
    in ints.
    """
    B = prec + 64
    im = x.im
    K = int(2 * pi * im / log(2)) + 1
    _, (num, den) = _jacobi_f(x.power(x.k), im, ((1, 4), (2, 3)), B)
    q = fixed_pow(_fixed(x.value, B + K), x.k, B + K)
    rho = fixed_pow(fixed_div(num, den, B), 5, B)
    r5 = fixed_mul(q, rho, B + K)
    one = 1 << B
    poly = (one, 0)  # r^20 - 228 r^15 + 494 r^10 + 228 r^5 + 1 by Horner in r^5
    for coeff in (-228, 494, 228, 1):
        hr, hi = fixed_mul(poly, r5, B)
        poly = hr + (coeff << B), hi
    N = fixed_pow(poly, 3, B)
    r10 = fixed_mul(r5, r5, B)
    D_q = fixed_mul(rho, fixed_pow((one - 11 * r5[0] - r10[0], -11 * r5[1] - r10[1]), 5, B), B)
    q_norm = (q[0] >> K) ** 2 + (q[1] >> K) ** 2
    D_norm = D_q[0] ** 2 + D_q[1] ** 2

    def check(j):
        jq = fixed_mul(j, q, B + K)
        lr, li = fixed_mul(jq, D_q, B)
        lr, li = lr - N[0], li - N[1]
        norm_max = max(jq[0] ** 2 + jq[1] ** 2, q_norm)
        if (lr * lr + li * li) << (2 * B + 2 * prec - 64) > norm_max * D_norm:
            raise PrecisionError("j-invariant routes disagree; raise the precision")

    return check


def j_from_tau(x: QRoot, prec: int):
    """The checked evaluation at one Heegner argument w, for the root
    x = e^(2 pi i w/25): (bits, r, c, j) with r = r(w/5) a pair at scale
    2^bits (r_parts), and c = num / b and j = (c^2 + 10 c + 5)^3 / c pairs at
    scale 2^(prec + 64) (j_from_c).  j must pass check_j_by_r(x, prec), the
    independent route through r(w), or PrecisionError is raised.

    The order of the sums is set here, for both ladders: the check's sums at
    q(w) = t^25 are wider than r_parts' sums at q(w/5) = t^5, so they come
    first and take x's one exp, which r_parts then reuses.
    """
    check = check_j_by_r(x, prec)
    bits, r, b, num = r_parts(x, prec)
    c, j = j_from_c(num, b, prec + 64)
    check(j)
    return bits, r, c, j


def heegner_values(xs, prec: int):
    """z, s and j at each Heegner argument w, as pairs at scale 2^(prec + 64),
    from the checked evaluation j_from_tau, which sets the order of the
    sums, at the QRoot t = e^(2 pi i w/25) in xs for w.  With r = r(w/5) and
    b = r^5 (Duke, Bull. AMS 42 (2005)):

        s = -1 - eta(w/25)/eta(w) = r - 1/r,
        c = (eta(w/5)/eta(w))^6 = (1 - 11 b - b^2) / b,   z = -11 - c,
        j = (c^2 + 10 c + 5)^3 / c.

    At the scale r_parts returns, over prec + 64 bits, b keeps more than
    prec + 20 bits: |b| > 2^-41 at d <= 2000.
    Returns (zs, ss, js), one value each per argument: the complex
    conjugates of zs and ss are the other h roots of R and S
    (reconstruct_int_poly with conjugates=True).
    """
    w_bits = prec + 64
    zs, ss, js = [], [], []
    for x in xs:
        bits, r, c, j = j_from_tau(x, prec)
        rr, ri = fixed_mul(r, r, bits)
        zs.append((-11 * (1 << w_bits) - c[0], -c[1]))
        ss.append(fixed_div((rr - (1 << bits), ri), r, w_bits))
        js.append(j)
    return zs, ss, js


def reconstruct_int_poly(roots, prec: int, conjugates: bool = False):
    """Expand prod (x - root) on Gaussian integers scaled by 2^(prec + 64),
    the scale of the root pairs given, and round to the nearest integers.
    With conjugates, each root stands for itself and its complex conjugate:
    the product is that of the real quadratics x^2 - 2 Re(root) x + |root|^2,
    closed under conjugation by construction.

    Raises PrecisionError when any coefficient sits farther than
    2^-ROUND_TOL_BITS from an integer, or when the imaginary parts do not
    cancel.
    """
    w = prec + 64
    re, im = [1 << w], [0]  # coefficients, lowest degree first
    if conjugates:
        for rr, ri in roots:
            s, n = 2 * rr, (rr * rr + ri * ri) >> w
            new_re = [0, 0] + re  # x^2 p(x) - s x p(x) + n p(x)
            for i, c in enumerate(re):
                new_re[i] += (n * c) >> w
                new_re[i + 1] -= (s * c) >> w
            re = new_re
        im = [0] * len(re)
    else:
        for rr, ri in roots:
            new_re, new_im = [0] + re, [0] + im  # x p(x) - root p(x)
            for i, (cr, ci) in enumerate(zip(re, im)):
                new_re[i] -= (rr * cr - ri * ci) >> w
                new_im[i] -= (rr * ci + ri * cr) >> w
            re, im = new_re, new_im
    tol = 1 << (w - ROUND_TOL_BITS)
    out = []
    for c, ci in zip(re, im):
        if abs(ci) > tol:
            raise PrecisionError("imaginary parts failed to cancel")
        n = (c + (1 << (w - 1))) >> w
        if abs(c - (n << w)) > tol:
            raise PrecisionError("coefficient too far from an integer")
        out.append(n)
    return tuple(out)
