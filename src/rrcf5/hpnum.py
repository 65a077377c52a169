"""Arbitrary-precision numerics: Dedekind eta, the Rogers-Ramanujan
continued fraction r(tau) and two of its transformation laws, the modular
j-invariant, reconstruction of integer polynomials from floating root lists,
and the precision ladder those reconstructions climb.

All precision arguments are in bits.  The q-series and the root products
run on fixed-point Gaussian integers (pairs of ints scaled by 2^bits); mpmath
supplies exp and the values returned.  Each q-series evaluation
takes one exp, of a root x of q (x = e^(pi i tau/12) for eta, e^(2 pi i tau/5)
for r, e^(2 pi i w/25) for the Heegner values), and makes every q it sums at
as a fixed-point power of x; the same x is the prefactor, so in a quotient of
eta values the prefactors cancel to an integer power of x.  Only a
cancellation retry takes the exp again, at wider bits.  Every public function
sets its own working precision and restores the caller's on exit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isqrt, log, pi

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, fzero, to_fixed


class PrecisionError(ArithmeticError):
    """Raised when a computation cannot be certified at the working precision."""


# The cheap first pass that sizes a ladder's first step runs at this many bits.
SIZING_BITS = 64
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


def climb(policy: PrecisionPolicy | None, step, roots_at, what: str):
    """step(bits) at the first step of policy.ladder() where it raises no
    PrecisionError.

    A policy without a first step (None means PrecisionPolicy()) gets one
    from a cheap pass: the root lists roots_at(SIZING_BITS) returns, one per
    polynomial step reconstructs, give the largest log2 prod(1 + |root|), a
    bound on the bits of the largest coefficient, and GUARD_BITS are added.
    """
    policy = policy or PrecisionPolicy()
    if policy.initial_bits is None:
        with mp.workprec(SIZING_BITS):
            top = max(sum(mpmath.log(1 + abs(r), 2) for r in roots)
                      for roots in roots_at(SIZING_BITS))
        policy = replace(policy, initial_bits=int(mpmath.ceil(top)) + GUARD_BITS)
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


def _fixed_pow(x, n: int, bits: int):
    """x^n, n >= 1, for a fixed-point pair x at bits, by binary powering."""
    xr, xi = rr, ri = x
    for bit in bin(n)[3:]:
        rr, ri = (rr * rr - ri * ri) >> bits, (2 * rr * ri) >> bits
        if bit == "1":
            rr, ri = (rr * xr - ri * xi) >> bits, (rr * xi + ri * xr) >> bits
    return rr, ri


class _QRoot:
    """x = e^(2 pi i tau / k), a k-th root of q = e^(2 pi i tau).  The one exp
    is taken at the widest bits asked for so far and reused below them."""

    def __init__(self, tau, k: int):
        self.tau, self.k = tau, k
        self.bits, self.value = 0, None

    def at(self, bits: int):
        if bits > self.bits:
            with mp.workprec(bits):
                self.value = mpmath.exp(2j * mp.pi * self.tau / self.k)
            self.bits = bits
        return self.value

    def power(self, n: int):
        """bits -> x^n as a fixed-point pair at bits (the q_at of _jacobi_f)."""
        return lambda bits: _fixed_pow(_fixed(self.at(bits), bits), n, bits)


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
    allows for, and every sum is taken again with that many more, from a q
    made again at the wider bits.
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
        lost = max(bits - max(abs(sr), abs(si)).bit_length() for sr, si in sums)
        if lost <= extra + 32:
            return [mp.make_mpc((from_man_exp(sr, -bits), from_man_exp(si, -bits)))
                    for sr, si in sums]
        extra = lost


def eta_parts(tau, k: int, ns, prec: int):
    """x = e^(2 pi i tau / k) and the Euler products

        P_n = prod_{m>=1} (1 - q^m) = f(-q, -q^2),   q = x^n,

    for each n in ns, each to relative 2^-prec, from one exp: every q is a
    fixed-point power of x.  Since eta(n tau / k) = x^(n/24) P_n, a quotient
    of eta values is a quotient of the P_n times an integer power of x when
    the prefactors cancel that far.  With ns ascending, the first sum has the
    smallest Im and the most terms, so it sets the bits the exp is taken at.
    The values come back unrounded; callers round them to the precision they
    combine them at.
    """
    x = _QRoot(tau, k)
    im = float(tau.imag)
    sums = [_jacobi_f(x.power(n), im * n / k, ((1, 2),), prec)[0] for n in ns]
    return x.value, sums


def eta(tau, prec: int):
    """Dedekind eta(tau) = q^{1/24} prod_{n>=1} (1 - q^n), Im(tau) > 0,
    summed as Euler's pentagonal series u f(-q, -q^2) with u = e^(pi i tau/12)
    from one exp and q = u^24."""
    with mp.workprec(prec + 64):
        u, (f,) = eta_parts(mpc(tau), 24, (24,), prec)
        result = u * f
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
        v = _QRoot(tau, 5)
        num, den = _jacobi_f(v.power(5), float(tau.imag), ((1, 4), (2, 3)), prec)
        result = v.value * num / den
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


def j_from_c(c):
    """j = (c^2 + 10 c + 5)^3 / c with c = (eta(tau/5)/eta(tau))^6 (caller
    sets workprec)."""
    return (c**2 + 10 * c + 5) ** 3 / c


def check_j_by_r(j, tau, prec: int):
    """The independent route: j recomputed from r(tau) through

        j = (r^20 - 228 r^15 + 494 r^10 + 228 r^5 + 1)^3 / (r^5 (1 - 11 r^5 - r^10)^5)

    must agree with j to relative 2^(32-prec); raises PrecisionError if not.
    """
    with mp.workprec(prec + 64):
        r5 = rr_r(tau, prec + 64) ** 5
        num = (r5**4 - 228 * r5**3 + 494 * r5**2 + 228 * r5 + 1) ** 3
        den = r5 * (1 - 11 * r5 - r5**2) ** 5
        if abs(j - num / den) / max(abs(j), mpf(1)) > mpf(2) ** (32 - prec):
            raise PrecisionError("j-invariant routes disagree; raise the precision")


def j_from_tau(tau, prec: int):
    """Modular j-invariant via the level-5 eta quotient:

        j = (c^2 + 10 c + 5)^3 / c,   c = (eta(tau/5)/eta(tau))^6 = (P_1/P_5)^6 / x,

    with x = e^(2 pi i tau/5) and P_n = prod_{m>=1} (1 - x^(n m)) (eta_parts),
    the quotient heegner_values takes c from.  check_j_by_r is the
    independent route to check it by.
    """
    x, sums = eta_parts(tau, 5, (1, 5), prec + 64)
    with mp.workprec(prec + 64):
        x, P1, P5 = mpc(x), *(mpc(P) for P in sums)
        j = j_from_c((P1 / P5) ** 6 / x)
    with mp.workprec(prec):
        return mpc(j)


def reconstruct_int_poly(roots, prec: int):
    """Expand prod (x - root) on Gaussian integers scaled by 2^(prec + 64)
    and round to the nearest integers.

    Raises PrecisionError when any coefficient sits farther than
    2^-ROUND_TOL_BITS from an integer, or when the imaginary parts do not
    cancel.
    """
    w = prec + 64
    re, im = [1 << w], [0]  # coefficients, lowest degree first
    for root in roots:
        rr, ri = _fixed(root, w)
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

