"""Binary quadratic form class data for imaginary quadratic orders, the
Heegner parameter v, level-25 argument systems, and class polynomials."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, sqrt

from .hpnum import HeegnerRoot, PrecisionPolicy, climb, j_from_tau, reconstruct_int_poly


class ClassDataError(ValueError):
    pass


def is_admissible(d: int) -> bool:
    """-d is a nonzero quadratic residue mod 5, i.e. d = +-1 (mod 5)."""
    return d % 5 in (1, 4)


@dataclass(frozen=True)
class QuadForm:
    """Primitive reduced positive-definite form a x^2 + b xy + c y^2."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def is_reduced(self) -> bool:
        if not (abs(self.b) <= self.a <= self.c):
            return False
        if (abs(self.b) == self.a or self.a == self.c) and self.b < 0:
            return False
        return True


@dataclass(frozen=True)
class HeegnerArg:
    """A class representative together with the translated middle coefficient
    b_adj used to place the argument w = (-b_adj + sqrt(-d)) / (2a) in a
    level-25 congruence system."""

    form: QuadForm
    b_adj: int
    d: int

    def __post_init__(self):
        a = self.form.a
        assert (self.b_adj - self.form.b) % (2 * a) == 0
        assert (self.b_adj * self.b_adj + self.d) % (4 * a) == 0

    def root(self) -> HeegnerRoot:
        """t = e^(2 pi i w / 25), taken from the integers b_adj, d and 2a."""
        return HeegnerRoot(-self.b_adj, self.d, 2 * self.form.a, 25)

    @property
    def w_double(self) -> complex:
        """w in double precision, each part rounded as mpmath rounds it at
        53 bits; it sizes a ladder's first step."""
        two_a = 2 * self.form.a
        return complex(-self.b_adj / two_a, sqrt(self.d) / two_a)


@dataclass(frozen=True)
class ClassData:
    d: int
    d_K: int
    f: int
    h: int
    forms: tuple


def _fundamental_split(d: int):
    """Write -d = d_K * f^2 with d_K a fundamental discriminant."""
    D = -d
    # extract the square part of |D|
    n = d
    m = 1
    k = 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            m *= k
        k += 1
    s = -n  # squarefree part, negative
    if s % 4 == 1:
        return s, m
    if m % 2 != 0:
        raise ClassDataError(f"-{d} is not a valid discriminant")
    return 4 * s, m // 2


def check_discriminant(d: int) -> None:
    """Refuse d <= 0 and a -d that is not 0 or 1 mod 4."""
    if d <= 0:
        raise ClassDataError(f"d = {d}: d must be a positive integer")
    if (-d) % 4 not in (0, 1):
        raise ClassDataError(f"-{d} is not a discriminant: need -d = 0 or 1 (mod 4)")


def reduced_forms(d: int) -> ClassData:
    """All primitive reduced forms of discriminant -d (standard sweep)."""
    check_discriminant(d)
    forms = []
    bound = isqrt(d // 3)
    for a in range(1, bound + 1):
        # b = -d (mod 2), |b| <= a
        for b in range(-a, a + 1):
            if (b - d) % 2 != 0:
                continue
            num = b * b + d
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            fm = QuadForm(a, b, c)
            if fm.is_reduced() and fm.is_primitive():
                forms.append(fm)
    forms.sort(key=lambda f: (f.a, f.b, f.c))
    d_K, f = _fundamental_split(d)
    return ClassData(d=d, d_K=d_K, f=f, h=len(forms), forms=tuple(forms))


def choose_v(d: int, f: int):
    """Smallest v > 0 with v^2 + d = 0 (mod 100), preferring gcd(v, f) = 1.

    Returns (v, relaxed): relaxed is True when no solution coprime to the
    conductor exists and the coprimality requirement was dropped.
    """
    if not is_admissible(d):
        raise ClassDataError(f"d = {d} is not admissible (need d = +-1 mod 5)")
    solutions = [v for v in range(1, 101) if (v * v + d) % 100 == 0]
    if not solutions:
        raise ClassDataError(f"no v with v^2 + {d} = 0 (mod 100)")
    for v in solutions:
        if gcd(v, f) == 1:
            return v, False
    return solutions[0], True


def _equivalent_with_a_coprime_to_5(fm: QuadForm) -> QuadForm:
    """An equivalent form whose leading coefficient is prime to 5.

    At least one of a, c, a+b+c is prime to 5 for an admissible discriminant
    (otherwise 5 would divide the discriminant).
    """
    if fm.a % 5 != 0:
        return fm
    if fm.c % 5 != 0:
        return QuadForm(fm.c, -fm.b, fm.a)
    cand = QuadForm(fm.a + fm.b + fm.c, fm.b + 2 * fm.c, fm.c)
    if cand.a % 5 != 0:
        return cand
    raise ClassDataError(f"no equivalent of {fm} with leading coefficient prime to 5")


def _crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 (mod m1), x = r2 (mod m2); moduli need not be coprime."""
    g = gcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ClassDataError("inconsistent congruences")
    lcm = m1 // g * m2
    # x = r1 + m1 * t, m1 t = r2 - r1 (mod m2)
    m1g, m2g = m1 // g, m2 // g
    t = (pow(m1g, -1, m2g) * ((r2 - r1) // g)) % m2g
    return (r1 + m1 * t) % lcm


# The argument systems have level 25: b_adj = -v (mod 2 * 25).
_B_MOD = 50


def n_system(cd: ClassData, v: int):
    """One Heegner argument per class with 5 not dividing a and
    b_adj = -v (mod 50).  Correctness is certified downstream by exact
    integer reconstruction and divisibility, not assumed here."""
    args = []
    for fm in cd.forms:
        g = _equivalent_with_a_coprime_to_5(fm)
        b_adj = _crt(g.b % (2 * g.a), 2 * g.a, (-v) % _B_MOD, _B_MOD)
        # keep |b_adj| moderate for fast eta convergence (larger Im(w)/Re ratio
        # does not change convergence, but small |Re w| avoids cancellation)
        lcm = (2 * g.a) * _B_MOD // gcd(2 * g.a, _B_MOD)
        if b_adj > lcm // 2:
            b_adj -= lcm
        args.append(HeegnerArg(form=g, b_adj=b_adj, d=cd.d))
    return args


def class_poly(cd: ClassData, policy: PrecisionPolicy | None = None):
    """The class polynomial prod_A (x - j(w_A)) as an integer coefficient
    tuple (lowest degree first), via high-precision j-values checked against
    the r(tau) route."""
    v, _ = choose_v(cd.d, cd.f)
    args = n_system(cd, v)

    def step(bits):
        return reconstruct_int_poly([j_from_tau(arg.root(), bits)[3] for arg in args], bits)

    return climb(policy, step, [arg.w_double for arg in args],
                 f"class polynomial for d={cd.d}")
