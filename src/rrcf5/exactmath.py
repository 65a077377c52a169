"""Exact arithmetic core: dense polynomials over a field, elements of the
cyclotomic field Q(zeta_5), rational functions kept as unreduced pairs and
compared by cross-multiplication, and projective Moebius maps acting on
polynomials.  Other number fields are reached as polynomials modulo a
defining polynomial (Q(zeta_20) = Q[x]/Phi_20 in icosa).

Every value is immutable and every operation is a pure function; nothing in
this module ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm
from operator import add as _add, mul as _mul, sub as _sub


class ExactDomainError(ValueError):
    """Raised when an operation is applied outside its exact-arithmetic domain."""


# ---------------------------------------------------------------------------
# powers and binary forms over any ring
# ---------------------------------------------------------------------------


def powers(x, mul):
    """e -> x^e for e >= 1, squaring top-down with the powers taken kept:
    x^e alone costs floor(log2 e) + popcount(e) - 1 calls of mul, and later
    calls reuse the squares of earlier ones."""
    table = _Powers({1: x})
    table.x, table.mul = x, mul
    return table.__getitem__


class _Powers(dict):
    """x^e by e for powers, a missing one made from x^(e >> 1); a recursive
    closure would be a reference cycle holding every power until a GC pass."""

    __slots__ = ("x", "mul")

    def __missing__(self, e):
        half = self[e >> 1]
        square = self.mul(half, half)
        value = self[e] = self.mul(square, self.x) if e & 1 else square
        return value


def binary_form(cs, N, D, mul):
    """sum_k cs[k] N^k D^(n-k), n = len(cs) - 1 >= 0, on ring elements given
    as coordinate tuples that add coordinatewise and multiply by mul, taken
    by halves: cs splits at mid into lo and hi, and the sum is
    lo(N, D) D^(n+1-mid) + hi(N, D) N^mid, down to single coefficients.
    The halves at one depth have lengths that differ by at most 1, so each
    power of N and D is squared once (powers), and the products are
    balanced, where big-integer multiplication is fastest."""
    return _halves(cs, 0, len(cs), powers(N, mul), powers(D, mul), mul)


def _halves(cs, lo, hi, N_pow, D_pow, mul):
    """sum_{lo <= k < hi} cs[k] N^(k - lo) D^(hi - 1 - k), for binary_form."""
    if hi - lo == 1:
        return cs[lo]
    mid = (lo + hi) // 2
    return tuple(map(_add, mul(_halves(cs, lo, mid, N_pow, D_pow, mul), D_pow(hi - mid)),
                     mul(_halves(cs, mid, hi, N_pow, D_pow, mul), N_pow(mid - lo))))


def times_sqrt5(a, b):
    """(a0 + a1 sqrt5)(b0 + b1 sqrt5) on coordinate pairs, in three products
    when both a1 and b1 are nonzero; products by 0 are free.  The package's
    one product on Z[sqrt5]."""
    if a[1] and b[1]:
        x, y = a[0] * b[0], a[1] * b[1]
        return x + 5 * y, (a[0] + a[1]) * (b[0] + b[1]) - x - y
    return a[0] * b[0] + 5 * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def sqrt5_size(a):
    """nu(a0 + a1 sqrt5) = |a0| + 3|a1| on a coordinate pair: it bounds both
    coordinates, and nu(ab) <= nu(a) nu(b) (5 |a1 b1| <= 9 |a1 b1|)."""
    return abs(a[0]) + 3 * abs(a[1])


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------


class CycloElem:
    """Element of Q(zeta_5) in the power basis 1, zeta, zeta^2, zeta^3.

    Stored as integer numerators ``nums`` over one positive integer ``den``
    with gcd(den, *nums) = 1, so the representation is canonical and equality
    is a tuple comparison.
    """

    __slots__ = ("nums", "den")

    def __new__(cls, coords):
        cs = tuple(coords)
        if len(cs) != 4:
            raise ExactDomainError("need 4 coordinates")
        # ints and Fractions both carry numerator/denominator
        den = _ilcm(*(c.denominator for c in cs))
        return _cyclo(tuple(c.numerator * (den // c.denominator) for c in cs), den)

    def __setattr__(self, *a):
        raise AttributeError("CycloElem is immutable")

    @property
    def coords(self):
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeta(cls):
        return _cyclo((0, 1, 0, 0), 1)

    @classmethod
    def from_rational(cls, value):
        return _cyclo((value.numerator, 0, 0, 0), value.denominator)

    @classmethod
    def sqrt5(cls):
        """The Gauss sum zeta_5 - zeta_5^2 - zeta_5^3 + zeta_5^4."""
        z = cls.zeta()
        return z - z**2 - z**3 + z**4

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElem.from_rational(other)
        return NotImplemented

    # -- ring structure -----------------------------------------------------

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.den, self.nums))

    def _plus(self, other, op):
        """self op other, for op in (operator.add, operator.sub)."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _cyclo(tuple(map(op, self.nums, o.nums)), da)
        # over lcm(da, db)
        g = _igcd(da, db)
        ma, mb = db // g, da // g
        return _cyclo(tuple(op(a * ma, b * mb) for a, b in zip(self.nums, o.nums)), da * ma)

    def __add__(self, other):
        return self._plus(other, _add)

    __radd__ = __add__

    def __neg__(self):
        return _cyclo(tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        return self._plus(other, _sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, CycloElem):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            n = other.numerator
            return _cyclo(tuple(c * n for c in self.nums), self.den * other.denominator)
        return _cyclo(_mul4(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return CycloElem.from_rational(1 / self.as_fraction())
        # 1/a = (product of the other conjugates) / N(a), N(a) rational
        others = self.galois(2) * self.galois(3) * self.galois(4)
        return others * (1 / (self * others).as_fraction())

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return powers(self, _mul)(n) if n else CycloElem.from_rational(1)

    # -- structure queries --------------------------------------------------

    def is_rational(self):
        return not any(self.nums[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ExactDomainError("not a rational element")
        return Fraction(self.nums[0], self.den)

    def galois(self, k):
        """Apply the automorphism zeta -> zeta^k (k prime to 5)."""
        if not k % 5:
            raise ExactDomainError("automorphism exponent must be a unit")
        # zeta^i -> zeta^(ik mod 5), distinct exponents for a unit k
        conv = [0] * 7
        for i, c in enumerate(self.nums):
            conv[i * k % 5] = c
        return _cyclo(_fold(conv), self.den)

    def __repr__(self):
        return f"CycloElem({self.coords})"


def _fold(conv):
    """Power-basis numerators of sum conv[k] zeta^k over k < 7, by zeta^5 = 1
    and zeta^4 = -(1 + zeta + zeta^2 + zeta^3)."""
    c0, c1, c2, c3, c4, c5, c6 = conv
    return (c0 + c5 - c4, c1 + c6 - c4, c2 - c4, c3 - c4)


def _mul4(a, b):
    """Power-basis numerators of the product of two elements given by their
    4 power-basis numerators.  The entries may be ints or packed polynomials
    (see _pack): the convolution and the fold are sums of products either
    way."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return _fold((a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0,
                  a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0, a1 * b3 + a2 * b2 + a3 * b1,
                  a2 * b3 + a3 * b2, a3 * b3))


def _cyclo(nums, den):
    """The CycloElem nums/den in lowest terms; den must be positive."""
    if den != 1:
        g = _igcd(den, *nums)
        if g != 1:
            nums = tuple(c // g for c in nums)
            den //= g
    e = object.__new__(CycloElem)
    object.__setattr__(e, "nums", nums)
    object.__setattr__(e, "den", den)
    return e


def golden_unit():
    """epsilon = (-1 + sqrt(5))/2, a fundamental unit of Q(sqrt(5))."""
    return (CycloElem.sqrt5() - 1) * Fraction(1, 2)


def golden_unit_conj():
    """epsilon-bar = (-1 - sqrt(5))/2."""
    return (-CycloElem.sqrt5() - 1) * Fraction(1, 2)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def _terms(cs):
    """The nonzero (index, coefficient) pairs of cs."""
    return [(i, c) for i, c in enumerate(cs) if c]


def _times(a, terms, size):
    """The coefficient list a times the nonzero terms (i, c), in size slots."""
    out = [0] * size
    for j, x in enumerate(a):
        if x:
            for i, c in terms:
                out[i + j] += x * c
    return out


def _inv_coeff(c):
    if isinstance(c, int):
        # a unit of Z inverts to itself, so division by a monic (or -monic)
        # integer polynomial never leaves Z
        return c if c in (1, -1) else Fraction(1, c)
    if isinstance(c, Poly):
        # nested coefficients: only division by a monic-in-the-unit sense
        # leading coefficient of 1 is exact
        if c == 1:
            return c
        raise ExactDomainError("leading coefficient is not a unit")
    return 1 / c


def _over_cyclo(coeffs):
    """True if every coefficient is an int, a Fraction or a CycloElem and at
    least one is a CycloElem."""
    types = set(map(type, coeffs))
    return CycloElem in types and types <= {int, Fraction, CycloElem}


def _numerators(coeffs):
    """(the 4 power-basis columns of integer numerators, common positive
    denominator) of coefficients that are ints, Fractions or CycloElems."""
    den = _ilcm(*(c.den if isinstance(c, CycloElem) else c.denominator for c in coeffs))
    rows = []
    for c in coeffs:
        if isinstance(c, CycloElem):
            m = den // c.den
            rows.append(c.nums if m == 1 else tuple(x * m for x in c.nums))
        else:
            rows.append((c.numerator * (den // c.denominator), 0, 0, 0))
    return (list(zip(*rows)) if rows else [()] * 4), den


def _stride(bound):
    """Bytes per power of x for packed numerators in [-bound, bound]: the
    bound's bits and a sign bit."""
    return (bound.bit_length() + 8) // 8


def _offset(count, kb):
    """count digits 2^(8*kb-1) at a stride of kb bytes."""
    return int.from_bytes((1 << (8 * kb - 1)).to_bytes(kb, "little") * count, "little")


def _pack(cols, kb):
    """The 4 ints sum_k cols[i][k] 2^(8*kb*k), i = 0..3, of the numerator
    columns of a polynomial over Q(zeta_5), lowest power first.

    Digits are stored offset by half = 2^(8*kb-1), so each lies in
    [0, 2^(8*kb)) and to_bytes/from_bytes convert all of them at once.
    Packing is a ring map, so sums and _mul4 products of packed values are
    the packed sums and products; _unpack reads a value back when each of
    its numerators lies in [-half, half).
    """
    count = len(cols[0])
    if not count:
        return (0, 0, 0, 0)
    half = 1 << (8 * kb - 1)
    size = count * kb
    raw = b"".join([(x + half).to_bytes(kb, "little") for col in cols for x in col])
    off = _offset(count, kb)
    return tuple(int.from_bytes(raw[i:i + size], "little") - off
                 for i in range(0, 4 * size, size))


def _unpack(packed, kb, count, den):
    """The first count coefficients, as CycloElems over den, of a value
    packed at kb bytes per power."""
    half = 1 << (8 * kb - 1)
    off, size = _offset(count, kb), count * kb
    raw = b"".join([(x + off).to_bytes(size, "little") for x in packed])
    digits = [int.from_bytes(raw[i:i + kb], "little") - half for i in range(0, 4 * size, kb)]
    cols = [digits[i:i + count] for i in range(0, 4 * count, count)]
    return [_cyclo(row, den) for row in zip(*cols)]


def _kronecker_mul(a, b):
    """Coefficients of the product of two coefficient tuples over Q(zeta_5),
    by Kronecker substitution: _mul4 on the two packed operands.

    A numerator of the product is a sum of at most 7 * min(len a, len b)
    products of a numerator of a and one of b (7 pairs of zeta-powers fold
    into the coordinate of zeta^3), which bounds it and sets the stride.
    """
    ca, da = _numerators(a)
    cb, db = _numerators(b)
    bound = (7 * min(len(a), len(b)) * max(max(map(abs, c)) for c in ca)
             * max(max(map(abs, c)) for c in cb))
    kb = _stride(bound)
    return _unpack(_mul4(_pack(ca, kb), _pack(cb, kb)), kb, len(a) + len(b) - 1, da * db)


def _norm(cols):
    """||cols||, the sum of the absolute values of the numerators."""
    return sum(sum(map(abs, c)) for c in cols)


def _compose_packed(H, num, den, h):
    """poly_compose_rational over Q(zeta_5), as binary_form on packed values
    (see _pack), unpacked once.

    With d the common denominator of num and den, N = d num and E = d den
    are integral and den^h H(num/den) = sum_k H_k N^k E^(h-k) / d^h.  Since
    ||ab|| <= 4 ||a|| ||b|| (the fold adds the zeta^4 numerators into all
    four coordinates), every numerator of the sum is at most
    4^h sum_k ||H_k|| ||N||^k ||E||^(h-k).  That bound on the result sets the
    stride, and intermediate values are never unpacked.  A constant H_k packs
    to its own four numerators.
    """
    cols, dH = _numerators(H.coeffs)
    H_rows = list(zip(*cols))
    cols, d = _numerators(num.coeffs + den.coeffs)
    split = len(num.coeffs)
    N_cols, E_cols = [c[:split] for c in cols], [c[split:] for c in cols]
    nN, nE = _norm(N_cols), _norm(E_cols)
    norms = [sum(map(abs, row)) for row in H_rows]
    bound = 4**h * sum(c * nN**k * nE ** (h - k) for k, c in enumerate(norms))
    # the inputs must fit the stride too
    kb = _stride(max(bound, nN, nE, *norms))
    N, E = _pack(N_cols, kb), _pack(E_cols, kb)
    n = H.degree
    acc = binary_form(H_rows, N, E, _mul4)
    if h > n:
        acc = _mul4(acc, powers(E, _mul4)(h - n))
    count = 1 + h * (max(len(num.coeffs), len(den.coeffs)) - 1)
    return Poly(_unpack(acc, kb, count, dH * d**h))


class Poly:
    """Dense univariate polynomial, coefficients lowest degree first.

    Coefficients may be ints, Fractions, CycloElem, or any commutative ring
    element supporting +, -, * and truth testing.  The zero polynomial has
    an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def const(cls, c):
        return cls((c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise ExactDomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(tuple(Fraction(c) if isinstance(c, int) else c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = min(len(a), len(b))
        # one of the two tails is empty; the other is copied unchanged
        return Poly([x + y for x, y in zip(a, b)] + list(a[n:] + b[n:]))

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            if not other:
                return Poly()
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        if _over_cyclo(self.coeffs + other.coeffs):
            return Poly(_kronecker_mul(self.coeffs, other.coeffs))
        return Poly(_times(self.coeffs, _terms(other.coeffs),
                           len(self.coeffs) + len(other.coeffs) - 1))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ExactDomainError("negative power of a polynomial")
        return powers(self, _mul)(n) if n else Poly((1,))

    def __divmod__(self, other):
        """Long division on coefficient lists.  A zero top coefficient is
        skipped, and each step subtracts only the nonzero terms of other
        below its lead: the top slot of rem is never read again."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, inv = other.degree, _inv_coeff(other.lc)
        if len(rem) < len(other.coeffs):
            return Poly(), self
        terms = _terms(other.coeffs[:db])
        q = [0] * (len(rem) - db)
        for k in range(len(rem) - db - 1, -1, -1):
            coef = rem[k + db]
            if coef:
                coef = q[k] = coef * inv
                for j, b in terms:
                    rem[k + j] -= coef * b
        return Poly(q), Poly(rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other):
        """True if self divides other exactly."""
        if self.is_zero():
            return other.is_zero()
        return divmod(other, self)[1].is_zero()

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def subst_x_pow(self, k):
        """Substitute x -> x^k by spreading coefficients."""
        if self.is_zero():
            return self
        out = [0] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Poly(out)

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def map_coeffs(self, fn):
        return Poly([fn(c) for c in self.coeffs])

    def monic(self):
        if self.is_zero():
            return self
        inv = _inv_coeff(self.lc)
        return Poly([c * inv for c in self.coeffs])

    def is_integral(self):
        return all(isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
                   for c in self.coeffs)

    def int_coeffs(self):
        if not self.is_integral():
            raise ExactDomainError("polynomial is not integral")
        return tuple(int(c) for c in self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"({c})*x^{i}" if i else f"({c})")
        return "Poly(" + " + ".join(parts) + ")"


def lift_to_cyclo(p):
    """Lift a rational-coefficient polynomial to CycloElem coefficients."""
    return p.map_coeffs(CycloElem.from_rational)


# ---------------------------------------------------------------------------
# resultants and discriminants (over Q, via the subresultant PRS)
# ---------------------------------------------------------------------------


def _clear_denominators(p):
    """Return (integer coefficient list, clearing factor c) with c*p integral."""
    # ints carry numerator/denominator too
    den = _ilcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _resultant_int(A, B):
    """Resultant of two nonzero integer-coefficient lists (lowest first)."""
    degA, degB = len(A) - 1, len(B) - 1
    if degA == 0 and degB == 0:
        return 1
    if degB == 0:
        return B[0] ** degA
    if degA == 0:
        return A[0] ** degB
    s = 1
    if degA < degB:
        A, B = B, A
        if degA % 2 == 1 and degB % 2 == 1:
            s = -s
        degA, degB = degB, degA
    g = h = 1
    while True:
        delta = degA - degB
        if degA % 2 == 1 and degB % 2 == 1:
            s = -s
        # pseudo-remainder lc(B)^(delta+1) * A mod B
        R = list(A)
        lb = B[-1]
        for k in range(delta, -1, -1):
            top = R[k + degB]
            R = [c * lb for c in R]
            if top:
                for j in range(degB + 1):
                    R[k + j] -= top * B[j]
            R[k + degB] = 0
        while R and R[-1] == 0:
            R.pop()
        if not R:
            return 0
        A, degA = B, degB
        divisor = g * h**delta
        B = [c // divisor for c in R]
        degB = len(B) - 1
        g = A[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
        if degB == 0:
            break
    return s * (B[0] ** degA // h ** (degA - 1) if degA > 1 else B[0] ** degA)


def poly_resultant(p, q):
    """Exact resultant Res(p, q) of rational-coefficient polynomials."""
    if p.is_zero() and q.is_zero():
        raise ExactDomainError("resultant of two zero polynomials")
    if p.is_zero() or q.is_zero():
        return Fraction(0)
    if p.degree == 0 and q.degree == 0:
        return Fraction(1)
    A, ca = _clear_denominators(p)
    B, cb = _clear_denominators(q)
    r = _resultant_int(A, B)
    return Fraction(r) / (Fraction(ca) ** q.degree * Fraction(cb) ** p.degree)


def poly_discriminant(p):
    """disc(p) = (-1)^(n(n-1)/2) Res(p, p') / lc(p)."""
    n = p.degree
    if n < 2:
        raise ExactDomainError("discriminant needs degree >= 2")
    res = poly_resultant(p, p.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / Fraction(p.lc)


def poly_compose_rational(H, num, den, h):
    """Denominator-cleared composition den^h * H(num/den), for h >= deg H.

    Returns sum_k H_k * num^k * den^(h-k); integral whenever H, num and den
    are.  Every homogenised composition in the package goes through here.
    H has scalar coefficients; a bivariate H is refused.  Over Q(zeta_5)
    (the test Poly.__mul__ makes, on the coefficients of H, num and den) the
    sum is _compose_packed's: binary_form on packed big integers, each
    coefficient unpacked once as a CycloElem in lowest terms.  Otherwise it
    is homogeneous Horner on coefficient lists, n = deg H: acc = H_n, then
    acc = acc * num + H_k * den^(n-k) for k = n-1..0, and finally
    acc * den^(h-n).  The powers of den are made once, and no Poly is built
    until the result.
    """
    if h < H.degree:
        raise ExactDomainError("h must be at least deg H")
    if any(isinstance(c, Poly) for c in H.coeffs):
        raise ExactDomainError("H must have scalar coefficients")
    if H.is_zero():
        return Poly()
    if _over_cyclo([*H.coeffs, *num.coeffs, *den.coeffs]):
        return _compose_packed(H, num, den, h)
    # Horner, not binary_form: on schoolbook products the halves cost more
    # than Horner's products by the short num (z_plane_checks runs here)
    hs, n, dd = H.coeffs, H.degree, den.degree
    num_terms, den_terms = _terms(num.coeffs), _terms(den.coeffs)
    # after the step for k, acc has degree at most (n - k) * width
    width = max(num.degree, dd)
    dense = [[1]]
    for j in range(1, max(n, h - n) + 1):
        dense.append(_times(dense[-1], den_terms, j * dd + 1))
    den_pows = [_terms(p) for p in dense]
    acc = [hs[n]]
    for k in range(n - 1, -1, -1):
        acc = _times(acc, num_terms, (n - k) * width + 1)
        if hs[k]:
            for i, e in den_pows[n - k]:
                acc[i] += e * hs[k]
    if h > n:
        acc = _times(acc, den_pows[h - n], len(acc) + (h - n) * dd)
    return Poly(acc)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RatFunc:
    """Rational function num/den over a coefficient field, kept as the
    unreduced pair it was built from and compared by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return (self.num * other.den) == (other.num * self.den)

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, n):
        return RatFunc(self.num**n, self.den**n)

    def substitute(self, inner):
        """Compose: self(inner(x)) for a RatFunc (or Poly) inner."""
        if isinstance(inner, Poly):
            inner = RatFunc(inner)
        # both sides cleared by the same power gden^k of the inner denominator
        k = max(self.num.degree, self.den.degree)
        return RatFunc(poly_compose_rational(self.num, inner.num, inner.den, k),
                       poly_compose_rational(self.den, inner.num, inner.den, k))

    def __call__(self, value):
        return self.num(value) / self.den(value)

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------


def _as_cyclo(value):
    return value if isinstance(value, CycloElem) else CycloElem.from_rational(value)


# t = 2 + 2 cos(2 pi k/n) = (x + y sqrt5)/2 -> n, k prime to n, at every
# n > 1 with 2 cos(2 pi/n) in Q(sqrt5)
_ORDER_BY_TRACE = {(x + y * CycloElem.sqrt5()) / 2: n for x, y, n in (
    (0, 0, 2), (2, 0, 3), (4, 0, 4), (6, 0, 6), (3, 1, 5), (3, -1, 5), (5, 1, 10), (5, -1, 10))}


class MoebiusMap:
    """Projective linear fractional map z -> (az + b)/(cz + d) over Q(zeta_5).

    Entries are stored in a canonical form: the first nonzero entry of
    (a, b, c, d) is scaled to 1, which makes projective equality (and
    hashing) decidable.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = map(_as_cyclo, (a, b, c, d))
        if not (a * d - b * c):
            raise ExactDomainError("Moebius map must have nonzero determinant")
        for pivot in (a, b, c, d):
            if pivot:
                inv = pivot.inverse()
                a, b, c, d = a * inv, b * inv, c * inv, d * inv
                break
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *a):
        raise AttributeError("MoebiusMap is immutable")

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return isinstance(other, MoebiusMap) and self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __mul__(self, other):
        """Composition self o other (matrix product)."""
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return MoebiusMap(a, b, c, d)

    def inverse(self):
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def element_order(self):
        """The order of the map, from t = tr^2/det = 2 + w + 1/w for the ratio
        w of its eigenvalues.  If w has finite order n, w + 1/w lies in
        Q(zeta_5) and is real, so in Q(sqrt5), which leaves n in
        {1, 2, 3, 4, 5, 6, 10} (_ORDER_BY_TRACE).  t = 4 off the identity
        (w = 1, a parabolic map) and every other t mean infinite order."""
        if not (self.b or self.c or self.a - self.d):
            return 1
        t = (self.a + self.d) ** 2 / (self.a * self.d - self.b * self.c)
        if t not in _ORDER_BY_TRACE:
            raise ExactDomainError("the map has infinite order")
        return _ORDER_BY_TRACE[t]

    def apply(self, z):
        """Exact action on a field element z."""
        den = self.c * z + self.d
        if not den:
            raise ZeroDivisionError("pole of Moebius map")
        return (self.a * z + self.b) / den

    def __repr__(self):
        return f"MoebiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def moebius_act_on_poly(M, p):
    """Denominator-cleared pullback (cx+d)^deg(p) * p((ax+b)/(cx+d)), made
    monic.

    Coefficients are lifted to Q(zeta_5).  The monic result is a canonical
    projective representative; the action is then a right group action up to
    scalars.
    """
    if p.is_zero():
        raise ExactDomainError("cannot act on the zero polynomial")
    p = p.map_coeffs(_as_cyclo)
    # nonzero, since p is and M is invertible
    return poly_compose_rational(p, Poly((M.b, M.a)), Poly((M.d, M.c)), p.degree).monic()
