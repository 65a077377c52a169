import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc

from rrcf5.exactmath import (
    CycloElem,
    ExactDomainError,
    MoebiusMap,
    Poly,
    RatFunc,
    binary_form,
    golden_unit,
    in_stabilizer,
    lift_to_cyclo,
    moebius_act_on_poly,
    poly_compose_rational,
    poly_discriminant,
    poly_resultant,
    powers,
    sqrt5_size,
    times_sqrt5,
)

rng = random.Random(20260823)


def rand_poly(deg, lo=-9, hi=9):
    cs = [rng.randint(lo, hi) for _ in range(deg + 1)]
    if cs[-1] == 0:
        cs[-1] = 1
    return Poly(cs)


# ---------------------------------------------------------------- CycloElem


def test_zeta5_minimal_polynomial():
    z = CycloElem.zeta()
    assert z**5 == 1
    assert z**4 + z**3 + z**2 + z + 1 == 0


def test_sqrt5_squares_to_five():
    s = CycloElem.sqrt5()
    assert s * s == 5


def test_golden_unit_relations():
    eps = golden_unit()
    epsbar = -1 - eps
    assert eps * epsbar == -1
    assert eps + epsbar == -1
    # epsilon satisfies x^2 + x - 1 = 0
    assert eps**2 + eps - 1 == 0
    # the fifth powers: epsilon^5 = (-11 + 5 sqrt 5)/2
    assert eps**5 == (CycloElem.sqrt5() * 5 - 11) * Fraction(1, 2)
    assert epsbar**5 == (CycloElem.sqrt5() * -5 - 11) * Fraction(1, 2)


def test_inverse_random():
    for _ in range(40):
        e = CycloElem([rng.randint(-5, 5) for _ in range(4)])
        if not e:
            continue
        assert e * e.inverse() == 1


def test_galois_fixes_rationals_and_flips_sqrt5():
    s = CycloElem.sqrt5()
    assert s.galois(2) == -s
    assert s.galois(4) == s
    e = CycloElem.from_rational(Fraction(22, 7))
    assert e.galois(3) == e


def test_division_by_zero():
    z = CycloElem.from_rational(0)
    with pytest.raises(ZeroDivisionError):
        z.inverse()


# ------------------------------------- CycloElem against sympy (differential)

SX = sympy.Symbol("x")
PHI5 = sympy.Poly(sympy.cyclotomic_poly(5, SX), SX, domain="QQ")
diff_settings = settings(max_examples=60, deadline=None, database=None, derandomize=True)
coordinate = (st.integers(-10**12, 10**12)
              | st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))


cyclo_elems = st.lists(coordinate, min_size=4, max_size=4).map(CycloElem)
cyclo_pairs = st.tuples(cyclo_elems, cyclo_elems)


def canonical(e):
    """e, after checking that it is stored in lowest terms over den > 0."""
    assert type(e.den) is int and e.den > 0
    assert all(type(c) is int for c in e.nums) and len(e.nums) == 4
    assert gcd(e.den, *e.nums) == 1
    return e


def sympy_coords(e):
    return sympy.Poly([sympy.Rational(c) for c in reversed(e.coords)], SX, domain="QQ")


@diff_settings
@given(cyclo_pairs)
def test_cyclo_mul_add_sub_match_sympy(case):
    a, b = case
    prod = sympy.rem(sympy_coords(a) * sympy_coords(b), PHI5)
    want = [Fraction(int(c.p), int(c.q)) for c in reversed(prod.all_coeffs())]
    want += [Fraction(0)] * (4 - len(want))
    assert canonical(a * b).coords == tuple(want)
    assert canonical(a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
    assert canonical(a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
    assert canonical(-a).coords == tuple(-x for x in a.coords)


@diff_settings
@given(cyclo_pairs)
def test_cyclo_inverse_property(case):
    a, _ = case
    if not a:
        return
    inv = canonical(a.inverse())
    assert canonical(a * inv) == 1
    assert canonical(a / a) == 1


@diff_settings
@given(cyclo_pairs, st.fractions().filter(bool))
def test_cyclo_routes_agree_and_hash_equal(case, f):
    a, b = case
    for other in (canonical((a * Fraction(3, 7)) * Fraction(7, 3)),
                  canonical((a + b) - b),
                  canonical((a * f) * (1 / f)),
                  canonical(b + a - b)):
        assert other == a
        assert hash(other) == hash(a)
    assert canonical(a * b) == canonical(b * a)
    assert canonical(a - a) == 0
    assert canonical(a * 0).den == 1


@diff_settings
@given(cyclo_elems)
def test_galois_permutation_matches_evaluation_at_zeta_k(a):
    # galois permutes exponents and folds them back; the sum evaluates the
    # coordinate polynomial at zeta^k; both give sigma_k(a) for every unit k
    for k in range(1, 5):
        image = CycloElem.zeta() ** k
        at_image = sum((c * image**i for i, c in enumerate(a.coords)),
                       CycloElem.from_rational(0))
        assert canonical(a.galois(k)) == at_image


def euclid_inverse_coords(a):
    """The extended Euclid inverse of a's coordinate polynomial modulo
    Phi_5, from sympy, as power-basis Fractions."""
    euclid = sympy.invert(sympy_coords(a), PHI5)
    want = [Fraction(int(c.p), int(c.q)) for c in reversed(euclid.all_coeffs())]
    return tuple(want + [Fraction(0)] * (4 - len(want)))


def test_rational_inverse_matches_euclid():
    # rational elements are inverted directly
    for value in (1, -1, Fraction(3, 7), -5):
        a = CycloElem.from_rational(value)
        inv = canonical(a.inverse())
        assert inv.coords == euclid_inverse_coords(a)
        assert inv == 1 / Fraction(value) and inv.is_rational()


@diff_settings
@given(cyclo_elems.filter(lambda a: not a.is_rational()))
def test_norm_inverse_matches_euclid(a):
    # non-rational elements are inverted by the norm: the product of the
    # other conjugates galois(2), galois(3), galois(4) over N(a)
    assert canonical(a.inverse()).coords == euclid_inverse_coords(a)


def test_rational_cyclo_hashes_like_fraction():
    assert hash(CycloElem.from_rational(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert hash(CycloElem.from_rational(-7)) == hash(-7) == hash(Fraction(-7))
    z_half = CycloElem.zeta() * Fraction(1, 2)
    half = canonical(z_half - z_half + Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert {CycloElem.from_rational(2): "x"}[2] == "x"


def test_cyclo_constructor_takes_ints_and_fractions_and_reduces():
    e = canonical(CycloElem([Fraction(1, 2), Fraction(1, 3), 0, Fraction(5, 6)]))
    assert (e.nums, e.den) == ((3, 2, 0, 5), 6)
    e = canonical(CycloElem([Fraction(4, 6)] * 4))
    assert (e.nums, e.den) == ((2, 2, 2, 2), 3)
    e = canonical(CycloElem([2, 4, -6, 8]))
    assert (e.nums, e.den) == ((2, 4, -6, 8), 1)
    assert CycloElem((Fraction(2, 4), Fraction(3, 3), 0, 0)) == \
        CycloElem((Fraction(1, 2), 1, 0, 0))
    zero = canonical(CycloElem([Fraction(0, 9)] * 4))
    assert (zero.nums, zero.den) == ((0, 0, 0, 0), 1) and not zero
    assert CycloElem([1, Fraction(1, 2), 0, 0]).coords == (1, Fraction(1, 2), 0, 0)
    with pytest.raises(AttributeError):
        e.den = 2
    # one field, Q(zeta_5): no order to carry
    assert not hasattr(e, "order")
    for wrong in ([1] * 3, [1] * 8):
        with pytest.raises(ExactDomainError):
            CycloElem(wrong)


# --------------------------------------------------------------------- Poly


def test_poly_basic_arithmetic():
    x = Poly.x()
    p = (x + 1) * (x - 1)
    assert p == x**2 - 1
    assert p(3) == 8
    assert p.degree == 2


def test_poly_divmod_random():
    for _ in range(40):
        a = rand_poly(rng.randint(0, 8))
        b = rand_poly(rng.randint(0, 4))
        q, r = divmod(a.map_coeffs(Fraction), b.map_coeffs(Fraction))
        assert b * q + r == a.map_coeffs(Fraction)
        assert r.degree < b.degree


def test_division_by_a_unit_leading_coefficient_stays_in_Z():
    a = Poly((3, -1, 4, 1, -5, 9))
    for lc in (1, -1):
        b = Poly((2, -7, lc))
        q, r = divmod(a, b)
        assert q * b + r == a
        for poly in (q, r, b.monic(), (a * b) // b):
            assert all(type(c) is int for c in poly.coeffs)
    b = Poly((2, -7, 2))
    q, r = divmod(a, b)
    assert q * b + r == a
    for poly in (q, b.monic(), (a * b) // b):
        assert all(type(c) is Fraction for c in poly.coeffs)


# zeros too, so that divisors have interior zeros
int_coeffs = st.lists(st.integers(-10**30, 10**30) | st.just(0), max_size=30)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(int_coeffs, int_coeffs, st.sampled_from([1, -1]))
def test_divmod_by_monic_int_poly_matches_sympy(a_cs, b_cs, lc):
    a, b = Poly(a_cs), Poly(b_cs + [lc])
    q, r = divmod(a, b)
    sq, sr = sympy.div(sympy.Poly(a_cs[::-1] or [0], SX, domain="ZZ"),
                       sympy.Poly(b.coeffs[::-1], SX, domain="ZZ"))
    for mine, ref in ((q, sq), (r, sr)):
        assert all(type(c) is int for c in mine.coeffs)
        assert mine == Poly([int(c) for c in reversed(ref.all_coeffs())])


def naive_divmod(a, b, div):
    """Textbook long division: while deg r >= deg b, subtract
    div(lc r, lc b) x^(deg r - deg b) b from r, every coefficient of b
    included."""
    r, bs = list(a.coeffs), b.coeffs
    q = [0] * max(len(r) - len(bs) + 1, 0)
    while len(r) >= len(bs):
        shift, t = len(r) - len(bs), div(r[-1], bs[-1])
        q[shift] = t
        for j, c in enumerate(bs):
            r[shift + j] = r[shift + j] - t * c
        assert not r.pop()
        while r and not r[-1]:
            r.pop()
    return Poly(q), Poly(r)


small_fractions = st.fractions(-10**6, 10**6, max_denominator=10**4)
small_polys = st.lists(st.integers(-9, 9), max_size=4).map(Poly)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.one_of(
    # over Q, a leading coefficient that is not a unit of Z
    st.tuples(st.just("Q"), st.lists(small_fractions, max_size=20),
              st.builds(lambda cs, lc: cs + [lc], st.lists(small_fractions | st.just(0),
                                                           max_size=8),
                        small_fractions.filter(lambda c: c not in (0, 1, -1)))),
    # coefficients in Z[b] and a divisor X + c(b) with leading coefficient 1,
    # as curve5 divides psi_5 by X + b
    st.tuples(st.just("Z[b]"), st.lists(small_polys, max_size=12),
              small_polys.map(lambda c: [c, Poly((1,))]))))
def test_divmod_matches_naive_long_division(case):
    ring, a_cs, b_cs = case
    a, b = Poly(a_cs), Poly(b_cs)
    # over Z[b] the leading coefficient is 1, its own inverse
    div = {"Q": lambda x, y: Fraction(x) / y, "Z[b]": lambda x, y: x * y}[ring]
    q, r = divmod(a, b)
    assert (q, r) == naive_divmod(a, b, div)
    assert q * b + r == a and r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly())


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=10).filter(lambda cs: cs[-1]),
       st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
       st.lists(st.integers(1, 12), min_size=10, max_size=10))
def test_resultant_and_discriminant_agree_over_Z_and_Q(p_cs, q_cs, dens):
    # the same polynomials with int and with Fraction coefficients; then p
    # over unlike denominators, p = P/L with P integral: Res(P/L, q) =
    # L^-deg(q) Res(P, q) and disc(P/L) = L^-(2n-2) disc(P), n = deg P
    p, q = Poly(p_cs), Poly(q_cs)
    pf, qf = p.map_coeffs(Fraction), q.map_coeffs(Fraction)
    for value, other in ((poly_resultant(p, q), poly_resultant(pf, qf)),
                         (poly_discriminant(p), poly_discriminant(pf))):
        assert type(value) is Fraction and type(other) is Fraction
        assert value == other
    pd = Poly([Fraction(c, m) for c, m in zip(p_cs, dens)])
    L = lcm(*dens)
    P, n = pd.map_coeffs(lambda c: int(c * L)), pd.degree
    assert poly_resultant(pd, q) == poly_resultant(P, q) / Fraction(L) ** max(q.degree, 0)
    assert poly_discriminant(pd) == poly_discriminant(P) / Fraction(L) ** (2 * n - 2)


def test_reversed_and_subst_pow():
    p = Poly((1, 2, 3))
    assert p.subst_x_pow(3) == Poly((1, 0, 0, 2, 0, 0, 3))


def test_poly_over_cyclo_coeffs():
    z = CycloElem.zeta()
    p = Poly((z, 1))  # x + zeta
    q = p * p.map_coeffs(lambda c: c.galois(2) if isinstance(c, CycloElem) else c)
    # (x + z)(x + z^2) = x^2 + (z + z^2) x + z^3
    assert q == Poly((z**3, z + z**2, CycloElem.from_rational(1)))


def test_poly_add_copies_the_longer_tail():
    z = CycloElem.zeta()
    p, q = Poly((z, 2, z, Fraction(1, 3))), Poly((1,))
    for s in (p + q, q + p):
        assert s == Poly((z + 1, 2, z, Fraction(1, 3)))
        assert all(c is d for c, d in zip(s.coeffs[1:], p.coeffs[1:]))
    assert (p - q).coeffs[1:] == p.coeffs[1:]


# ------------------------- Poly products over Q(zeta_5): CycloElem coefficients


def schoolbook_product(a, b):
    """Reference: the double loop over CycloElem.__mul__, every coefficient
    lifted to Q(zeta_5) first."""
    lift = [[c if isinstance(c, CycloElem) else CycloElem.from_rational(c) for c in p]
            for p in (a, b)]
    out = [CycloElem.from_rational(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(lift[0]):
        for j, y in enumerate(lift[1]):
            out[i + j] = out[i + j] + x * y
    return Poly(out)


def check_cyclo_product(a, b):
    pa, pb = Poly(a), Poly(b)
    got = pa * pb
    assert got.coeffs == schoolbook_product(pa.coeffs, pb.coeffs).coeffs
    for c in got.coeffs:
        assert isinstance(c, CycloElem)
        canonical(c)


big = st.integers(-2**300, 2**300)


big_elem = st.builds(lambda nums, den: CycloElem([Fraction(x, den) for x in nums]),
                     st.lists(big, min_size=4, max_size=4), st.integers(1, 2**64))
cyclo_poly_coeffs = st.lists(
    big | st.builds(Fraction, big, st.integers(1, 2**64)) | big_elem
    | st.sampled_from([0, Fraction(0), CycloElem([0] * 4)]), min_size=1, max_size=40)


@diff_settings
@given(cyclo_poly_coeffs, cyclo_poly_coeffs, cyclo_elems.filter(bool), st.integers(0, 39))
def test_cyclo_poly_product_matches_schoolbook(a, b, elem, i):
    # at least one CycloElem coefficient, so the product is over Q(zeta_5)
    a[i % len(a)] = elem
    check_cyclo_product(a, b)
    check_cyclo_product(b, a)


def test_cyclo_poly_product_attains_the_digit_bound():
    # products of large coefficients, all coordinates +-M with one sign, for
    # M of 40 bit lengths
    for e in range(1, 41):
        M = 2**e - 1
        for sign in (1, -1):
            a = [CycloElem([M] * 4)] * 3
            b = [CycloElem([sign * M] * 4)] * 5
            check_cyclo_product(a, b)


def test_other_coefficient_types_keep_the_generic_product():
    p = Poly((mpc(1, 2), mpc(3, -1)))
    q = Poly((mpc(0.5, 0), 2))
    assert (p * q).coeffs == (mpc(0.5, 1), mpc(3.5, 3.5), mpc(6, -2))
    x = Poly.x()
    nested = Poly((x + 1, 2 * x)) * Poly((x, Poly((3,))))
    assert nested.coeffs == (x * x + x, 2 * x * x + 3 * x + 3, 6 * x)
    ints = Poly((1, 2)) * Poly((3, Fraction(1, 2)))
    assert ints.coeffs == (3, Fraction(13, 2), 1)
    assert [type(c) for c in ints.coeffs] == [int, Fraction, Fraction]


# --------------------------------------------------- resultant/discriminant


def test_resultant_multiplicativity():
    for _ in range(15):
        a = rand_poly(rng.randint(1, 4))
        b = rand_poly(rng.randint(1, 4))
        c = rand_poly(rng.randint(1, 4))
        assert poly_resultant(a * b, c) == poly_resultant(a, c) * poly_resultant(b, c)


def test_resultant_as_product_of_root_differences():
    # Res(x^2 - 2, x^2 - 3) = (s2-s3)(s2+s3)(-s2-s3)(-s2+s3) = (2-3)^2 = 1
    assert poly_resultant(Poly((-2, 0, 1)), Poly((-3, 0, 1))) == 1


def test_discriminant_quadratic_cubic():
    # ax^2+bx+c -> b^2-4ac
    assert poly_discriminant(Poly((5, -3, 2))) == 9 - 40
    # x^3 + px + q -> -4p^3 - 27q^2
    p, q = 4, -7
    assert poly_discriminant(Poly((q, p, 0, 1))) == -4 * p**3 - 27 * q**2


def test_discriminant_with_rational_coeffs():
    p = Poly((Fraction(1, 2), Fraction(-3, 4), 1))
    assert poly_discriminant(p) == Fraction(9, 16) - 4 * Fraction(1, 2)


def test_compose_rational_cleared():
    # den^h H(num/den) for H = x^2 - 5x + 1
    H = Poly((1, -5, 1))
    num = Poly((1, 2))
    den = Poly((-1, 0, 1))
    got = poly_compose_rational(H, num, den, 2)
    x = Fraction(7)
    assert got(x) == (den(x) ** 2) * H(num(x) / den(x))
    # a surplus power of den is allowed; a shortfall is refused
    got = poly_compose_rational(H, num, den, 3)
    assert got(x) == (den(x) ** 3) * H(num(x) / den(x))
    with pytest.raises(ExactDomainError):
        poly_compose_rational(H, num, den, 1)


small_int = st.integers(-50, 50)
compose_scalars = {
    "Z": small_int,
    "Q": st.fractions(min_value=-50, max_value=50, max_denominator=30),
    "Q(zeta5)": st.lists(st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=7),
                         min_size=4, max_size=4).map(CycloElem),
}


def compose_case(ring):
    """(H, num, den, h) over a coefficient ring, h from deg H to deg H + 3."""
    scalar = compose_scalars[ring]
    inner = st.lists(scalar, min_size=1, max_size=4).map(Poly)
    return st.tuples(st.lists(scalar, max_size=6).map(Poly), inner,
                     inner.filter(bool), st.integers(0, 3)).map(
        lambda t: (t[0], t[1], t[2], max(t[0].degree, 0) + t[3]))


def schoolbook(a, b):
    """The product of two coefficient lists, coefficient by coefficient."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def naive_compose(H, num, den, h):
    """sum_k H_k num^k den^(h-k), each term a schoolbook product."""
    total = []
    for k, c in enumerate(H.coeffs):
        term = [c]
        for factor in [num.coeffs] * k + [den.coeffs] * (h - k):
            term = schoolbook(term, factor)
        total = [x + y for x, y in zip(total, term)] + total[len(term):] + term[len(total):]
    return Poly(total)


@diff_settings
@given(st.sampled_from(["Z", "Q", "Q(zeta5)"]).flatmap(
    lambda ring: st.tuples(st.just(ring), compose_case(ring))))
def test_compose_rational_matches_naive_sum(case):
    ring, (H, num, den, h) = case
    got = poly_compose_rational(H, num, den, h)
    assert got == naive_compose(H, num, den, h)
    if H.degree <= 0:  # zero H gives zero; constant H gives H_0 den^h
        assert got == (den**h * H.coeffs[0] if H else Poly())
    if ring == "Z":
        assert all(type(c) is int for c in got.coeffs)
    if ring == "Q(zeta5)":
        assert all(type(c) is CycloElem for c in got.coeffs)
    if H.degree >= 1:
        with pytest.raises(ExactDomainError):
            poly_compose_rational(H, num, den, H.degree - 1)


@pytest.mark.parametrize("inner", ("Z", "Q(zeta5)"))
def test_compose_rational_refuses_a_bivariate_H(inner):
    # an H whose coefficients are polynomials in the variable of num and den
    c = Poly((1,)) if inner == "Z" else Poly((CycloElem.zeta(),))
    num, den = Poly((1, 2)), Poly((3, 1))
    for H in (Poly((c,)), Poly((2, Poly.x() + c)), Poly((0, 0, c))):
        with pytest.raises(ExactDomainError, match="scalar"):
            poly_compose_rational(H, num, den, max(H.degree, 2))


@pytest.mark.parametrize("ring", ("Z", "Q"))
def test_compose_rational_over_Z_and_Q_multiplies_no_Poly(monkeypatch, ring):
    # the Horner runs on coefficient lists; the only Poly is the result
    one = 1 if ring == "Z" else Fraction(1, 3)
    H = Poly([one * c for c in (3, 0, -7, 1, 5)])
    num, den = Poly((-1, 0, one)), Poly((0, 2, 1))
    expected = naive_compose(H, num, den, 6)
    calls = [0]
    monkeypatch.setattr(Poly, "__mul__", counting(Poly.__mul__, calls))
    monkeypatch.setattr(Poly, "__rmul__", counting(Poly.__rmul__, calls))
    assert poly_compose_rational(H, num, den, 6) == expected
    assert poly_compose_rational(H, num, den, 4) == naive_compose(H, num, den, 4)
    assert calls[0] == 0


@pytest.mark.parametrize("bits", range(1, 42))
def test_compose_rational_unpacks_coefficients_at_the_stride_edge(bits):
    # Over Q(zeta_5) a coefficient of every bit length up to 41, of either
    # sign, comes back unchanged as a CycloElem.
    top, one = 2**bits - 1, Poly((1,))
    for sign in (1, -1):
        c = CycloElem((0, 0, sign * top, 0))
        # h = 0: the result is H_0 = c
        assert poly_compose_rational(Poly((c,)), one, one, 0).coeffs == (c,)
        # h = 1: c x at x = u - 1 is -c + c u, with a value of each sign
        # below the top coefficient
        assert poly_compose_rational(Poly((0, c)), Poly((-1, 1)), one, 1).coeffs == (-c, c)


# ------------------------------------------------ powers and binary forms


def products_of_binary_powering(e):
    """floor(log2 e) + popcount(e) - 1: squarings plus multiplications by x."""
    return e.bit_length() - 1 + bin(e).count("1") - 1


def counting(mul, counter):
    def wrapped(a, b):
        counter[0] += 1
        return mul(a, b)
    return wrapped


def test_powers_match_repeated_products_with_binary_powering_cost():
    x = CycloElem((2, -1, 0, 3)) * Fraction(1, 3)
    expected = x
    for e in range(1, 71):
        calls = [0]
        assert powers(x, counting(lambda a, b: a * b, calls))(e) == expected
        assert calls[0] == products_of_binary_powering(e), e
        expected = expected * x


@pytest.mark.parametrize("base", (Poly((1, 2, 3)), CycloElem((1, 2, 0, -1))),
                         ids=("Poly", "CycloElem"))
def test_pow_makes_the_binary_powering_products_through_mul(monkeypatch, base):
    # ** looks __mul__ up on the class at call time, so a counter installed
    # there (as the benchmark tracer does) sees every product; the
    # right-to-left loop made two more (1 * x and a discarded last square)
    cls = type(base)
    calls = [0]
    monkeypatch.setattr(cls, "__mul__", counting(cls.__mul__, calls))
    expected = base
    for e in range(1, 41):
        calls[0] = 0
        got = base**e
        assert calls[0] == products_of_binary_powering(e), e
        assert got == expected
        expected = cls.__mul__(expected, base)


def times_int(a, b):
    return (a[0] * b[0],)


def times_sqrt5_schoolbook(a, b):
    return a[0] * b[0] + 5 * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


ints = st.integers(-10**30, 10**30)
pairs = st.tuples(ints, ints)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.just("Z"), st.lists(ints.map(lambda c: (c,)), min_size=1, max_size=40),
              ints.map(lambda c: (c,)), ints.map(lambda c: (c,))),
    st.tuples(st.just("Z[sqrt5]"), st.lists(pairs, min_size=1, max_size=40), pairs, pairs)))
def test_binary_form_matches_the_naive_sum(case):
    # sum_k c_k N^k D^(n-k) term by term, on ints as 1-tuples and on
    # x + y sqrt5 as pairs
    ring, cs, N, D = case
    mul, fast = (times_int, times_int) if ring == "Z" else (times_sqrt5_schoolbook, times_sqrt5)
    got = binary_form(cs, N, D, fast)
    n = len(cs) - 1
    total = (0,) * len(N)
    for k, c in enumerate(cs):
        term = c
        for factor in [N] * k + [D] * (n - k):
            term = mul(term, factor)
        total = tuple(x + y for x, y in zip(total, term))
    assert got == total


@settings(max_examples=200, deadline=None)
@given(pairs, pairs)
def test_sqrt5_size_bounds_the_coordinates_and_is_submultiplicative(a, b):
    # the lemma behind is_fixed_by's and the psi_5 master identity's bounds
    product = times_sqrt5(a, b)
    assert product == times_sqrt5_schoolbook(a, b)
    assert max(map(abs, product)) <= sqrt5_size(product) <= sqrt5_size(a) * sqrt5_size(b)


# ------------------------------------------------------------------ RatFunc


def test_ratfunc_reduction_and_equality():
    x = Poly.x()
    f = RatFunc((x**2 - 1), (x - 1))
    # stored as given: no gcd, no monic normalisation
    assert (f.num, f.den) == (x**2 - 1, x - 1)
    assert f == RatFunc(x + 1)
    assert f(5) == 6
    assert RatFunc(x, 2 * x).den == 2 * x
    assert RatFunc(x, 2 * x) == RatFunc(Fraction(1, 2))
    assert f != RatFunc(x - 1)
    # over Q(zeta_5): (x - zeta)(x + zeta) / (x - zeta) = x + zeta
    zeta = CycloElem.zeta()
    xc = lift_to_cyclo(x)
    g = RatFunc((xc - zeta) * (xc + zeta), xc - zeta)
    assert g.den == xc - zeta
    assert g == RatFunc(xc + zeta)
    assert g != RatFunc(xc + zeta**2)


def test_negative_powers_are_rejected():
    x = Poly.x()
    with pytest.raises(ExactDomainError):
        x ** -1
    with pytest.raises(ExactDomainError):
        RatFunc(x, x + 1) ** -2


def test_ratfunc_field_ops():
    x = Poly.x().map_coeffs(Fraction)
    f = RatFunc(x, x + 1)
    g = RatFunc(1, x)
    assert f * g == RatFunc(Poly((Fraction(1),)), x + 1)
    assert (f + g) - g == f
    assert (f / g) * g == f


def test_ratfunc_substitute():
    x = Poly.x().map_coeffs(Fraction)
    f = RatFunc(x**2 + 1, x)
    g = RatFunc(x - 1, x + 1)
    h = f.substitute(g)
    for v in (Fraction(2), Fraction(5), Fraction(-3, 7)):
        assert h(v) == f(g(v))
    # numerator degree below denominator degree: both sides cleared to deg den
    f = RatFunc(1, x**2 + 1)
    h = f.substitute(g)
    for v in (Fraction(2), Fraction(5), Fraction(-3, 7)):
        assert h(v) == f(g(v))


# --------------------------------------------------------------- MoebiusMap


def test_moebius_canonical_form_and_equality():
    m1 = MoebiusMap(2, 4, 0, 2)
    m2 = MoebiusMap(1, 2, 0, 1)
    assert m1 == m2
    assert hash(m1) == hash(m2)


def test_moebius_group_laws():
    z = CycloElem.zeta()
    S = MoebiusMap(z, 0, 0, 1)
    T = MoebiusMap(golden_unit(), 1, 1, -golden_unit())  # an involution up to scalar
    assert S.element_order() == 5
    assert (S * S.inverse()) == MoebiusMap.identity()
    assert (T * T).entries() == MoebiusMap.identity().entries() or (T * T) == MoebiusMap.identity()
    x = CycloElem.from_rational(Fraction(3, 2))
    assert S.inverse().apply(S.apply(x)) == x
    assert (S * T).apply(x) == S.apply(T.apply(x))


def order_by_products(m):
    acc, n = m, 1
    while acc != MoebiusMap.identity():
        acc, n = acc * m, n + 1
    return n


@pytest.mark.parametrize("entries, order", [
    ((1, -1, 1, 0), 3),                    # z -> (z - 1)/z
    ((1, -1, 1, 1), 4),                    # z -> (z - 1)/(z + 1)
    ((2, -1, 1, 1), 6),                    # z -> (2z - 1)/(z + 1)
    ((-CycloElem.zeta(), 0, 0, 1), 10),    # z -> -zeta z
    ((1, 0, 0, 1), 1),
])
def test_element_order_from_the_trace(entries, order):
    m = MoebiusMap(*entries)
    assert m.element_order() == order == order_by_products(m)


@pytest.mark.parametrize("entries", [(1, 1, 0, 1), (2, 0, 0, 1)])  # z + 1, 2z
def test_element_order_refuses_infinite_order(entries):
    with pytest.raises(ExactDomainError):
        MoebiusMap(*entries).element_order()


def test_moebius_poly_action_matches_roots():
    # the pullback of p under M has roots M^{-1}(root)
    p = Poly((Fraction(-6), Fraction(1), Fraction(1)))  # (x-2)(x+3)
    M = MoebiusMap(1, 1, 1, -1)
    q = moebius_act_on_poly(M, p)
    for root in (Fraction(2), Fraction(-3)):
        pre = M.inverse().apply(CycloElem.from_rational(root))
        assert not q(pre)


def test_moebius_poly_action_is_antihomomorphic():
    p = Poly((Fraction(1), Fraction(-4), Fraction(0), Fraction(1)))
    z = CycloElem.zeta()
    A = MoebiusMap(z, 1, 0, 1)
    B = MoebiusMap(0, 1, 1, 0)
    lhs = moebius_act_on_poly(B, moebius_act_on_poly(A, p))
    rhs = moebius_act_on_poly(A * B, p)
    assert lhs == rhs


@pytest.mark.parametrize("cs, entries, fixed", [
    ((0, 1, 1), (0, 1, 1, 0), False),               # lead 0: x^2 + x -> 1 + x
    ((1, 0, 1), (0, -1, 1, 0), True),               # x^2 + 1 under -1/z
    ((0, 0, 1), (Fraction(1, 2), 0, 0, 3), True),   # x^2 under z/6
    ((1, 0, 1), (Fraction(1, 2), 0, 0, 3), False),
    ((-2, 0, 0, 0, 0, 1), (CycloElem.zeta(), 0, 0, 1), True),  # x^5 - 2 under zeta z
    ((1, 1, 1, 1, 1), (CycloElem.zeta(), 0, 0, 1), False),
    ((7,), (1, 2, 3, 4), True),                     # a constant is fixed by every map
])
def test_in_stabilizer_matches_the_monic_pullback(cs, entries, fixed):
    p, m = Poly(cs), MoebiusMap(*entries)
    assert in_stabilizer(m, p) == (moebius_act_on_poly(m, p) == lift_to_cyclo(p).monic()) == fixed
    with pytest.raises(ExactDomainError):
        in_stabilizer(m, Poly())


def test_lift_to_cyclo():
    p = Poly((1, Fraction(1, 2)))
    q = lift_to_cyclo(p)
    assert isinstance(q.coeffs[0], CycloElem)
    assert q.coeffs[1].as_fraction() == Fraction(1, 2)
