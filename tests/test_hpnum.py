from math import isfinite, isqrt, log, pi, sqrt

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from rrcf5 import hpnum, tables
from rrcf5.classdata import class_poly, reduced_forms
from rrcf5.hpnum import (
    GUARD_BITS,
    PrecisionError,
    PrecisionPolicy,
    QRoot,
    _fixed,
    _to_mpc,
    check_j_by_r,
    climb,
    eta,
    heegner_values,
    j_from_c,
    j_from_tau,
    log2_one_plus_abs_j,
    r_parts,
    reconstruct_int_poly,
    rr_r,
)
from rrcf5.pipeline import _heegner_args, _heegner_roots

PREC = 256


def close(a, b, bits):
    """|a - b| < 2^-bits, evaluated at a safe working precision."""
    with mp.workprec(bits + 64):
        return abs(mpc(a) - mpc(b)) < mpf(2) ** (-bits)


def rel_close(a, b, bits):
    """Relative closeness with floor 1 to avoid division blowups near zero."""
    with mp.workprec(bits + 64):
        scale = max(abs(mpc(a)), abs(mpc(b)), mpf(1))
        return abs(mpc(a) - mpc(b)) / scale < mpf(2) ** (-bits)


def _roots(coeffs, prec):
    """The complex roots of an integer polynomial, lowest-degree coefficient
    first, from mpmath.polyroots at prec bits."""
    with mp.workprec(prec):
        return mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=prec)


def _q_product(tau, prec, chi):
    """prod_{n>=1} (1 - q^n)^chi(n), chi(n) in {-1, 0, 1}, over the n with
    |q^n| >= 2^-(prec + 64).

    The factors are multiplied on integer pairs scaled by 2^w: at Im(tau) >=
    0.005 there are under 2^17 factors and a partial product stays above
    about 2^-120, so w = prec + 192 keeps the relative error below 2^-(prec + 32).
    """
    w = prec + 192
    with mp.workprec(w + 64):
        tau = mpc(tau)
        q = mpmath.exp(2j * mp.pi * tau)
        qr, qi = int(mpmath.floor(q.real * 2**w)), int(mpmath.floor(q.imag * 2**w))
        count = int(mpmath.floor((prec + 64) * mpmath.ln(2) / (2 * mp.pi * tau.imag)))
    prods = {1: (1 << w, 0), -1: (1 << w, 0)}
    qnr, qni = 1 << w, 0
    for n in range(1, count + 1):
        qnr, qni = (qnr * qr - qni * qi) >> w, (qnr * qi + qni * qr) >> w
        if chi(n):
            pr, pi = prods[chi(n)]
            prods[chi(n)] = pr - ((pr * qnr - pi * qni) >> w), pi - ((pr * qni + pi * qnr) >> w)
    with mp.workprec(w):
        num, den = (mpc(mpf(pr) / 2**w, mpf(pi) / 2**w) for pr, pi in (prods[1], prods[-1]))
        return num / den


def _eta_product(tau, prec):
    """Reference: q^{1/24} prod_{n>=1} (1 - q^n), the product formula."""
    with mp.workprec(prec + 64):
        return mpmath.exp(1j * mp.pi * mpc(tau) / 12) * _q_product(tau, prec, lambda n: 1)


def _rr_r_product(tau, prec):
    """Reference: q^{1/5} prod_{n>=1} (1 - q^n)^{(n|5)}, the product formula."""
    legendre = (0, 1, -1, -1, 1)
    with mp.workprec(prec + 64):
        return (mpmath.exp(2j * mp.pi * mpc(tau) / 5)
                * _q_product(tau, prec, lambda n: legendre[n % 5]))


@pytest.mark.parametrize("im", (0.02, 0.2, 2))
@pytest.mark.parametrize("re", (0, 0.3, -0.47))
def test_series_matches_product_formula(re, im):
    prec = 160
    tau = mpc(re, im)
    assert close(eta(tau, prec), _eta_product(tau, prec), prec - 16)
    assert close(rr_r(tau, prec), _rr_r_product(tau, prec), prec - 16)


def _rel_close(a, b, bits):
    """|a - b| <= 2^-bits |b|: relative, since eta is tiny near the real axis."""
    with mp.workprec(bits + 64):
        return abs(mpc(a) - mpc(b)) <= mpf(2) ** (-bits) * abs(mpc(b))


# max_examples is kept small: the reference takes seconds at prec 2048 near
# Im(tau) = 0.005, so that corner is one explicit example.
@settings(max_examples=12, deadline=None, database=None, derandomize=True)
@example(prec=2048, re=0.3, im=0.005)
@given(prec=st.sampled_from((64, 256, 1024, 2048)),
       re=st.floats(-0.5, 0.5), im=st.floats(0.005, 3))
def test_fixed_point_series_match_the_product_formulas(prec, re, im):
    tau = mpc(re, im)
    assert _rel_close(eta(tau, prec), _eta_product(tau, prec), prec - 16)
    assert _rel_close(rr_r(tau, prec), _rr_r_product(tau, prec), prec - 16)


def test_eta_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    with mp.workprec(PREC + 32):
        expected = mpmath.gamma(mpf(1) / 4) / (2 * mp.pi ** (mpf(3) / 4))
    got = eta(1j, PREC)
    assert close(got, expected, PREC - 16)
    assert abs(got.imag) < mpf(2) ** (-(PREC - 16))


def test_eta_modularity_tau_plus_one():
    # eta(tau + 1) = exp(pi i / 12) eta(tau)
    tau = mpc(0.31, 1.7)
    with mp.workprec(PREC + 32):
        lhs = eta(tau + 1, PREC)
        rhs = mpmath.exp(1j * mp.pi / 12) * eta(tau, PREC)
    assert close(lhs, rhs, PREC - 16)


def test_eta_modularity_inversion():
    # eta(-1/tau) = sqrt(-i tau) eta(tau)
    tau = mpc(0.2, 1.3)
    with mp.workprec(PREC + 32):
        lhs = eta(-1 / tau, PREC)
        rhs = mpmath.sqrt(-1j * tau) * eta(tau, PREC)
    assert close(lhs, rhs, PREC - 16)


def test_eta_inversion_needs_the_cancellation_retry():
    # |eta(i/1000)| is about 2^-377: the series sums to far below its terms
    # and is only right to relative 2^-prec after it is summed again wider.
    tau = mpc(0, 0.001)
    with mp.workprec(PREC + 32):
        rhs = eta(-1 / tau, PREC) / mpmath.sqrt(-1j * tau)
    assert _rel_close(eta(tau, PREC), rhs, PREC - 16)


@pytest.mark.parametrize("im, exps", ((0.001, 2), (0.0001, 4)))
def test_a_sum_at_its_noise_floor_is_retried_at_twice_the_loss(monkeypatch, im, exps):
    # eta's first sum at i/1000 reads its own rounding noise, so the loss it
    # measures (about 320 bits) only bounds the true one (about 380) below:
    # the retry takes twice the measured loss and is the last pass, two exps
    # in all.  At i/10000 (a loss near 3,800 bits) the retries double, four
    # passes.
    calls = []
    exp = mpmath.exp
    monkeypatch.setattr(mpmath, "exp", lambda z: calls.append(z) or exp(z))
    tau = mpc(0, im)
    got = eta(tau, PREC)
    assert len(calls) == exps
    with mp.workprec(PREC + 32):
        rhs = eta(-1 / tau, PREC) / mpmath.sqrt(-1j * tau)
    assert _rel_close(got, rhs, PREC - 16)


def test_one_exp_per_evaluation(monkeypatch):
    # Every q of an evaluation is a fixed-point power of one exp: eta and
    # rr_r take one each, and so does j_from_tau, whose check's sums at
    # q(w) = t^25 come first and whose r(w/5) sums at t^5 reuse the exp;
    # heegner_values, which calls j_from_tau per root, takes one per Heegner
    # argument at d = 71, and a Heegner root takes its exp as hpnum.mpf_exp
    # from the form's integers.  At Im(tau) = 0.8 and at d = 71's arguments
    # no sum needs the cancellation retry, which would take the exp again at
    # wider bits.
    calls = []
    exp, mpf_exp = mpmath.exp, hpnum.mpf_exp
    monkeypatch.setattr(mpmath, "exp", lambda z: calls.append(z) or exp(z))
    monkeypatch.setattr(hpnum, "mpf_exp", lambda *a: calls.append(a) or mpf_exp(*a))
    tau = mpc(0.3, 0.8)
    for f in (eta, rr_r):
        calls.clear()
        f(tau, PREC)
        assert len(calls) == 1, f.__name__
    calls.clear()
    j_from_tau(QRoot(tau, 25), PREC)
    assert len(calls) == 1
    args = _heegner_args(71)[3]
    calls.clear()
    heegner_values(_heegner_roots(args), PREC)
    assert len(calls) == len(args) == 7


def test_r_at_i_closed_form():
    # r(i) = sqrt(phi*sqrt(5)) - phi with phi the golden ratio
    with mp.workprec(PREC + 32):
        phi = (1 + mpmath.sqrt(5)) / 2
        expected = mpmath.sqrt(phi * mpmath.sqrt(5)) - phi
    got = rr_r(1j, PREC)
    assert close(got, expected, PREC - 16)


def test_r_period_five():
    # r(tau + 1) = zeta_5 r(tau)
    tau = mpc(0.13, 1.1)
    with mp.workprec(PREC + 32):
        z5 = mpmath.exp(2j * mp.pi / 5)
        assert close(rr_r(tau + 1, PREC), z5 * rr_r(tau, PREC), PREC - 16)


def test_r_satisfies_eta_quotient_identity():
    # 1/r^5 - 11 - r^5 = (eta(tau)/eta(5 tau))^6
    tau = mpc(0.07, 0.9)
    with mp.workprec(PREC + 32):
        r5 = rr_r(tau, PREC) ** 5
        lhs = 1 / r5 - 11 - r5
        rhs = (eta(tau, PREC) / eta(5 * tau, PREC)) ** 6
    assert rel_close(lhs, rhs, PREC - 24)


def _j(tau, prec):
    """j_from_tau at tau, to prec bits, as an mpc."""
    return _to_mpc(j_from_tau(QRoot(tau, 25), prec)[3], prec + 64)


def test_c_from_r():
    # c = (1 - 11 b - b^2) / b from r = r(tau/5) and b = r^5 (r_parts) is
    # (eta(tau/5)/eta(tau))^6, the quotient j_from_tau takes
    # j = (c^2 + 10 c + 5)^3 / c from
    tau = mpc(0.11, 1.4)
    bits, *parts = r_parts(QRoot(tau, 25), PREC + 32)
    r, b, num = (_to_mpc(v, bits) for v in parts)
    with mp.workprec(PREC + 32):
        c = num / b
        assert rel_close(r, rr_r(tau / 5, PREC), PREC - 24)
        assert rel_close(c, (eta(tau / 5, PREC) / eta(tau, PREC)) ** 6, PREC - 24)
        assert rel_close(_j(tau, PREC), (c**2 + 10 * c + 5) ** 3 / c, PREC - 24)


@pytest.mark.parametrize("c", (mpc(3.5, -2.25), mpc(-4.9, 1e-3), mpc(2e-30, 3e-30), mpc(7e8, 0)))
def test_j_from_c_on_pairs(c):
    # c = num/den with num, den pairs at one scale; c near 2^-100 is taken
    # wider, so that j, near 125/c, keeps its bits
    bits = PREC + 64
    num, den = _fixed(c, bits), _fixed(mpc(1, 0), bits)
    got_c, got_j = j_from_c(num, den, bits)
    with mp.workprec(bits + 64):
        c = mpc(c)
        assert close(_to_mpc(got_c, bits), c, PREC + 56)
        assert rel_close(_to_mpc(got_j, bits), (c**2 + 10 * c + 5) ** 3 / c, PREC)


def test_j_at_i_is_1728():
    j = _j(1j, PREC)
    assert close(j, 1728, PREC - 40)


def test_j_at_zeta3_is_0():
    with mp.workprec(PREC + 32):
        tau = (-1 + mpmath.sqrt(-3)) / 2
    j = _j(tau, PREC)
    assert abs(j) < mpf(2) ** (-(PREC - 48))


def test_j_at_2i():
    # j(2i) = 66^3
    j = _j(2j, PREC)
    assert close(j, 66**3, PREC - 40)


def test_reconstruct_rejects_garbage():
    with pytest.raises(PrecisionError):
        reconstruct_int_poly([_fixed(mpc(0.5, 0), PREC + 64)], PREC)


def test_reconstruct_tolerates_2_to_minus_40_but_not_2_to_minus_28():
    # Moving a real root of x^3 - 2x^2 - x + 2 leaves a coefficient off an
    # integer; moving one of p_11's complex roots without its conjugate leaves
    # an imaginary part.
    def pairs(roots):
        return [_fixed(r, PREC + 64) for r in roots]

    for coeffs, roots, why in (
            ((2, -1, -2, 1), [mpc(1), mpc(2), mpc(-1)], "too far from an integer"),
            (tables.P_TABLE[11], _roots(tables.P_TABLE[11], PREC), "imaginary parts")):
        assert reconstruct_int_poly(pairs(roots), PREC) == tuple(coeffs)
        with mp.workprec(PREC):
            near = [roots[0] + mpf(2) ** -40] + roots[1:]
            far = [roots[0] + mpf(2) ** -28] + roots[1:]
        assert reconstruct_int_poly(pairs(near), PREC) == tuple(coeffs)
        with pytest.raises(PrecisionError, match=why):
            reconstruct_int_poly(pairs(far), PREC)


def test_reconstruct_reads_roots_at_their_own_precision():
    # Real 130-bit roots of H_24 at the default 53 bits of the caller, made
    # pairs from their own mantissas: rounding them to 53 bits would move the
    # root near 4.8e6 by about 2^-30.
    H24 = tables.H_TABLE[24]
    roots = [r.real for r in _roots(H24, 130)]
    assert mp.prec == 53 and all(r._mpf_[3] > 100 for r in roots)  # mantissa bits
    assert reconstruct_int_poly([_fixed(r, 98 + 64) for r in roots], 98) == tuple(H24)


def _pair_roots(quadratics, w, nudge=0):
    """For each integer x^2 - s x + n with s^2 <= 4n, its root
    s/2 + i sqrt(n - s^2/4) as a pair at scale 2^w, the first one's real
    part moved by nudge units."""
    roots = [(s << (w - 1), isqrt((4 * n - s * s) << (2 * w - 2))) for s, n in quadratics]
    roots[0] = (roots[0][0] + nudge, roots[0][1])
    return roots


def _outcome(roots, conjugates):
    try:
        return reconstruct_int_poly(roots, PREC, conjugates=conjugates)
    except PrecisionError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(0, 10**6)), min_size=1, max_size=8),
       st.booleans())
def test_conjugate_pair_reconstruction_matches_the_complex_one(quads, moved):
    # roots s/2 + i sqrt(n - s^2/4) of integer quadratics, the first one
    # moved by 2^-20 or not: the product of the real quadratics over the
    # roots equals the complex product over the roots and their conjugates,
    # the integer product or the same PrecisionError
    quads = [(s, (s * s + 3) // 4 + t) for s, t in quads]
    roots = _pair_roots(quads, PREC + 64, moved << (PREC + 64 - 20))
    conj = _outcome(roots, True)
    assert conj == _outcome(roots + [(re, -im) for re, im in roots], False)
    if moved:
        assert conj == "coefficient too far from an integer"
    else:
        want = [1]
        for s, n in quads:  # times x^2 - s x + n
            want = [a - s * b + n * c for a, b, c in zip([0, 0] + want, [0] + want + [0],
                                                         want + [0, 0])]
        assert conj == tuple(want)


def test_conjugate_reconstruction_tolerates_a_root_moved_2_to_minus_80_not_2_to_minus_28():
    # R_84 from its 4 z-values, one of them moved in either part
    zs = heegner_values(_heegner_roots(_heegner_args(84)[3]), PREC)[0]
    R = reconstruct_int_poly(zs, PREC, conjugates=True)
    assert R == tuple(tables.R_TABLE[84])
    w = PREC + 64
    for part in (0, 1):
        for shift, ok in ((80, True), (28, False)):
            moved = list(zs)
            moved[2] = tuple(c + (1 << (w - shift)) * (i == part) for i, c in enumerate(zs[2]))
            if ok:
                assert reconstruct_int_poly(moved, PREC, conjugates=True) == R
            else:
                with pytest.raises(PrecisionError, match="too far from an integer"):
                    reconstruct_int_poly(moved, PREC, conjugates=True)


def test_a_j_list_not_closed_under_conjugation_fails_the_imaginary_test():
    # H_71 from its 7 j-values; a non-real j replaced by its conjugate
    # leaves that conjugate twice and imaginary parts in H's coefficients
    js = heegner_values(_heegner_roots(_heegner_args(71)[3]), PREC)[2]
    assert reconstruct_int_poly(js, PREC) == class_poly(reduced_forms(71))
    tol = 1 << (PREC + 64 - 32)
    k = next(i for i, (_, im) in enumerate(js) if abs(im) > tol)
    bad = list(js)
    bad[k] = (js[k][0], -js[k][1])
    with pytest.raises(PrecisionError, match="imaginary parts"):
        reconstruct_int_poly(bad, PREC)


def test_precision_policy_ladder():
    pol = PrecisionPolicy(initial_bits=100, max_bits=500)
    assert list(pol.ladder()) == [100, 200, 400]


def test_climb_sizes_the_first_step_and_names_it_on_exhaustion():
    steps = []

    def step(bits):
        steps.append(bits)
        raise PrecisionError("never enough")

    # j(i) = 1728 and j(2i) = 66^3: log2(1729) + log2(287497) = 28.89
    taus = [1j, 2j]
    first = 29 + GUARD_BITS
    with pytest.raises(PrecisionError, match=f"from {first} bits up to the ceiling of {3 * first} bits"):
        climb(PrecisionPolicy(max_bits=3 * first), step, taus, "demo")
    assert steps == [first, 2 * first]
    with pytest.raises(PrecisionError, match="first step is above the ceiling"):
        climb(PrecisionPolicy(max_bits=8), step, taus, "demo")


def _heegner_points(d):
    return [arg.w_double for arg in _heegner_args(d)[3]]


@pytest.mark.parametrize("d", sorted(tables.P_TABLE) + [1991])
def test_j_size_matches_mpmath_at_every_heegner_argument(d):
    # against mpmath's own j = 1728 kleinj at 128 bits, at the unreduced w
    with mp.workprec(128):
        for arg in _heegner_args(d)[3]:
            w = mpc(-arg.b_adj, mpmath.sqrt(arg.d)) / (2 * arg.form.a)
            ref = mpmath.log(1 + abs(1728 * mpmath.kleinj(w)), 2)
            assert abs(log2_one_plus_abs_j(arg.w_double) - ref) < 1e-9, (d, w)


def test_j_size_is_invariant_under_T_and_S():
    taus = [1j, 2j, complex(-0.5, 0.8660254037844386), complex(0.3, 0.8),
            complex(0.49, 0.05), complex(-0.2, 1e-3), 1e-4j] + _heegner_points(1991)
    for tau in map(complex, taus):
        size = log2_one_plus_abs_j(tau)
        for image in (tau + 1, tau - 3, -1 / tau):
            assert abs(log2_one_plus_abs_j(image) - size) < 1e-9, (tau, image)


@pytest.mark.parametrize("tau", (0.3, 0j, complex(0.2, -1)))
def test_j_size_rejects_tau_off_the_upper_half_plane(tau):
    # the reduction loop would never leave the real line
    with pytest.raises(ValueError, match="Im"):
        log2_one_plus_abs_j(tau)


def test_j_size_is_finite_where_q_underflows_a_double():
    # at d = 60011 the largest Im(w) is sqrt(60011)/2 = 122.5 and
    # |q| = e^(-2 pi 122.5) is below the smallest double
    sizes = [log2_one_plus_abs_j(w) for w in _heegner_points(60011)]
    assert all(isfinite(s) for s in sizes)
    top = 2 * pi * sqrt(60011) / 2 / log(2)  # log2|j| at the principal form
    assert abs(max(sizes) - top) < 1e-9


@pytest.mark.parametrize("kwargs", ({"initial_bits": 0}, {"initial_bits": -5},
                                    {"max_bits": 0}, {"initial_bits": 64, "max_bits": -1}))
def test_precision_policy_rejects_steps_below_one_bit(kwargs):
    with pytest.raises(ValueError, match="at least 1 bit"):
        PrecisionPolicy(**kwargs)
    assert list(PrecisionPolicy(initial_bits=1, max_bits=4).ladder()) == [1, 2, 4]
