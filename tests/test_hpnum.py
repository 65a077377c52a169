import mpmath
import pytest
from mpmath import mp, mpc, mpf

from rrcf5.hpnum import (
    GUARD_BITS,
    PrecisionError,
    PrecisionPolicy,
    climb,
    close,
    eta,
    j_from_tau,
    poly_complex_roots,
    reconstruct_int_poly,
    rel_close,
    rr_r,
    weber_x1,
)

PREC = 256


def _eta_product(tau, prec):
    """Reference: q^{1/24} prod_{n>=1} (1 - q^n), the product formula."""
    with mp.workprec(prec + 64):
        tau = mpc(tau)
        q = mpmath.exp(2j * mp.pi * tau)
        prod, qn, tiny = mpc(1), mpc(1), mpf(2) ** (-(prec + 64))
        while abs(qn) >= tiny:
            qn *= q
            prod *= 1 - qn
        return mpmath.exp(1j * mp.pi * tau / 12) * prod


def _rr_r_product(tau, prec):
    """Reference: q^{1/5} prod_{n>=1} (1 - q^n)^{(n|5)}, the product formula."""
    legendre = (0, 1, -1, -1, 1)
    with mp.workprec(prec + 64):
        tau = mpc(tau)
        q = mpmath.exp(2j * mp.pi * tau)
        num, den, qn, tiny = mpc(1), mpc(1), mpc(1), mpf(2) ** (-(prec + 64))
        n = 0
        while abs(qn) >= tiny:
            n += 1
            qn *= q
            if legendre[n % 5] == 1:
                num *= 1 - qn
            elif legendre[n % 5] == -1:
                den *= 1 - qn
        return mpmath.exp(2j * mp.pi * tau / 5) * num / den


@pytest.mark.parametrize("im", (0.02, 0.2, 2))
@pytest.mark.parametrize("re", (0, 0.3, -0.47))
def test_series_matches_product_formula(re, im):
    prec = 160
    tau = mpc(re, im)
    assert close(eta(tau, prec), _eta_product(tau, prec), prec - 16)
    assert close(rr_r(tau, prec), _rr_r_product(tau, prec), prec - 16)


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


def test_weber_x1_cube_from_r():
    # x1(tau)^3 = (eta(tau/5)/eta(tau))^6 = 1/r(tau/5)^5 - 11 - r(tau/5)^5
    tau = mpc(0.11, 1.4)
    with mp.workprec(PREC + 32):
        r5 = rr_r(tau / 5, PREC) ** 5
        assert rel_close(weber_x1(tau, PREC) ** 3, 1 / r5 - 11 - r5, PREC - 24)


def test_j_at_i_is_1728():
    j = j_from_tau(1j, PREC)
    assert close(j, 1728, PREC - 40)


def test_j_at_zeta3_is_0():
    with mp.workprec(PREC + 32):
        tau = (-1 + mpmath.sqrt(-3)) / 2
    j = j_from_tau(tau, PREC)
    assert abs(j) < mpf(2) ** (-(PREC - 48))


def test_j_at_2i():
    # j(2i) = 66^3
    j = j_from_tau(2j, PREC)
    assert close(j, 66**3, PREC - 40)


def test_roots_roundtrip():
    coeffs = (16912, 3120, 20, -12, 1)
    roots = poly_complex_roots(coeffs, PREC)
    rec = reconstruct_int_poly(roots, PREC)
    assert rec == coeffs


def test_roots_sorted_stably():
    coeffs = (1, -36, 398, 36, 1)  # palindromic-ish quartic with real roots
    r1 = poly_complex_roots(coeffs, 192)
    r2 = poly_complex_roots(coeffs, 384)
    for a, b in zip(r1, r2):
        assert close(a, b, 150)


def test_roots_reject_repeated():
    with pytest.raises(ValueError):
        poly_complex_roots((1, 2, 1), PREC)  # (x+1)^2


def test_reconstruct_rejects_garbage():
    with pytest.raises(PrecisionError):
        reconstruct_int_poly([mpc(0.5, 0)], PREC)


def test_precision_policy_ladder():
    pol = PrecisionPolicy(initial_bits=100, max_bits=500)
    assert list(pol.ladder()) == [100, 200, 400]


def test_climb_sizes_the_first_step_and_names_it_on_exhaustion():
    steps = []

    def step(bits):
        steps.append(bits)
        raise PrecisionError("never enough")

    roots = [mpc(2**20 - 1), mpc(0)]  # log2 prod(1 + |root|) = 20
    first = 20 + GUARD_BITS
    with pytest.raises(PrecisionError, match=f"from {first} bits up to the ceiling of {3 * first} bits"):
        climb(PrecisionPolicy(max_bits=3 * first), step, lambda bits: [roots], "demo")
    assert steps == [first, 2 * first]
    with pytest.raises(PrecisionError, match="first step is above the ceiling"):
        climb(PrecisionPolicy(max_bits=8), step, lambda bits: [roots], "demo")
