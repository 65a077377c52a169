import random

import mpmath
import pytest

from rrcf5.curve5 import (
    C5Report,
    CurveError,
    TateCurve5,
    _numeric_group_check,
    delta_identity_symbolic,
    det_D_identity,
    division_poly_5,
    division_poly_factors_symbolic,
    five_torsion_base_points_symbolic,
    g2g3_delta_rewrite,
    master_torsion_identity,
    tau_and_isogeny_checks,
    verify_C5_solution,
    verify_duke_identities,
    verify_j_forms,
)
from rrcf5.exactmath import Poly

rng = random.Random(20260823)


def test_invariants_at_rational_b():
    from fractions import Fraction

    E = TateCurve5(Fraction(3, 7))
    # b2, b4, b6, b8 from the Weierstrass coefficients
    b = Fraction(3, 7)
    assert E.b2 == b * b + 6 * b + 1
    assert E.b4 == b * (1 + b)
    assert E.b6 == b * b
    assert E.b8 == b**3
    assert E.g2**3 - 27 * E.g3**2 == E.delta


def test_delta_identity_symbolic():
    assert delta_identity_symbolic()


def test_five_torsion_base_points():
    assert five_torsion_base_points_symbolic()


def test_g2g3_delta_rewrite():
    assert g2g3_delta_rewrite()


def test_division_poly_degree_and_factors():
    psi = division_poly_5(TateCurve5(Poly.x()))
    assert psi.degree == 12
    assert division_poly_factors_symbolic()


def test_division_poly_rejects_singular_b():
    with pytest.raises(CurveError):
        division_poly_5(TateCurve5(0))


def test_master_torsion_identity_all_twists():
    for t in range(5):
        assert master_torsion_identity(twist=t)


def test_master_torsion_identity_negative_control():
    assert not master_torsion_identity(perturb_A1=1)


@pytest.mark.parametrize("t", range(5))
def test_master_torsion_identity_negative_control_every_twist(t):
    assert not master_torsion_identity(twist=t, perturb_A1=1)


def test_det_D_closed_form():
    closed_ok, conj_ok, vanishes = det_D_identity()
    assert closed_ok
    assert conj_ok
    assert vanishes  # D = 0 at b = (sqrt5 - 1)/2


def test_tau_and_isogeny():
    checks = tau_and_isogeny_checks()
    assert all(checks.values()), checks


def test_j_forms_agree():
    assert verify_j_forms()


def test_numeric_group_law():
    assert _numeric_group_check(0.5, prec=192)


@pytest.mark.parametrize("d", [11, 16, 19, 24])
def test_C5_solutions(d):
    rep = verify_C5_solution(d, prec=384)
    assert isinstance(rep, C5Report)
    assert rep.all_ok
    assert rep.residual_bits >= 192


def test_duke_identities_random_taus():
    taus = [mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))
            for _ in range(4)]
    assert verify_duke_identities(taus, prec=192)
