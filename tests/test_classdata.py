from math import gcd

import mpmath
import pytest
from mpmath import mp, mpc, mpf

from rrcf5 import hpnum
from rrcf5.classdata import (
    ClassDataError,
    QuadForm,
    choose_v,
    class_poly,
    is_admissible,
    n_system,
    reduced_forms,
)
from rrcf5.hpnum import PrecisionPolicy


def brute_force_h(d):
    """Independent count of primitive reduced forms of discriminant -d."""
    count = 0
    for a in range(1, d + 1):
        for b in range(-a, a + 1):
            num = b * b + d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if gcd(gcd(a, b), c) == 1:
                count += 1
    return count


def test_class_numbers_match_brute_force():
    for d in range(3, 200):
        if (-d) % 4 in (0, 1):
            assert reduced_forms(d).h == brute_force_h(d), d


def test_known_class_numbers():
    assert reduced_forms(24).h == 2
    assert reduced_forms(36).h == 2
    assert reduced_forms(64).h == 2
    assert reduced_forms(84).h == 4
    assert reduced_forms(96).h == 4
    assert reduced_forms(11).h == 1
    assert reduced_forms(11).forms == (QuadForm(1, 1, 3),)


def test_form_invariants():
    cd = reduced_forms(119)
    assert cd.h == len(cd.forms) == 10
    for fm in cd.forms:
        assert fm.discriminant == -119
        assert fm.is_primitive() and fm.is_reduced()


def test_fundamental_split():
    cd = reduced_forms(36)
    assert (cd.d_K, cd.f) == (-4, 3)
    cd = reduced_forms(99)
    assert (cd.d_K, cd.f) == (-11, 3)
    cd = reduced_forms(19)
    assert (cd.d_K, cd.f) == (-19, 1)
    cd = reduced_forms(64)
    assert (cd.d_K, cd.f) == (-4, 4)


def test_invalid_discriminant_rejected():
    with pytest.raises(ClassDataError):
        reduced_forms(6)  # -6 = 2 (mod 4)


@pytest.mark.parametrize("d", (0, -1))
def test_d_below_one_is_rejected_as_not_positive(d):
    # 0 = 0 (mod 4) and 1 = 1 (mod 4), so the congruence does not catch them
    with pytest.raises(ClassDataError, match=f"d = {d}: d must be a positive integer"):
        reduced_forms(d)


def test_admissibility():
    assert is_admissible(11) and is_admissible(19) and is_admissible(24)
    assert not is_admissible(7) and not is_admissible(15)


def test_choose_v_known_values():
    assert choose_v(19, 1) == (9, False)
    assert choose_v(36, 3) == (8, False)
    assert choose_v(11, 1) == (17, False)
    # conductor 2: every solution of v^2 = -16 (mod 100) is even
    v16, relaxed16 = choose_v(16, 2)
    assert relaxed16 and v16 * v16 % 100 == (-16) % 100


def test_choose_v_congruence_always_holds():
    for d in (11, 16, 19, 24, 31, 36, 44, 56, 71, 104, 119):
        cd = reduced_forms(d)
        v, _ = choose_v(d, cd.f)
        assert (v * v + d) % 100 == 0


def test_choose_v_rejects_inadmissible():
    with pytest.raises(ClassDataError):
        choose_v(23, 1)


def test_n_system_invariants():
    for d in (11, 24, 56, 84, 119):
        cd = reduced_forms(d)
        v, _ = choose_v(d, cd.f)
        args = n_system(cd, v)
        assert len(args) == cd.h
        for arg in args:
            a = arg.form.a
            assert a % 5 != 0
            assert (arg.b_adj + v) % 50 == 0
            assert (arg.b_adj * arg.b_adj + d) % (4 * a) == 0
            assert arg.w_double.imag > 0


def test_n_system_level_refinement():
    cd = reduced_forms(24)
    v, _ = choose_v(24, cd.f)
    for arg in n_system(cd, v):
        # a level-25 argument also satisfies the level-5 condition
        assert (arg.b_adj + v) % 10 == 0


def test_class_poly_one_class():
    # h = 1 cases with known singular moduli
    assert class_poly(reduced_forms(11)) == (32768, 1)  # x + 32^3
    assert class_poly(reduced_forms(16)) == (-287496, 1)  # x - 66^3
    assert class_poly(reduced_forms(19)) == (884736, 1)  # x + 96^3
    assert class_poly(reduced_forms(4)) == (-1728, 1)


def test_class_poly_two_classes():
    got = class_poly(reduced_forms(24))
    assert got == (14670139392, -4834944, 1)
    got = class_poly(reduced_forms(51))
    assert got == (6262062317568, 5541101568, 1)


def test_class_poly_larger():
    got = class_poly(reduced_forms(99))
    assert got == (-56171326053810176, 37616060956672, 1)


def _w(arg, prec):
    """The Heegner argument w = (-b_adj + sqrt(-d)) / (2a) as an mpc at prec
    bits, from the complex root expression."""
    a = arg.form.a
    with mp.workprec(prec):
        return mpc(-arg.b_adj, 0) / (2 * a) + mpc(0, 1) * mp.sqrt(mpc(arg.d)) / (2 * a)


def _every_argument_up_to_500():
    for d in range(3, 501):
        if is_admissible(d) and (-d) % 4 in (0, 1):
            cd = reduced_forms(d)
            yield from n_system(cd, choose_v(d, cd.f)[0])


def _root_is_exp(arg, bits):
    """arg.root() at bits is within 2^-(bits - 2) of mpmath.exp(2 pi i w/25)
    taken at twice the bits."""
    x = arg.root().at(bits)
    with mp.workprec(2 * bits):
        return abs(x - mpmath.exp(2j * mp.pi * _w(arg, 2 * bits) / 25)) < mpf(2) ** (2 - bits)


@pytest.mark.parametrize("prec", (53, 117, 128, 192, 512))
def test_heegner_root_is_exp_of_the_complex_root_expression(prec):
    # the root taken from the form's integers, as exp(-2 pi sqrt(d)/(50a))
    # times cos + i sin of -2 pi b_adj/(50a), is e^(2 pi i w/25)
    for d in (11, 24, 71, 119, 1991):
        cd = reduced_forms(d)
        for arg in n_system(cd, choose_v(d, cd.f)[0]):
            assert _root_is_exp(arg, prec), (d, arg)


def test_heegner_root_is_exp_at_every_argument_up_to_500():
    count = 0
    for arg in _every_argument_up_to_500():
        assert _root_is_exp(arg, 256), arg
        count += 1
    assert count == 720


def test_heegner_root_takes_one_exp_at_the_widest_bits(monkeypatch):
    calls = []
    exp = hpnum.mpf_exp
    monkeypatch.setattr(hpnum, "mpf_exp", lambda *a: calls.append(a) or exp(*a))
    x = n_system(reduced_forms(24), choose_v(24, 1)[0])[0].root()
    wide = x.at(300)
    assert x.at(200) is wide and x.at(300) is wide and len(calls) == 1
    assert x.at(301) is not wide and len(calls) == 2


def test_w_double_is_w_at_53_bits_at_every_argument_up_to_500():
    # the ladders size their first step from w_double, so it must be the
    # double w at 53 bits rounds to: then the step, and precision_used, stay
    # put; the series' term budgets read the same Im(w)
    count = 0
    for arg in _every_argument_up_to_500():
        assert arg.w_double == complex(_w(arg, 53)), arg
        assert arg.root().im == arg.w_double.imag
        count += 1
    assert count == 720
