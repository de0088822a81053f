import random
from fractions import Fraction
from math import floor, isqrt

import mpmath
import pytest

from balpair.numberfield import NumberField
from balpair.polynomial import RatPoly


def golden_field():
    # lambda is the root of x^2 - 3x - 1 near 3.3028
    return NumberField(RatPoly((-1, -3, 1)), 3, 4)


def test_construction_validates_interval():
    with pytest.raises(ValueError):
        NumberField(RatPoly((-1, -3, 1)), 0, 1)  # no root in (0, 1)
    with pytest.raises(ValueError):
        NumberField(RatPoly((1, 0, -4, 0, 1)), -3, 3)  # several roots


def test_degree_one_field_is_rational():
    nf = NumberField(RatPoly((-4, 1)), 0, 10)
    lam = nf.element((0, 1))
    assert lam.is_rational and lam.as_fraction() == 4
    assert (lam * lam).as_fraction() == 16
    assert lam.sign() == 1
    assert nf.interval == (Fraction(4), Fraction(4))


def test_reduction_by_min_poly():
    nf = golden_field()
    lam = nf.element((0, 1))
    assert (lam * lam).coeffs == (Fraction(1), Fraction(3))  # lambda^2 = 3l+1


def test_sign_by_refinement():
    nf = golden_field()
    lam = nf.element((0, 1))
    assert (lam - 3).sign() == 1
    assert (lam - 4).sign() == -1
    assert (lam - lam).sign() == 0
    assert lam > 3
    assert lam < Fraction(17, 5)


def test_zero_and_subtraction():
    nf = golden_field()
    a = nf.element((Fraction(2, 3), Fraction(-5)))
    assert (a - a).is_zero
    assert not a.is_zero


def test_inverse_and_division():
    nf = golden_field()
    lam = nf.element((0, 1))
    a = lam * 2 - 7
    assert (a * a.inverse()) == nf.one()
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        nf.zero().inverse()


def test_pow():
    nf = golden_field()
    lam = nf.element((0, 1))
    assert lam ** 3 == lam * lam * lam
    assert lam ** 0 == 1
    assert lam ** -1 == lam.inverse()


def test_mixed_arithmetic_with_rationals():
    nf = golden_field()
    lam = nf.element((0, 1))
    assert (1 + lam) - lam == 1
    assert Fraction(1, 2) * lam == lam / 2


def test_decimal_rendering():
    nf = golden_field()
    assert nf.approx_str(digits=4) == "3.3027"  # truncated, not rounded
    assert nf.element((0, 1)).decimal(4) == "3.3027"


def test_is_zero_matches_numeric_evaluation():
    # exact zero test vs 64-digit floating evaluation on random elements
    nf = golden_field()
    rng = random.Random(20260810)
    with mpmath.workdps(64):
        root = mpmath.findroot(lambda x: x**2 - 3*x - 1, mpmath.mpf(3.3))
        for _ in range(1000):
            c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            c1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            elem = nf.element((c0, c1))
            numeric = mpmath.mpf(c0.numerator) / c0.denominator + \
                (mpmath.mpf(c1.numerator) / c1.denominator) * root
            assert elem.is_zero == (abs(numeric) < mpmath.mpf(10) ** -50)


def sqrt2_field(lo, hi):
    return NumberField(RatPoly((-2, 0, 1)), lo, hi)


def test_cross_field_equality_is_false():
    pairs = [(golden_field(), NumberField(RatPoly((1, -3, 1)), 2, 3)),
             # the same minimal polynomial, the other root: -sqrt2, sqrt2
             (sqrt2_field(-2, 0), sqrt2_field(0, 2))]
    for f, g in pairs:
        a, b = f.element((0, 1)), g.element((0, 1))
        for _ in range(2):  # rendering an element does not change equality
            assert f != g and a != b
            with pytest.raises(ValueError):
                a + b
            repr(a), repr(b)
    # overlapping intervals around the same root give the same field
    minus = sqrt2_field(-2, 0)
    for _ in range(2):
        assert minus == sqrt2_field(Fraction(-3, 2), -1)
        repr(minus.element((0, 1)))
    twin = sqrt2_field(-3, -1)
    assert (minus.element((0, 1)) + twin.element((0, 1))).coeffs == (0, 2)


def test_bracket_of_golden_ratio_matches_integer_oracle():
    # phi = (1 + sqrt 5) / 2: floor(phi 2^b) = floor((2^b + sqrt(5 4^b)) / 2)
    nf = NumberField(RatPoly((-1, -1, 1)), 1, 2)
    # its conjugate (1 - sqrt 5) / 2, where the polynomial falls through 0
    conjugate = NumberField(RatPoly((-1, -1, 1)), -1, 0)
    for bits in range(257):
        root5 = isqrt(5 * 4**bits)
        assert nf.bracket(bits) == (2**bits + root5) // 2, bits
        assert conjugate.bracket(bits) == (2**bits - root5 - 1) // 2, bits
    assert nf.bracket(3) == 12  # lower precision after higher
    assert nf.interval == (1, 2)  # the isolating interval is never moved


def test_bracket_of_tribonacci_matches_mpmath():
    nf = NumberField(RatPoly((-1, -1, -1, 1)), 1, 2)
    with mpmath.workdps(80):
        root = mpmath.findroot(lambda x: x**3 - x**2 - x - 1,
                               mpmath.mpf("1.84"))
        for bits in range(201):
            assert nf.bracket(bits) == int(mpmath.floor(root * 2**bits)), bits


@pytest.mark.parametrize("root", [Fraction(7, 3), Fraction(-5, 2),
                                  Fraction(5, 4), Fraction(0)])
def test_bracket_of_rational_lambda_is_its_exact_floor(root):
    nf = NumberField(RatPoly((-root, 1)), 0, 1)
    for bits in range(80):
        assert nf.bracket(bits) == floor(root * 2**bits), bits


def test_bracket_shrinks_around_the_root():
    p = RatPoly((1, -3, 1))
    nf = NumberField(p, *p.largest_real_root_interval())
    lo, hi = nf.canonical_interval(20)
    assert hi - lo < Fraction(1, 10**5)
    assert p.count_roots(lo, hi) == 1
