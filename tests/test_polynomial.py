from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from balpair.polynomial import RatPoly, _is_prime, factor_poly

from oracles import FractionPoly, power


def P(*coeffs):
    return RatPoly(coeffs)


def test_normalization_and_degree():
    assert P(1, 2, 0, 0).coeffs == (1, 2)
    assert P().is_zero
    assert P().degree == -1
    assert P(0, 0, 5).degree == 2


def test_ring_ops():
    p = P(1, 1)  # 1 + x
    q = P(-1, 1)  # -1 + x
    assert p * q == P(-1, 0, 1)
    assert p + q == P(0, 2)
    assert p - p == RatPoly.zero()
    assert power(p, 3) == p * p * p == P(1, 3, 3, 1)


def test_divmod_exact():
    num = P(-1, 0, 0, 1)  # x^3 - 1
    den = P(-1, 1)
    q, r = num.divmod(den)
    assert r.is_zero
    assert q == P(1, 1, 1)
    q, r = P(1, 1, 1).divmod(P(2, 1))
    assert q * P(2, 1) + r == P(1, 1, 1)


def test_gcd_and_squarefree():
    p = power(P(-1, 1), 2) * P(1, 1)
    assert p.gcd(p.derivative()) == P(-1, 1)
    assert p // p.gcd(p.derivative()) == P(-1, 1) * P(1, 1)


def test_eval_interval_contains_value():
    # the Fraction reference that NumberField.enclose is checked against
    p = FractionPoly((1, -3, 1))
    lo, hi = p.eval_interval(Fraction(2), Fraction(3))
    assert lo <= p.eval(Fraction(5, 2)) <= hi


# factor_poly: derived examples (synthetic division / discriminant checks)

def test_factor_cubic_with_rational_root():
    # x^3 - 4x^2 + 2x + 1 has the rational root 1
    factors = factor_poly(P(1, 2, -4, 1))
    assert factors == [(P(-1, 1), 1), (P(-1, -3, 1), 1)]


def test_factor_irreducible_quadratic():
    # discriminant 5 is not a square
    assert factor_poly(P(1, -3, 1)) == [(P(1, -3, 1), 1)]


def test_factor_with_zero_roots():
    # x^4 - 5x^3 + 4x^2 = x^2 (x-1)(x-4), sorted by degree then coefficients
    factors = factor_poly(P(0, 0, 4, -5, 1))
    assert factors == [(P(-4, 1), 1), (P(-1, 1), 1), (P(0, 1), 2)]


def test_factor_quartic_two_quadratics():
    # (x^2+x+1)(x^2+2) has no rational roots: no linear factor splits it
    p = P(1, 1, 1) * P(2, 0, 1)
    assert factor_poly(p) == [(P(1, 1, 1), 1), (P(2, 0, 1), 1)]


def test_factor_selmer_trinomial_irreducible():
    # x^9 - x - 1 is irreducible (Selmer)
    selmer = P(-1, -1, 0, 0, 0, 0, 0, 0, 0, 1)
    assert factor_poly(selmer) == [(selmer, 1)]


def test_is_prime_matches_trial_division():
    for n in range(3, 20_000, 2):
        assert _is_prime(n) == all(n % q for q in range(3, isqrt(n) + 1, 2))


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first k prime bases, k = 1 to 12
    # (k = 7, 8 and k = 9, 10, 11 share one); the last passes bases 2 to 37
    # and falls only to base 41
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_factor_product_reconstructs(a, b, mult):
    p = (RatPoly(a + [1]) * power(RatPoly(b + [1]), mult)).monic()
    product = RatPoly.one()
    for f, m in factor_poly(p):
        product = product * power(f, m)
    assert product == p


# Sturm machinery

def test_sturm_counts():
    p = P(1, -3, 1)  # roots ~0.382, ~2.618
    assert p.count_roots(Fraction(0), Fraction(1)) == 1
    assert p.count_roots(Fraction(1), Fraction(3)) == 1
    assert p.count_roots(Fraction(0), Fraction(3)) == 2
    b = p.cauchy_bound()
    assert p.count_roots(-b, b) == 2


def test_largest_real_root_interval():
    p = P(1, -3, 1)
    lo, hi = p.largest_real_root_interval()
    assert p.count_roots(lo, hi) == 1
    assert Fraction(5, 2) < hi  # the top root is ~2.618
    assert lo < Fraction(27, 10)


def test_no_real_roots():
    assert P(1, 0, 1).largest_real_root_interval() is None


def test_cauchy_index_of_derivative_counts_real_roots():
    for p in (P(-1, 0, 1), P(1, 0, 1), P(0, -2, 0, 1), P(-1, -1, 0, 0, 1)):
        b = p.cauchy_bound()
        assert p.cauchy_index(p.derivative()) == p.count_roots(-b, b)
    assert P(1, 0, 1).cauchy_index(P(1)) == 0  # no real pole
    assert P(0, 1).cauchy_index(P(1)) == 1  # 1/x jumps from -inf to +inf
    assert P(0, 1).cauchy_index(P(-1)) == -1
