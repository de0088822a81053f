"""factor_poly against sympy's factor_list, an independent implementation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balpair import parse_substitution
from balpair.linalg import char_poly
from balpair.polynomial import RatPoly, factor_poly

from oracles import power

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")

EIGHT_LETTERS = ("1 -> 1153\n2 -> 2624\n3 -> 3552\n4 -> 48\n5 -> 5826\n"
                 "6 -> 67\n7 -> 71\n8 -> 877\n")


def P(*coeffs):
    return RatPoly(coeffs)


def oracle(p):
    """Monic irreducible factors with multiplicities, sorted like factor_poly."""
    expr = sum(sympy.Rational(c.numerator, c.denominator) * X ** k
               for k, c in enumerate(p.coeffs))
    counts = {}
    for f, mult in sympy.factor_list(expr, X)[1]:
        coeffs = sympy.Poly(f, X).monic().all_coeffs()[::-1]
        q = RatPoly([Fraction(int(c.p), int(c.q)) for c in coeffs])
        counts[q] = counts.get(q, 0) + mult
    return sorted(counts.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs))


def multinacci(k):
    return RatPoly([-1] * k + [1])


def random_monic(degree, bound, seed):
    rng = random.Random(seed)
    return RatPoly([rng.randint(-bound, bound) for _ in range(degree)] + [1])


@pytest.mark.parametrize("p", [
    P(1, 0, 0, 0, 1),  # reducible mod every prime
    P(1, 0, -10, 0, 1),  # reducible mod every prime
    P(1, 1, 1, 1, 1, 1, 1) * P(1, -1, 0, 1, -1, 1, 0, -1, 1),
    P(1, 1, 1) * P(2, 0, 1),
    *(multinacci(k) for k in range(6, 11)),
    P(-5, 1, 0, 1),  # 97, the least prime above 2B, divides the discriminant
    P(1, 0, 0, 0, 1) * P(1, 0, -10, 0, 1),  # recombination drops a factor
    P(1, 0, 2) * P(1, -1, 0, 3),  # lc 6 changes once a factor is divided out
    random_monic(40, 1000, 40),  # 2B is about 8e15: no trial division to it
    P(0, 0, 0, 1) * power(P(-1, 1), 2) * P(1, 0, 1),
    power(P(-2, 0, 1), 3),
    power(P(0, 1), 2) * power(P(1, 1, 1), 2) * P(-1, 1),
], ids=["x4+1", "x4-10x2+1", "phi7*phi15", "quadratics",
        *(f"multinacci-{k}" for k in range(6, 11)),
        "x3+x-5", "(x4+1)(x4-10x2+1)", "(2x2+1)(3x3-x+1)",
        "random-degree-40", "x3(x-1)2(x2+1)", "(x2-2)3", "x2(x2+x+1)2(x-1)"])
def test_fixed_cases_match_sympy(p):
    assert factor_poly(p) == oracle(p)


def test_eight_letter_char_poly_matches_sympy():
    p = char_poly(parse_substitution(EIGHT_LETTERS).transition_matrix())
    factors = factor_poly(p)
    assert [(f.degree, m) for f, m in factors] == [(1, 1), (7, 1)]
    assert factors[0][0] == P(-1, 1)
    assert factors == oracle(p)


integer_poly = st.builds(
    lambda low, lead: RatPoly(low + [lead]),
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
    st.sampled_from([-3, -2, -1, 1, 2, 3]))


@given(st.lists(st.tuples(integer_poly, st.integers(1, 3)),
                min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_products_match_sympy(parts):
    p = RatPoly.one()
    for f, mult in parts:
        p = p * power(f, mult)
    assert factor_poly(p) == oracle(p)


def test_factor_poly_leaves_global_rng_alone():
    state = random.getstate()
    factor_poly(P(1, 0, -10, 0, 1) * P(1, 0, 0, 0, 1) * P(-1, 1))
    assert random.getstate() == state
