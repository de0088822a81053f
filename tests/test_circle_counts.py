"""Exact unit-circle root counts against high-precision numerical roots."""

import random

import pytest

from balpair.linalg import circle_counts
from balpair.polynomial import RatPoly, factor_poly

mpmath = pytest.importorskip("mpmath")


def oracle(f):
    """(inside, on, outside) from mpmath.polyroots at 80 digits; roots of
    these small integer polynomials are either on the circle or far off it
    at that precision."""
    with mpmath.workdps(80):
        roots = mpmath.polyroots([int(c) for c in reversed(f.coeffs)],
                                 maxsteps=500, extraprec=400)
        gaps = [abs(z) - 1 for z in roots]
        tol = mpmath.mpf(10) ** -40
        return (sum(1 for g in gaps if g < -tol),
                sum(1 for g in gaps if abs(g) <= tol),
                sum(1 for g in gaps if g > tol))


def irreducible_factors(degree, palindrome, rng, draws=25):
    """The distinct irreducible monic integer polynomials of the given degree
    among `draws` random ones; palindromes are self-reciprocal."""
    found = set()
    for _ in range(draws):
        low = [rng.randint(-3, 3) for _ in range(degree)]
        if palindrome:
            half = [1] + low[:degree // 2]
            low = half + half[-2::-1][:degree - len(half)]
        f = RatPoly(low + [1])
        if f.coeffs[0] != 0 and factor_poly(f) == [(f, 1)]:
            found.add(f)
    return sorted(found, key=lambda f: f.coeffs)


@pytest.mark.parametrize("degree, palindrome", [
    *((n, False) for n in range(2, 9)),
    *((n, True) for n in range(2, 9, 2)),
], ids=lambda v: ("palindrome" if v else "general")
    if isinstance(v, bool) else str(v))
def test_circle_counts_match_mpmath(degree, palindrome):
    factors = irreducible_factors(degree, palindrome,
                                  random.Random(degree * 2 + palindrome))
    assert len(factors) >= 4
    for f in factors:
        assert f.reciprocal() == f or not palindrome
        assert circle_counts(f) == oracle(f), f


@pytest.mark.parametrize("coeffs, expected", [
    ((1, -1, -1, -1, 1), (1, 2, 1)),  # Salem quartic
    ((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1), (1, 8, 1)),  # Lehmer's
    ((1, 1, 1, 1, 1, 1, 1), (0, 6, 0)),  # 7th cyclotomic
    ((1, -1, 0, 1, -1, 1, 0, -1, 1), (0, 8, 0)),  # 15th cyclotomic
    ((-1, 0, 0, -1, 1), (3, 0, 1)),  # x^4 - x^3 - 1
    ((-1, -1, -1, 1), (2, 0, 1)),  # tribonacci
    ((5, 0, 1, 1), (0, 0, 3)),  # every root outside
], ids=["salem", "lehmer", "phi7", "phi15", "quartic", "tribonacci",
        "all-outside"])
def test_circle_counts_named_factors(coeffs, expected):
    f = RatPoly(coeffs)
    assert factor_poly(f) == [(f, 1)]
    assert circle_counts(f) == expected == oracle(f)
