"""The integer spectral routines against the Fraction and Q(lambda) oracles.

`char_poly` runs Faddeev-LeVerrier over the integers and
`left_pf_eigenvector` reads row 1 of adj(lambda I - A); the oracles in
`oracles.py` are the Fraction recurrence and the Gaussian elimination over
Q(lambda) they replaced. Both sides must give identical RatPolys and
identical FieldScalar coefficient tuples.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balpair.linalg import (Spectrum, char_poly, left_pf_eigenvector,
                            mat_mul, perron_data)
from balpair.numberfield import FieldScalar
from balpair.polynomial import factor_poly
from balpair.substitution import parse_substitution

from conftest import count_calls
from oracles import char_poly_fractions, left_pf_eigenvector_elimination

# mt-rewrite: chi = x^2 (x - 1) (x - 4), a rational lambda with L ~ (3,2,4,3)
MT = ((1, 1, 1, 1), (1, 1, 1, 1), (1, 0, 2, 1), (1, 1, 1, 1))
# chi = (x - 1)(x^2 - 3x - 1): lambda of degree 2 in a 3-letter matrix
THREE = ((2, 1, 1), (1, 2, 1), (0, 1, 0))
# chi = (x - 1) times an irreducible septic
EIGHT = parse_substitution(
    "1 -> 1153\n2 -> 2624\n3 -> 3552\n4 -> 48\n5 -> 5826\n"
    "6 -> 67\n7 -> 71\n8 -> 877\n").transition_matrix()


def is_primitive(matrix):
    """Some power up to Wielandt's bound (n - 1)^2 + 1 is positive."""
    n = len(matrix)
    pattern = tuple(tuple(int(v > 0) for v in row) for row in matrix)
    power = pattern
    for _ in range((n - 1) ** 2 + 1):
        if all(all(row) for row in power):
            return True
        power = tuple(tuple(int(v > 0) for v in row)
                      for row in mat_mul(power, pattern))
    return False


primitive_matrices = st.integers(2, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
        min_size=n, max_size=n).map(tuple)).filter(is_primitive)


def test_examples_cover_the_special_shapes():
    assert Spectrum.of(MT).perron.degree == 1
    assert [v.as_fraction() for v in Spectrum.of(MT).l_lambda] == \
        [1, Fraction(2, 3), Fraction(4, 3), 1]
    three = Spectrum.of(THREE)
    assert len(three.factors) == 2 and three.perron.degree == 2
    eight = Spectrum.of(EIGHT)
    assert len(eight.factors) == 2 and eight.perron.degree == 7


@given(primitive_matrices)
@example(MT)
@example(THREE)
@example(EIGHT)
@settings(max_examples=60, deadline=None)
def test_integer_routines_match_the_oracles(matrix):
    cp = char_poly(matrix)
    assert cp == char_poly_fractions(matrix)
    nf = perron_data(factor_poly(cp))
    got = left_pf_eigenvector(matrix, cp, nf)
    want = left_pf_eigenvector_elimination(matrix, nf)
    assert [v.coeffs for v in got] == [v.coeffs for v in want]


@pytest.mark.parametrize("matrix", [MT, THREE, EIGHT],
                         ids=["rational", "reducible", "eight"])
def test_eigenvector_takes_one_field_inverse(monkeypatch, matrix):
    cp = char_poly(matrix)
    nf = perron_data(factor_poly(cp))
    calls = count_calls(monkeypatch, FieldScalar, "inverse")
    left_pf_eigenvector(matrix, cp, nf)
    assert len(calls) == 1


def test_char_poly_builds_no_fraction(monkeypatch):
    built = []
    new = Fraction.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", spy)
        cp = char_poly(EIGHT)
    # RatPoly stores integers; its Fractions are built only when read
    assert built == []
    assert cp == char_poly_fractions(EIGHT)
