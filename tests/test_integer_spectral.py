"""The integer spectral layer against the Fraction references it replaced.

`polynomial`, `numberfield` and `linalg` compute in integers: a RatPoly is
integer numerators over one denominator, Sturm chains are primitive
pseudo-remainder sequences, and enclosures are interval Horner scaled by
2^bits. `oracles` keeps the Fraction forms they replaced. Each check below
asserts equal results on one family of inputs; hypothesis draws random
ones, and the fixtures' and the multinacci chains' factors run as fixed
cases. The mutant gate at the end builds known-wrong integer routines and
asserts that a named fixed check fails on each.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from balpair import numberfield, polynomial
from balpair.linalg import char_poly, circle_counts
from balpair.numberfield import NumberField
from balpair.polynomial import RatPoly, factor_poly

from conftest import CORPUS_NAMES, load_corpus
from oracles import (FractionField, FractionPoly, circle_counts_fractions,
                     power)
from test_split import _mutant

BITS = (16, 24, 48, 72, 128)


def P(*coeffs):
    return RatPoly(coeffs)


def _stored_form(p):
    """Integer numerators with a nonzero last one, over a positive
    denominator, in lowest terms."""
    assert all(type(c) is int for c in p.nums) and type(p.den) is int
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1]


def _same(got, want):
    _stored_form(got)
    assert got.coeffs == want.coeffs


# -- checks -------------------------------------------------------------------

def _check_ring(a, b, x):
    fa, fb = FractionPoly(a.coeffs), FractionPoly(b.coeffs)
    _same(a + b, fa + fb)
    _same(a - b, fa - fb)
    _same(a * b, fa * fb)
    _same(a * x, fa * x)
    _same(a.derivative(), fa.derivative())
    _same(a.gcd(b), fa.gcd(fb))
    assert a.eval(x) == fa.eval(x)
    if not b.is_zero:
        (q, r), (fq, fr) = a.divmod(b), fa.divmod(fb)
        _same(q, fq)
        _same(r, fr)
    if not a.is_zero:
        _same(a.monic(), fa.monic())


def _check_counts(p, points):
    """Each Sturm chain entry is a positive multiple of the exact signed
    remainder, and the root counts between the points are equal."""
    fp = FractionPoly(p.coeffs)
    chain = p.sturm_chain()
    exact = fp.sturm_chain()
    assert len(chain) == len(exact)
    for entry, want in zip(chain, exact):
        assert FractionPoly(entry.coeffs).monic() == want.monic()
        assert (entry.leading > 0) == (want.leading > 0)
    for lo, hi in combinations(sorted(set(points)), 2):
        assert p.count_roots(lo, hi, chain) == fp.count_roots(lo, hi), (lo, hi)
    if p.degree >= 1:
        assert (p.largest_real_root_interval(chain)
                == fp.largest_real_root_interval())


def _check_cauchy(p, q):
    assert p.cauchy_index(q) == FractionPoly(p.coeffs).cauchy_index(
        FractionPoly(q.coeffs))


def _check_circle(f):
    assert circle_counts(f) == circle_counts_fractions(f)


def _check_field(f, lo, hi, elements):
    """Brackets and enclosures at each of BITS, and the residues, products,
    inverses, signs and decimals of the elements."""
    nf, ref = NumberField(f, lo, hi), FractionField(f, lo, hi)
    assert nf.interval == ref.interval
    for bits in BITS:
        assert nf.bracket(bits) == ref.bracket(bits), bits
        for cs in elements:
            assert nf.enclose(cs, bits) == ref.enclose(cs, bits), (cs, bits)
    residues = [ref.residue(FractionPoly(cs)) for cs in elements]
    scalars = [nf.element(cs) for cs in elements]
    for a, ra in zip(scalars, residues):
        _stored_form(a.residue)
        assert a.coeffs == ra
        assert a.sign() == ref.sign_of(ra)
        assert a.decimal(8) == ref.decimal(ra, 8)
        if not a.is_zero:
            assert a.inverse().coeffs == ref.inverse(ra)
        for b, rb in zip(scalars, residues):
            assert (a * b).coeffs == ref.mul(ra, rb)


# -- fixed cases: the fixtures' and multinacci factors, and sparse pairs ------

def _factors():
    polys = [char_poly(load_corpus(name).transition_matrix())
             for name in CORPUS_NAMES]
    polys += [RatPoly([-1] * k + [1]) for k in (6, 7, 8)]  # multinacci
    found = []
    for p in polys:
        found += [f for f, _ in factor_poly(p) if f not in found]
    return found


FACTORS = _factors()
# a degree drop of two or a divisor of the dividend's degree makes a
# pseudo-division take an odd number of steps, where lc(b) < 0 would
# flip the remainder's sign
SPARSE = [P(2, 0, 0, -1), P(-1, 0, 3, 0, 0, -2), P(0, 1, 0, 0, 0, -1),
          P(1, 0, -3, 0, 0, 0, 2), P(-1, 1) * P(-1, 1) * P(2, 0, -1)]
PAIRS = [(P(-2, 0, 1), P(0, 1, -1)), (P(0, -2, 0, 1), P(1, 1, 0, -1)),
         (P(-1, -1, 1), P(3, 0, -2)), (P(1, 0, -5, 0, 1), P(0, 3, 0, -1))]
# elements with negative coefficients, so that accumulators change sign
ELEMENTS = [(0, 1), (-3, 1), (Fraction(-7, 3), 2, -1), (1, -2, 0, 1, -1),
            (Fraction(5, 2), Fraction(-1, 4), 3, -2, 1, -1, 2, -3)]


def _fixed_root_counts():
    for p in FACTORS + SPARSE:
        bound = FractionPoly(p.coeffs).largest_real_root_interval()
        points = [-3, -1, Fraction(-1, 2), 0, 1, 2, Fraction(7, 2)]
        _check_counts(p, points + list(bound or ()))
    for p, q in PAIRS + [(f, f.derivative()) for f in FACTORS + SPARSE]:
        _check_cauchy(p, q)


def _fixed_circle_counts():
    for f in FACTORS:
        if f.degree >= 2:
            _check_circle(f)


def _fixed_enclosures():
    for f in FACTORS:
        interval = f.largest_real_root_interval()
        if interval is not None:
            elements = [cs[:f.degree] for cs in ELEMENTS] + [ELEMENTS[-1]]
            _check_field(f, *interval, elements)


FIXED = {"root counts": _fixed_root_counts,
         "circle counts": _fixed_circle_counts,
         "enclosures": _fixed_enclosures}


@pytest.mark.parametrize("check", sorted(FIXED))
def test_fixed_factors_match_the_fractions(check):
    FIXED[check]()


# -- random cases -------------------------------------------------------------

rationals = st.one_of(st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-9, 9),
                                st.integers(1, 7)))


def polys(max_degree=10, coeffs=rationals):
    return st.lists(coeffs, max_size=max_degree + 1).map(RatPoly)


def _with_repeats(f, g):
    return f * f * g


nonzero = polys().filter(lambda p: not p.is_zero)
# products with a repeated factor, of degree at most 10
repeated = st.builds(_with_repeats, polys(3).filter(lambda p: p.degree >= 1),
                     polys(4).filter(lambda p: not p.is_zero))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(polys(), polys(), rationals)
@example(P(1, 0, 0, 3), P(Fraction(1, 2), 0, -2), Fraction(-5, 3))
def test_ring_operations_match_the_fractions(a, b, x):
    _check_ring(a, b, x)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.one_of(nonzero, repeated), st.lists(rationals, max_size=4),
       rationals)
def test_root_counts_match_the_fractions(p, points, root):
    # (x - root) p has a root at an end of some of the intervals
    with_end = p * P(-root, 1)
    _check_counts(p, points + [root, root + 1, root - 1])
    _check_counts(with_end, points + [root, root + Fraction(1, 3), root - 2])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(nonzero, polys())
@example(*PAIRS[0])
def test_cauchy_indices_match_the_fractions(p, q):
    _check_cauchy(p, q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=11), st.booleans())
def test_circle_counts_match_the_fractions(cs, palindrome):
    # a palindrome of degree <= 10 takes the self-reciprocal branch
    f = RatPoly(cs[:6] + cs[4::-1] if palindrome else cs)
    assume(f.degree >= 2 and f.eval(1) != 0)
    _check_circle(f)


@st.composite
def fields(draw):
    """A min poly with an isolating interval: an irreducible factor with a
    real root of a random integer polynomial, or x - r for a rational r."""
    if draw(st.booleans()):
        f = P(-draw(rationals), 1)
    else:
        g = draw(polys(6, st.integers(-5, 5)))
        assume(g.degree >= 1)
        factors = [f for f, _ in factor_poly(g)
                   if f.largest_real_root_interval() is not None]
        assume(factors)
        f = draw(st.sampled_from(factors))
    return f, f.largest_real_root_interval()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(fields(), st.lists(st.lists(rationals, min_size=1, max_size=6),
                          min_size=1, max_size=3))
@example((P(-5, 4), (1, 2)), [[0, 1], [-3, 1]])  # lambda = 5/4, dyadic
@example((P(-4, 1), (3, 5)), [[-7, 2]])
def test_enclosures_match_the_fractions(field, elements):
    f, interval = field
    _check_field(f, *interval, [tuple(cs) for cs in elements])


def test_references_agree_with_their_own_definitions():
    # the Fraction references against the definitions they encode
    p = FractionPoly((-2, 0, 1))
    assert power(p, 2) == p * p
    assert p.count_roots(-2, 2) == 2 == p.cauchy_index(p.derivative())
    field = FractionField(P(-2, 0, 1), 1, 2)
    assert field.bracket(20) == 1482910  # floor(sqrt(2) * 2^20)
    assert field.decimal((0, 1), 6) == "1.414213"


# -- mutant gate --------------------------------------------------------------

MUTANTS = {
    "pseudo-remainder scaled by lc, not |lc|": (
        polynomial, "_pseudo_divmod", "scale = abs(lead)", "scale = lead"),
    "enclosure corner chosen whatever the accumulator's sign": (
        numberfield, "_interval_horner", "lo *= m if lo >= 0 else m + 1",
        "lo *= m"),
    "_at_least with < for <=": (
        numberfield, "NumberField._at_least",
        "horner(self._ints, num, den) <= 0",
        "horner(self._ints, num, den) < 0"),
}


@pytest.mark.parametrize("mutant, caught_by", [
    ("pseudo-remainder scaled by lc, not |lc|", "root counts"),
    ("enclosure corner chosen whatever the accumulator's sign",
     "enclosures"),
    ("_at_least with < for <=", "enclosures"),
])
def test_a_wrong_integer_routine_fails_a_differential(mutant, caught_by):
    # each fixed check holds as the code is, and fails with the mutant in.
    # A remainder scaled by a negative lc has the wrong signs where a
    # pseudo-division takes an odd number of steps (SPARSE, PAIRS); the
    # wrong corner drops below the true value once an accumulator turns
    # negative (ELEMENTS); and lambda = 4 (mt-rewrite) is a dyadic root,
    # where min_poly is 0 and lambda >= lambda must hold
    check = FIXED[caught_by]
    check()
    module, name, old, new = MUTANTS[mutant]
    owner, _, attr = name.rpartition(".")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(getattr(module, owner) if owner else module, attr,
                      _mutant(module, name, old, new))
        with pytest.raises(AssertionError):
            check()
