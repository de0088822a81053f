import random
from fractions import Fraction

from balpair.linalg import (Spectrum, char_poly, classify_spectrum,
                            integer_form, left_pf_eigenvector, mat_mul)
from balpair.polynomial import RatPoly, factor_poly
from balpair.substitution import parse_substitution

from oracles import poly_of_matrix, power


def P(*coeffs):
    return RatPoly(coeffs)


EX1 = ((2, 1), (1, 1))
THREE = ((2, 1, 1), (1, 2, 1), (0, 1, 0))
MT = ((1, 1, 1, 1), (1, 1, 1, 1), (1, 0, 2, 1), (1, 1, 1, 1))
NONCON = ((1, 1, 1, 1), (0, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1))


def classify(matrix):
    spectrum = Spectrum.of(matrix)
    return classify_spectrum(spectrum.factors, spectrum.perron)


def test_char_poly_examples():
    assert char_poly(EX1) == P(1, -3, 1)
    assert char_poly(THREE) == P(1, 2, -4, 1)
    assert char_poly(MT) == P(0, 0, 4, -5, 1)


def test_char_poly_is_integral_and_monic(corpus):
    for subst in corpus.values():
        cp = char_poly(subst.transition_matrix())
        assert cp.leading == 1
        assert all(c.denominator == 1 for c in cp.coeffs)


def test_cayley_hamilton_exact(corpus):
    for subst in corpus.values():
        a = subst.transition_matrix()
        result = poly_of_matrix(char_poly(a), a)
        assert all(v == 0 for row in result for v in row)


def test_factor_product_matches_char_poly(corpus):
    for subst in corpus.values():
        cp = char_poly(subst.transition_matrix())
        product = RatPoly.one()
        for f, m in factor_poly(cp):
            product = product * power(f, m)
        assert product == cp


def test_perron_examples():
    nf = Spectrum.of(THREE).perron
    assert nf.min_poly == P(-1, -3, 1)
    assert nf.approx_str(digits=4) == "3.3027"  # truncated decimal

    nf = Spectrum.of(MT).perron
    assert nf.min_poly == P(-4, 1)
    assert nf.element((0, 1)).as_fraction() == 4

    nf = Spectrum.of(EX1).perron
    assert nf.min_poly == P(1, -3, 1)
    assert nf.approx_str(digits=3) == "2.618"


def test_perron_interval_isolates_one_root(corpus):
    for subst in corpus.values():
        nf = Spectrum.of(subst.transition_matrix()).perron
        lo, hi = nf.interval
        if nf.degree == 1:
            assert lo == hi == -nf.min_poly.coeffs[0]
        else:
            assert nf.min_poly.count_roots(lo, hi) == 1


def test_perron_root_dominates_other_factors(corpus):
    # lambda's lower bound must climb above the Cauchy bound of every other
    # factor (all their roots are strictly smaller in modulus)
    for subst in corpus.values():
        a = subst.transition_matrix()
        nf = Spectrum.of(a).perron
        for fac, _ in factor_poly(char_poly(a)):
            if fac == nf.min_poly:
                continue
            bound = fac.cauchy_bound()
            lo, _ = nf.canonical_interval(10)
            assert lo > bound or nf.min_poly.degree == 1


def test_left_pf_eigenvector_three_letter():
    nf = Spectrum.of(THREE).perron
    vec = left_pf_eigenvector(THREE, char_poly(THREE), nf)
    # paper display: (1, (-1+sqrt(13))/2, (5-sqrt(13))/2) = (1, l-2, 4-l)
    assert vec[0] == 1
    assert vec[1].coeffs == (Fraction(-2), Fraction(1))
    assert vec[2].coeffs == (Fraction(4), Fraction(-1))
    assert integer_form(vec) is None


def test_left_pf_eigenvector_rational():
    nf = Spectrum.of(MT).perron
    vec = left_pf_eigenvector(MT, char_poly(MT), nf)
    assert [v.as_fraction() for v in vec] == [1, Fraction(2, 3),
                                              Fraction(4, 3), 1]
    assert integer_form(vec) == (3, 2, 4, 3)


def test_left_pf_eigenvector_noncon_is_golden():
    # derived: (1, g, g, g) with g = (1+sqrt 5)/2 and lambda = g^2
    nf = Spectrum.of(NONCON).perron
    vec = left_pf_eigenvector(NONCON, char_poly(NONCON), nf)
    g = nf.element((0, 1)) - 1
    assert vec == [nf.one(), g, g, g]
    assert (g * g) == g + 1  # golden ratio identity


def test_eigen_equation_exact(corpus):
    for subst in corpus.values():
        a = subst.transition_matrix()
        nf = Spectrum.of(a).perron
        vec = left_pf_eigenvector(a, char_poly(a), nf)
        lam = nf.element((0, 1))
        n = len(a)
        for j in range(n):
            lhs = sum((vec[i] * a[i][j] for i in range(n)), nf.zero())
            assert lhs == lam * vec[j]


def test_classify_ex1():
    report = classify(EX1)
    assert report.charpoly_irreducible
    assert report.pisot_type_literal
    assert report.counts == {"perron": 1, "small": 1}
    assert (report.dim_large, report.dim_small) == (0, 1)


def test_classify_three_letter():
    report = classify(THREE)
    assert not report.charpoly_irreducible
    assert not report.pisot_type_literal  # eigenvalue 1 sits on the circle
    assert report.counts == {"perron": 1, "unit": 1, "small": 1}
    assert report.dim_large == 1


def test_classify_mt():
    report = classify(MT)
    assert report.counts == {"perron": 1, "unit": 1, "zero": 2}
    assert not report.pisot_type_literal
    assert not report.pisot_type_allowing_zero  # the unit eigenvalue blocks it


def test_classify_zero_tolerant_variant():
    # x^2 (x^2 - 3x + 1): zeros plus a Pisot pair
    matrix = ((2, 1, 0, 1), (1, 1, 1, 0), (0, 0, 0, 0), (0, 0, 1, 0))
    cp = char_poly(matrix)
    assert cp == P(0, 0, 1, -3, 1)
    report = classify(matrix)
    assert not report.pisot_type_literal
    assert report.pisot_type_allowing_zero


def test_classify_complex_quartic():
    # companion-style matrix of x^4 - x^3 - 1: one real pair off the circle
    # and one complex pair with |z|^2 ~ 0.884
    subst = parse_substitution("1 -> 14\n2 -> 1\n3 -> 2\n4 -> 3")
    report = classify(subst.transition_matrix())
    assert report.charpoly_irreducible
    kinds = report.counts
    assert kinds["perron"] == 1
    assert kinds["small"] == 3  # negative real ~ -0.82 plus the complex pair


def test_classify_salem_unit_pair():
    # x^4 - x^3 - x^2 - x + 1 is irreducible, self-reciprocal, and not
    # cyclotomic: a Salem number, its inverse, and a complex pair lying
    # exactly on the unit circle
    companion = ((0, 0, 0, -1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))
    assert char_poly(companion) == P(1, -1, -1, -1, 1)
    report = classify(companion)
    assert report.counts == {"perron": 1, "unit": 2, "small": 1}
    assert (report.dim_large, report.dim_small) == (2, 1)
    assert not report.pisot_type_allowing_zero


def test_classify_random_small_matrices():
    rng = random.Random(5)
    done = 0
    while done < 25:
        n = rng.randint(2, 3)
        matrix = tuple(tuple(rng.randint(0, 2) for _ in range(n))
                       for _ in range(n))
        pattern = matrix
        primitive = False
        for _ in range((n - 1) ** 2 + 1):
            if all(all(v for v in row) for row in pattern):
                primitive = True
                break
            pattern = mat_mul(pattern, matrix)
        if not primitive:
            continue
        report = classify(matrix)
        total = sum(report.counts.values())
        assert total == n
        assert report.counts.get("perron") == 1
        assert report.dim_large + report.dim_small == n - 1
        done += 1
