"""Exact linear algebra on transition matrices, in integer arithmetic.

The characteristic polynomial comes from the Faddeev-LeVerrier recurrence
run over the integers: for an integer matrix every coefficient is an integer
(Newton's identities), so each division is exact. The Perron root is the
largest real root across the irreducible factors, isolated by Sturm counts.
The left eigenvector is row 1 of adj(lambda I - A) = q(A), with
q(x) = chi(x) / (x - lambda): integer polynomials in lambda read off the
integer rows e_1 A^k, scaled by one field inverse. Eigenvalues are
classified by modulus from exact root counts per irreducible factor: a Sturm
count on the trace polynomial of a self-reciprocal factor, and the
Routh-Hurwitz count (a Cauchy index) after a Cayley map for any other.
Both polynomials are built on the factor's integer numerators, the Cayley
transform by homogeneous Horner with the binomial steps w + 1 and w - 1,
and both counts read the signs of integer pseudo-remainder sequences.
There is no floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm

from .errors import InternalInvariantError
from .numberfield import NumberField
from .polynomial import RatPoly, factor_poly


# -- small exact matrix helpers ---------------------------------------------


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(m))
                       for j in range(p)) for i in range(n))


def char_poly(matrix) -> RatPoly:
    """Monic characteristic polynomial det(xI - A), by Faddeev-LeVerrier.

    M_1 = I, c_(n-k) = -tr(A M_k) / k and M_(k+1) = A M_k + c_(n-k) I. For an
    integer matrix each c_(n-k) is an integer by Newton's identities, so the
    recurrence stays in the integers and the division is exact.
    """
    n = len(matrix)
    coeffs = [0] * n + [1]
    m = mat_identity(n)
    for k in range(1, n + 1):
        am = mat_mul(matrix, m)
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        m = tuple(tuple(v + c if i == j else v for j, v in enumerate(row))
                  for i, row in enumerate(am))
    return RatPoly(coeffs)


# -- Perron data -------------------------------------------------------------


def perron_data(factors) -> NumberField:
    """Number field of the Perron-Frobenius eigenvalue of a primitive matrix.

    Picks the irreducible factor of the characteristic polynomial (given as
    its factor list) whose largest real root dominates every other factor's
    largest real root, with a Sturm-isolated interval around that root.
    Distinct irreducible factors share no root, so at some precision one
    bracket floor(root * 2^bits) is the largest alone.
    """
    fields = []
    for poly, _mult in factors:
        chain = poly.sturm_chain()  # isolates the root and checks it
        interval = poly.largest_real_root_interval(chain)
        if interval is not None:
            fields.append(NumberField(poly, *interval, chain))
    if not fields:
        raise InternalInvariantError(
            "no real eigenvalue found; matrix cannot be primitive")
    for bits in itertools.count():
        floors = [nf.bracket(bits) for nf in fields]
        top = max(floors)
        if floors.count(top) == 1:
            return fields[floors.index(top)]


def left_pf_eigenvector(matrix, cp: RatPoly, nf: NumberField):
    """Exact left eigenvector L with L*A = lambda*L and first coordinate 1.

    cp is chi, the characteristic polynomial of A. With
    q(x) = chi(x) / (x - lambda), q(A) = adj(lambda I - A), so
    (lambda I - A) q(A) = chi(lambda) I = 0 and each row of q(A) is a left
    eigenvector. At the simple Perron root q(A) has rank one, and row 1 is
    nonzero because the right PF eigenvector is positive. Synthetic division
    gives q = sum_m lambda^m sum_k c_(k+m+1) x^k, so coordinate j of row 1
    is the integer polynomial P_j(lambda) = sum_m lambda^m sum_k
    c_(k+m+1) (e_1 A^k)_j, one field element per coordinate; one inverse
    scales the first coordinate to 1. adj(lambda I - A) = 0 exactly when
    rank(lambda I - A) < n - 1, so the zero-coordinate check also rejects a
    kernel of dimension above one.
    """
    n = len(matrix)
    c = cp.nums  # chi is monic over Z
    rows = [tuple(int(j == 0) for j in range(n))]  # e_1 A^k, k = 0..n-1
    for _ in range(n - 1):
        rows.append(mat_mul(rows[-1:], matrix)[0])
    vec = [nf.element([sum(c[k + m + 1] * rows[k][j] for k in range(n - m))
                       for m in range(n)]) for j in range(n)]
    if vec[0].is_zero:
        raise InternalInvariantError(
            "PF eigenvector has a zero coordinate; matrix not primitive?")
    inv = vec[0].inverse()
    vec = [v * inv for v in vec]
    for v in vec:
        if v.sign() <= 0:
            raise InternalInvariantError("PF eigenvector not strictly positive")
    return vec


def integer_form(vector):
    """Integer-proportional form of an all-rational eigenvector, or None."""
    if not all(v.is_rational for v in vector):
        return None
    fracs = [v.as_fraction() for v in vector]
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = gcd(*(abs(v) for v in ints))
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class Spectrum:
    """Exact spectral data of a primitive transition matrix, built once."""

    char_poly: RatPoly
    factors: tuple  # (irreducible RatPoly, multiplicity) pairs
    perron: NumberField
    l_lambda: tuple  # left PF eigenvector, first coordinate 1
    eigen: EigenReport  # eigenvalue counts by modulus

    @staticmethod
    def of(matrix):
        cp = char_poly(matrix)
        factors = tuple(factor_poly(cp))
        nf = perron_data(factors)
        return Spectrum(cp, factors, nf,
                        tuple(left_pf_eigenvector(matrix, cp, nf)),
                        classify_spectrum(factors, nf))


# -- eigenvalue classification ------------------------------------------------

ZERO, SMALL, UNIT, LARGE, PERRON = "zero", "small", "unit", "large", "perron"


@dataclass(frozen=True)
class EigenReport:
    counts: dict  # kind -> number of eigenvalues, multiplicities included
    charpoly_irreducible: bool
    pisot_type_literal: bool
    pisot_type_allowing_zero: bool
    dim_large: int  # modulus >= 1, PF excluded
    dim_small: int  # modulus < 1, zeros included


def circle_counts(f):
    """(inside, on, outside) counts of the roots of an irreducible f of
    degree n >= 2 with respect to the unit circle, exactly.

    A root on the circle makes f self-reciprocal: its reciprocal is
    irreducible and shares the root 1/z = conj(z). Then every root z pairs
    with 1/z, and f = x^m h(x + 1/x) has two roots on the circle per root of
    h in (-2, 2); the others split evenly between inside and outside. Any
    other f has no root on the circle. The Cayley map z = (w + 1)/(w - 1)
    sends the inside of the circle to the left half-plane, where
    q(w) = (w - 1)^n f((w + 1)/(w - 1)) has (n - I)/2 roots, I the Cauchy
    index of B/A for i^-n q(iy) = A(y) + i B(y) (Routh-Hurwitz).
    """
    n = f.degree
    c = f.nums  # a positive multiple of f has its roots
    if c == c[::-1]:
        m = n // 2
        # h = c_m + sum_k c_(m+k) T_k(t) with T_k(x + 1/x) = x^k + x^-k
        t = RatPoly.x()
        h = RatPoly((c[m],))
        prev, cur = RatPoly((2,)), t
        for coeff in c[m + 1:]:
            h = h + cur * coeff
            prev, cur = cur, t * cur - prev
        on = 2 * h.count_roots(-2, 2)
        inside = (n - on) // 2
    else:
        # q = sum_k c_k (w + 1)^k (w - 1)^(n - k) by homogeneous Horner:
        # q <- q (w + 1) + c_k (w - 1)^(n - k), down from k = n
        q, minus = [c[n]], [1]  # minus is (w - 1)^(n - k)
        for k in range(n - 1, -1, -1):
            minus = [a - b for a, b in zip([0, *minus], [*minus, 0])]
            q = [a + b + c[k] * d
                 for a, b, d in zip([0, *q], [*q, 0], minus)]
        # the term q_j (iy)^j of q(iy), times i^-n, is i^(j-n) q_j y^j
        a = RatPoly([v * (1, 0, -1, 0)[(j - n) % 4] for j, v in enumerate(q)])
        b = RatPoly([v * (0, 1, 0, -1)[(j - n) % 4] for j, v in enumerate(q)])
        on = 0
        inside = (n - a.cauchy_index(b)) // 2
    return inside, on, n - on - inside


def classify_spectrum(factors, nf: NumberField) -> EigenReport:
    """Count the eigenvalues of a primitive transition matrix by modulus,
    exactly, given the factors of its characteristic polynomial and its
    Perron field."""
    counts = dict.fromkeys((PERRON, UNIT, LARGE, SMALL, ZERO), 0)
    for fac, mult in factors:
        if fac == RatPoly.x():
            counts[ZERO] += mult
        elif fac == nf.min_poly and fac.degree == 1:
            counts[PERRON] += mult
        elif fac.degree == 1:
            mag = abs(fac.coeffs[0])
            counts[UNIT if mag == 1 else SMALL if mag < 1 else LARGE] += mult
        else:
            inside, on, outside = circle_counts(fac)
            if fac == nf.min_poly:
                counts[PERRON] += mult
                outside -= 1
            counts[SMALL] += inside * mult
            counts[UNIT] += on * mult
            counts[LARGE] += outside * mult
    if counts[PERRON] != 1:
        raise InternalInvariantError(
            f"{counts[PERRON]} Perron roots classified; matrix not primitive?")
    return EigenReport(
        counts={kind: c for kind, c in counts.items() if c},
        charpoly_irreducible=len(factors) == 1 and factors[0][1] == 1,
        pisot_type_literal=counts[UNIT] + counts[LARGE] + counts[ZERO] == 0,
        pisot_type_allowing_zero=counts[UNIT] + counts[LARGE] == 0,
        dim_large=counts[UNIT] + counts[LARGE],
        dim_small=counts[SMALL] + counts[ZERO])
