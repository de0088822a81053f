"""Test oracles and helpers that the library itself does not need.

Each is an independent, slower or more literal form of something the
library computes another way: the Fraction Faddeev-LeVerrier recurrence and
the Gaussian elimination over Q(lambda) that `linalg` replaced with integer
arithmetic, a per-letter word equivalence, a whole-word `reduce_pair`, and
small matrix and rendering helpers.
"""

from fractions import Fraction

from balpair.engine import split
from balpair.errors import InternalInvariantError, NotBalanced
from balpair.linalg import mat_mul
from balpair.numberfield import NumberField
from balpair.polynomial import RatPoly
from balpair.substitution import FixedPointStream


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def poly_of_matrix(p: RatPoly, matrix):
    """p(A) with exact arithmetic (for Cayley-Hamilton checks)."""
    n = len(matrix)
    acc = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    for c in reversed(p.coeffs):
        acc = mat_mul(acc, matrix)
        acc = tuple(tuple(acc[i][j] + (c if i == j else 0) for j in range(n))
                    for i in range(n))
    return acc


def char_poly_fractions(matrix) -> RatPoly:
    """Monic characteristic polynomial det(xI - A), Faddeev-LeVerrier."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)]
             for i in range(n)]
    return RatPoly(coeffs)


def left_pf_eigenvector_elimination(matrix, nf: NumberField):
    """Exact left eigenvector L with L*A = lambda*L and first coordinate 1.

    Solves (A^T - lambda I) y = 0 over Q(lambda) by Gaussian elimination;
    Perron-Frobenius makes the kernel one-dimensional for primitive A.
    """
    n = len(matrix)
    lam = nf.generator()
    rows = [[nf.from_rational(matrix[j][i]) - (lam if i == j else 0)
             for j in range(n)] for i in range(n)]
    # forward elimination with exact pivoting on nonzero entries
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if not rows[i][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if r != n - 1:
        raise InternalInvariantError(
            f"PF kernel dimension {n - r}, expected 1; matrix not primitive?")
    free = next(c for c in range(n) if c not in pivots)
    sol = [nf.zero()] * n
    sol[free] = nf.one()
    for row, c in zip(rows, pivots):
        sol[c] = -row[free]
    first = sol[0]
    if first.is_zero:
        raise InternalInvariantError("PF eigenvector has a zero coordinate")
    inv = first.inverse()
    vec = [v * inv for v in sol]
    for v in vec:
        if v.sign() <= 0:
            raise InternalInvariantError("PF eigenvector not strictly positive")
    return vec


def word_equiv(rel, u, v) -> bool:
    """Are two words equivalent under the relation?"""
    acc = [0] * rel.eq_dim
    for letter in u:
        for t, val in enumerate(rel.letter_eq[letter]):
            acc[t] += val
    for letter in v:
        for t, val in enumerate(rel.letter_eq[letter]):
            acc[t] -= val
    return not any(acc)


def reduce_pair(rel, u, v, *, max_word_length=None):
    """Split an equivalent pair of words into irreducible balanced pairs.

    Raises NotBalanced when u and v are not equivalent under the relation,
    and ScanOverflow when one component would exceed max_word_length.
    Concatenating the output reproduces (u, v).
    """
    u, v = tuple(u), tuple(v)
    if not u or not v:
        raise NotBalanced("pair words must be nonempty")
    if not word_equiv(rel, u, v):
        raise NotBalanced("words are not equivalent under the relation")
    cap = max(len(u), len(v)) if max_word_length is None else max_word_length
    return list(split(rel, u, v, cap))


def substitute_pair(subst, pair):
    """Images of both sides under the substitution."""
    return subst.apply(pair.top), subst.apply(pair.bottom)


def in_pf_kernel(subst, z) -> bool:
    """True iff the PF left eigenvector annihilates the integer vector z."""
    spectrum = subst.spectrum()
    terms = (weight * zi for weight, zi in zip(spectrum.l_lambda, z))
    return sum(terms, spectrum.perron.zero()).is_zero


def render_rules(subst):
    alphabet = subst.alphabet
    lines = []
    for i, img in enumerate(subst.rules):
        lines.append(f"{alphabet.tokens[i]} -> {alphabet.render(img)}")
    return "\n".join(lines) + "\n"


def clone(stream):
    """An independent reader of the same fixed word."""
    fresh = FixedPointStream(stream.subst, stream.power, stream.seed)
    fresh._buffer = list(stream._buffer)
    return fresh
