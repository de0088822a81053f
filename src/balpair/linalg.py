"""Exact linear algebra on transition matrices.

Characteristic polynomials come from the Faddeev-LeVerrier recurrence (exact
over Fraction, integer-valued for integer matrices). The Perron root is the
largest real root across the irreducible factors, isolated by Sturm counts.
The left eigenvector is solved exactly over Q(lambda). Eigenvalue moduli are
classified algebraically wherever possible (zero roots, cyclotomic factors,
Sturm counts for real roots, constant-term arguments for low-degree complex
pairs); only complex pairs of quartic-or-larger factors fall back to floating
enclosures on an escalating precision ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalInvariantError, Undecidable
from .numberfield import NumberField
from .polynomial import RatPoly, cyclotomics_up_to_degree, factor_poly

PRECISION_LADDER = (64, 256, 1024)


# -- small exact matrix helpers ---------------------------------------------


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(m))
                       for j in range(p)) for i in range(n))


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def vec_mat(v, a):
    n = len(a)
    return tuple(sum(v[i] * a[i][j] for i in range(n)) for j in range(n))


def mat_powers(a, count):
    """[I, A, A^2, ..., A^(count-1)]."""
    out = [mat_identity(len(a))]
    for _ in range(count - 1):
        out.append(mat_mul(out[-1], a))
    return out


def char_poly(matrix) -> RatPoly:
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


def poly_of_matrix(p: RatPoly, matrix):
    """p(A) with exact arithmetic (for Cayley-Hamilton checks)."""
    n = len(matrix)
    acc = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    for c in reversed(p.coeffs):
        acc = mat_mul(acc, matrix)
        acc = tuple(tuple(acc[i][j] + (c if i == j else 0) for j in range(n))
                    for i in range(n))
    return acc


# -- Perron data -------------------------------------------------------------


def perron_data(factors) -> NumberField:
    """Number field of the Perron-Frobenius eigenvalue of a primitive matrix.

    Picks the irreducible factor of the characteristic polynomial (given as
    its factor list) whose largest real root dominates every other factor's
    largest real root, with a Sturm-isolated interval around that root.
    """
    best = None  # (poly, lo, hi)
    for poly, _mult in factors:
        interval = poly.largest_real_root_interval()
        if interval is None:
            continue
        if best is None:
            best = (poly, *interval)
            continue
        bp, blo, bhi = best
        lo, hi = interval
        # refine both brackets until they are disjoint; roots of distinct
        # irreducible factors are never equal
        while not (hi < blo or bhi < lo):
            blo, bhi = bp.refine_root_interval(blo, bhi)
            lo, hi = poly.refine_root_interval(lo, hi)
        if lo > bhi:
            best = (poly, lo, hi)
        else:
            best = (bp, blo, bhi)
    if best is None:
        raise InternalInvariantError(
            "no real eigenvalue found; matrix cannot be primitive")
    poly, lo, hi = best
    return NumberField(poly, lo, hi)


def left_pf_eigenvector(matrix, nf: NumberField):
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
    """Exact spectral data of a primitive transition matrix, built once.

    Rendering and exact comparisons may refine the isolating interval of
    the shared Perron field in place; rendered values read only pinned
    enclosures, so refinement never changes an output. The closure leaves
    the field as it is: relations enclose their lengths on a local copy of
    the interval.
    """

    char_poly: RatPoly
    factors: tuple  # (irreducible RatPoly, multiplicity) pairs
    perron: NumberField
    l_lambda: tuple  # left PF eigenvector, first coordinate 1

    @staticmethod
    def of(matrix):
        cp = char_poly(matrix)
        factors = tuple(factor_poly(cp))
        nf = perron_data(factors)
        return Spectrum(cp, factors, nf,
                        tuple(left_pf_eigenvector(matrix, nf)))


# -- eigenvalue classification ------------------------------------------------

ZERO, SMALL, UNIT, LARGE, PERRON = "zero", "small", "unit", "large", "perron"


@dataclass(frozen=True)
class RootClass:
    """One root (or conjugate pair member) of an irreducible factor."""

    factor_index: int
    kind: str  # zero / small / unit / large / perron
    multiplicity: int
    approx: str  # decimal modulus or value, report-friendly


@dataclass
class EigenReport:
    roots: list = field(default_factory=list)  # RootClass entries
    charpoly_irreducible: bool = False
    pisot_type_literal: bool = False
    pisot_type_allowing_zero: bool = False
    constant_length: bool | None = None
    dim_large: int = 0  # modulus >= 1, PF excluded
    dim_small: int = 0  # modulus < 1, zeros included

    def kinds(self):
        out = {}
        for rc in self.roots:
            out[rc.kind] = out.get(rc.kind, 0) + rc.multiplicity
        return out


def _real_root_intervals(poly, chain, lo, hi, count):
    """Disjoint isolating intervals for the `count` real roots in (lo, hi]."""
    if count == 0:
        return []
    if count == 1:
        return [(lo, hi)]
    while True:
        mid = (lo + hi) / 2
        while poly.eval(mid) == 0:
            mid = (mid + hi) / 2
        left = poly.count_roots(lo, mid, chain)
        if 0 < left < count:
            return (_real_root_intervals(poly, chain, lo, mid, left)
                    + _real_root_intervals(poly, chain, mid, hi, count - left))
        if left == 0:
            lo = mid
        else:
            hi = mid


def _classify_real_root(poly, lo, hi):
    """Modulus class of the single real root in the bracket, exactly.

    Roots at +-1 belong to linear factors, which the caller classifies
    directly, so refinement always separates the bracket from the circle.
    """
    while lo < -1 < hi or lo < 1 < hi:
        lo, hi = poly.refine_root_interval(lo, hi)
    if hi <= -1 or lo >= 1:
        return LARGE
    return SMALL


def _complex_pair_classes(poly, real_intervals, precision_bits):
    """Moduli of a factor's conjugate pairs, given its real-root brackets.

    Exact shortcuts: a quadratic pair has |z|^2 = constant term; a cubic has
    one real root rho and |z|^2 = |a0| / |rho|. Higher degrees use certified
    floating enclosures: each approximate root z gets a disk of radius
    (d * |p(z)| / |p'(z)|) that provably contains a root; disjoint disks for a
    squarefree polynomial isolate one root each.
    """
    deg = poly.degree
    n_pairs = (deg - len(real_intervals)) // 2
    if n_pairs == 0:
        return []
    ints = poly.primitive_integer_coeffs()
    lead = ints[-1]
    if deg == 2:
        mod2 = Fraction(ints[0], lead)  # product of the conjugate pair
        return [_class_from_square(mod2, poly)]
    if deg == 3:
        # |z|^2 = |product of all roots| / |real root|
        prod = abs(Fraction(ints[0], lead))
        [(lo, hi)] = real_intervals  # the only real root
        # compare |z|^2 against 1, i.e. prod against |rho|
        for _ in range(10_000):
            alo, ahi = (abs(x) for x in sorted((lo, hi), key=abs))
            if lo <= 0 <= hi:
                alo = Fraction(0)
            if prod > ahi:
                return [LARGE]
            if prod < alo:
                return [SMALL]
            lo, hi = poly.refine_root_interval(lo, hi)
        raise Undecidable("complex pair modulus refinement stalled", poly)
    return _complex_enclosure_classes(poly, n_pairs, precision_bits)


def _class_from_square(mod2, poly):
    if mod2 > 1:
        return LARGE
    if mod2 < 1:
        return SMALL
    # |z| = 1 exactly but the factor is not cyclotomic: flag it
    raise Undecidable("unit-modulus pair on a non-cyclotomic factor", poly)


def _complex_enclosure_classes(poly, n_pairs, precision_bits):
    import mpmath

    ints = poly.primitive_integer_coeffs()
    deg = poly.degree
    coeffs_desc = [int(c) for c in reversed(ints)]
    for bits in PRECISION_LADDER:
        if bits > precision_bits:
            break
        with mpmath.workprec(bits):
            try:
                roots = mpmath.polyroots(coeffs_desc, maxsteps=200,
                                         extraprec=bits)
            except mpmath.libmp.NoConvergence:
                continue
            deriv = [c * (deg - i) for i, c in enumerate(coeffs_desc[:-1])]
            disks = []
            for z in roots:
                pz = mpmath.polyval(coeffs_desc, z)
                dz = mpmath.polyval(deriv, z)
                if dz == 0:
                    disks = None
                    break
                radius = deg * abs(pz) / abs(dz) * 2  # slack factor
                disks.append((z, radius))
            if disks is None:
                continue
            ok = all(abs(disks[i][0] - disks[j][0]) > disks[i][1] + disks[j][1]
                     for i in range(len(disks)) for j in range(i))
            if not ok:
                continue
            classes = []
            resolved = True
            for z, r in disks:
                if mpmath.im(z) <= r:
                    continue  # real root or lower-half representative
                m = abs(z)
                if m - r > 1:
                    classes.append(LARGE)
                elif m + r < 1:
                    classes.append(SMALL)
                else:
                    resolved = False
                    break
            if resolved and len(classes) == n_pairs:
                return classes
    raise Undecidable(
        f"cannot separate complex pair moduli from 1 at "
        f"{min(precision_bits, PRECISION_LADDER[-1])} bits", poly)


def classify_spectrum(factors, nf: NumberField, *, constant_length=None,
                      precision_bits=PRECISION_LADDER[-1],
                      approx_digits=8) -> EigenReport:
    """Classify every eigenvalue modulus of a primitive transition matrix,
    given the factors of its characteristic polynomial and its Perron field.

    Raises Undecidable when a non-cyclotomic factor has a complex pair whose
    modulus cannot be separated from 1 within the precision ladder.
    """
    n = sum(fac.degree * mult for fac, mult in factors)
    cyclo = cyclotomics_up_to_degree(n)
    report = EigenReport(charpoly_irreducible=(len(factors) == 1
                                               and factors[0][1] == 1),
                         constant_length=constant_length)

    def add(idx, kind, mult, approx):
        report.roots.append(RootClass(idx, kind, mult, approx))

    for idx, (fac, mult) in enumerate(factors):
        if fac == RatPoly.x():
            add(idx, ZERO, mult, "0")
            continue
        if fac.degree == 1:
            root = -fac.coeffs[0]
            if fac == nf.min_poly:
                add(idx, PERRON, mult, str(root))
                continue
            mag = abs(root)
            kind = UNIT if mag == 1 else (SMALL if mag < 1 else LARGE)
            add(idx, kind, mult, str(root))
            continue
        if any(fac == q for q in cyclo.values()):
            add(idx, UNIT, fac.degree * mult, "|z| = 1 (root of unity)")
            continue
        chain = fac.sturm_chain()
        bound = fac.cauchy_bound()
        n_real = fac.count_roots(-bound, bound, chain)
        perron_here = fac == nf.min_poly
        # intervals come back in ascending order; for the Perron factor the
        # largest real root is lambda itself
        intervals = _real_root_intervals(fac, chain, -bound, bound, n_real)
        for pos, (lo, hi) in enumerate(intervals):
            if perron_here and pos == len(intervals) - 1:
                add(idx, PERRON, mult, nf.approx_str(digits=approx_digits))
                continue
            kind = _classify_real_root(fac, lo, hi)
            add(idx, kind, mult, _approx_from_bracket(fac, lo, hi, approx_digits))
        for kind in _complex_pair_classes(fac, intervals, precision_bits):
            add(idx, kind, 2 * mult, f"conjugate pair, |z| {'>' if kind == LARGE else '<'} 1")

    total = sum(rc.multiplicity for rc in report.roots)
    if total != n:
        raise InternalInvariantError(
            f"classified {total} roots for an {n}x{n} matrix")
    perron_count = sum(rc.multiplicity for rc in report.roots
                       if rc.kind == PERRON)
    if perron_count != 1:
        raise InternalInvariantError(
            f"{perron_count} Perron roots classified; matrix not primitive?")

    kinds = report.kinds()
    report.dim_large = kinds.get(UNIT, 0) + kinds.get(LARGE, 0)
    report.dim_small = kinds.get(SMALL, 0) + kinds.get(ZERO, 0)
    non_pf = [rc for rc in report.roots if rc.kind != PERRON]
    report.pisot_type_allowing_zero = all(
        rc.kind in (SMALL, ZERO) for rc in non_pf)
    report.pisot_type_literal = all(rc.kind == SMALL for rc in non_pf)
    return report


def _approx_from_bracket(poly, lo, hi, digits):
    target = Fraction(1, 10 ** (digits + 2))
    while hi - lo > target:
        lo, hi = poly.refine_root_interval(lo, hi)
    from .numberfield import _format_decimal
    return _format_decimal((lo + hi) / 2, digits)
