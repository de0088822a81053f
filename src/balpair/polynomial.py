"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are stored densely, lowest degree first, normalized so the
leading coefficient is nonzero (the zero polynomial has no coefficients).
Everything here is exact: Fraction coefficients, Sturm-based root counting,
and factorization into irreducibles over Q at any degree by the big-prime
Zassenhaus method. The squarefree part p / gcd(p, p') is made primitive
over Z and factored modulo one prime above twice its Landau-Mignotte
coefficient bound that keeps it squarefree (distinct-degree factorization,
then Cantor-Zassenhaus equal-degree splitting); exact division of
gcd(p, p') by each factor counts its multiplicity. The modulus exceeds twice every
coefficient of the leading coefficient times a monic factor, so nothing is
lifted: products of modular factors are read with symmetric residues and
recombined into the factors over Z by trial division.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


class RatPoly:
    """Immutable polynomial with Fraction coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    # -- basic structure -------------------------------------------------

    @staticmethod
    def zero():
        return RatPoly(())

    @staticmethod
    def one():
        return RatPoly((1,))

    @staticmethod
    def x():
        return RatPoly((0, 1))

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree, with the convention deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RatPoly({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "x" if k == 1 else f"x^{k}"
                sign = "-" if c < 0 else "+"
                parts.append(f"{sign} {mag}{var}" if parts else
                             (f"-{mag}{var}" if c < 0 else f"{mag}{var}"))
        return " ".join(parts)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = RatPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other):
        """Exact euclidean division; other must be nonzero."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            q = rem[-1] / lead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return RatPoly(quo), RatPoly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero:
            return self
        lead = self.leading
        return RatPoly([c / lead for c in self.coeffs])

    def derivative(self):
        return RatPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        """Horner evaluation at a Fraction (or int)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, lo, hi):
        """Interval extension of Horner: encloses {p(t) : lo <= t <= hi}."""
        alo, ahi = Fraction(0), Fraction(0)
        for c in reversed(self.coeffs):
            cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
            alo, ahi = min(cands) + c, max(cands) + c
        return alo, ahi

    def reciprocal(self):
        """x^deg * p(1/x); reverses the coefficient list."""
        return RatPoly(tuple(reversed(self.coeffs)))

    # -- gcd -------------------------------------------------------------

    def gcd(self, other):
        """Monic gcd by the euclidean algorithm."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    # -- integer form ------------------------------------------------------

    def primitive_integer_coeffs(self):
        """Scale to integer coefficients with content 1 and positive leading."""
        if self.is_zero:
            return ()
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*(abs(v) for v in ints))
        ints = [v // g for v in ints]
        if ints[-1] < 0:
            ints = [-v for v in ints]
        return tuple(ints)

    # -- real root machinery ----------------------------------------------

    def sturm_chain(self, other=None):
        """Signed remainder sequence of (self, other); other defaults to the
        derivative, which makes it the Sturm chain of self."""
        chain = [self, self.derivative() if other is None else other]
        while not chain[-1].is_zero and chain[-1].degree > 0:
            chain.append(-(chain[-2] % chain[-1]))
        if chain[-1].is_zero:
            chain.pop()
        return chain

    @staticmethod
    def _variations(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    @staticmethod
    def _sign_changes(chain, x):
        values = (p.eval(x) for p in chain)
        return RatPoly._variations([v > 0 for v in values if v != 0])

    def cauchy_index(self, other):
        """Cauchy index of other/self over the real line: jumps from -inf to
        +inf minus jumps from +inf to -inf at its real poles. It equals the
        sign variations of the signed remainder sequence of (self, other) at
        -inf minus those at +inf (Basu-Pollack-Roy, Theorem 2.58)."""
        chain = self.sturm_chain(other)
        at_plus = [p.leading > 0 for p in chain]
        at_minus = [s != (p.degree % 2 == 1) for p, s in zip(chain, at_plus)]
        return RatPoly._variations(at_minus) - RatPoly._variations(at_plus)

    def count_roots(self, lo, hi, chain=None):
        """Number of distinct real roots in the half-open interval (lo, hi]."""
        if chain is None:
            chain = self.sturm_chain()
        return (RatPoly._sign_changes(chain, lo)
                - RatPoly._sign_changes(chain, hi))

    def cauchy_bound(self):
        """Rational B with every complex root of modulus < B."""
        if self.degree < 1:
            return Fraction(1)
        lead = abs(self.leading)
        m = max((abs(c) for c in self.coeffs[:-1]), default=Fraction(0))
        return Fraction(1) + m / lead

    def largest_real_root_interval(self, chain=None):
        """Isolating interval (lo, hi] for the largest real root, or None.

        Sturm count over the returned interval is exactly 1 and the endpoints
        are not roots.
        """
        if chain is None:
            chain = self.sturm_chain()
        bound = self.cauchy_bound()
        lo, hi = -bound, bound
        if self.count_roots(lo, hi, chain) == 0:
            return None
        while self.count_roots(lo, hi, chain) > 1:
            mid = (lo + hi) / 2
            while self.eval(mid) == 0:
                mid = (mid + hi) / 2  # endpoints must not be roots
            if self.count_roots(mid, hi, chain) >= 1:
                lo = mid
            else:
                hi = mid
        return lo, hi


# -- factorization ---------------------------------------------------------
#
# Polynomials over Z and over Z/m are plain int lists, lowest degree first,
# with no trailing zeros; a list reduced mod m has entries in [0, m).

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _reduce(a, m):
    return _trim([c % m for c in a])


def _sub_mod(a, b, m):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _reduce(out, m)


def _mul_mod(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, m)


def _divmod_mod(a, b, m):
    """Quotient and remainder in (Z/m)[x]; lc(b) must be a unit mod m."""
    rem = _reduce(a, m)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    quo = [0] * max(len(rem) - db, 0)
    while len(rem) > db:
        k = len(rem) - 1 - db
        q = rem[-1] * inv % m
        quo[k] = q
        for i, c in enumerate(b):
            rem[k + i] = (rem[k + i] - q * c) % m
        _trim(rem)
    return quo, rem


def _monic_mod(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd_mod(a, b, p):
    """Monic gcd in GF(p)[x]; a must be nonzero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _powmod(a, e, f, p):
    """a^e mod f in GF(p)[x]."""
    result, a = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            result = _divmod_mod(_mul_mod(result, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
    return result


def _distinct_degree(f, p):
    """[(d, product of the degree-d irreducible factors)] of a squarefree
    monic f in GF(p)[x]."""
    out = []
    h = [0, 1]  # x^(p^d) mod f
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _sub_mod(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        # every factor left has degree > d, so f itself is irreducible
        out.append((len(f) - 1, f))
    return out


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus: the irreducible factors of a monic f in GF(p)[x],
    p odd, whose irreducible factors all have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        g = _gcd_mod(f, _sub_mod(_powmod(a, e, f, p), [1], p), p)
        if 0 < len(g) - 1 < n:
            break
    return (_equal_degree(g, d, p, rng)
            + _equal_degree(_divmod_mod(f, g, p)[0], d, p, rng))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least composite that passes the strong test to every base of
# _MR_BASES (Sorenson and Webster 2015)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p):
    """Primality of an integer p > 2: the strong probable-prime test to the
    prime bases 2 to 41, which every prime passes and no composite below
    _MR_LIMIT does; from _MR_LIMIT on, trial division decides."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d, d odd
    d = (p - 1) >> s
    for a in _MR_BASES:
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return p < _MR_LIMIT or all(p % q
                                for q in range(3, math.isqrt(p) + 1, 2))


def _zassenhaus(f):
    """Irreducible factors in Z[x] of a squarefree primitive f (int list)
    with positive leading coefficient, each primitive with positive lead.

    f is factored modulo p, the least prime above twice the Landau-Mignotte
    bound B that keeps f squarefree. Since p > 2B >= 2 lc(f), lc(f) is a
    unit mod p.
    """
    n = len(f) - 1
    if n == 1:
        return [f]
    # coefficients of lc(f) * (factor / its lc) are bounded by the
    # Landau-Mignotte bound; a modulus past twice it reads them symmetrically
    bound = 2 ** n * (math.isqrt(sum(c * c for c in f)) + 1) * f[-1]
    df = [k * c for k, c in enumerate(f)][1:]
    p = 2 * bound + 1
    while not (_is_prime(p)
               and len(_gcd_mod(_reduce(f, p), _reduce(df, p), p)) == 1):
        p += 1
    rng = random.Random(0)
    modular = [g for d, gd in _distinct_degree(_monic_mod(f, p), p)
               for g in _equal_degree(gd, d, p, rng)]
    factors = []
    size = 1
    while 2 * size <= len(modular):
        for subset in itertools.combinations(range(len(modular)), size):
            g = [f[-1]]
            for i in subset:
                g = _mul_mod(g, modular[i], p)
            g = [c - p if 2 * c > p else c for c in g]
            content = math.gcd(*g)
            g = [c // content for c in g]
            q, r = RatPoly(f).divmod(RatPoly(g))
            if r.is_zero:
                # g is primitive, so the quotient is in Z[x] (Gauss)
                factors.append(g)
                f = [int(c) for c in q.coeffs]
                modular = [h for i, h in enumerate(modular)
                           if i not in subset]
                break
        else:
            size += 1
    return factors + [f]


def _factor_squarefree(p):
    """Irreducible monic factors of a squarefree monic polynomial."""
    ints = list(p.primitive_integer_coeffs())
    factors = []
    if ints[0] == 0:  # squarefree, so x divides it at most once
        factors.append(RatPoly.x())
        ints.pop(0)
    if len(ints) > 1:
        factors.extend(RatPoly(g).monic() for g in _zassenhaus(ints))
    return factors


def factor_poly(p):
    """Factor a nonzero RatPoly into monic irreducibles with multiplicities.

    The squarefree part p / gcd(p, p') is factored over Z modulo one prime
    above twice its Landau-Mignotte bound, with no lifting (see
    `_zassenhaus`), at any degree; each factor's multiplicity is one more
    than the number of exact divisions of gcd(p, p') by it. Returns a list
    of (RatPoly, multiplicity) sorted by degree then by coefficients, so the
    output order is deterministic.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    p = p.monic()
    repeated = p.gcd(p.derivative())  # each f^m dividing p leaves f^(m-1)
    factors = []
    for f in _factor_squarefree(p // repeated):
        mult = 1
        while (repeated % f).is_zero:
            repeated, mult = repeated // f, mult + 1
        factors.append((f, mult))
    return sorted(factors, key=lambda fm: (fm[0].degree, fm[0].coeffs))
