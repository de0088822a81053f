"""Exact univariate polynomial arithmetic over the rationals.

A polynomial has one stored form: integer numerators, lowest degree first
and with a nonzero last one, over one positive denominator, in lowest terms
(the zero polynomial has no numerators and denominator 1). Ring operations,
division and gcd run on those integers; division is pseudo-division over Z,
normalised once at the end. The Fraction coefficients are built only when
read, for reports and tests.

Real roots are counted from primitive signed pseudo-remainder sequences:
each entry is a primitive integer polynomial and a positive multiple of the
signed remainder it stands for (the pseudo-division scales by a power of
|lc|, never of lc), so it has the remainder's signs, and Sturm counts and
Cauchy indices read only signs (Basu-Pollack-Roy, Algorithms in Real
Algebraic Geometry, ch. 8). Signs at rational points come from homogeneous
Horner in integers.

Polynomials factor into irreducibles over Q at any degree by the big-prime
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


def horner(nums, n, d=1):
    """d^deg * p(n / d) for the polynomial p with integer coefficients nums,
    lowest degree first; for d > 0 it has the sign of p(n / d)."""
    acc, power = 0, 1
    for c in reversed(nums):
        acc = acc * n + c * power
        power *= d
    return acc


def _primitive(nums):
    """nums over their content: a positive multiple of the polynomial."""
    g = math.gcd(*nums)
    return [c // g for c in nums] if g > 1 else list(nums)


def _pseudo_divmod(a, b):
    """(scale, q, r) with scale * a = q * b + r over Z and deg r < deg b,
    for integer coefficient lists a and b, b nonzero.

    scale is |lc(b)|^(deg a - deg b + 1), or 1 when deg a < deg b. Being
    positive, it leaves r a positive multiple of the remainder of a by b.
    """
    db = len(b) - 1
    steps = len(a) - db
    rem = list(a)
    if steps <= 0:
        return 1, [], rem
    lead = b[-1]
    scale = abs(lead)
    quo = [0] * steps
    for k in range(steps - 1, -1, -1):
        q = rem.pop() * scale // lead  # exact: scale is +-lead
        if scale != 1:
            rem = [c * scale for c in rem]
            quo = [c * scale for c in quo]
        quo[k] = q
        if q:
            for i in range(db):
                rem[k + i] -= q * b[i]
    return scale ** steps, quo, _trim(rem)


class RatPoly:
    """Immutable polynomial over Q: the integers `nums`, lowest degree
    first, over the positive integer `den`, in lowest terms."""

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if all(type(c) is int for c in cs):
            self._set(cs, 1)
        else:
            fracs = [Fraction(c) for c in cs]
            den = math.lcm(*(f.denominator for f in fracs))
            self._set([f.numerator * (den // f.denominator) for f in fracs],
                      den)

    @staticmethod
    def _of(nums, den=1):
        """nums / den for integers nums and den > 0."""
        p = object.__new__(RatPoly)
        p._set(nums, den)
        return p

    def _set(self, nums, den):
        if nums and not nums[-1]:
            nums = list(nums)
            while nums and not nums[-1]:
                nums.pop()
        nums = tuple(nums)
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = tuple(c // g for c in nums)
                den //= g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", None)

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
    def coeffs(self):
        """The coefficients as Fractions, lowest degree first; built on the
        first read."""
        cs = self._coeffs
        if cs is None:
            cs = tuple(Fraction(c, self.den) for c in self.nums)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def is_zero(self):
        return not self.nums

    @property
    def degree(self):
        """Degree, with the convention deg 0 = -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def leading(self):
        return Fraction(self.nums[-1], self.den) if self.nums else Fraction(0)

    def __eq__(self, other):
        return (isinstance(other, RatPoly) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

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
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if da != db:  # both over the least common denominator
            g = math.gcd(da, db)
            a = [c * (db // g) for c in a]
            b = [c * (da // g) for c in b]
            da = da // g * db
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly._of(out, da)

    def __neg__(self):
        return RatPoly._of([-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return RatPoly._of([c * q.numerator for c in self.nums],
                               self.den * q.denominator)
        a, b = self.nums, other.nums
        if not a or not b:
            return RatPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return RatPoly._of(out, self.den * other.den)

    __rmul__ = __mul__

    def divmod(self, other):
        """Exact euclidean division; other must be nonzero. One
        pseudo-division of the numerators, normalised at the end."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        scale, quo, rem = _pseudo_divmod(self.nums, other.nums)
        den = scale * self.den
        return (RatPoly._of([c * other.den for c in quo], den),
                RatPoly._of(rem, den))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        nums = self.nums
        if not nums:
            return self
        lead = nums[-1]
        return RatPoly._of(nums if lead > 0 else [-c for c in nums], abs(lead))

    def derivative(self):
        return RatPoly._of([k * c for k, c in enumerate(self.nums)][1:],
                           self.den)

    def eval(self, x):
        """The value at an int or a Fraction, as a Fraction, by homogeneous
        Horner in integers."""
        d = x.denominator
        return Fraction(horner(self.nums, x.numerator, d),
                        self.den * d ** max(self.degree, 0))

    # -- gcd -------------------------------------------------------------

    def gcd(self, other):
        """Monic gcd, by the primitive pseudo-remainder sequence over Z."""
        a, b = _primitive(self.nums), _primitive(other.nums)
        while b:
            a, b = b, _primitive(_pseudo_divmod(a, b)[2])
        return RatPoly._of(a).monic()

    # -- integer form ------------------------------------------------------

    def primitive_integer_coeffs(self):
        """Scale to integer coefficients with content 1 and positive leading."""
        ints = _primitive(self.nums)
        if ints and ints[-1] < 0:
            ints = [-v for v in ints]
        return tuple(ints)

    # -- real root machinery ----------------------------------------------

    def sturm_chain(self, other=None):
        """Signed remainder sequence of (self, other); other defaults to the
        derivative, which makes it the Sturm chain of self. Each entry is
        the primitive integer polynomial that is a positive multiple of the
        signed remainder, so it has the remainder's signs everywhere."""
        second = self.derivative() if other is None else other
        chain = [_primitive(self.nums)]
        b = _primitive(second.nums)
        while b:
            chain.append(b)
            if len(b) == 1:
                break
            b = _primitive([-c for c in _pseudo_divmod(chain[-2], b)[2]])
        return [RatPoly._of(p) for p in chain]

    @staticmethod
    def _variations(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    @staticmethod
    def _sign_changes(chain, x):
        n, d = x.numerator, x.denominator
        values = (horner(p.nums, n, d) for p in chain)
        return RatPoly._variations([v > 0 for v in values if v])

    def cauchy_index(self, other):
        """Cauchy index of other/self over the real line: jumps from -inf to
        +inf minus jumps from +inf to -inf at its real poles. It equals the
        sign variations of the signed remainder sequence of (self, other) at
        -inf minus those at +inf (Basu-Pollack-Roy, Theorem 2.58)."""
        chain = self.sturm_chain(other)
        at_plus = [p.nums[-1] > 0 for p in chain]
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
        lead = abs(self.nums[-1])
        return Fraction(lead + max(abs(c) for c in self.nums[:-1]), lead)

    def largest_real_root_interval(self, chain=None):
        """Isolating interval (lo, hi] for the largest real root, or None.

        Sturm count over the returned interval is exactly 1 and the endpoints
        are not roots.
        """
        if chain is None:
            chain = self.sturm_chain()
        changes = RatPoly._sign_changes
        bound = self.cauchy_bound()
        lo, hi = -bound, bound
        at_lo, at_hi = changes(chain, lo), changes(chain, hi)
        if at_lo == at_hi:
            return None
        while at_lo - at_hi > 1:
            mid = (lo + hi) / 2
            while not horner(self.nums, mid.numerator, mid.denominator):
                mid = (mid + hi) / 2  # endpoints must not be roots
            at_mid = changes(chain, mid)
            if at_mid > at_hi:
                lo, at_lo = mid, at_mid
            else:
                hi, at_hi = mid, at_mid
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
