"""Exact arithmetic in Q(lambda) for a distinguished real algebraic lambda.

A NumberField carries a monic irreducible minimal polynomial together with a
rational isolating interval that brackets exactly one real root (checked with
a Sturm count at construction). FieldScalar elements are residues mod the
minimal polynomial; equality and zero tests are exact coefficient tests.

lambda is enclosed in one way only: bracket(bits) is floor(lambda * 2^bits),
found by bisecting the primitive integer minimal polynomial at dyadic points
with integer sign tests. It is a pure function of bits; the bisection is
memoised privately and no attribute of a field changes after construction.
Signs, truncated decimals and the canonical interval read enclosures on that
bracket at growing precision until the answer is settled, so every output is
a pure function of lambda.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from .errors import InternalInvariantError
from .polynomial import RatPoly

# Digits of the truncated decimals in reports.
APPROX_DIGITS = 12

# Hard ceiling, in bits, on the bracket precision that settles a sign or a
# decimal. Nonzero field elements separate from zero far earlier at desk scale.
MAX_REFINE_BITS = 100_000


class NumberField:
    """Q(lambda) for the single real root of min_poly inside the interval.

    chain is a Sturm chain of min_poly (or of a nonzero multiple of it), for
    a caller that has already built one; the isolation check counts with it.
    """

    def __init__(self, min_poly: RatPoly, lo, hi, chain=None):
        if min_poly.is_zero or min_poly.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        self.min_poly = min_poly.monic()
        self.degree = self.min_poly.degree
        lo, hi = Fraction(lo), Fraction(hi)
        if self.degree == 1:
            root = -self.min_poly.coeffs[0]
            lo = hi = root
        else:
            if not lo < hi:
                raise ValueError("empty isolating interval")
            if self.min_poly.count_roots(lo, hi, chain) != 1:
                raise ValueError("interval does not isolate exactly one root")
        self.interval = (lo, hi)
        # min_poly over Z, signed to be positive on (lambda, hi] and so
        # negative on [lo, lambda)
        sign = 1 if self.min_poly.eval(hi) > 0 else -1
        self._ints = tuple(
            sign * c for c in self.min_poly.primitive_integer_coeffs())
        # [k, floor(lambda * 2^k)], from a k with |lambda| < 2^-k
        k = -ceil(max(abs(lo), abs(hi))).bit_length()
        self._floor = [k, 0 if self._at_least(0, 0) else -1]

    # -- the enclosure of lambda -------------------------------------------

    def _at_least(self, a, k):
        """lambda >= a / 2^k, by the sign of min_poly there; only points
        inside the isolating interval are evaluated, so a rational lambda
        never is."""
        x = Fraction(a, 1 << k) if k >= 0 else Fraction(a << -k)
        lo, hi = self.interval
        if x <= lo:
            return True
        if x > hi:
            return False
        # den^n * min_poly(num / den) by integer Horner
        num, den = x.numerator, x.denominator
        acc, power = 0, 1
        for c in reversed(self._ints):
            acc = acc * num + c * power
            power *= den
        return acc <= 0

    def refine_once(self):
        """One bisection step, floor(lambda 2^k) to floor(lambda 2^(k+1))."""
        k, m = self._floor
        self._floor[:] = k + 1, 2 * m + self._at_least(2 * m + 1, k + 1)

    def bracket(self, bits):
        """floor(lambda * 2^bits) as an int, for bits >= 0."""
        while self._floor[0] < bits:
            self.refine_once()
        k, m = self._floor
        return m >> (k - bits)

    def enclose(self, coeffs, bits):
        """Rational interval containing sum(coeffs[j] * lambda^j), evaluated
        over lambda's bracket [m, m + 1] / 2^bits."""
        if self.degree == 1:
            v = RatPoly(coeffs).eval(self.interval[0])
            return v, v
        m = self.bracket(bits)
        return RatPoly(coeffs).eval_interval(Fraction(m, 1 << bits),
                                             Fraction(m + 1, 1 << bits))

    def _settled_enclosure(self, coeffs, settled, bits):
        """The first enclosure, at doubling precision from bits, on which
        settled(lo, hi) holds."""
        while bits <= MAX_REFINE_BITS:
            lo, hi = self.enclose(coeffs, bits)
            if settled(lo, hi):
                return lo, hi
            bits *= 2
        raise InternalInvariantError(
            "enclosure of a field element exhausted the precision ceiling")

    def sign_of(self, coeffs):
        """Exact sign of the element with the given residue coefficients;
        a rational element has an exact enclosure."""
        lo, hi = self._settled_enclosure(
            coeffs, lambda lo, hi: lo > 0 or hi < 0 or lo == hi, 16)
        return (lo > 0) - (hi < 0)

    def approx_str(self, coeffs=(0, 1), digits=APPROX_DIGITS):
        """Truncated decimal string of lambda (or of an element).

        Truncation (not rounding) of an enclosure fine enough to pin
        floor(value * 10^digits) keeps the string a pure function of the
        value.
        """
        scale = 10**digits
        lo, _ = self._settled_enclosure(
            coeffs, lambda lo, hi: floor(lo * scale) == floor(hi * scale),
            scale.bit_length() + 16)
        return _format_scaled_decimal(floor(lo * scale), digits)

    def canonical_interval(self, bits=48):
        """Dyadic bracket [m, m+1] / 2^bits around the root (the root itself
        when it is rational); deterministic."""
        return self.enclose((0, 1), bits)

    # -- element constructors -------------------------------------------------

    def element(self, coeffs):
        return FieldScalar(self, coeffs)

    def from_rational(self, q):
        return FieldScalar(self, (Fraction(q),))

    def zero(self):
        return self.from_rational(0)

    def one(self):
        return self.from_rational(1)

    def __eq__(self, other):
        """Same minimal polynomial and the same root: the two isolating
        intervals share a root, so both isolate that one."""
        if not (isinstance(other, NumberField)
                and self.min_poly == other.min_poly):
            return False
        if self.degree == 1:
            return True
        lo = max(self.interval[0], other.interval[0])
        hi = min(self.interval[1], other.interval[1])
        return lo < hi and self.min_poly.count_roots(lo, hi) >= 1

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        lo, hi = self.interval
        return f"NumberField(min_poly={self.min_poly}, interval=({lo}, {hi}))"


def _format_scaled_decimal(scaled: int, digits: int) -> str:
    """Render floor(value * 10^digits) as a truncated decimal string."""
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


def _format_decimal(value: Fraction, digits: int) -> str:
    """Truncated decimal of an exact rational."""
    scaled = (value * 10**digits).numerator // (value * 10**digits).denominator
    return _format_scaled_decimal(scaled, digits)


class FieldScalar:
    """Element of a NumberField: a residue class mod the minimal polynomial."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        poly = coeffs if isinstance(coeffs, RatPoly) else RatPoly(coeffs)
        if poly.degree >= field.degree:
            poly = poly % field.min_poly
        cs = list(poly.coeffs) + [Fraction(0)] * (field.degree - len(poly.coeffs))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FieldScalar is immutable")

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self):
        if not self.is_rational:
            raise ValueError("element is irrational")
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("operands live in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldScalar(self.field,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FieldScalar(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldScalar(self.field,
                           RatPoly(self.coeffs) * RatPoly(other.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse by the extended euclidean algorithm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        # gcd(a, min_poly) == 1 since min_poly is irreducible and deg a < deg
        r0, r1 = self.field.min_poly, RatPoly(self.coeffs)
        t0, t1 = RatPoly.zero(), RatPoly.one()
        while not r1.is_zero:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        if r0.degree != 0:
            raise InternalInvariantError("minimal polynomial is not irreducible")
        return FieldScalar(self.field, t0 * (Fraction(1) / r0.coeffs[0]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons ---------------------------------------------------------

    def sign(self):
        return self.field.sign_of(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            if other.field is not self.field and other.field != self.field:
                return False
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def _cmp_sign(self, other):
        diff = self - other
        return diff.sign()

    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0

    def decimal(self, digits=APPROX_DIGITS):
        return self.field.approx_str(self.coeffs, digits)

    def __repr__(self):
        if self.is_rational:
            return f"FieldScalar({self.coeffs[0]})"
        return f"FieldScalar({list(self.coeffs)} ~ {self.decimal(6)})"
