"""The three balance notions used by the pair-splitting engine.

A Relation bundles a substitution with one of:

  plain     -- equal population vectors;
  letters   -- equal counts per letter-equivalence class (Livshits);
  general   -- L . A^m (p(u) - p(v)) = 0 for all m, with a positive length
               vector L; truncated at m = n-1 by Cayley-Hamilton, and down to
               the single m = 0 test when L is the Perron left eigenvector.

For scanning speed every relation precomputes integer tables: letter weights
are the length-vector coordinates scaled by a common denominator, and the
equivalence state of a pair of words is an integer vector that is zero
exactly when the words are equivalent. Signs of scaled lengths (needed to
drive the two-pointer scan) are decided by dyadic enclosures of powers of
lambda, escalated until conclusive; nonzero values always resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InternalInvariantError
from .linalg import mat_powers
from .numberfield import FieldScalar
from .substitution import Substitution

PLAIN, LETTERS, GENERAL = "plain", "letters", "general"


@dataclass(frozen=True)
class LengthSpec:
    """How to obtain the length vector: all ones, PF eigenvector, or custom."""

    kind: str  # "ones" | "lambda" | "custom"
    values: tuple = ()

    @staticmethod
    def ones():
        return LengthSpec("ones")

    @staticmethod
    def pf():
        return LengthSpec("lambda")

    @staticmethod
    def custom(values):
        return LengthSpec("custom", tuple(Fraction(v) for v in values))

    @staticmethod
    def parse(text):
        """CLI syntax: 'ones' | 'lambda' | comma-separated positive rationals."""
        text = text.strip()
        if text == "ones":
            return LengthSpec.ones()
        if text == "lambda":
            return LengthSpec.pf()
        try:
            values = tuple(Fraction(part) for part in text.split(","))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad length spec {text!r}") from None
        return LengthSpec.custom(values)

    def label(self):
        if self.kind == "custom":
            return ",".join(str(v) for v in self.values)
        return self.kind


def resolve_length_vector(subst: Substitution, spec: LengthSpec):
    """Exact, strictly positive per-letter lengths for a LengthSpec.

    ones and custom give Fractions; lambda gives FieldScalars in Q(lambda)
    (rational lambda degenerates to a degree-1 field).
    """
    n = subst.size
    if spec.kind == "ones":
        return tuple(Fraction(1) for _ in range(n))
    if spec.kind == "custom":
        if len(spec.values) != n:
            raise ValueError(f"length vector has {len(spec.values)} entries "
                             f"for {n} letters")
        if any(v <= 0 for v in spec.values):
            raise ValueError("length vector entries must be strictly positive")
        return spec.values
    if spec.kind == "lambda":
        return subst.spectrum().l_lambda
    raise ValueError(f"unknown length spec kind {spec.kind!r}")


class _DyadicSign:
    """Sign of sum(s[j] * lambda^j) from integer dyadic power enclosures."""

    def __init__(self, field, bits=64):
        self.field = field
        self.bits = 0
        self._set_bits(bits)

    def _set_bits(self, bits):
        self.bits = bits
        f = self.field
        f.refine_below(Fraction(1, 2 ** (bits // 2)))
        lo, hi = f.interval
        while lo <= 0:  # lambda > 0; push the bracket off zero
            f.refine_once()
            lo, hi = f.interval
        one = 1 << bits
        los = [one]
        his = [one]
        llo = (lo.numerator << bits) // lo.denominator
        lhi = -((-hi.numerator << bits) // hi.denominator)
        for _ in range(f.degree - 1):
            los.append((los[-1] * llo) >> bits)
            his.append(((his[-1] * lhi) >> bits) + 1)
        self.low = los
        self.high = his

    def sign(self, s):
        while True:
            lo = hi = 0
            for sj, pl, ph in zip(s, self.low, self.high):
                if sj >= 0:
                    lo += sj * pl
                    hi += sj * ph
                else:
                    lo += sj * ph
                    hi += sj * pl
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if not any(s):
                return 0
            if self.bits > 1 << 20:
                raise InternalInvariantError("dyadic sign refinement exhausted")
            self._set_bits(self.bits * 2)


class _IntSign:
    """Sign oracle for one-dimensional (rational) scaled lengths."""

    @staticmethod
    def sign(s):
        v = s[0]
        return (v > 0) - (v < 0)


class Relation:
    """One balance notion over a fixed substitution; immutable once built."""

    def __init__(self, subst, mode, *, partition=None, lengths=None,
                 spec=None, is_lambda=False):
        self.subst = subst
        self.mode = mode
        self.partition = partition
        self.lengths = lengths
        self.spec = spec
        self.is_lambda = is_lambda
        self._build_tables()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def plain(subst):
        return Relation(subst, PLAIN)

    @staticmethod
    def letter_classes(subst, partition=None):
        if partition is None:
            partition = letter_equiv_classes(subst)
        return Relation(subst, LETTERS, partition=partition)

    @staticmethod
    def generalized(subst, spec: LengthSpec):
        lengths = resolve_length_vector(subst, spec)
        return Relation(subst, GENERAL, lengths=lengths, spec=spec,
                        is_lambda=(spec.kind == "lambda"))

    def label(self):
        if self.mode == GENERAL:
            return f"general[{self.spec.label()}]"
        return self.mode

    # -- scanner tables ------------------------------------------------------

    def _build_tables(self):
        n = self.subst.size
        if self.mode in (PLAIN, LETTERS):
            self.weight_dim = 1
            self.letter_weights = tuple((1,) for _ in range(n))
            self._sign_oracle = _IntSign()
            self._exact_lengths = tuple(Fraction(1) for _ in range(n))
            if self.mode == PLAIN:
                self.eq_dim = n
                self.letter_eq = tuple(
                    tuple(1 if j == i else 0 for j in range(n))
                    for i in range(n))
            else:
                classes = self.partition
                class_of = {}
                for ci, cls in enumerate(classes):
                    for letter in cls:
                        class_of[letter] = ci
                self.eq_dim = len(classes)
                self.letter_eq = tuple(
                    tuple(1 if class_of[i] == c else 0
                          for c in range(len(classes)))
                    for i in range(n))
            return

        # general mode: scale the length vector to integer coefficient vectors
        first = self.lengths[0]
        if isinstance(first, FieldScalar):
            field = first.field
            dim = field.degree
            coeff_rows = [list(v.coeffs) for v in self.lengths]
        else:
            field = None
            dim = 1
            coeff_rows = [[Fraction(v)] for v in self.lengths]
        den = lcm(*(c.denominator for row in coeff_rows for c in row))
        self.weight_dim = dim
        self.letter_weights = tuple(
            tuple(int(c * den) for c in row) for row in coeff_rows)
        self._sign_oracle = (_DyadicSign(field) if field is not None
                             and dim > 1 else _IntSign())
        self._exact_lengths = tuple(self.lengths)

        if self.is_lambda:
            # L.A^m = lambda^m L, so the m = 0 test is the whole condition
            self.eq_dim = dim
            self.letter_eq = self.letter_weights
            return
        # letter j contributes, for each m in 0..n-1, the coefficient vector
        # of den * (L . A^m)_j; equivalence is all blocks zero
        powers = mat_powers(self.subst.transition_matrix(), n)
        self.eq_dim = n * dim
        letter_eq = []
        for j in range(n):
            vec = []
            for power in powers:
                col = [Fraction(0)] * dim
                for i in range(n):
                    w = coeff_rows[i]
                    a = power[i][j]
                    if a:
                        for t in range(dim):
                            col[t] += a * w[t]
                vec.extend(int(c * den) for c in col)
            letter_eq.append(tuple(vec))
        self.letter_eq = tuple(letter_eq)

    # -- predicates -----------------------------------------------------------

    def zero_eq(self):
        return (0,) * self.eq_dim

    def zero_len(self):
        return (0,) * self.weight_dim

    def sign_of_scaled(self, s):
        return self._sign_oracle.sign(s)

    def word_equiv(self, u, v) -> bool:
        """Are two words equivalent under this relation?"""
        acc = list(self.zero_eq())
        for letter in u:
            for t, val in enumerate(self.letter_eq[letter]):
                acc[t] += val
        for letter in v:
            for t, val in enumerate(self.letter_eq[letter]):
                acc[t] -= val
        return not any(acc)

    def length_of(self, word):
        """Exact L-length of a word (Fraction, or FieldScalar in lambda mode)."""
        total = None
        for letter in word:
            w = self._exact_lengths[letter]
            total = w if total is None else total + w
        if total is None:
            first = self._exact_lengths[0]
            return (first.field.zero() if isinstance(first, FieldScalar)
                    else Fraction(0))
        return total


def letter_equiv_classes(subst: Substitution):
    """Partition of letters: i ~ j iff all iterated image lengths agree.

    This is word equivalence with the all-ones length vector applied to
    single letters; the same machinery backs both tests.
    """
    rel = Relation.generalized(subst, LengthSpec.ones())
    n = subst.size
    classes = []
    for i in range(n):
        for cls in classes:
            if rel.word_equiv((i,), (cls[0],)):
                cls.append(i)
                break
        else:
            classes.append([i])
    return tuple(tuple(c) for c in classes)


def in_pf_kernel(subst: Substitution, z) -> bool:
    """True iff the PF left eigenvector annihilates the integer vector z."""
    spectrum = subst.spectrum()
    terms = (weight * zi for weight, zi in zip(spectrum.l_lambda, z))
    return sum(terms, spectrum.perron.zero()).is_zero
