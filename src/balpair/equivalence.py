"""The three balance notions used by the pair-splitting engine.

A Relation bundles a substitution with one of:

  plain     -- equal population vectors;
  letters   -- equal counts per letter-equivalence class (Livshits); the
               images of the letters of one class need equal class counts;
  general   -- L . A^m (p(u) - p(v)) = 0 for all m, with a positive length
               vector L; truncated at m = n-1 by Cayley-Hamilton, and down to
               the single m = 0 test when L is the Perron left eigenvector.

For scanning speed every relation precomputes integer tables. The
equivalence state of a word is an integer vector, linear in its population
vector, and two words are equivalent exactly when their states are equal;
equal states also mean equal L-lengths. Integer enclosures of each letter's
scaled L-length (exact when the lengths are rational; for irrational
lambda, the floor and ceiling of 2^64 * length over its enclosure on
lambda's dyadic bracket at 2^-72)
tell the splitter when one side is provably longer, so no sign of an
algebraic number is ever decided.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm

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


class Relation:
    """One balance notion over a fixed substitution; immutable once built."""

    def __init__(self, subst, mode, *, partition=None, lengths=None,
                 spec=None, is_lambda=False):
        self.subst = subst
        self.mode = mode
        self.partition = partition
        # plain and letters measure words by their number of letters
        self.lengths = lengths or (Fraction(1),) * subst.size
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
            self.length_low = self.length_high = (1,) * n
            if self.mode == PLAIN:
                letter_eq = tuple(
                    tuple(1 if j == i else 0 for j in range(n))
                    for i in range(n))
            else:
                classes = self.partition
                class_of = {}
                for ci, cls in enumerate(classes):
                    for letter in cls:
                        class_of[letter] = ci
                letter_eq = tuple(
                    tuple(1 if class_of[i] == c else 0
                          for c in range(len(classes)))
                    for i in range(n))
                self._check_partition(class_of)
            self._set_letter_eq(letter_eq)
            return

        # general mode: scale the length vector to integer coefficient vectors
        first = self.lengths[0]
        if isinstance(first, FieldScalar):
            dim = first.field.degree
            coeff_rows = [list(v.coeffs) for v in self.lengths]
        else:
            dim = 1
            coeff_rows = [[Fraction(v)] for v in self.lengths]
        den = lcm(*(c.denominator for row in coeff_rows for c in row))
        scaled = tuple(tuple(int(c * den) for c in row) for row in coeff_rows)
        if dim == 1:
            self.length_low = self.length_high = tuple(
                row[0] for row in scaled)
        else:
            # floor and ceiling of 2^64 * l over an enclosure of l on
            # lambda's bracket at 2^-72; a few bits finer than 2^-64 keeps
            # each width near one
            bounds = [first.field.enclose(v.coeffs, 72) for v in self.lengths]
            self.length_low = tuple(floor(lo * (1 << 64)) for lo, _ in bounds)
            self.length_high = tuple(ceil(hi * (1 << 64)) for _, hi in bounds)

        if self.is_lambda:
            # L.A^m = lambda^m L, so the m = 0 test is the whole condition
            self._set_letter_eq(scaled)
            return
        # letter j contributes, for each m in 0..n-1, the coefficient vector
        # of den * (L . A^m)_j; equivalence is all blocks zero
        powers = mat_powers(self.subst.transition_matrix(), n)
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
        self._set_letter_eq(tuple(letter_eq))

    def _set_letter_eq(self, letter_eq):
        self.letter_eq = letter_eq
        self.eq_dim = len(letter_eq[0])
        self._eq_bound = max(abs(v) for row in letter_eq for v in row)
        self._packed = {}

    def _check_partition(self, class_of):
        """Letters of one class must have images with equal class counts;
        otherwise sigma does not map equivalent words to equivalent words."""
        render = self.subst.alphabet.render
        for first, *rest in self.partition:
            counts = Counter(class_of[x] for x in self.subst.rules[first])
            for a in rest:
                if Counter(class_of[x] for x in self.subst.rules[a]) != counts:
                    raise ValueError(
                        f"letters {render((first,))} and {render((a,))} "
                        "share a class, but their images have different "
                        "class counts")

    def packed_states(self, cap):
        """Each letter's equivalence state packed into one int.

        Coordinate t goes to bits [t * bits, (t + 1) * bits), signed, so
        packing is linear and a word's packed state is the sum over its
        letters. The split compares a top and a bottom prefix that each lie
        within cap + 1 letters of the last cut on their side, where the
        states were equal, so their state difference sums at most
        2 (cap + 1) letters. Each of its coordinates is at most
        2 (cap + 1) M in absolute value, M being the largest |letter_eq|
        entry; with 2^bits above that, the packed difference is zero
        exactly when the state difference is.
        """
        bits = (2 * (cap + 1) * self._eq_bound).bit_length()
        packed = self._packed.get(bits)
        if packed is None:
            packed = self._packed[bits] = tuple(
                sum(v << (bits * t) for t, v in enumerate(row))
                for row in self.letter_eq)
        return packed

    # -- predicates -----------------------------------------------------------

    def sign_of_scaled(self, s):
        """Exact sign of sum(s[j] * lambda^j) in the Perron field."""
        return self.subst.spectrum().perron.sign_of(s)

    def length_of(self, word):
        """Exact L-length of a word (Fraction, or FieldScalar in lambda mode)."""
        total = None
        for letter in word:
            w = self.lengths[letter]
            total = w if total is None else total + w
        if total is None:
            first = self.lengths[0]
            return (first.field.zero() if isinstance(first, FieldScalar)
                    else Fraction(0))
        return total


def letter_equiv_classes(subst: Substitution, ones=None):
    """Partition of letters: i ~ j iff all iterated image lengths agree.

    That is word equivalence of the single letters under the all-ones
    length vector, so letters with equal letter_eq rows of general[ones]
    (passed as ones, or built here) share a class.
    """
    if ones is None:
        ones = Relation.generalized(subst, LengthSpec.ones())
    classes = {}
    for letter, row in enumerate(ones.letter_eq):
        classes.setdefault(row, []).append(letter)
    return tuple(tuple(c) for c in classes.values())

