"""The three balance notions used by the pair-splitting engine.

A RelationSpec names one of them, and a Relation holds its tables over
one substitution:

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
from functools import cached_property
from itertools import accumulate
from math import ceil, floor, lcm
from operator import mul, sub
from typing import NamedTuple

from .numberfield import FieldScalar
from .polynomial import _primitive
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


@dataclass(frozen=True)
class RelationSpec:
    """The name of a relation: plain, letters, or general with a length spec."""

    mode: str  # PLAIN | LETTERS | GENERAL
    length: LengthSpec | None = None

    @staticmethod
    def plain():
        return RelationSpec(PLAIN)

    @staticmethod
    def letters():
        return RelationSpec(LETTERS)

    @staticmethod
    def general(length: LengthSpec):
        return RelationSpec(GENERAL, length)

    def label(self):
        if self.mode == GENERAL:
            return f"general[{self.length.label()}]"
        return self.mode

    def build(self, subst, classes=None):
        """The relation; classes, when given, are subst's letter classes."""
        if self.mode == PLAIN:
            return Relation.plain(subst)
        if self.mode == LETTERS:
            return Relation.letter_classes(subst, partition=classes)
        return Relation.generalized(subst, self.length)


class ImageTables(NamedTuple):
    """Per-letter image data of a relation; see Relation.image_tables."""

    sizes: tuple  # |sigma^k(a)|
    states: tuple  # packed state of sigma^k(a)
    low: tuple  # enclosure of sigma^k(a)'s scaled length
    high: tuple
    images: tuple  # sigma^k(a), from the relation's substitution
    rows: tuple  # rows[a][b][D]: ((r, s), ...) and their Run, or ()
    heads: dict  # heads[a][r]: the sums of sigma(sigma^k(a)[:r]) (_Heads)


class Run:
    """The hits (r, s) of an image table entry (a, b, D), two or more,
    strictly increasing in both r and s: the components between
    consecutive hits are images[0][r:r'] against images[1][s:s'], images
    being (sigma^k(a), sigma^k(b)). count is the number of hits after the
    first, letters their top letters (r_last - r_first), step the largest
    step in r or s between consecutive hits, and last the last hit. A run
    is its own key: it hashes by identity. components is None until the
    closure's children first spell the run, and then holds the spelling."""

    __slots__ = ("hits", "images", "count", "letters", "step", "last",
                 "components")

    def __init__(self, hits, images, step):
        self.hits = hits
        self.images = images
        self.count = len(hits) - 1
        self.letters = hits[-1][0] - hits[0][0]
        self.step = step
        self.last = hits[-1]
        self.components = None


class _Hits(dict):
    """Entry (a, b) of the image tables: a state difference D maps to the
    pairs (r, s) with P_a[r] + D = P_b[s], in order, and their Run, None
    when there are fewer than two or they do not increase strictly on both
    sides, each built on the first lookup of D from b's prefix-state index
    {P_b[s]: (s, ...)}. A miss stores the shared empty tuple."""

    __slots__ = ("prefixes", "index", "images")

    def __init__(self, prefixes, index, images):
        super().__init__()
        self.prefixes = prefixes
        self.index = index
        self.images = images  # (sigma^k(a), sigma^k(b))

    def __missing__(self, diff):
        index = self.index
        hits = tuple((r, s) for r, mine in enumerate(self.prefixes, 1)
                     for s in index.get(mine + diff, ()))
        if hits:
            tops, bottoms = zip(*hits)
            steps = [*map(sub, tops[1:], tops),
                     *map(sub, bottoms[1:], bottoms)]
            hits = hits, (Run(hits, self.images, max(steps))
                          if steps and min(steps) > 0 else None)
        self[diff] = hits
        return hits


class _Heads(dict):
    """Field heads of the image tables for sigma^k: letter a maps to the
    running sums of Relation.sums of sigma's images over the letters of
    sigma^k(a), from (0, 0, 0, 0), so entry r holds those of
    sigma(sigma^k(a)[:r]). Built on a's first lookup."""

    __slots__ = ("images", "once")

    def __init__(self, images, once):
        super().__init__()
        self.images = images
        self.once = once  # Relation.sums of sigma's images

    def __missing__(self, a):
        image = self.images[a]
        sums = self[a] = tuple(zip(*(accumulate(map(field.__getitem__, image),
                                                initial=0)
                                     for field in self.once)))
        return sums


class Relation:
    """A relation's integer tables over a fixed substitution; immutable.

    letter_eq[j] is letter j's equivalence state; length_low[j] and
    length_high[j] enclose its scaled L-length, and lengths[j] is its
    exact L-length.
    """

    def __init__(self, subst, spec, letter_eq, length_low, length_high=None,
                 lengths=None):
        self.subst = subst
        self.spec = spec
        self.letter_eq = letter_eq
        self.eq_dim = len(letter_eq[0])
        self._eq_bound = max(abs(v) for row in letter_eq for v in row)
        self._packed = {}
        self._images = {}  # (bits, k) -> ImageTables
        self._by_cap = {}  # (cap, k) -> the same ImageTables
        self.length_low = length_low
        self.length_high = length_high or length_low
        # plain and letters measure words by their number of letters
        self.lengths = lengths or (Fraction(1),) * subst.size

    # -- constructors ------------------------------------------------------

    @staticmethod
    def plain(subst):
        n = subst.size
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return Relation(subst, RelationSpec.plain(), eye, (1,) * n)

    @staticmethod
    def letter_classes(subst, partition=None):
        if partition is None:
            partition = letter_equiv_classes(subst)
        class_of = {letter: c for c, cls in enumerate(partition)
                    for letter in cls}
        _check_partition(subst, partition, class_of)
        table = tuple(tuple(int(class_of[i] == c)
                            for c in range(len(partition)))
                      for i in range(subst.size))
        return Relation(subst, RelationSpec.letters(), table,
                        (1,) * subst.size)

    @staticmethod
    def generalized(subst, spec: LengthSpec):
        lengths = resolve_length_vector(subst, spec)
        # scale the length vector to integer coefficient vectors: each
        # entry as its numerators over its denominator
        rows = [(v.residue.nums, v.residue.den) if isinstance(v, FieldScalar)
                else ((v.numerator,), v.denominator) for v in lengths]
        dim = (lengths[0].field.degree
               if isinstance(lengths[0], FieldScalar) else 1)
        den = lcm(*(d for _, d in rows))
        scaled = tuple(tuple(c * (den // d) for c in nums)
                       + (0,) * (dim - len(nums)) for nums, d in rows)
        if dim == 1:
            low = high = tuple(row[0] for row in scaled)
        else:
            # floor and ceiling of 2^64 * l over an enclosure of l on
            # lambda's bracket at 2^-72; a few bits finer than 2^-64 keeps
            # each width near one
            bounds = [v.field.enclose(v.residue, 72) for v in lengths]
            low = tuple(floor(lo * (1 << 64)) for lo, _ in bounds)
            high = tuple(ceil(hi * (1 << 64)) for _, hi in bounds)
        if spec.kind == "lambda":
            # L.A^m = lambda^m L, so the m = 0 test is the whole condition
            letter_eq = scaled
        else:
            # block m of letter j is den * (L . A^m)_j, summed over the
            # scaled rows, and den * L . A^(m+1) holds the image lengths
            # of den * L . A^m; equivalence is all blocks zero
            blocks = [tuple(zip(*scaled))]  # per coordinate, over letters
            for _ in range(subst.size - 1):
                blocks.append(tuple(map(subst.image_lengths, blocks[-1])))
            letter_eq = tuple(
                tuple(column[j] for block in blocks for column in block)
                for j in range(subst.size))
        return Relation(subst, RelationSpec.general(spec), letter_eq, low,
                        high, lengths)

    @cached_property
    def cut_key(self):
        """What decides the relation's cuts: the span over Q of letter_eq's
        columns, as its reduced row-echelon basis (_echelon), built on the
        first read.

        Two words are equivalent exactly when their population difference z
        has z . letter_eq = 0, that is, when z is orthogonal to every
        column; so two relations over one substitution with equal keys
        have equal state equality on every pair of words. The splits cut
        exactly at equal states: every cut the walk accepts is at equal
        states, and the length enclosures only decide which bottom letters
        it looks up, never which cuts exist. ScanOverflow, NotBalanced, the
        stability window and every budget stop read only cut positions and
        counts. So run_bpa gives equal closures, in every field, under two
        relations with equal keys. A general relation's key depends on its
        length vector L only through the span of the L . A^m; when the
        characteristic polynomial is irreducible, every positive L gives
        the whole space, as plain does.
        """
        return _echelon(zip(*self.letter_eq))

    # -- scanner tables ------------------------------------------------------

    def sums(self, words, cap):
        """Four tuples over the words: each word's letter count, its packed
        state (packed_states(cap)) and the low and high enclosures of its
        scaled length."""
        fields = self.packed_states(cap), self.length_low, self.length_high
        return (tuple(map(len, words)),
                *(tuple(sum(map(field.__getitem__, word)) for word in words)
                  for field in fields))

    def _bits(self, cap):
        return (2 * (cap + 1) * self._eq_bound).bit_length()

    def packed_states(self, cap):
        """Each letter's equivalence state packed into one int.

        Coordinate t goes to bits [t * bits, (t + 1) * bits), signed, so
        packing is linear and a word's packed state is the sum over its
        letters. A state difference of at most 2 (cap + 1) letters has
        each coordinate at most 2 (cap + 1) M in absolute value, M being
        the largest |letter_eq| entry; with 2^bits above that, its packed
        value is zero exactly when it is. The splits' walk accepts a match
        of a top and a bottom prefix only within cap letters of the last
        cut on each side, where the states were equal, and reads image
        tables packed for its cap (image_tables).
        """
        bits = self._bits(cap)
        packed = self._packed.get(bits)
        if packed is None:
            packed = self._packed[bits] = tuple(
                sum(v << (bits * t) for t, v in enumerate(row))
                for row in self.letter_eq)
        return packed

    def image_tables(self, cap, k=1):
        """The tables the splits' walk reads for sigma^k, packed as
        packed_states(cap); built once per packing width and k, and found
        again by cap and k.

        Per letter a: the packed state of its image sigma^k(a), the integer
        enclosure of the image's scaled length, its letter count and the
        image itself. Entry rows[a][b] maps a state difference D to the
        pairs (r, s) with P_a[r] + D = P_b[s], over 1 <= r <= |sigma^k(a)|
        and 1 <= s <= |sigma^k(b)|, in order, P_a[r] being the packed state
        of sigma^k(a)[:r]. It is built on the first lookup of D, one pass
        over P_a against an index of P_b, so the work follows the lookups
        made; a D with no pair maps to the empty tuple, any other D to its
        pairs and their Run, or None. heads[a][r] holds the sums of
        sigma(sigma^k(a)[:r]) (_Heads).
        """
        tables = self._by_cap.get((cap, k))
        if tables is not None:
            return tables
        bits = self._bits(cap)
        tables = self._images.get((bits, k))
        if tables is None:
            packed = self.packed_states(cap)
            images = tuple(self.subst.apply((a,), k)
                           for a in range(self.subst.size))
            prefixes = [list(accumulate(map(packed.__getitem__, image)))
                        for image in images]
            indices = []
            for prefix in prefixes:
                index = {}  # an image longer than cap may repeat a value
                for s, theirs in enumerate(prefix, 1):
                    index[theirs] = index.get(theirs, ()) + (s,)
                indices.append(index)
            tables = self._images[bits, k] = ImageTables(
                *self.sums(images, cap), images,
                rows=tuple(tuple(_Hits(mine, index, (image, theirs))
                                 for index, theirs in zip(indices, images))
                           for mine, image in zip(prefixes, images)),
                heads=_Heads(images, self.sums(self.subst.rules, cap)))
        self._by_cap[cap, k] = tables
        return tables

    # -- predicates -----------------------------------------------------------

    def sign_of_scaled(self, s):
        """Exact sign of sum(s[j] * lambda^j) in the Perron field."""
        return self.subst.spectrum().perron.sign_of(s)

    def length_of(self, word):
        """Exact L-length of a word (Fraction, or FieldScalar in lambda
        mode): its population vector dotted with the lengths."""
        return sum(map(mul, self.subst.population_vector(word), self.lengths))


def _echelon(rows):
    """The reduced row-echelon basis over Q of the span of integer rows,
    each basis row scaled to coprime integers: one tuple per pivot, in
    pivot order, its pivot positive and zero at every other pivot.

    Rows are cleared by integer combinations that keep the pivots
    positive and are divided by their content; a basis with these
    properties is the reduced row-echelon one up to positive scales, so it
    depends on the span alone.
    """
    basis = {}  # pivot column -> row
    for row in rows:
        for col, known in basis.items():
            if row[col]:
                row = _primitive([known[col] * x - row[col] * y
                                  for x, y in zip(row, known)])
        pivot = next((col for col, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        row = _primitive(row if row[pivot] > 0 else [-x for x in row])
        for col, known in basis.items():
            if known[pivot]:
                basis[col] = _primitive([row[pivot] * x - known[pivot] * y
                                         for x, y in zip(known, row)])
        basis[pivot] = row
    return tuple(tuple(basis[col]) for col in sorted(basis))


def letter_equiv_classes(subst: Substitution):
    """Partition of letters: a ~ b iff |sigma^m(a)| = |sigma^m(b)| for all m.

    The lengths for m < n are the letter_eq rows of general[ones]; they
    decide, since by Cayley-Hamilton the lengths of sigma^m, m >= n, are
    one integer combination of those for m < n for every letter.
    """
    lengths = [(1,) * subst.size]
    for _ in range(subst.size - 1):
        lengths.append(subst.image_lengths(lengths[-1]))
    classes = {}
    for letter, row in enumerate(zip(*lengths)):
        classes.setdefault(row, []).append(letter)
    return tuple(tuple(c) for c in classes.values())


def _check_partition(subst, partition, class_of):
    """Letters of one class must have images with equal class counts;
    otherwise sigma does not map equivalent words to equivalent words."""
    render = subst.alphabet.render
    for first, *rest in partition:
        counts = Counter(class_of[x] for x in subst.rules[first])
        for a in rest:
            if Counter(class_of[x] for x in subst.rules[a]) != counts:
                raise ValueError(
                    f"letters {render((first,))} and {render((a,))} "
                    "share a class, but their images have different "
                    "class counts")
