"""Alphabets, words, substitutions, and fixed-point streaming.

A word is a sequence of 0-based letter indices into an Alphabet, of the
one type the alphabet names (Alphabet.word): bytes, one byte a letter, or a
tuple on an alphabet of more than 256 letters. Rule files use one
`lhs -> rhs` line per letter; the alphabet order is the first-appearance
order of left-hand sides, and every report sticks to that order.
"""

from __future__ import annotations

from itertools import chain, islice

from .errors import NoExpandingFixedPoint, RuleSyntaxError
from .linalg import Spectrum, char_poly


class Alphabet:
    """Ordered set of display tokens; letters are referenced by position.

    It owns the type of its words: word builds one from a sequence of
    letters, join one from an iterable of words, their concatenation, and
    buffer is a mutable sequence of letters that takes `buffer += word`,
    `del buffer[:n]` and `word(buffer[i:j])`. They are bytes and bytearray
    when every letter fits a byte, else tuple and list; the two types
    share every operation the program uses, and bytes compare and sort as
    tuples of ints do. Letters that a caller gives go through word_of.
    """

    def __init__(self, tokens):
        tokens = tuple(tokens)
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate letter tokens")
        self.tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}
        small = len(tokens) <= 256
        self.word = bytes if small else tuple
        self.buffer = bytearray if small else list
        self.join = b"".join if small else _joined
        # single-character alphabets render words jammed together; ASCII
        # ones spell a word as one bytes translation, letter i to token i
        self.joined = all(len(t) == 1 for t in tokens)
        self._ascii = (bytes(map(ord, tokens)).ljust(256, b"\0")
                       if self.joined and all(map(str.isascii, tokens))
                       else None)

    @property
    def size(self):
        return len(self.tokens)

    def index_of(self, token):
        return self._index[token]

    def word_of(self, letters):
        """Any iterable of letter indices as a word. It is read as an
        iterable, so an int raises TypeError where bytes(n) would give n
        copies of letter 0."""
        return self.word(iter(letters))

    def word_from_text(self, text):
        """Parse a word: whitespace-separated tokens, or per-character."""
        text = text.strip()
        if not text:
            raise ValueError("empty word")
        parts = (text.split() if any(ch.isspace() for ch in text)
                 else list(text))
        try:
            return self.word(self._index[t] for t in parts)
        except KeyError as exc:
            raise ValueError(f"unknown letter {exc.args[0]!r}") from None

    def render(self, word):
        if self._ascii is not None:
            return bytes(word).translate(self._ascii).decode("ascii")
        sep = "" if self.joined else " "
        return sep.join([self.tokens[i] for i in word])

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.tokens == other.tokens

    def __hash__(self):
        return hash(self.tokens)

    def __repr__(self):
        return f"Alphabet({self.tokens})"


def _joined(words):
    """The concatenation of tuple words, as Alphabet.join of a wide
    alphabet."""
    return tuple(chain.from_iterable(words))


def population_vector(word, size):
    """Letter counts of a word; the empty word gives the zero vector."""
    counts = [0] * size
    for letter in word:
        counts[letter] += 1
    return tuple(counts)


def _union(rows, mask):
    """The union of the int bitset rows[k] over the bits k set in mask."""
    union = 0
    for k, row in enumerate(rows):
        if mask >> k & 1:
            union |= row
    return union


class Substitution:
    """A map letter -> nonempty word, extended to words by concatenation."""

    def __init__(self, alphabet: Alphabet, rules):
        rules = tuple(map(alphabet.word_of, rules))
        if len(rules) != alphabet.size:
            raise ValueError("need one rule per letter")
        for image in rules:
            if not image:
                raise ValueError("empty rule image")
            if not 0 <= min(image) <= max(image) < alphabet.size:
                raise ValueError("rule image uses letters outside the alphabet")
        self.alphabet = alphabet
        self.rules = rules
        self._matrix = None
        self._primitive = None
        self._char_poly = None
        self._spectrum = None
        self._fixed_point = None
        self._image_sizes = {}  # bound -> image_sizes(bound)

    @property
    def size(self):
        return self.alphabet.size

    def apply(self, word, k=1):
        """phi^k(word) by repeated letterwise concatenation."""
        if k < 0:
            raise ValueError("iteration count must be >= 0")
        current = self.alphabet.word_of(word)
        for _ in range(k):
            current = self.alphabet.join(map(self.rules.__getitem__, current))
        return current

    def population_vector(self, word):
        return population_vector(word, self.size)

    def image_lengths(self, lengths):
        """|tau(sigma(a))| for each letter a, lengths[b] being |tau(b)|:
        from the image lengths of sigma^m, those of sigma^(m+1)."""
        return tuple(sum(map(lengths.__getitem__, image))
                     for image in self.rules)

    def image_sizes(self, bound):
        """The image lengths |sigma^j(a)|, a tuple over the letters a for
        each j from 0 to the largest k >= 1 with sum_a |sigma^k(a)| <=
        bound, or 1; built once per bound."""
        sizes = self._image_sizes.get(bound)
        if sizes is None:
            grown = [(1,) * self.size, tuple(map(len, self.rules))]
            while sum(more := self.image_lengths(grown[-1])) <= bound:
                grown.append(more)
            sizes = self._image_sizes[bound] = tuple(grown)
        return sizes

    def transition_matrix(self):
        """Matrix with a_ij = count of letter i in the image of letter j."""
        if self._matrix is None:
            cols = [self.population_vector(img) for img in self.rules]
            self._matrix = tuple(
                tuple(cols[j][i] for j in range(self.size))
                for i in range(self.size))
        return self._matrix

    def is_primitive(self):
        """True iff some power of the matrix is strictly positive.

        Wielandt: a primitive n x n matrix has a positive power of exponent
        (n-1)^2 + 1, and then every higher power is positive, so the power
        of the least exponent 2^j at or above that bound decides. It is
        reached by j squarings of the positivity pattern, each row an int
        whose bit c is set when the entry in column c is nonzero.
        """
        if self._primitive is None:
            n = self.size
            rows = [sum(1 << c for c, v in enumerate(row) if v)
                    for row in self.transition_matrix()]
            exponent = 1
            while exponent < (n - 1) ** 2 + 1:
                # row i of the square is the union of rows k in row i
                rows = [_union(rows, row) for row in rows]
                exponent *= 2
            self._primitive = all(row == (1 << n) - 1 for row in rows)
        return self._primitive

    def char_poly(self):
        """det(xI - A): the spectrum's when sigma is primitive; built once."""
        if self._char_poly is None:
            self._char_poly = (self.spectrum().char_poly if self.is_primitive()
                               else char_poly(self.transition_matrix()))
        return self._char_poly

    def spectrum(self) -> Spectrum:
        """Char poly, its factors, Q(lambda), the left PF eigenvector and
        the eigenvalue classes."""
        if self._spectrum is None:
            if not self.is_primitive():
                raise ValueError("spectral data needs a primitive matrix")
            self._spectrum = Spectrum.of(self.transition_matrix())
        return self._spectrum

    def fixed_point(self) -> FixedPointStream:
        """The fixed word u, as fixed_point_stream finds it; built once."""
        if self._fixed_point is None:
            self._fixed_point = fixed_point_stream(self)
        return self._fixed_point

    def is_constant_length(self):
        return len({len(img) for img in self.rules}) == 1

    def power(self, k):
        """The substitution phi^k as a new Substitution."""
        return Substitution(self.alphabet,
                            [self.apply((i,), k) for i in range(self.size)])

    def __eq__(self, other):
        return (isinstance(other, Substitution)
                and self.alphabet == other.alphabet
                and self.rules == other.rules)

    def __hash__(self):
        return hash((self.alphabet, self.rules))

    def __repr__(self):
        rules = ", ".join(
            f"{self.alphabet.tokens[i]}->{self.alphabet.render(img)}"
            for i, img in enumerate(self.rules))
        return f"Substitution({rules})"


def parse_substitution(text):
    """Parse the rule file format.

    One `lhs -> rhs` per line; `#` starts a comment; rhs splits on whitespace
    when it contains any, else per character. Alphabet order is
    first-appearance order of left-hand sides.
    """
    raw_rules = []  # (lhs, rhs_text, line_no)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise RuleSyntaxError("expected 'lhs -> rhs'", line_no)
        lhs, rhs = line.split("->", 1)
        lhs = lhs.strip()
        rhs = rhs.strip()
        if not lhs or "->" in rhs:
            raise RuleSyntaxError("expected exactly one '->'", line_no)
        if any(ch.isspace() for ch in lhs):
            raise RuleSyntaxError("left-hand side must be a single token", line_no)
        if not rhs:
            raise RuleSyntaxError(f"empty image for letter {lhs!r}", line_no)
        raw_rules.append((lhs, rhs, line_no))
    if not raw_rules:
        raise RuleSyntaxError("no rules found")
    tokens = []
    for lhs, _, line_no in raw_rules:
        if lhs in tokens:
            raise RuleSyntaxError(f"duplicate rule for letter {lhs!r}", line_no)
        tokens.append(lhs)
    alphabet = Alphabet(tokens)
    rules = [None] * len(tokens)
    for lhs, rhs, line_no in raw_rules:
        try:
            rules[alphabet.index_of(lhs)] = alphabet.word_from_text(rhs)
        except ValueError as exc:
            raise RuleSyntaxError(f"{exc} in image of {lhs!r}",
                                  line_no) from None
    return Substitution(alphabet, rules)


class FixedPointStream:
    """Prefixes of the right-infinite word fixed by phi^power, seeded at one letter.

    The buffer grows geometrically by reapplying phi^power to itself, so
    producing a length-m prefix costs O(m) amortized.
    """

    def __init__(self, subst: Substitution, power: int, seed: int):
        self.subst = subst
        self.power = power
        self.seed = seed
        self._buffer = subst.apply((seed,), power)
        if not (self._buffer[0] == seed and len(self._buffer) >= 2):
            raise ValueError("seed does not start an expanding fixed word")
        self._ancestors = {}

    def ancestor(self, k):
        """The word v_k with phi^k(v_k) = u, for k >= 0: fixed by phi^power
        from the letter k steps before the seed on its first-letter cycle,
        so the fixed word itself when power divides k. Built once per
        letter of the cycle."""
        ahead = -k % self.power  # k steps back is this many ahead
        if not ahead:
            return self
        if ahead not in self._ancestors:
            seed = self.seed
            for _ in range(ahead):
                seed = self.subst.rules[seed][0]
            self._ancestors[ahead] = FixedPointStream(self.subst, self.power,
                                                      seed)
        return self._ancestors[ahead]

    def _grow(self, need):
        while len(self._buffer) < need:
            grown = self.subst.apply(self._buffer, self.power)
            if len(grown) <= len(self._buffer):
                raise NoExpandingFixedPoint("fixed word stopped growing")
            self._buffer = grown

    def prefix(self, length):
        self._grow(length)
        return self._buffer[:length]

    def letter(self, i):
        self._grow(i + 1)
        return self._buffer[i]

    def letters(self, start=0):
        """Infinite iterator over the fixed word from the given offset.

        Reads each buffer in one run from where the last one ended; _grow
        replaces the buffer and never changes one, so a run stays valid.
        """
        return chain.from_iterable(self._runs(start))

    def _runs(self, i):
        while True:
            self._grow(i + 1)
            buffer = self._buffer
            yield islice(buffer, i, None)
            i = len(buffer)


def fixed_point_stream(subst: Substitution) -> FixedPointStream:
    """Smallest k >= 1 and first seed letter a with phi^k(a) starting at a.

    Follows the first-letter map i -> first(phi(i)); any valid k is a cycle
    length of that functional graph, so k <= n. Raises NoExpandingFixedPoint
    when every candidate phi^k(a) has length 1 (never happens for primitive
    substitutions on two or more letters).
    """
    n = subst.size
    first = [subst.rules[i][0] for i in range(n)]
    for k in range(1, n + 1):
        for a in range(n):
            b = a
            for _ in range(k):
                b = first[b]
            if b != a:
                continue
            if len(subst.apply((a,), k)) >= 2:
                return FixedPointStream(subst, k, a)
    raise NoExpandingFixedPoint(
        "no power up to the alphabet size has an expanding fixed letter")


def admissible_prefixes(stream: FixedPointStream, max_len: int,
                        require_return: bool = True):
    """Prefixes u_0..u_m with m+1 <= max_len; optionally only those returning
    to the first letter (u_{m+1} == u_0), the side condition of the spectral
    criterion's converse half."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    head = stream.prefix(max_len + 1)
    out = []
    for m in range(min(max_len, len(head) - 1)):
        if require_return and head[m + 1] != head[0]:
            continue
        out.append(head[: m + 1])
    return out


def auto_prefixes(stream: FixedPointStream, max_len: int,
                  require_return: bool = True):
    """admissible_prefixes, or, when no returning prefix has at most max_len
    letters, the shortest returning prefix of the fixed word alone. The
    fixed word of a primitive substitution returns to its first letter, so
    the list is never empty."""
    prefixes = admissible_prefixes(stream, max_len, require_return)
    if prefixes:
        return prefixes
    first = stream.letter(0)
    end = next(i for i, a in enumerate(stream.letters(1), 1) if a == first)
    return [stream.prefix(end)]
