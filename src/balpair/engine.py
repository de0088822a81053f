"""Balanced pairs: splitting, closure, the pair graph, and densities.

A pair of words is cut exactly where the equivalence states of the two
prefixes are equal. A state fixes the L-length, and lengths grow strictly
on each side, so each prefix can match at most one prefix of the other side
and the cuts come out in order. Each letter's integer walk length, a
combination of its state's coordinates (Relation.walk_lengths), says which
parts of the two sides may meet, and no sign of an algebraic number is
decided. Each emitted component is irreducible: it holds no earlier pair
of equal prefix states.

Every split here is of two images, and one cut loop, `_walk`, runs them
all one parent letter at a time: states are linear, so the cuts inside the
images of a top and a bottom parent letter are one lookup in a
per-letter-pair table (Relation.image_tables) that maps a state difference
to the image prefix pairs it cuts at, built on the difference's first
lookup. Either side may drop a head, the letters of its first image
before the split starts; its states start at minus the head's, so each
side reads zero where the split starts. The loop keeps each side's running
state, walk length and letter count itself, adding a letter's table
entries as it reads the letter, so either side may be an unbounded
iterator, read only as far as the cuts need.

The closure's children, `children`, walk the two words of a pair under
sigma. A pair the closure found is a stretch of sigma^d(A) for a word pair
A, its origin's ancestor: on each side, exactly the letters whose sigma^d
images hold the pair, the first image holding its start and the last its
end. So sigma of the pair is a stretch of sigma^(d+1)(A), and the walk
reads A's letters over sigma^(d+1) images. Each side drops the head
sigma(sigma^d(a)[:r]), a being its first letter and r the letters of
sigma^d(a) before the pair, and ends sigma(sigma^d(z)[:q]) into the image
of its last letter z, q the letters of sigma^d(z) the pair keeps; both
are one read of the sigma^(d+1) tables the walk reads (ImageTables.heads),
and the walk stops at the cut where sigma of the pair ends. Each side's
states are zero at its own start, so the cuts found are those of the
pair's own words: that sigma maps equivalent words to equivalent words is
not needed. At depth 0 the ancestor is the pair itself, and the walk, the
same one, reads its own words; a call with no origin walks that. The
walk records each cut as the letter it is reading on each side and how
far into that letter's image, and children hands the cuts back with the
pairs; the closure locates each new pair's origin once, from the two cuts
that bound it (_located). The initial split I(w) and the coincidence densities,
`shift_split`, cut the fixed word u against its own shift:
u = sigma^k(v_k) for a fixed word v_k, so they walk v_k against a suffix
of v_k under sigma^k, the bottom dropping the first letters of its first
image. k is the largest with sum_a |sigma^k(a)| <= WALK_LETTERS, so short
images take one loop step per sigma^k image rather than per letter of u,
and the closure's walks reach depth k - 1, whose sigma^k images are the
same. Only the pending component's letters are held.

The image-table entry is also a unit of work: an entry whose hits
increase strictly on both sides carries a Run (Relation.image_tables).
When the walk accepts the entry's first hit and the run's largest step is
within the cap, every later hit of the entry is a cut, so `_walk` hands
back the first component and then the Run, whose components it does not
spell. The initial split counts the cuts and top letters of a run whose
components it already holds; `shift_split` spells runs from the two
images each time (`_spelled`), and `children` once, keeping the
components on the run (`_spell`).

Each entry point takes a relation, which names its substitution sigma
(rel.subst); the fixed word u is rel.subst.fixed_point(), built once per
substitution. Every word is of the one type its alphabet names
(Alphabet.word, bytes unless the alphabet has more than 256 letters): the
entry points convert the prefix they are given (Alphabet.word_of), and the
walks build words with that constructor. A pair is a named tuple of its
two words, so it is its own key. The closure, `run_bpa`, returns one
record, a `Closure`: the pair graph it computed, the iteration that found
each pair, and the budget that stopped it, if any.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, pairwise
from typing import NamedTuple

from .equivalence import Run
from .errors import NotBalanced, NotClosed, ScanOverflow, StabilityNotReached
from .numberfield import APPROX_DIGITS, FieldScalar, _format_decimal


class BalancedPair(NamedTuple):
    """An ordered pair of equivalent words; top is the fixed-word side."""

    top: bytes | tuple  # words, Alphabet.word
    bottom: bytes | tuple

    @property
    def is_coincidence(self):
        return len(self.top) == 1 and self.top == self.bottom

    def render(self, alphabet):
        return f"|{alphabet.render(self.top)}/{alphabet.render(self.bottom)}|"


_pair = partial(tuple.__new__, BalancedPair)  # skips the Python __new__

# shift_split walks under the largest sigma^k whose images hold at most
# this many letters in all, or under sigma when its own images hold more;
# the closure's children walk ancestors at depths below that k
WALK_LETTERS = 512

class Origin(NamedTuple):
    """Where a pair sits in sigma^depth of its ancestor: per side, exactly
    the ancestor letters whose sigma^depth images hold the pair, the first
    image holding its start and the last its end, the letters of the first
    image before it, and those of the last image it holds. At depth 0 the
    ancestor is the pair itself: nothing is dropped, and each last image,
    one letter, is held whole."""

    ancestor: tuple  # a pair of words, Alphabet.word
    depth: int
    dropped: tuple  # (top, bottom) head letters
    kept: tuple = (1, 1)  # (top, bottom) letters of the last images


@dataclass
class Budgets:
    max_iterations: int = 60
    max_pairs: int = 20_000
    max_word_length: int = 5_000
    split_stability_window: int = 500  # grows to 3x the pair count
    max_scan_length: int = 1_000_000

    def __post_init__(self):
        for name, value in vars(self).items():
            if value <= 0:
                raise ValueError(f"budget {name} must be positive")


@dataclass
class PairGraph:
    """Directed multigraph on irreducible pairs; edges follow reductions."""

    vertices: list  # BalancedPair, deterministic order
    edges: dict  # vertex index -> list of (vertex index, multiplicity)

    def coincidence_indices(self):
        return [i for i, p in enumerate(self.vertices) if p.is_coincidence]


@dataclass
class Closure(PairGraph):
    """What run_bpa computed: the pairs in discovery order, the edges of
    every pair whose children were computed (each list in first-occurrence
    order), the budget that stopped the closure, None when the frontier
    emptied, the ancestor letters the children walks read, per side (a
    pair's own letters when it walks its own words), and how many
    expansions were walked and how many replayed. A replayed expansion
    reads no letters, so letters_walked counts walked ones only."""

    discovered: list  # iteration that found each vertex
    growth_trace: list  # (iteration, max new top length)
    iterations_done: int  # iterations begun
    which: str | None = None
    letters_walked: tuple = (0, 0)  # ancestor letters children read, a side
    walked: int = 0  # expansions that called children
    replayed: int = 0  # expansions read back from an Expansions record

    @property
    def terminated(self):
        return self.which is None

    @property
    def closure_iteration(self):
        return self.growth_trace[-1][0]

    @property
    def longest_pairs(self):
        """Up to 5 longest pairs, longest first."""
        return sorted(self.vertices, key=lambda p: (-len(p.top), p))[:5]


class Expansions:
    """The expansions of the closures of one cut key and one
    max_word_length, which a later closure of the same key and cap
    replays (run_bpa): each expanded pair's children as its walk found
    them, in order, repeats included, and the Origin first given to each
    pair found past an initial split. A pair that was only ever an
    initial pair has none here; its Origin is its own, at depth 0.

    Two relations with equal cut keys cut every pair of words alike, and
    a pair's children walk its own words whatever its Origin, so its
    children depend on its words, the key and the cap alone. An
    expansion that overflowed is not recorded."""

    __slots__ = ("kids", "origins")

    def __init__(self):
        self.kids = {}  # pair -> tuple of its children, as children found
        self.origins = {}  # pair -> Origin


@dataclass
class DensityStats:
    horizon: int  # top letters actually accounted
    coincident_mass: object  # Fraction or FieldScalar
    total_mass: object
    ratio_fraction: Fraction | None
    ratio_decimal: str


def _walk(alphabet, tables, top_word, bottom_word, cap, which,
          top_head=(0, 0, 0), bottom_head=(0, 0, 0), cuts=None):
    """Irreducible components of tau(top_word) against tau(bottom_word),
    each side less its head, in order, walked one parent letter at a time,
    tau being the map sigma^k whose images the tables hold. A head is the
    letter count, packed state and walk length of the letters a side drops
    from the start of its first image; that side's states and lengths
    start at minus the head's, so both sides read zero where their
    components start.

    States are linear, so the state r letters into the image of top letter
    a is S_top + P_a[r], S_top being the state of the images before it and
    P_a[r] that of tau(a)[:r]; it equals the state s letters into the
    image of bottom letter b exactly when P_a[r] + S_top - S_bot = P_b[s],
    so the cuts inside the two images are one lookup of S_top - S_bot in
    tables.rows[a][b]. A bottom letter is looked up from when its image
    starts before the top letter's ends until its image ends at or before
    the top letter's start, by walk lengths: equal states have equal walk
    lengths and every letter's is positive, so each cut lies in the images
    of a top and a bottom letter that overlap, and which cuts are found
    does not depend on k.

    One loop keeps each side's running sums of the per-letter tables: the
    packed state, the walk length and the letter count of the images
    before its next letter. The top adds its letter's sums as the loop
    reaches it, the bottom as each of its letters enters the window, so
    either word may be an iterator, read one letter at a time and only as
    far as the walk needs.

    Exactness: a hit counts only within cap letters of the last cut on both
    sides, where the two states differ by those of two words of at most cap
    letters, which the packing for cap keeps apart; so every accepted hit
    is a cut. The hits come in order of the bottom letter, then of r, so
    the first accepted hit is the next cut. Only the pending component's
    letters and a window of bottom parent letters are held.

    Runs: when the first hit of an entry with a Run is accepted and the
    run's largest step is at most cap, each later hit lies within cap
    letters of the one before it on both sides, so it is accepted too,
    as the per-hit loop would accept it. No other bottom letter's hit
    comes between two of them: lengths grow strictly, so a cut between
    two of the run's hits lies inside the same two images and would be a
    hit of the same entry. The walk yields the first component, then the
    Run, and moves its last cut to the run's last hit without slicing the
    pending letters for each cut; every other entry takes the per-hit
    loop.

    The pending letters sit in the alphabet's buffers and each component's
    words are built with its word constructor.

    Given a list `cuts`, the walk appends each cut it accepts as (t, u, r,
    s), r letters into the image of top_word[t] and s letters into that of
    bottom_word[u], before it yields the component that ends there, and a
    Run's later cuts before the Run: the letter it reads on each side and
    the hit are the cut's coordinates, so no caller sums image lengths to
    find them.

    Raises ScanOverflow(which) when a component would have more than cap
    letters on a side, after yielding every earlier component, and
    NotBalanced when the images end other than at a cut.
    """
    rows, sizes, images = tables.rows, tables.sizes, tables.images
    states, lengths = tables.states, tables.lengths
    word = alphabet.word
    # each side's running sums start at minus its head's; top and bottom
    # are the last cut
    top, state, length = top_head
    state, length, first = -state, -length, 0
    bottom, b_state, b_length = bottom_head
    b_state, b_length, b_first = -b_state, -b_length, 0
    bottoms = iter(bottom_word)
    ahead = next(bottoms, None)  # the next bottom letter to enter
    window = deque()  # bottom letters (end, b, state, first, index) that
    # may overlap the letters from top_from and bottom_from on
    entered = 0  # bottom letters that entered the window
    top_letters, bottom_letters = alphabet.buffer(), alphabet.buffer()
    top_from = bottom_from = 0
    for t, a in enumerate(top_word):
        if first - top > cap:  # the images before this letter overflow
            raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                               which=which)
        top_letters += images[a]
        end = length + lengths[a]
        while ahead is not None and b_length < end:
            b_length += lengths[ahead]
            window.append((b_length, ahead, b_state, b_first, entered))
            bottom_letters += images[ahead]
            b_state += states[ahead]
            b_first += sizes[ahead]
            entered += 1
            ahead = next(bottoms, None)
        while window and window[0][0] <= length:
            window.popleft()
        row = rows[a]
        for _end, b, theirs, first_b, u in window:
            if entry := row[b][state - theirs]:
                hits, run = entry
                if run and run.step > cap:
                    run = None
                for r, s in hits:
                    i, p = first + r, first_b + s
                    if top < i <= top + cap and bottom < p <= bottom + cap:
                        if cuts is not None:
                            cuts.append((t, u, r, s))
                        yield _pair((
                            word(top_letters[top - top_from:i - top_from]),
                            word(bottom_letters[bottom - bottom_from:
                                                p - bottom_from])))
                        top, bottom = i, p
                        if run:  # the first hit is a cut, so all are
                            if cuts is not None:
                                cuts += map((t, u).__add__, run.hits[1:])
                            yield run
                            r, s = run.last
                            top, bottom = first + r, first_b + s
                            break
                    run = None  # only the first hit starts the run
        if top != top_from:
            del top_letters[:top - top_from]
            del bottom_letters[:bottom - bottom_from]
            top_from, bottom_from = top, bottom
        state += states[a]
        length = end
        first += sizes[a]
    top_left = top_from + len(top_letters) - top
    bottom_left = bottom_from + len(bottom_letters) - bottom
    if ahead is not None:  # bottom letters that never entered
        bottom_left += sizes[ahead] + sum(map(sizes.__getitem__, bottoms))
    if max(top_left, bottom_left) > cap:
        raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                           which=which)
    if top_left or bottom_left:
        raise NotBalanced("images end on an unbalanced pair")


def _walk_power(subst):
    """The power k of sigma whose images shift_split walks: the largest
    k >= 1 with sum_a |sigma^k(a)| <= WALK_LETTERS, or 1."""
    return len(subst.image_sizes(WALK_LETTERS)) - 1


def shift_split(rel, shift, cap, which="max_word_length"):
    """Irreducible components of the fixed word u of rel.subst against its
    shift by `shift` letters, walked over the ancestor word v =
    u.ancestor(k) under sigma^k, for k = _walk_power(rel.subst).

    u = sigma^k(v), so u less its first `shift` letters is sigma^k(v[j:])
    less its first d letters, where sigma^k(v[:j]) has shift - d letters
    and d < |sigma^k(v[j])|: the walk of v against v[j:], the bottom
    dropping d letters. The walk reads whole sigma^k images: past its last
    cut the top reads the rest of one, and the bottom as many as the
    longest image's length spans of the shortest, plus two. Runs are
    spelled (_spelled).

    Raises ScanOverflow(which) when a component would have more than cap
    letters on a side, after yielding every earlier component.
    """
    for component in _shift_walk(rel, shift, cap, which):
        if component.__class__ is Run:
            yield from _spelled(component)
        else:
            yield component


def _shift_walk(rel, shift, cap, which):
    """The walk behind shift_split: its components, each Run after its
    first component (_walk)."""
    k = _walk_power(rel.subst)
    tables = rel.image_tables(cap, k)
    ancestor = rel.subst.fixed_point().ancestor(k)
    j, d = 0, shift
    while d >= len(image := tables.images[ancestor.letter(j)]):
        j, d = j + 1, d - len(image)
    head = rel.sums((image[:d],), cap)
    return _walk(rel.subst.alphabet, tables, ancestor.letters(0),
                 ancestor.letters(j), cap, which,
                 bottom_head=[field[0] for field in head])


def _spelled(run):
    """The components of a Run after its first, as an iterator: the
    stretches of its two images between consecutive hits."""
    top, bottom = run.images
    return (_pair((top[r:r2], bottom[s:s2]))
            for (r, s), (r2, s2) in pairwise(run.hits))


def _spell(run):
    """The components of a Run after its first, spelled (_spelled) and kept
    on the run as a tuple, so that later walks reuse the same pairs."""
    run.components = tuple(_spelled(run))
    return run.components


class _Kids(list):
    """The components children returns, in order, and the cuts of the walk
    that found them: component j runs from cuts[j] to cuts[j + 1], each a
    cut (t, u, r, s) r letters into the image of the walked top word's
    letter t and s letters into that of the bottom word's letter u
    (_walk), and cuts[0] is where the walk starts."""

    __slots__ = ("cuts",)


def children(rel, pair, *, max_word_length, origin=None):
    """Irreducible pairs in the reduction of the pair substituted by
    rel.subst, in order, as a list that also holds the walk's cuts (_Kids).

    The origin (Origin) places the pair in sigma^d of its ancestor A, d >= 0;
    with none, the pair is its own ancestor at depth 0. Each side of the
    pair is the stretch of sigma^d of A's word that starts `dropped` letters
    into the first letter's image and ends `kept` letters into the last
    one's, so sigma(pair) is a stretch of sigma^(d+1)(A). The walk reads A's
    letters over the sigma^(d+1) tables (rel.image_tables): the lookups
    number about |top| + |bottom| over the length of a sigma^d image, and no
    whole image is held. Each side drops the head sigma(sigma^d(a)[:dropped]),
    a being its first letter, one read of the same tables (ImageTables.heads),
    so its states are zero where sigma(pair) starts, and the cuts found are
    those of sigma(pair)'s own words: that sigma maps equivalent words to
    equivalent words is not needed. Each side of sigma(pair) ends in the
    image of its last letter z, |sigma(sigma^d(z)[:kept])| letters in, read
    alike, and the walk stops at the first cut it records in the last
    images of both sides at or past the top's end. A cut past the end on
    either side, or the walk's overflow or end before it, leaves
    sigma(pair) ending other than at a cut; its letters after the last cut
    then tell an overflow from an unbalanced end. At depth 0 nothing is
    dropped and each last image is held whole, so the walk reads the pair's
    own words, and a cap of at least max(|top|, |bottom|) times the longest
    image never overflows.

    The walk's runs are spelled in place, each once (_spell), so the list
    is the same as a cut-by-cut walk's.

    Raises ScanOverflow("max_word_length") when a component would have more
    than max_word_length letters on a side, and NotBalanced when the images
    end other than at a cut.
    """
    cap = max_word_length
    if origin is None:
        origin = Origin(pair, 0, (0, 0))
    tables = rel.image_tables(cap, origin.depth + 1)
    heads, ends = [], []
    for word, dropped, kept in zip(origin.ancestor, origin.dropped,
                                   origin.kept):
        heads.append(tables.heads[word[0]][dropped])
        ends.append(tables.heads[word[-1]][kept][0])
    top, bottom = origin.ancestor
    end = (len(top) - 1, len(bottom) - 1, *ends)  # the cut sigma(pair) ends at
    kids = _Kids()
    cuts = kids.cuts = [(0, 0, heads[0][0], heads[1][0])]
    try:
        for kid in _walk(rel.subst.alphabet, tables, top, bottom, cap,
                         "max_word_length", *heads, cuts=cuts):
            if kid.__class__ is Run:
                kids += kid.components or _spell(kid)
            else:
                kids.append(kid)
            if cuts[-1] >= end:
                break
    except (ScanOverflow, NotBalanced):
        pass
    # cuts grow on both sides: drop the kids past the end on either side
    while ((cut := cuts[-1])[0] == end[0] and cut[2] > end[2]
           or cut[1] == end[1] and cut[3] > end[3]):
        del cuts[-1], kids[-1]
    if cut == end:
        return kids
    # the letters of sigma(pair) after the last cut, a side
    left = [sum(map(tables.sizes.__getitem__, word[letter:-1])) + stop - at
            for word, letter, at, stop in zip(origin.ancestor, cut[:2],
                                              cut[2:], ends)]
    if max(left) > cap:
        raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                           which="max_word_length")
    raise NotBalanced("images end on an unbalanced pair")


def _located(rel, cap, sizes, cumulative, kid, start, end, origin):
    """The Origin of a new pair that its parent's children walk found
    between the cuts start and end (_Kids), the parent's Origin being
    origin, of depth d; sizes[j] are the sigma^j image lengths up to the
    walk power k (Substitution.image_sizes), and cumulative a dict this
    function fills.

    The pair walks at the deepest depth d' <= d + 1, below k, at which it
    is longer than every sigma^d' image on a side, or over its own words,
    depth 0. The walk read the parent's ancestor letters S over
    sigma^(d+1) images, and each cut names the letter of S whose image it
    is in and how far in: a side of the pair starts at its start cut, or
    at the next image when that cut ends one, and ends in the image its
    end cut is in. At d' = d + 1 those letters of S are its ancestor. At
    d' <= d, its ancestor letters are in the sigma^(d+1-d') images of the
    first and the last of them and of those between: a bisect of the
    running sigma^d' lengths over the first and last images (kept in
    cumulative, per letter) finds the letters that hold the pair's start and
    end, and one join spells them.
    """
    depth = origin.depth + 1
    size, walk = max(map(len, kid)), min(depth, len(sizes) - 2)
    while walk and size <= max(sizes[walk]):
        walk -= 1
    if not walk:
        return Origin(kid, 0, (0, 0))
    if walk < depth:
        images = rel.image_tables(cap, depth - walk).images
        if (walk, depth) not in cumulative:
            cumulative[walk, depth] = [list(accumulate(map(
                sizes[walk].__getitem__, image), initial=0))
                for image in images]
        running = cumulative[walk, depth]
    step, (top, bottom) = sizes[depth], origin.ancestor
    t, u, r, s = start
    t_end, u_end, r_end, s_end = end
    located = []
    for word, first, head, last, kept in ((top, t, r, t_end, r_end),
                                          (bottom, u, s, u_end, s_end)):
        if head == step[word[first]]:  # a start at an image's end
            first, head = first + 1, 0
        word = word[first:last + 1]
        if walk < depth:
            firsts, lasts = running[word[0]], running[word[-1]]
            i, j = bisect_right(firsts, head) - 1, bisect_left(lasts, kept)
            spelled = rel.subst.alphabet.join(map(images.__getitem__, word))
            word = spelled[i:len(spelled) - len(lasts) + 1 + j]
            head, kept = head - firsts[i], kept - lasts[j - 1]
        located.append((word, head, kept))
    (top, r, r_end), (bottom, s, s_end) = located
    return Origin((top, bottom), walk, (r, s), (r_end, s_end))


def initial_pairs(rel, w, budgets: Budgets) -> list:
    """I_1(w): split the fixed word u of rel.subst against its shift by |w|.

    Streams the reduction of u against its shift by |w| letters (u less
    its first |w| letters) and returns the distinct irreducible pairs in
    the order they first appear, once no new pair has shown up for a
    stability window of max(split_stability_window, 3x the current pair
    count) consecutive cuts.

    The split is read from the walk (_shift_walk), whose Runs are spelled
    the first time they appear, cut by cut. A run seen before holds no new
    pair, so it adds its cuts and its top letters to the counts in one
    step, unless the stability window or the scan budget would stop the
    split at one of its cuts: then it is spelled and counted cut by cut,
    and the split stops on the same cut as a cut-by-cut count.

    Raises ScanOverflow when a component has more letters on a side than
    the smaller of max_word_length and max_scan_length (named by which; a
    tie names max_word_length), and StabilityNotReached when the total scan
    or the pair budget is exhausted while new pairs are still appearing.
    """
    w = rel.subst.alphabet.word_of(w)
    if not w:
        raise ValueError("prefix must be nonempty")
    if rel.subst.fixed_point().prefix(len(w)) != w:
        raise ValueError("w is not a prefix of the fixed word")
    if budgets.max_scan_length < budgets.max_word_length:
        cap, which = budgets.max_scan_length, "max_scan_length"
    else:
        cap, which = budgets.max_word_length, "max_word_length"
    pairs = {}  # insertion-ordered set
    known = set()  # Runs whose components are all in pairs
    cuts = 0
    cuts_at_last_new = 0
    scanned = 0
    window = budgets.split_stability_window
    for item in _shift_walk(rel, len(w), cap, which):
        if item.__class__ is not Run:
            components = (item,)
        elif item in known and (cuts + item.count - cuts_at_last_new < window
                                and scanned + item.letters
                                <= budgets.max_scan_length):
            # no new pair, and neither stop fires before the run ends
            cuts += item.count
            scanned += item.letters
            continue
        else:
            known.add(item)
            components = _spelled(item)
        for component in components:
            cuts += 1
            scanned += len(component.top)
            if component not in pairs:
                pairs[component] = None
                cuts_at_last_new = cuts
                if len(pairs) > budgets.max_pairs:
                    raise StabilityNotReached(
                        f"more than {budgets.max_pairs} distinct initial pairs",
                        which="max_pairs")
                window = max(budgets.split_stability_window, 3 * len(pairs))
            if cuts - cuts_at_last_new >= window:
                return list(pairs)
            if scanned > budgets.max_scan_length:
                raise StabilityNotReached(
                    f"still discovering after {budgets.max_scan_length} letters",
                    which="max_scan_length")


def run_bpa(rel, w, budgets: Budgets | None = None, *,
            expansions: Expansions | None = None) -> Closure:
    """Worklist closure of the initial pairs I_1(w) under
    substitute-and-reduce by rel.subst.

    Returns the Closure: every pair found, the iteration that found it, and
    the edges of every pair whose children were computed, once per pair.
    Its `which` names the budget that stopped the closure, or is None when
    the frontier emptied; a budget overrun inside the initial split stops
    it with no pairs at all.

    A pair found after the initial split is a stretch of sigma^d of its
    ancestor d levels up. Its children walk (children with an origin) at
    the deepest depth d' <= d + 1, d being its parent's, below the walk
    power k of shift_split, at which it is longer than every sigma^d'
    image on a side, or over its own words, depth 0. Each frontier entry
    keeps its pair's Origin, the pair itself at depth 0 for an initial
    pair. A new pair's Origin is located once, by _located, from the two
    cuts of its parent's walk that bound it, which children hands back
    with the pairs (_Kids); a pair found before costs no location.
    letters_walked sums the ancestor letters each walked expansion reads.

    Given an Expansions record of rel's cut key and this max_word_length,
    the closure replays each frontier pair the record holds instead of
    walking it: the children its walk found, each new one with the Origin
    the record holds, or its own when it was an initial pair. Every other
    pair is walked and recorded, with the Origins located for it.
    Walked or replayed, the children take one loop through the vertex,
    edge, max_pairs and growth-trace bookkeeping, so the closure is the
    one a walk of every pair finds, and it stops on the same budget. With no
    record every pair is walked and nothing is kept.
    """
    budgets = budgets or Budgets()
    vertices, discovered, edges, trace = [], [], {}, []
    walked = [0, 0]
    walks = replays = 0

    def stop(which, iterations_done):
        return Closure(vertices=vertices, edges=edges, discovered=discovered,
                       growth_trace=trace, iterations_done=iterations_done,
                       which=which, letters_walked=tuple(walked),
                       walked=walks, replayed=replays)

    try:
        vertices += initial_pairs(rel, w, budgets)
    except (ScanOverflow, StabilityNotReached) as exc:
        return stop(exc.which, 1)
    index = {pair: i for i, pair in enumerate(vertices)}
    discovered += [1] * len(vertices)
    trace.append((1, max(len(p.top) for p in vertices)))
    # a frontier entry is a vertex, its pair and the pair's Origin
    frontier = [(i, pair, Origin(pair, 0, (0, 0)))
                for i, pair in enumerate(vertices)]
    cap = budgets.max_word_length
    locate = partial(_located, rel, cap, rel.subst.image_sizes(WALK_LETTERS),
                     {})
    recorded, origins = ((expansions.kids, expansions.origins)
                         if expansions is not None else ({}, {}))
    iteration = 1
    while frontier:
        iteration += 1
        if iteration > budgets.max_iterations:
            return stop("max_iterations", iteration - 1)
        new_frontier = []
        max_new = 0
        for vertex, pair, origin in frontier:
            kids = recorded.get(pair)
            if kids is None:
                walks += 1
                walked[0] += len(origin.ancestor[0])
                walked[1] += len(origin.ancestor[1])
                try:
                    kids = found = children(rel, pair, max_word_length=cap,
                                            origin=origin)
                except ScanOverflow:
                    return stop("max_word_length", iteration)
            else:
                replays += 1
                found = None
            counts = {}  # edge multiplicities, in first-occurrence order
            for j, kid in enumerate(kids):
                i = index.setdefault(kid, len(vertices))
                counts[i] = counts.get(i, 0) + 1
                if i == len(vertices):
                    vertices.append(kid)
                    discovered.append(iteration)
                    at = origins.get(kid)
                    # a replayed kid the record gives no Origin was an
                    # initial pair where it was first found
                    if at is None:
                        at = (Origin(kid, 0, (0, 0)) if found is None else
                              locate(kid, found.cuts[j], found.cuts[j + 1],
                                     origin))
                        if expansions is not None:
                            origins[kid] = at
                    new_frontier.append((i, kid, at))
                    max_new = max(max_new, len(kid.top))
                    if len(vertices) > budgets.max_pairs:
                        return stop("max_pairs", iteration)
            edges[vertex] = list(counts.items())
            if found is not None and expansions is not None:
                recorded[pair] = tuple(found)
        if new_frontier:
            trace.append((iteration, max_new))
        frontier = new_frontier
    return stop(None, iteration)


def pair_graph(rel, pairs) -> PairGraph:
    """Build the pair graph of a closed pair set, recomputing all children.

    The reference run_bpa's graph is tested against. Raises NotClosed when
    some child of a member is not itself a member.
    """
    vertices = list(pairs)
    index = {p: i for i, p in enumerate(vertices)}
    cap = max((max(len(p.top), len(p.bottom)) for p in vertices), default=1)
    edges = {}
    for i, pair in enumerate(vertices):
        try:
            kids = children(rel, pair, max_word_length=cap)
        except ScanOverflow:
            raise NotClosed("children exceed the longest member; set not closed")
        for kid in kids:
            if kid not in index:
                raise NotClosed(f"child {kid} missing from the pair set")
        edges[i] = list(Counter(index[kid] for kid in kids).items())
    return PairGraph(vertices=vertices, edges=edges)


def coincidence_analysis(graph: PairGraph):
    """Indices of the vertices that reach a coincidence, their own included.

    Reachability is computed backwards from the coincidence vertices.
    """
    reverse = {i: [] for i in range(len(graph.vertices))}
    for i, outs in graph.edges.items():
        for j, _mult in outs:
            reverse[j].append(i)
    reached = set(graph.coincidence_indices())
    stack = list(reached)
    while stack:
        node = stack.pop()
        for back in reverse[node]:
            if back not in reached:
                reached.add(back)
                stack.append(back)
    return reached


def coincidence_density(rel, w, level, horizon) -> DensityStats:
    """Empirical coincident-length density when the fixed word u of
    rel.subst is matched against its shift by phi^level(w).

    Coincident positions sit exactly in the single-letter |a/a| components of
    the reduction, so the ratio is coincidence mass over total mass across the
    complete components covering the first `horizon` letters. The tops of
    those components are u's first letters, so the total mass is that of a
    prefix of u; both masses are measured once, from letter counts.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    alphabet = rel.subst.alphabet
    w = alphabet.word_of(w)
    shift_word = rel.subst.apply(w, level)
    if horizon < len(shift_word):
        raise ValueError("horizon shorter than the shift word")
    u = rel.subst.fixed_point()
    if u.prefix(len(w)) != w:
        raise ValueError("w is not a prefix of the fixed word")
    letters = alphabet.buffer()  # the tops of the coincident components
    scanned = 0
    for component in shift_split(rel, len(shift_word),
                                 max(horizon * 4, 10_000), "max_scan_length"):
        if component.is_coincidence:
            letters += component.top
        scanned += len(component.top)
        if scanned >= horizon:
            break
    coincident = rel.length_of(letters)
    total = rel.length_of(u.prefix(scanned))
    ratio = _exact_ratio(coincident, total)
    return DensityStats(horizon=scanned,
                        coincident_mass=coincident, total_mass=total,
                        ratio_fraction=ratio[0], ratio_decimal=ratio[1])


def _exact_ratio(num, den):
    value = num / den
    if isinstance(value, FieldScalar):
        frac = value.as_fraction() if value.is_rational else None
        return frac, value.decimal()
    return value, _format_decimal(value, APPROX_DIGITS)
