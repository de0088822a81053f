"""Balanced pairs: splitting, closure, the pair graph, and densities.

A pair of words is cut exactly where the equivalence states of the two
prefixes are equal. A state fixes the L-length, and lengths grow strictly
on each side, so each prefix can match at most one prefix of the other side
and the cuts come out in order. Integer enclosures of the scaled lengths
say which parts of the two sides may meet, and no sign of an algebraic
number is decided. Each emitted component is irreducible: it holds no
earlier pair of equal prefix states.

Every split here is of two images, and one cut loop, `_walk`, runs them
all one parent letter at a time: states are linear, so the cuts inside the
images of a top and a bottom parent letter are one lookup in a
per-letter-pair table (Relation.image_tables) that maps a state difference
to the image prefix pairs it cuts at, built on the difference's first
lookup. Either side may drop a head, the letters of its first image
before the split starts; its states start at minus the head's, so each
side reads zero where the split starts.

The closure's children, `children`, walk the two words of a pair under
sigma. A pair the closure found is a stretch of sigma^d(A) for a word
pair A, its origin's ancestor, so sigma of the pair is a stretch of
sigma^(d+1)(A): given that origin, the walk reads A's letters over
sigma^(d+1) images, from the ancestor letter whose sigma^d image holds
the pair's start. Each side drops the head sigma(sigma^d(a)[:r]), r being
the letters of sigma^d(a) before the pair, whose sums are those of the
sigma tables' entries, and the walk stops at the cut where sigma of the
pair ends. Each side's states are zero at its own start, so the cuts
found are those of the pair's own words: that sigma maps equivalent words
to equivalent words is not needed. The closure locates each new pair's
origin once, in the letters its parent's walk has just read, when that
walk finds it. The initial split I(w) and the coincidence densities,
`shift_split`, cut the fixed word u against its own shift:
u = sigma^k(v_k) for a fixed word v_k, so they walk v_k against a suffix
of v_k under sigma^k, the bottom dropping the first letters of its first
image. k is the largest with sum_a |sigma^k(a)| <= WALK_LETTERS, so short
images take one loop step per sigma^k image rather than per letter of u,
and the closure's walks reach depth k - 1, whose sigma^k images are the
same. Only the pending component's letters are held.

Each entry point takes a relation, which names its substitution sigma
(rel.subst); the fixed word u is rel.subst.fixed_point(), built once per
substitution. A pair is a named tuple of its two words, so it is its own
key. The closure, `run_bpa`, returns one record, a `Closure`: the pair
graph it computed, the iteration that found each pair, and the budget that
stopped it, if any.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, tee
from typing import NamedTuple

from .errors import NotBalanced, NotClosed, ScanOverflow, StabilityNotReached
from .numberfield import APPROX_DIGITS, FieldScalar, _format_decimal


class BalancedPair(NamedTuple):
    """An ordered pair of equivalent words; top is the fixed-word side."""

    top: tuple
    bottom: tuple

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
    """Where a pair sits in sigma^depth of its ancestor, depth >= 1: per
    side, the first and the last letter of the ancestor's word whose
    sigma^depth images hold the pair, and the letters of the first image
    before it. The ancestor is any pair of words whose sigma^depth images
    hold the pair."""

    ancestor: tuple  # two words
    depth: int
    top: tuple  # (first, dropped, last)
    bottom: tuple


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
    emptied, and the ancestor letters the children walks read, per side: a
    pair's own letters when it walks its own words."""

    discovered: list  # iteration that found each vertex
    growth_trace: list  # (iteration, max new top length)
    iterations_done: int  # iterations begun
    which: str | None = None
    letters_walked: tuple = (0, 0)  # ancestor letters children read, a side

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


@dataclass
class DensityStats:
    horizon: int  # top letters actually accounted
    coincident_mass: object  # Fraction or FieldScalar
    total_mass: object
    ratio_fraction: Fraction | None
    ratio_decimal: str


def _letters(word, tables, low, high, state):
    """Per letter of a parent word, in order: the low enclosure of the
    scaled length of the images before it and the high one of the images up
    to and including it, the letter, and the packed state and the letter
    count of the images before it. The enclosures and the state start at
    low, high and state. The word is read five times, so an iterator is
    tee'd."""
    words = tee(word, 5) if iter(word) is word else (word,) * 5
    highs = accumulate(map(tables.high.__getitem__, words[1]), initial=high)
    next(highs)  # the start itself, before any image
    return zip(accumulate(map(tables.low.__getitem__, words[0]), initial=low),
               highs,
               words[2],
               accumulate(map(tables.states.__getitem__, words[3]),
                          initial=state),
               accumulate(map(tables.sizes.__getitem__, words[4]), initial=0))


def _walk(tables, top_word, bottom_word, cap, which, top_head=(0, 0, 0, 0),
          bottom_head=(0, 0, 0, 0)):
    """Irreducible components of tau(top_word) against tau(bottom_word),
    each side less its head, in order, walked one parent letter at a time,
    tau being the map sigma^k whose images the tables hold. A head (_head)
    is the letter count, packed state and low and high length enclosures
    of the letters a side drops from the start of its first image; that
    side's states and enclosures start at minus the head's, so both sides
    read zero where their components start.

    States are linear, so the state r letters into the image of top letter
    a is S_top + P_a[r], S_top being the state of the images before it and
    P_a[r] that of tau(a)[:r]; it equals the state s letters into the
    image of bottom letter b exactly when P_a[r] + S_top - S_bot = P_b[s],
    so the cuts inside the two images are one lookup of S_top - S_bot in
    tables.rows[a][b]. A bottom letter is looked up from when its image may
    start before the top letter's ends until its image surely ends at or
    before the top letter's start, as the length enclosures tell; so which
    cuts are found does not depend on k.

    Exactness: a hit counts only within cap letters of the last cut on both
    sides, where the two states differ by those of two words of at most cap
    letters, which the packing for cap keeps apart; so every accepted hit
    is a cut. The hits come in order of the bottom letter, then of r, so
    the first accepted hit is the next cut. Only the pending component's
    letters and a window of bottom parent letters are held.

    Raises ScanOverflow(which) when a component would have more than cap
    letters on a side, after yielding every earlier component, and
    NotBalanced when the images end other than at a cut.
    """
    rows, sizes, images = tables.rows, tables.sizes, tables.images
    top_start, state, low, high = top_head
    tops = _letters(top_word, tables, -high, -low, -state)
    bottom_start, state, low, high = bottom_head
    bottoms = _letters(bottom_word, tables, -high, -low, -state)
    ahead = next(bottoms, None)  # the next bottom letter to enter
    window = deque()  # bottom letters (low, high, b, ...) that may overlap
    top_letters, bottom_letters = [], []  # from top_from, bottom_from on
    top_from = bottom_from = 0
    top, bottom = top_start, bottom_start  # the last cut
    for low, high, a, state, first in tops:
        if first - top > cap:  # the images before this letter overflow
            raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                               which=which)
        top_letters += images[a]
        while ahead and ahead[0] < high:
            window.append(ahead)
            bottom_letters += images[ahead[2]]
            ahead = next(bottoms, None)
        while window and window[0][1] <= low:
            window.popleft()
        row = rows[a]
        for _low, _high, b, theirs, first_b in window:
            if hits := row[b][state - theirs]:
                for r, s in hits:
                    i, p = first + r, first_b + s
                    if top < i <= top + cap and bottom < p <= bottom + cap:
                        yield _pair((
                            tuple(top_letters[top - top_from:i - top_from]),
                            tuple(bottom_letters[bottom - bottom_from:
                                                 p - bottom_from])))
                        top, bottom = i, p
        if top != top_from:
            del top_letters[:top - top_from]
            del bottom_letters[:bottom - bottom_from]
            top_from, bottom_from = top, bottom
    top_left = top_from + len(top_letters) - top
    bottom_left = bottom_from + len(bottom_letters) - bottom
    if ahead:  # bottom letters that never entered
        bottom_left += sum(sizes[entry[2]] for entry in chain((ahead,), bottoms))
    if max(top_left, bottom_left) > cap:
        raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                           which=which)
    if top_left or bottom_left:
        raise NotBalanced("images end on an unbalanced pair")


def _walk_sizes(subst):
    """The image lengths |sigma^j(a)|, a tuple over the letters a for each
    j from 0 to the power k the walks reach: the largest k >= 1 with
    sum_a |sigma^k(a)| <= WALK_LETTERS, or 1."""
    powers = [(1,) * subst.size, tuple(map(len, subst.rules))]
    while sum(grown := subst.image_lengths(powers[-1])) <= WALK_LETTERS:
        powers.append(grown)
    return powers


def _walk_power(subst):
    """The power k of sigma whose images shift_split walks: the largest
    k >= 1 with sum_a |sigma^k(a)| <= WALK_LETTERS, or 1."""
    return len(_walk_sizes(subst)) - 1


def shift_split(rel, shift, cap, which="max_word_length"):
    """Irreducible components of the fixed word u of rel.subst against its
    shift by `shift` letters, walked over the ancestor word v =
    u.ancestor(k) under sigma^k, for k = _walk_power(rel.subst).

    u = sigma^k(v), so u less its first `shift` letters is sigma^k(v[j:])
    less its first d letters, where sigma^k(v[:j]) has shift - d letters
    and d < |sigma^k(v[j])|: the walk of v against v[j:], the bottom
    dropping d letters. The walk reads whole sigma^k images: past its last
    cut the top reads the rest of one, and the bottom as many as the
    longest image's length spans of the shortest, plus two.

    Raises ScanOverflow(which) when a component would have more than cap
    letters on a side, after yielding every earlier component.
    """
    k = _walk_power(rel.subst)
    tables = rel.image_tables(cap, k)
    ancestor = rel.subst.fixed_point().ancestor(k)
    j, d = 0, shift
    while d >= len(image := tables.images[ancestor.letter(j)]):
        j, d = j + 1, d - len(image)
    return _walk(tables, ancestor.letters(0), ancestor.letters(j), cap, which,
                 bottom_head=_head(rel.image_tables(cap, 0), image[:d]))


def _head(tables, word):
    """The head tau(word), tau being the map whose images the tables hold:
    its letter count, packed state and low and high length enclosures."""
    return (sum(map(tables.sizes.__getitem__, word)),
            sum(map(tables.states.__getitem__, word)),
            sum(map(tables.low.__getitem__, word)),
            sum(map(tables.high.__getitem__, word)))


def _reads(images, origin):
    """Per side, what the walk of sigma of the origin's pair reads: the
    ancestor letters whose sigma^d images hold the pair, d being the
    origin's depth and images[a] sigma^d(a), and the letters of the first
    one's image before the pair, whose sigma images that side drops as its
    head."""
    return [(word[first:last + 1], images[word[first]][:dropped])
            for word, (first, dropped, last) in zip(origin.ancestor,
                                                    origin[2:])]


def children(rel, pair, *, max_word_length, origin=None):
    """Irreducible pairs in the reduction of the pair substituted by
    rel.subst, in order.

    With no origin, the walk of sigma(top) against sigma(bottom) over
    rel.image_tables: the lookups number about |top| + |bottom|, and no
    whole image is held. A cap of at least max(|top|, |bottom|) times the
    longest image never overflows.

    An origin (Origin) places the pair in sigma^d of an ancestor pair A,
    d >= 1: each side of the pair is the stretch of sigma^d of A's word
    that it names, so sigma(pair) is a stretch of sigma^(d+1)(A). The walk
    reads, on each side, A's letters from the first, a, whose sigma^d
    image holds the pair's start, to the last, over the sigma^(d+1)
    tables; the lookups number about |top| + |bottom| over the length of
    a sigma^d image. Each side drops the head sigma(sigma^d(a)[:dropped]),
    its sums those of the sigma tables' entries, so its states are zero
    where sigma(pair) starts, and the cuts found are those of sigma(pair)'s
    own words: that sigma maps equivalent words to equivalent words is not
    needed. The walk stops at the cut where sigma(pair) ends on both
    sides, |sigma(pair)| being the sigma^(d+1) lengths of the letters read
    less the head and the tail. A cut past that end on either side, or the
    walk's overflow or end before it, leaves sigma(pair) ending other than
    at a cut; its letters after the last cut then tell an overflow from an
    unbalanced end, as the walk of its own words does.

    Raises ScanOverflow("max_word_length") when a component would have more
    than max_word_length letters on a side, and NotBalanced when the images
    end other than at a cut.
    """
    cap = max_word_length
    once = rel.image_tables(cap)
    if origin is None:
        return list(_walk(once, pair.top, pair.bottom, cap, "max_word_length"))
    inner = rel.image_tables(cap, origin.depth)
    outer = rel.image_tables(cap, origin.depth + 1)
    words, drops = zip(*_reads(inner.images, origin))
    heads = [_head(once, drop) for drop in drops]
    ends = []
    for span, head, part, (_first, dropped, _last) in zip(words, heads, pair,
                                                          origin[2:]):
        # the pair ends `kept` letters into the last sigma^d image
        kept = dropped + len(part) - sum(map(inner.sizes.__getitem__,
                                             span[:-1]))
        tail = sum(map(once.sizes.__getitem__, inner.images[span[-1]][kept:]))
        ends.append(sum(map(outer.sizes.__getitem__, span)) - head[0] - tail)
    top_end, bottom_end = ends
    kids, top, bottom = [], 0, 0  # the last cut
    try:
        for kid in _walk(outer, *words, cap, "max_word_length", *heads):
            i, p = top + len(kid.top), bottom + len(kid.bottom)
            if i > top_end or p > bottom_end:
                break
            kids.append(kid)
            top, bottom = i, p
            if top == top_end and bottom == bottom_end:
                return kids
    except (ScanOverflow, NotBalanced):
        pass
    if max(top_end - top, bottom_end - bottom) > cap:
        raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                           which="max_word_length")
    raise NotBalanced("images end on an unbalanced pair")


def _span(ends, start, length):
    """The first and the last letter of a word whose images hold their
    concatenation's letters start to start + length, and the letters of
    the first one's image before start; ends are where the images start,
    in order, and where the last one ends."""
    first = bisect_right(ends, start) - 1
    return first, start - ends[first], bisect_left(ends, start + length,
                                                   first) - 1


def _rerooted(pair, origin, depth, images, sizes):
    """The pair's origin at a smaller depth, depth >= 1: its ancestor the
    sigma^(d - depth) images of the letters the origin spans, d being the
    origin's depth and images[a] sigma^(d - depth)(a), cut to the letters
    whose sigma^depth images, sizes[a] letters long, hold the pair."""
    words, spans = [], []
    for word, part, (first, dropped, last) in zip(origin.ancestor, pair,
                                                  origin[2:]):
        spelled = tuple(chain.from_iterable(
            map(images.__getitem__, word[first:last + 1])))
        first, dropped, last = _span(
            list(accumulate(map(sizes.__getitem__, spelled), initial=0)),
            dropped, len(part))
        words.append(spelled[first:last + 1])
        spans.append((0, dropped, last - first))
    return Origin(tuple(words), depth, *spans)


def _walk_depth(pair, deepest, longest):
    """The deepest depth d <= deepest at which the pair is longer than
    every sigma^d image on a side, longest[d] being the longest, or 0."""
    size = max(map(len, pair))
    while deepest and size <= longest[deepest]:
        deepest -= 1
    return deepest


def initial_pairs(rel, w, budgets: Budgets) -> list:
    """I_1(w): split the fixed word u of rel.subst against its shift by |w|.

    Streams the reduction of u against its shift by |w| letters (u less
    its first |w| letters) and returns the distinct irreducible pairs in
    the order they first appear, once no new pair has shown up for a
    stability window of max(split_stability_window, 3x the current pair
    count) consecutive cuts.

    Raises ScanOverflow when a component has more letters on a side than
    the smaller of max_word_length and max_scan_length (named by which; a
    tie names max_word_length), and StabilityNotReached when the total scan
    or the pair budget is exhausted while new pairs are still appearing.
    """
    w = tuple(w)
    if not w:
        raise ValueError("prefix must be nonempty")
    if rel.subst.fixed_point().prefix(len(w)) != w:
        raise ValueError("w is not a prefix of the fixed word")
    if budgets.max_scan_length < budgets.max_word_length:
        cap, which = budgets.max_scan_length, "max_scan_length"
    else:
        cap, which = budgets.max_word_length, "max_word_length"
    pairs = {}  # insertion-ordered set
    cuts = 0
    cuts_at_last_new = 0
    scanned = 0
    window = budgets.split_stability_window
    for component in shift_split(rel, len(w), cap, which):
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


def run_bpa(rel, w, budgets: Budgets | None = None) -> Closure:
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
    image on a side, or over its own words, depth 0. Each new pair's
    Origin is located once, when its parent's walk finds it, and kept in
    its frontier entry. That walk read letters S of the parent's ancestor
    over sigma^(d+1) images, dropping a head (_reads); the new pair starts
    there at the head plus the lengths of the children before it, and a
    search of S's running sigma^(d+1) lengths, built per expansion once a
    new pair needs them, gives the letters of S that hold it. A pair that
    walks at d + 1 takes S for its ancestor; one that walks at d' <= d
    takes the sigma^(d+1-d') images of those letters, spelled out
    (_rerooted). letters_walked sums the ancestor letters each expansion
    reads.
    """
    budgets = budgets or Budgets()
    vertices, discovered, edges, trace = [], [], {}, []
    walked = [0, 0]

    def stop(which, iterations_done):
        return Closure(vertices=vertices, edges=edges, discovered=discovered,
                       growth_trace=trace, iterations_done=iterations_done,
                       which=which, letters_walked=tuple(walked))

    try:
        vertices += initial_pairs(rel, w, budgets)
    except (ScanOverflow, StabilityNotReached) as exc:
        return stop(exc.which, 1)
    index = {pair: i for i, pair in enumerate(vertices)}
    discovered += [1] * len(vertices)
    trace.append((1, max(len(p.top) for p in vertices)))
    # a frontier entry is a vertex, its pair and its Origin, or None for a
    # pair that walks its own words
    frontier = [(i, pair, None) for i, pair in enumerate(vertices)]
    powers = _walk_sizes(rel.subst)
    deepest = len(powers) - 2  # the walk power k less 1
    longest = [max(sizes) for sizes in powers]
    cap = budgets.max_word_length
    iteration = 1
    while frontier:
        iteration += 1
        if iteration > budgets.max_iterations:
            return stop("max_iterations", iteration - 1)
        new_frontier = []
        max_new = 0
        for vertex, pair, origin in frontier:
            if origin is None:
                depth = 1
                walked[0] += len(pair.top)
                walked[1] += len(pair.bottom)
            else:
                depth = origin.depth + 1
                walked[0] += origin.top[2] - origin.top[0] + 1
                walked[1] += origin.bottom[2] - origin.bottom[0] + 1
            try:
                kids = children(rel, pair, max_word_length=cap, origin=origin)
            except ScanOverflow:
                return stop("max_word_length", iteration)
            indices = []
            # once a new pair walks at depth 1 or more: per side, the
            # letters S the walk read (words) and where their sigma^depth
            # images start (starts), sigma(pair) starting at 0
            starts = None
            kid_top = kid_bottom = 0  # where the kid starts in sigma(pair)
            for kid in kids:
                i = index.setdefault(kid, len(vertices))
                indices.append(i)
                if i == len(vertices):
                    vertices.append(kid)
                    discovered.append(iteration)
                    walk = _walk_depth(kid, min(depth, deepest), longest)
                    if walk:
                        if starts is None:
                            # a pair that walked its own words drops none
                            words, drops = (zip(*_reads(rel.image_tables(
                                cap, depth - 1).images, origin)) if origin
                                else (pair, ((), ())))
                            # int64 arrays: lists of ints for a parent of
                            # 59 050 letters a side raised const-len's peak
                            # by 1.2 MB
                            starts = [array("q", accumulate(
                                map(powers[depth].__getitem__, word),
                                initial=-sum(map(powers[1].__getitem__,
                                                 drop))))
                                for word, drop in zip(words, drops)]
                        new = Origin(words, depth, *map(
                            _span, starts, (kid_top, kid_bottom),
                            map(len, kid)))
                        if walk < depth:
                            new = _rerooted(kid, new, walk, rel.image_tables(
                                cap, depth - walk).images, powers[walk])
                    else:
                        new = None
                    new_frontier.append((i, kid, new))
                    max_new = max(max_new, len(kid.top))
                    if len(vertices) > budgets.max_pairs:
                        return stop("max_pairs", iteration)
                kid_top += len(kid.top)
                kid_bottom += len(kid.bottom)
            # a Counter keeps first-occurrence order
            edges[vertex] = list(Counter(indices).items())
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
    w = tuple(w)
    shift_word = rel.subst.apply(w, level)
    if horizon < len(shift_word):
        raise ValueError("horizon shorter than the shift word")
    u = rel.subst.fixed_point()
    if u.prefix(len(w)) != w:
        raise ValueError("w is not a prefix of the fixed word")
    letters = []  # the tops of the coincident components
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
