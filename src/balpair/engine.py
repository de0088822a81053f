"""Balanced pairs: splitting, closure, the pair graph, and densities.

A pair of words is cut exactly where the equivalence states of the two
prefixes are equal. A state fixes the L-length, and lengths grow strictly
on each side, so each prefix can match at most one prefix of the other side
and the cuts come out in order. Integer enclosures of the scaled lengths
say which parts of the two sides may meet, and no sign of an algebraic
number is decided. Each emitted component is irreducible: it holds no
earlier pair of equal prefix states.

The closure's children, `children`, walk the two parent words one letter at
a time: states are linear, so the cuts inside the images of a top and a
bottom parent letter are one lookup in a per-letter-pair table of image
prefix-state differences (Relation.image_tables), whose entries number
(sum_a |sigma(a)|)^2 in all. Only the pending component's letters are held.

The initial split I(w) and the coincidence densities cut the fixed word u
against its own shift. `shift_split` runs one cut loop, `_split`, over one
reader of u in blocks of CHUNK letters whose prefix states are summed and
indexed by C-level iteration: the bottom's prefix states are the top's plus
the state of the shift word, so u is read, summed and indexed once.

A pair is a named tuple of its two words, so it is its own key. The
closure, `run_bpa`, returns one record, a `Closure`: the pair graph it
computed, the iteration that found each pair, and the budget that stopped
it, if any.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, tee
from operator import mul
from typing import NamedTuple

from .errors import NotBalanced, NotClosed, ScanOverflow, StabilityNotReached
from .numberfield import APPROX_DIGITS, FieldScalar, _format_decimal
from .substitution import FixedPointStream, fixed_point_stream


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
    order), and the budget that stopped the closure, None when the frontier
    emptied."""

    discovered: list  # iteration that found each vertex
    growth_trace: list  # (iteration, max new top length)
    iterations_done: int  # iterations begun
    which: str | None = None

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


CHUNK = 128  # letters in one block of a split's reader


def _blocks(states, lows, highs, letters):
    """The letters in blocks of CHUNK, each with its prefix states.

    Yields (letters before, low before, low, high, {packed state: letters
    read}, chunk) per block, low and high enclosing the scaled length of
    everything read and the dict holding the block's prefixes.
    """
    source = iter(letters)
    alphabet = range(len(lows))
    read = state = low = high = 0
    while chunk := list(islice(source, CHUNK)):
        counts = list(map(chunk.count, alphabet))  # few big-int products
        before = low
        low += sum(map(mul, counts, lows))
        high += sum(map(mul, counts, highs))
        prefixes = accumulate(map(states, chunk), initial=state)
        next(prefixes)  # the state before the block
        at = dict(zip(prefixes, range(read + 1, read + CHUNK + 1)))
        state = next(reversed(at))
        yield read, before, low, high, at, chunk
        read += len(chunk)


def _split(tops, bottoms, cap, which, start=0, head=(0, 0)):
    """Irreducible components of two block readers, in order.

    The bottom's word starts at letter `start`, where its state equals the
    top's initial one, and head encloses the scaled length of its first
    `start` letters; a top and a bottom prefix meet exactly where their
    states are equal. The top takes its blocks in order. The bottom is read
    ahead until its last block's prefixes are longer than the top block's,
    and a bottom block is dropped once its prefixes are shorter than the
    top block's. A top block's hits are the states it shares with the
    bottom blocks whose length enclosures overlap its own.

    Exactness: the packed states are sums from the start of the readers and
    a whole block is matched at once, so a packed hit between positions far
    from the last cut may be a collision. A hit is accepted only within cap
    letters of the last cut on both sides. There the state difference is
    the difference of two words of at most cap letters, since it was zero
    at the last cut, and the packing, for max(cap, CHUNK), keeps apart any
    state difference of up to 2 (max(cap, CHUNK) + 1) letters, so such a
    hit is a cut; the CHUNK term keeps the prefixes of one block apart.
    Every cut is a hit, so the first accepted hit is the next cut, and once
    the top is more than cap letters past its last cut with none accepted,
    the next component has more than cap letters on a side.

    Raises ScanOverflow(which) when a component would have more than cap
    letters on a side, after yielding every earlier component, and
    NotBalanced when the letters end other than at a cut.
    """
    head_low, head_high = head
    window = deque()  # bottom blocks that may still match
    top_letters, bottom_letters = [], []  # from top_from, bottom_from on
    top_from = bottom_from = 0
    top, bottom = 0, start  # the last cut
    for first, top_low, _low, top_high, mine, chunk in tops:
        top_letters += chunk
        while not window or window[-1][2] - head_low <= top_high:
            if not (block := next(bottoms, None)):
                break
            window.append(block)
            bottom_letters += block[5]
        while window and window[0][3] - head_high < top_low:
            window.popleft()
        found = []
        for _read, bottom_low, _low, _high, theirs, _chunk in window:
            if bottom_low - head_low > top_high:
                break
            found += [(mine[s], theirs[s])
                      for s in mine.keys() & theirs.keys()]
        found.sort()
        for i, p in found:
            if top < i <= top + cap and bottom < p <= bottom + cap:
                yield _pair((tuple(top_letters[top - top_from:i - top_from]),
                             tuple(bottom_letters[bottom - bottom_from:
                                                  p - bottom_from])))
                top, bottom = i, p
        if first + len(chunk) - top > cap:
            raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                               which=which)
        del top_letters[:top - top_from]
        del bottom_letters[:bottom - bottom_from]
        top_from, bottom_from = top, bottom
    read = bottom_from + len(bottom_letters)  # bottom letters read
    while read - bottom <= cap and (block := next(bottoms, None)):
        read += len(block[5])
    if read - bottom > cap:
        raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                           which=which)
    if top_letters or read > bottom:
        raise NotBalanced("streams end on an unbalanced pair")


def shift_split(rel, stream, shift, cap, which="max_word_length"):
    """Irreducible components of the fixed word u against its shift by
    `shift` letters, in one pass: what _split yields over two block readers
    of u, one from letter 0 and one from letter `shift`.

    With T(p) the state of u[:p], the bottom prefix of p - shift letters
    has state T(p) - T(shift), so both sides of the split read the blocks
    of one reader of u, the bottom from letter `shift` on and the top with
    T(shift) added to its states, and u is read, summed and indexed once.
    The reader's blocks are held only between the top's and the bottom's
    positions.

    Raises ScanOverflow(which) when a component would have more than cap
    letters on a side, after yielding every earlier component.
    """
    states = rel.packed_states(max(cap, CHUNK)).__getitem__
    lows, highs = rel.length_low, rel.length_high
    w = stream.prefix(shift)
    head = sum(map(lows.__getitem__, w)), sum(map(highs.__getitem__, w))
    offset = sum(map(states, w)).__add__
    tops, bottoms = tee(_blocks(states, lows, highs, stream.letters(0)))
    tops = ((first, before, low, high, dict(zip(map(offset, at), at.values())),
             chunk) for first, before, low, high, at, chunk in tops)
    return _split(tops, bottoms, cap, which, shift, head)


def _letters(word, tables):
    """Per letter of a parent word, in order: the low enclosure of the
    scaled length of the image before it and the high one of the image up
    to and including it, the letter, and the packed state and the letter
    count of the image before it."""
    return zip(accumulate(map(tables.low.__getitem__, word), initial=0),
               accumulate(map(tables.high.__getitem__, word)),
               word,
               accumulate(map(tables.states.__getitem__, word), initial=0),
               accumulate(map(tables.sizes.__getitem__, word), initial=0))


def children(subst, rel, pair, *, max_word_length=None):
    """Irreducible pairs in the reduction of the substituted pair, in order.

    The split of sigma(top) against sigma(bottom), walked one parent letter
    at a time. States are linear, so the state r letters into the image of
    top[i] = a is S_top(i) + P_a[r], S_top(i) being the state of
    sigma(top[:i]) and P_a[r] that of sigma(a)[:r]; it equals the state s
    letters into the image of bottom[j] = b exactly when S_top(i) -
    S_bot(j) = P_b[s] - P_a[r]. So the cuts inside the images of top[i]
    and bottom[j] are one lookup in rel.image_tables' entry for (a, b);
    the entries hold (sum_a |sigma(a)|)^2 pairs in all, built once per
    relation and packing width. A cut lies after the start and at or
    before the end of both images, so a bottom letter is looked up while
    the length enclosures allow that: it enters once its image may start
    before the top letter's ends, and leaves once its image surely ends at
    or before the top letter's start. The lookups number about |top| +
    |bottom|.

    Exactness is the split's (see _split): a hit counts only within cap
    letters of the last cut on both sides, where the two states differ by
    the states of two words of at most cap letters, which the packing for
    cap keeps apart; so every accepted hit is a cut. The hits come in order
    of the bottom letter, then of r, and cuts increase on both sides, so
    the cuts come in order. Only the letters of the pending component are
    held, never a whole image.

    Raises ScanOverflow("max_word_length") when a component would have more
    than max_word_length letters on a side, and NotBalanced when the images
    end other than at a cut.
    """
    rules = subst.rules
    cap = max_word_length
    if cap is None:  # no component outgrows the images
        cap = max(len(pair.top), len(pair.bottom)) * max(map(len, rules))
    tables = rel.image_tables(cap)
    rows, sizes = tables.rows, tables.sizes
    kids = []
    bottoms = _letters(pair.bottom, tables)
    ahead = next(bottoms, None)  # the next bottom letter to enter
    window = deque()  # bottom letters (low, high, b, ...) that may overlap
    top_letters, bottom_letters = [], []  # from top_from, bottom_from on
    top_from = bottom_from = 0
    top = bottom = 0  # the last cut
    for low, high, a, state, first in _letters(pair.top, tables):
        if first - top > cap:  # the images before this letter overflow
            raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                               which="max_word_length")
        top_letters += rules[a]
        while ahead and ahead[0] < high:
            window.append(ahead)
            bottom_letters += rules[ahead[2]]
            ahead = next(bottoms, None)
        while window and window[0][1] <= low:
            window.popleft()
        row = rows[a]
        for _low, _high, b, theirs, start in window:
            if hits := row[b].get(state - theirs):
                for r, s in hits:
                    i, p = first + r, start + s
                    if top < i <= top + cap and bottom < p <= bottom + cap:
                        kids.append(_pair((
                            tuple(top_letters[top - top_from:i - top_from]),
                            tuple(bottom_letters[bottom - bottom_from:
                                                 p - bottom_from]))))
                        top, bottom = i, p
        if top != top_from:
            del top_letters[:top - top_from]
            del bottom_letters[:bottom - bottom_from]
            top_from, bottom_from = top, bottom
    if max(sum(map(sizes.__getitem__, pair.top)) - top,
           sum(map(sizes.__getitem__, pair.bottom)) - bottom) > cap:
        raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                           which="max_word_length")
    if top_letters or bottom_letters or ahead:
        raise NotBalanced("images end on an unbalanced pair")
    return kids


def initial_pairs(subst, rel, w, budgets: Budgets,
                  stream: FixedPointStream | None = None) -> list:
    """I_1(w): split the fixed word against its shift by |w|.

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
    if stream is None:
        stream = fixed_point_stream(subst)
    if stream.prefix(len(w)) != w:
        raise ValueError("w is not a prefix of the fixed word")
    if budgets.max_scan_length < budgets.max_word_length:
        cap, which = budgets.max_scan_length, "max_scan_length"
    else:
        cap, which = budgets.max_word_length, "max_word_length"
    pairs = {}  # insertion-ordered set
    cuts = 0
    cuts_at_last_new = 0
    scanned = 0
    for component in shift_split(rel, stream, len(w), cap, which):
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


def run_bpa(subst, rel, w, budgets: Budgets | None = None,
            stream: FixedPointStream | None = None) -> Closure:
    """Worklist closure of the initial pairs under substitute-and-reduce.

    Returns the Closure: every pair found, the iteration that found it, and
    the edges of every pair whose children were computed, once per pair.
    Its `which` names the budget that stopped the closure, or is None when
    the frontier emptied; a budget overrun inside the initial split stops
    it with no pairs at all.
    """
    budgets = budgets or Budgets()
    vertices, discovered, edges, trace = [], [], {}, []

    def stop(which, iterations_done):
        return Closure(vertices=vertices, edges=edges, discovered=discovered,
                       growth_trace=trace, iterations_done=iterations_done,
                       which=which)

    try:
        vertices += initial_pairs(subst, rel, w, budgets, stream=stream)
    except (ScanOverflow, StabilityNotReached) as exc:
        return stop(exc.which, 1)
    index = {pair: i for i, pair in enumerate(vertices)}
    discovered += [1] * len(vertices)
    trace.append((1, max(len(p.top) for p in vertices)))
    frontier = list(enumerate(vertices))
    iteration = 1
    while frontier:
        iteration += 1
        if iteration > budgets.max_iterations:
            return stop("max_iterations", iteration - 1)
        new_frontier = []
        max_new = 0
        for vertex, pair in frontier:
            try:
                kids = children(subst, rel, pair,
                                max_word_length=budgets.max_word_length)
            except ScanOverflow:
                return stop("max_word_length", iteration)
            indices = []
            for kid in kids:
                i = index.setdefault(kid, len(vertices))
                indices.append(i)
                if i == len(vertices):
                    vertices.append(kid)
                    discovered.append(iteration)
                    new_frontier.append((i, kid))
                    max_new = max(max_new, len(kid.top))
                    if len(vertices) > budgets.max_pairs:
                        return stop("max_pairs", iteration)
            # a Counter keeps first-occurrence order
            edges[vertex] = list(Counter(indices).items())
        if new_frontier:
            trace.append((iteration, max_new))
        frontier = new_frontier
    return stop(None, iteration)


def pair_graph(subst, rel, pairs) -> PairGraph:
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
            kids = children(subst, rel, pair, max_word_length=cap)
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


def coincidence_density(subst, rel, w, level, horizon,
                        stream: FixedPointStream | None = None) -> DensityStats:
    """Empirical coincident-length density when u is matched against its
    shift by phi^level(w).

    Coincident positions sit exactly in the single-letter |a/a| components of
    the reduction, so the ratio is coincidence mass over total mass across the
    complete components covering the first `horizon` letters.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    w = tuple(w)
    shift_word = subst.apply(w, level)
    if horizon < len(shift_word):
        raise ValueError("horizon shorter than the shift word")
    if stream is None:
        stream = fixed_point_stream(subst)
    if stream.prefix(len(w)) != w:
        raise ValueError("w is not a prefix of the fixed word")
    coincident = total = rel.length_of(())
    scanned = 0
    for component in shift_split(rel, stream, len(shift_word),
                                 max(horizon * 4, 10_000), "max_scan_length"):
        mass = rel.length_of(component.top)
        total += mass
        if component.is_coincidence:
            coincident += mass
        scanned += len(component.top)
        if scanned >= horizon:
            break
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
