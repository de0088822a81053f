"""Balanced pairs: splitting, closure, the pair graph, and densities.

The central routine, `split`, cuts a (top, bottom) pair of letter streams
exactly where the equivalence states of the two prefixes are equal. A
state fixes the L-length, and lengths grow strictly on each side, so each
prefix can match at most one prefix of the other side and the cuts come
out in order. Each side is read in chunks: a chunk's prefix states are
summed and indexed by C-level iteration, and its cuts are the states it
shares with the other side's kept chunks, so the Python-level work is per
chunk and per cut, not per letter. Integer enclosures of the scaled lengths
say which side to read next and when a kept chunk can no longer match; no
sign of an algebraic number is decided. Each emitted component is
irreducible: it holds no earlier pair of equal prefix states.

A pair is a named tuple of its two words, so it is its own key. The
closure, `run_bpa`, returns one record, a `Closure`: the pair graph it
computed, the iteration that found each pair, and the budget that stopped
it, if any.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice
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


CHUNK = 128  # letters a split reads from one side at a time


class _Side:
    """One word of a split: the letters read since the last cut, and the
    blocks of prefix states that may still match a prefix of the other
    word. A block is one chunk's {state: letters read} for its prefixes,
    with the upper length end and the letter count of its last prefix."""

    __slots__ = ("source", "done", "letters", "base", "read", "state", "low",
                 "high", "blocks")

    def __init__(self, letters):
        self.source = iter(letters)
        self.done = False  # source exhausted
        self.letters = []  # read since the last cut
        self.base = 0  # letters read up to the last cut
        self.read = 0  # letters read in all
        self.state = 0  # packed equivalence state of everything read
        self.low = self.high = 0  # integer enclosure of its scaled length
        self.blocks = deque()  # (high, read, {state: read}), oldest first


def split(rel, top, bottom, cap, which="max_word_length"):
    """Irreducible components of two letter sequences, in order.

    Cuts sit exactly where the prefix equivalence states of the two sides
    are equal. States are sums from the start of the streams, equal states
    mean equal lengths, and lengths grow strictly on each side, so each
    prefix matches at most one prefix of the other side and the cuts come
    in order whichever side is read next. The side whose length enclosure
    has the smaller lower end is read next, a chunk of up to CHUNK letters
    at a time, and never more than cap + 1 letters past its last cut. The
    chunk's prefix states are summed and indexed in one pass, and its cuts
    are the states it shares with the other side's blocks. A block is
    dropped once the reading side's lower end passes its last upper end or
    the other side's last cut passes its last prefix, and a block is kept
    at all only while the other side can still grow. Letters read past a
    cut stay pending for the next component.

    Raises ScanOverflow(which) when a component would have more than cap
    letters on a side, and NotBalanced when the letters end other than at a
    cut.
    """
    states = rel.packed_states(cap).__getitem__
    lows, highs = rel.length_low, rel.length_high
    alphabet = range(len(lows))
    top, bottom = _Side(top), _Side(bottom)
    while True:
        top_open = not top.done and len(top.letters) <= cap
        bottom_open = not bottom.done and len(bottom.letters) <= cap
        if top_open and (not bottom_open or top.low <= bottom.low):
            side, other = top, bottom
        elif bottom_open:
            side, other = bottom, top
        elif top.letters or bottom.letters:
            if max(len(top.letters), len(bottom.letters)) > cap:
                raise ScanOverflow(
                    f"irreducible component exceeds {cap} letters",
                    which=which)
            raise NotBalanced("streams end on an unbalanced pair")
        else:
            return
        want = min(CHUNK, cap + 1 - len(side.letters))
        chunk = list(islice(side.source, want))
        if len(chunk) < want:
            side.done = True
            if not chunk:
                continue
        start = side.read
        side.read += len(chunk)
        side.letters += chunk
        counts = list(map(chunk.count, alphabet))  # few big-int products
        side.low += sum(map(mul, counts, lows))
        side.high += sum(map(mul, counts, highs))
        prefixes = accumulate(map(states, chunk), initial=side.state)
        next(prefixes)  # the state at `start`, read with the last chunk
        at = dict(zip(prefixes, range(start + 1, side.read + 1)))
        side.state = next(reversed(at))
        found = sorted((at[state], block[state])
                       for _high, _read, block in other.blocks
                       for state in at.keys() & block.keys())
        # Each match is the next cut. Kept prefixes lie within cap + 1
        # letters of their side's last cut, so packed states compare
        # exactly, and one at or before that cut is shorter than any prefix
        # read since.
        for mine, theirs in found:
            mine -= side.base
            theirs -= other.base
            if max(mine, theirs) > cap:
                raise ScanOverflow(
                    f"irreducible component exceeds {cap} letters",
                    which=which)
            words = (tuple(side.letters[:mine]), tuple(other.letters[:theirs]))
            side.letters = side.letters[mine:]
            other.letters = other.letters[theirs:]
            side.base += mine
            other.base += theirs
            yield BalancedPair(*(words if side is top else words[::-1]))
        if found:
            side.blocks.clear()
        blocks, base = other.blocks, other.base
        while blocks and (blocks[0][0] < side.low or blocks[0][1] <= base):
            blocks.popleft()
        if not other.done and len(other.letters) <= cap:
            side.blocks.append((side.high, side.read, at))
        else:
            side.blocks.clear()


def children(subst, rel, pair, *, max_word_length=None):
    """Irreducible pairs in the reduction of the substituted pair, in order.

    The images are streamed into the split, never built whole.
    """
    top, bottom = (chain.from_iterable(map(subst.rules.__getitem__, word))
                   for word in (pair.top, pair.bottom))
    if max_word_length is None:  # no component outgrows the images
        max_word_length = (max(len(pair.top), len(pair.bottom))
                           * max(map(len, subst.rules)))
    return list(split(rel, top, bottom, max_word_length))


def initial_pairs(subst, rel, w, budgets: Budgets,
                  stream: FixedPointStream | None = None) -> list:
    """I_1(w): split the fixed word against its shift by |w|.

    Streams the reduction of (u, sigma^{|w|} u) and returns the distinct
    irreducible pairs in the order they first appear, once no new pair has
    shown up for a stability window of max(split_stability_window, 3x the
    current pair count) consecutive cuts.

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
    for component in split(rel, stream.letters(0), stream.letters(len(w)),
                           cap, which):
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
    coincident = None
    total = None
    scanned = 0
    for component in split(rel, stream.letters(0),
                           stream.letters(len(shift_word)),
                           max(horizon * 4, 10_000), "max_scan_length"):
        mass = rel.length_of(component.top)
        total = mass if total is None else total + mass
        if component.is_coincidence:
            coincident = mass if coincident is None else coincident + mass
        scanned += len(component.top)
        if scanned >= horizon:
            break
    if coincident is None:
        coincident = (total.field.zero() if isinstance(total, FieldScalar)
                      else Fraction(0))
    ratio = _exact_ratio(coincident, total)
    return DensityStats(horizon=scanned,
                        coincident_mass=coincident, total_mass=total,
                        ratio_fraction=ratio[0], ratio_decimal=ratio[1])


def _exact_ratio(num, den):
    if isinstance(num, FieldScalar) or isinstance(den, FieldScalar):
        if not isinstance(num, FieldScalar):
            num = den.field.from_rational(num)
        value = num / den
        frac = value.as_fraction() if value.is_rational else None
        return frac, value.decimal()
    value = Fraction(num) / Fraction(den)
    return value, _format_decimal(value, APPROX_DIGITS)
