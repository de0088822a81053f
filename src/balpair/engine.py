"""Balanced pairs: splitting, closure, the pair graph, and densities.

The central routine is a two-pointer scan of a (top, bottom) pair of letter
streams ordered by cumulative exact length. Candidate cut positions are
exactly the positions where the two scaled lengths agree (equivalent prefix
pairs must have equal L-length); at a candidate the full equivalence state is
an integer-vector zero test. On success the pending component is emitted and
the scan restarts; on failure both sides advance, which is sound because
lengths are strictly increasing. Each emitted component is irreducible: every
earlier candidate inside it was tested and failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotBalanced, NotClosed, ScanOverflow, StabilityNotReached
from .numberfield import FieldScalar
from .substitution import FixedPointStream, Substitution, fixed_point_stream


@dataclass(frozen=True)
class BalancedPair:
    """An ordered pair of equivalent words; top is the fixed-word side."""

    top: tuple
    bottom: tuple

    @property
    def is_coincidence(self):
        return len(self.top) == 1 and self.top == self.bottom

    @property
    def key(self):
        return (self.top, self.bottom)

    def render(self, alphabet):
        return f"|{alphabet.render(self.top)}/{alphabet.render(self.bottom)}|"

    def __len__(self):
        return len(self.top)


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


class PairSet:
    """Insertion-ordered set of BalancedPair with first-discovery iteration."""

    def __init__(self):
        self._discovered = {}  # BalancedPair -> iteration index

    def add(self, pair, iteration):
        """Record a pair; returns True when it is new."""
        if pair in self._discovered:
            return False
        self._discovered[pair] = iteration
        return True

    def discovered_at(self, pair):
        return self._discovered[pair]

    def __contains__(self, pair):
        return pair in self._discovered

    def __iter__(self):
        return iter(self._discovered)

    def __len__(self):
        return len(self._discovered)

    def pairs(self):
        return list(self._discovered)


@dataclass
class Terminated:
    pairs: PairSet
    closure_iteration: int
    growth_trace: list  # (iteration, max new top length)

    @property
    def terminated(self):
        return True


@dataclass
class BudgetExceeded:
    which: str
    iterations_done: int
    pair_count: int
    growth_trace: list  # (iteration, max new top length)
    longest_pairs: list  # up to 5 longest pairs seen
    pairs: PairSet | None = None

    @property
    def terminated(self):
        return False


@dataclass
class DensityStats:
    horizon: int  # top letters actually accounted
    coincident_mass: object  # Fraction or FieldScalar
    total_mass: object
    ratio_fraction: Fraction | None
    ratio_decimal: str

    def ratio_as_float(self):
        return float(self.ratio_decimal)


class _Splitter:
    """Streaming reduction of a (top, bottom) pair of letter iterators."""

    def __init__(self, rel, top_iter, bottom_iter, component_cap=None,
                 stretch_cap=None):
        self.rel = rel
        self.top = top_iter
        self.bottom = bottom_iter
        self.component_cap = component_cap
        self.stretch_cap = stretch_cap  # top letters per component, hard stop
        self.top_consumed = 0
        self.shared = rel.letter_eq is rel.letter_weights
        self._reset()

    def _reset(self):
        self.pend_top = []
        self.pend_bottom = []
        self.len_acc = list(self.rel.zero_len())
        self.eq_acc = None if self.shared else list(self.rel.zero_eq())

    def _push_top(self, letter):
        self.pend_top.append(letter)
        for t, v in enumerate(self.rel.letter_weights[letter]):
            self.len_acc[t] += v
        if not self.shared:
            for t, v in enumerate(self.rel.letter_eq[letter]):
                self.eq_acc[t] += v
        self.top_consumed += 1

    def _push_bottom(self, letter):
        self.pend_bottom.append(letter)
        for t, v in enumerate(self.rel.letter_weights[letter]):
            self.len_acc[t] -= v
        if not self.shared:
            for t, v in enumerate(self.rel.letter_eq[letter]):
                self.eq_acc[t] -= v

    def _equivalent(self):
        if self.shared:
            return not any(self.len_acc)
        return not any(self.eq_acc)

    def _check_caps(self):
        if (self.component_cap is not None
                and max(len(self.pend_top), len(self.pend_bottom))
                > self.component_cap):
            raise ScanOverflow(
                f"irreducible component exceeds {self.component_cap} letters",
                which="max_word_length")
        if (self.stretch_cap is not None
                and len(self.pend_top) > self.stretch_cap):
            raise ScanOverflow(
                f"no cut within {self.stretch_cap} letters",
                which="max_scan_length")

    def next_component(self):
        """Next irreducible component, or None when both streams end."""
        while True:
            if not self.pend_top and not self.pend_bottom:
                a = next(self.top, None)
                if a is None:
                    b = next(self.bottom, None)
                    if b is None:
                        return None
                    raise NotBalanced("bottom stream longer than top")
                b = next(self.bottom, None)
                if b is None:
                    raise NotBalanced("top stream longer than bottom")
                self._push_top(a)
                self._push_bottom(b)
            else:
                sgn = (self.len_acc[0] if self.rel.weight_dim == 1
                       else self.rel.sign_of_scaled(self.len_acc))
                if sgn < 0:
                    a = next(self.top, None)
                    if a is None:
                        raise NotBalanced("streams end with unequal lengths")
                    self._push_top(a)
                elif sgn > 0:
                    b = next(self.bottom, None)
                    if b is None:
                        raise NotBalanced("streams end with unequal lengths")
                    self._push_bottom(b)
                else:
                    if self._equivalent():
                        component = BalancedPair(tuple(self.pend_top),
                                                 tuple(self.pend_bottom))
                        self._reset()
                        return component
                    a = next(self.top, None)
                    b = next(self.bottom, None)
                    if a is None or b is None:
                        raise NotBalanced("streams end on an unbalanced pair")
                    self._push_top(a)
                    self._push_bottom(b)
            self._check_caps()


def reduce_pair(rel, u, v, *, max_word_length=None):
    """Split an equivalent pair of words into irreducible balanced pairs.

    Raises NotBalanced when u and v are not equivalent under the relation,
    and ScanOverflow when one component would exceed max_word_length.
    Concatenating the output reproduces (u, v).
    """
    u, v = tuple(u), tuple(v)
    if not u or not v:
        raise NotBalanced("pair words must be nonempty")
    if not rel.word_equiv(u, v):
        raise NotBalanced("words are not equivalent under the relation")
    return _components(rel, u, v, max_word_length)


def _components(rel, top, bottom, component_cap):
    """Every irreducible component of the scan of two words, in order."""
    splitter = _Splitter(rel, iter(top), iter(bottom),
                         component_cap=component_cap)
    return list(iter(splitter.next_component, None))


def substitute_pair(subst: Substitution, pair: BalancedPair):
    """Images of both sides under the substitution."""
    return subst.apply(pair.top), subst.apply(pair.bottom)


def children(subst, rel, pair, *, max_word_length=None):
    """Irreducible pairs in the reduction of the substituted pair, in order."""
    top, bottom = substitute_pair(subst, pair)
    return _components(rel, top, bottom, max_word_length)


def initial_pairs(subst, rel, w, budgets: Budgets,
                  stream: FixedPointStream | None = None) -> PairSet:
    """I_1(w): split the fixed word against its shift by |w|.

    Streams the reduction of (u, sigma^{|w|} u) and collects distinct
    irreducible pairs until no new pair shows up for a stability window of
    max(split_stability_window, 3x the current pair count) consecutive cuts.

    Raises ScanOverflow when the scan runs max_scan_length letters without a
    cut (or a component outgrows max_word_length), and StabilityNotReached
    when the total scan or the pair budget is exhausted while new pairs are
    still appearing.
    """
    w = tuple(w)
    if not w:
        raise ValueError("prefix must be nonempty")
    if stream is None:
        stream = fixed_point_stream(subst)
    if stream.prefix(len(w)) != w:
        raise ValueError("w is not a prefix of the fixed word")
    splitter = _Splitter(rel, stream.letters(0), stream.letters(len(w)),
                         component_cap=budgets.max_word_length,
                         stretch_cap=budgets.max_scan_length)
    pairs = PairSet()
    cuts = 0
    cuts_at_last_new = 0
    while True:
        component = splitter.next_component()
        cuts += 1
        if pairs.add(component, 1):
            cuts_at_last_new = cuts
            if len(pairs) > budgets.max_pairs:
                raise StabilityNotReached(
                    f"more than {budgets.max_pairs} distinct initial pairs",
                    which="max_pairs")
        window = max(budgets.split_stability_window, 3 * len(pairs))
        if cuts - cuts_at_last_new >= window:
            return pairs
        if splitter.top_consumed > budgets.max_scan_length:
            raise StabilityNotReached(
                f"still discovering after {budgets.max_scan_length} letters",
                which="max_scan_length")


def _longest(pairs, count=5):
    ranked = sorted(pairs, key=lambda p: (-len(p.top), p.key))
    return ranked[:count]


def run_bpa(subst, rel, w, budgets: Budgets | None = None,
            stream: FixedPointStream | None = None):
    """Worklist closure of the initial pairs under substitute-and-reduce.

    Returns Terminated when the frontier empties, BudgetExceeded (with the
    growth trace and the longest pairs seen) when any budget trips; budget
    overruns inside the initial split are folded into BudgetExceeded as well.
    """
    budgets = budgets or Budgets()
    try:
        pairs = initial_pairs(subst, rel, w, budgets, stream=stream)
    except (ScanOverflow, StabilityNotReached) as exc:
        return BudgetExceeded(which=exc.which, iterations_done=1,
                              pair_count=0, growth_trace=[], longest_pairs=[],
                              pairs=None)
    trace = [(1, max(len(p.top) for p in pairs))]
    frontier = pairs.pairs()
    iteration = 1
    while frontier:
        iteration += 1
        if iteration > budgets.max_iterations:
            return BudgetExceeded(
                which="max_iterations", iterations_done=iteration - 1,
                pair_count=len(pairs), growth_trace=trace,
                longest_pairs=_longest(pairs), pairs=pairs)
        new_frontier = []
        max_new = 0
        for pair in frontier:
            try:
                kids = children(subst, rel, pair,
                                max_word_length=budgets.max_word_length)
            except ScanOverflow:
                return BudgetExceeded(
                    which="max_word_length", iterations_done=iteration,
                    pair_count=len(pairs), growth_trace=trace,
                    longest_pairs=_longest(pairs), pairs=pairs)
            for kid in kids:
                if pairs.add(kid, iteration):
                    new_frontier.append(kid)
                    max_new = max(max_new, len(kid.top))
                    if len(pairs) > budgets.max_pairs:
                        return BudgetExceeded(
                            which="max_pairs", iterations_done=iteration,
                            pair_count=len(pairs), growth_trace=trace,
                            longest_pairs=_longest(pairs), pairs=pairs)
        if new_frontier:
            trace.append((iteration, max_new))
        frontier = new_frontier
    closure_iteration = trace[-1][0]
    return Terminated(pairs=pairs, closure_iteration=closure_iteration,
                      growth_trace=trace)


@dataclass
class PairGraph:
    """Directed multigraph on irreducible pairs; edges follow reductions."""

    vertices: list  # BalancedPair, deterministic order
    edges: dict  # vertex index -> list of (vertex index, multiplicity)

    def coincidence_indices(self):
        return [i for i, p in enumerate(self.vertices) if p.is_coincidence]


def pair_graph(subst, rel, pairs) -> PairGraph:
    """Build the substitution graph over a closed pair set.

    Raises NotClosed when some child of a member is not itself a member.
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
        counts = {}
        order = []
        for kid in kids:
            if kid not in index:
                raise NotClosed(f"child {kid.key} missing from the pair set")
            j = index[kid]
            if j not in counts:
                order.append(j)
            counts[j] = counts.get(j, 0) + 1
        edges[i] = [(j, counts[j]) for j in order]
    return PairGraph(vertices=vertices, edges=edges)


def coincidence_analysis(graph: PairGraph):
    """For each pair: is it a coincidence, and does it reach one?

    Reachability is computed backwards from the coincidence vertices.
    """
    n = len(graph.vertices)
    reverse = {i: [] for i in range(n)}
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
    return {
        pair: {"is_coincidence": pair.is_coincidence,
               "leads_to_coincidence": i in reached}
        for i, pair in enumerate(graph.vertices)
    }


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
    splitter = _Splitter(rel, stream.letters(0),
                         stream.letters(len(shift_word)),
                         stretch_cap=max(horizon * 4, 10_000))
    coincident = None
    total = None
    while splitter.top_consumed < horizon:
        component = splitter.next_component()
        mass = rel.length_of(component.top)
        total = mass if total is None else total + mass
        if component.is_coincidence:
            coincident = mass if coincident is None else coincident + mass
    if coincident is None:
        coincident = (total.field.zero() if isinstance(total, FieldScalar)
                      else Fraction(0))
    ratio = _exact_ratio(coincident, total)
    return DensityStats(horizon=splitter.top_consumed,
                        coincident_mass=coincident, total_mass=total,
                        ratio_fraction=ratio[0], ratio_decimal=ratio[1])


def _exact_ratio(num, den):
    if isinstance(num, FieldScalar) or isinstance(den, FieldScalar):
        if not isinstance(num, FieldScalar):
            num = den.field.from_rational(num)
        value = num / den
        frac = value.as_fraction() if value.is_rational else None
        return frac, value.decimal(12)
    value = Fraction(num) / Fraction(den)
    from .numberfield import _format_decimal
    return value, _format_decimal(value, 12)
