"""Test oracles and helpers that the library itself does not need.

Each is an independent, slower or more literal form of something the
library computes another way: the Fraction Faddeev-LeVerrier recurrence and
the Gaussian elimination over Q(lambda) that `linalg` replaced with integer
arithmetic, the letter classes read off a whole general[ones] relation
rather than the image lengths alone, a per-letter word equivalence, the
splits of two words (a linear whole-word split and a quadratic one), the
walk of two parent words over image tables with each side's running sums
read from zipped `accumulate` streams, the split of the fixed word against
its shift from whole-word splits of its prefixes, a whole-word
`reduce_pair`, the initial split on that prefix split, the closure with
every pair's children walked over its own words and each new pair's
Origin located from its offsets by searches of running image lengths,
the coincidence density masses summed per component, primitivity by every
power up to Wielandt's bound, small matrix, substitution-power and
rendering helpers, and the Fraction forms of the spectral layer that
`polynomial`, `numberfield` and `linalg` replaced with integer
arithmetic: polynomials with Fraction coefficients and exact signed
remainder sequences, the unit-circle counts built on them, and Q(lambda)
with Fraction enclosures and residues.
"""

from bisect import bisect_left, bisect_right
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate, chain, tee
from math import ceil, floor

from balpair import engine
from balpair.engine import (BalancedPair, Budgets, Closure, Origin, children,
                            initial_pairs, shift_split)
from balpair.equivalence import LengthSpec, Relation
from balpair.errors import (InternalInvariantError, NotBalanced, ScanOverflow,
                            StabilityNotReached)
from balpair.linalg import mat_mul
from balpair.numberfield import NumberField
from balpair.polynomial import RatPoly
from balpair.substitution import (FixedPointStream, Substitution,
                                  fixed_point_stream)


def primitive_by_powers(matrix):
    """Substitution.is_primitive as a loop over every power of the
    positivity pattern up to Wielandt's bound (n - 1)^2 + 1, each an n^3
    product: about n^5 steps."""
    n = len(matrix)
    pattern = [[1 if v else 0 for v in row] for row in matrix]
    power = pattern
    for _ in range((n - 1) ** 2 + 1):
        if all(all(v for v in row) for row in power):
            return True
        power = [[1 if any(power[i][k] and pattern[k][j]
                           for k in range(n)) else 0
                  for j in range(n)] for i in range(n)]
    return False


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def poly_of_matrix(p: RatPoly, matrix):
    """p(A) with exact arithmetic (for Cayley-Hamilton checks)."""
    n = len(matrix)
    acc = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    for c in reversed(p.coeffs):
        acc = mat_mul(acc, matrix)
        acc = tuple(tuple(acc[i][j] + (c if i == j else 0) for j in range(n))
                    for i in range(n))
    return acc


def char_poly_fractions(matrix) -> RatPoly:
    """Monic characteristic polynomial det(xI - A), Faddeev-LeVerrier."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)]
             for i in range(n)]
    return RatPoly(coeffs)


def left_pf_eigenvector_elimination(matrix, nf: NumberField):
    """Exact left eigenvector L with L*A = lambda*L and first coordinate 1.

    Solves (A^T - lambda I) y = 0 over Q(lambda) by Gaussian elimination;
    Perron-Frobenius makes the kernel one-dimensional for primitive A.
    """
    n = len(matrix)
    lam = nf.element((0, 1))
    rows = [[nf.from_rational(matrix[j][i]) - (lam if i == j else 0)
             for j in range(n)] for i in range(n)]
    # forward elimination with exact pivoting on nonzero entries
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, n) if not rows[i][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if r != n - 1:
        raise InternalInvariantError(
            f"PF kernel dimension {n - r}, expected 1; matrix not primitive?")
    free = next(c for c in range(n) if c not in pivots)
    sol = [nf.zero()] * n
    sol[free] = nf.one()
    for row, c in zip(rows, pivots):
        sol[c] = -row[free]
    first = sol[0]
    if first.is_zero:
        raise InternalInvariantError("PF eigenvector has a zero coordinate")
    inv = first.inverse()
    vec = [v * inv for v in sol]
    for v in vec:
        if v.sign() <= 0:
            raise InternalInvariantError("PF eigenvector not strictly positive")
    return vec


def ones_letter_classes(subst):
    """Letter classes as single-letter word equivalence under general[ones]:
    letters with equal letter_eq rows share a class, in first-letter order."""
    ones = Relation.generalized(subst, LengthSpec.ones())
    classes = {}
    for letter, row in enumerate(ones.letter_eq):
        classes.setdefault(row, []).append(letter)
    return tuple(tuple(c) for c in classes.values())


def word_equiv(rel, u, v) -> bool:
    """Are two words equivalent under the relation?"""
    acc = [0] * rel.eq_dim
    for letter in u:
        for t, val in enumerate(rel.letter_eq[letter]):
            acc[t] += val
    for letter in v:
        for t, val in enumerate(rel.letter_eq[letter]):
            acc[t] -= val
    return not any(acc)


def linear_cuts(rel, top, bottom):
    """Every (i, j) with equal exact prefix states: the sorted intersection
    of the two sides' prefix-state dicts."""
    def prefix_states(word):
        state = [0] * rel.eq_dim
        at = {}
        for i, letter in enumerate(word, 1):
            for t, value in enumerate(rel.letter_eq[letter]):
                state[t] += value
            at[tuple(state)] = i
        return at

    top_at, bottom_at = prefix_states(top), prefix_states(bottom)
    return sorted((top_at[s], bottom_at[s])
                  for s in top_at.keys() & bottom_at.keys())


def split(rel, top, bottom, cap, which="max_word_length"):
    """Irreducible components of two words, in order: the linear whole-word
    split, lazy. Raises ScanOverflow(which) when a component would have
    more than cap letters on a side, and NotBalanced when the words end
    other than at a cut."""
    return _components(top, bottom, linear_cuts(rel, top, bottom), cap, which)


def shift_components(stream, rel, shift, cap, which="max_word_length"):
    """Irreducible components of the fixed word u against its shift by
    `shift` letters, exactly, from whole-word splits of prefixes of u.

    With (top, bottom) the last cut, the next cuts are those of u[top:]
    against u[shift + bottom:], whose states start equal; no cut lies
    between two cuts found in prefixes of those. When the cuts found run
    out more than cap letters before the end of both prefixes, the next
    component has more than cap letters on a side; otherwise the prefixes
    are doubled and split again from the last cut.

    Raises ScanOverflow(which) at the first component of more than cap
    letters on a side, after yielding every earlier component.
    """
    top = bottom = 0  # the last cut, bottom counted from letter `shift`
    length = shift + cap + 1
    while True:
        length *= 2
        word = stream.prefix(length)
        upper, lower = word[top:], word[shift + bottom:]
        i0 = j0 = 0
        for i, j in linear_cuts(rel, upper, lower):
            if max(i - i0, j - j0) > cap:
                raise ScanOverflow("component too long", which=which)
            yield BalancedPair(upper[i0:i], lower[j0:j])
            i0, j0 = i, j
        if min(len(upper) - i0, len(lower) - j0) > cap:
            raise ScanOverflow("component too long", which=which)
        top, bottom = top + i0, bottom + j0


def reference_split(rel, top, bottom, cap, which="max_word_length"):
    """The quadratic split: a cut at every (i, j) with top[:i] ~
    bottom[:j], checked with word_equiv on the two prefixes."""
    cuts = [(i, j) for i in range(1, len(top) + 1)
            for j in range(1, len(bottom) + 1)
            if word_equiv(rel, top[:i], bottom[:j])]
    return list(_components(top, bottom, cuts, cap, which))


def _components(top, bottom, cuts, cap, which):
    i0 = j0 = 0
    for i, j in cuts:
        if max(i - i0, j - j0) > cap:
            raise ScanOverflow("component too long", which=which)
        yield BalancedPair(top[i0:i], bottom[j0:j])
        i0, j0 = i, j
    if (i0, j0) != (len(top), len(bottom)):
        if max(len(top) - i0, len(bottom) - j0) > cap:
            raise ScanOverflow("remainder too long", which=which)
        raise NotBalanced("no cut at the end")


def _letter_sums(word, tables, length, state):
    """Per letter of a parent word, in order: the walk length of the
    images before it and of those up to and including it, the letter, and
    the packed state and the letter count of the images before it. The
    length and the state start at length and state. The word is read four
    times, so an iterator is tee'd."""
    words = tee(word, 4) if iter(word) is word else (word,) * 4
    lengths = tee(accumulate(map(tables.lengths.__getitem__, words[0]),
                             initial=length))
    next(lengths[1])  # the start itself, before any image
    return zip(*lengths, words[1],
               accumulate(map(tables.states.__getitem__, words[2]),
                          initial=state),
               accumulate(map(tables.sizes.__getitem__, words[3]), initial=0))


def reference_walk(alphabet, tables, top_word, bottom_word, cap, which,
                   top_head=(0, 0, 0), bottom_head=(0, 0, 0)):
    """engine._walk with each side's per-letter running sums read from
    `accumulate` streams zipped together (_letter_sums), in place of sums
    the loop keeps itself: the same components and Runs, in the same
    order, and the same errors at the same points, reading an iterator
    word as lazily."""
    rows, sizes, images = tables.rows, tables.sizes, tables.images
    word = alphabet.word
    top_start, state, length = top_head
    tops = _letter_sums(top_word, tables, -length, -state)
    bottom_start, state, length = bottom_head
    bottoms = _letter_sums(bottom_word, tables, -length, -state)
    ahead = next(bottoms, None)  # the next bottom letter to enter
    window = deque()  # bottom letters (start, end, b, ...) that may overlap
    # the letters from top_from and bottom_from on
    top_letters, bottom_letters = alphabet.buffer(), alphabet.buffer()
    top_from = bottom_from = 0
    top, bottom = top_start, bottom_start  # the last cut
    for start, end, a, state, first in tops:
        if first - top > cap:  # the images before this letter overflow
            raise ScanOverflow(f"irreducible component exceeds {cap} letters",
                               which=which)
        top_letters += images[a]
        while ahead and ahead[0] < end:
            window.append(ahead)
            bottom_letters += images[ahead[2]]
            ahead = next(bottoms, None)
        while window and window[0][1] <= start:
            window.popleft()
        row = rows[a]
        for _start, _end, b, theirs, first_b in window:
            if entry := row[b][state - theirs]:
                hits, run = entry
                if run and run.step > cap:
                    run = None
                for r, s in hits:
                    i, p = first + r, first_b + s
                    if top < i <= top + cap and bottom < p <= bottom + cap:
                        yield BalancedPair(
                            word(top_letters[top - top_from:i - top_from]),
                            word(bottom_letters[bottom - bottom_from:
                                                p - bottom_from]))
                        top, bottom = i, p
                        if run:  # the first hit is a cut, so all are
                            yield run
                            r, s = run.last
                            top, bottom = first + r, first_b + s
                            break
                    run = None  # only the first hit starts the run
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


def reduce_pair(rel, u, v, *, max_word_length=None):
    """Split an equivalent pair of words into irreducible balanced pairs.

    Raises NotBalanced when u and v are not equivalent under the relation,
    and ScanOverflow when one component would exceed max_word_length.
    Concatenating the output reproduces (u, v).
    """
    u, v = map(rel.subst.alphabet.word, (u, v))
    if not u or not v:
        raise NotBalanced("pair words must be nonempty")
    if not word_equiv(rel, u, v):
        raise NotBalanced("words are not equivalent under the relation")
    cap = max(len(u), len(v)) if max_word_length is None else max_word_length
    return list(split(rel, u, v, cap))


def reference_initial_pairs(rel, w, budgets: Budgets) -> list:
    """engine.initial_pairs with the split of the fixed word against its
    shift taken from shift_components, over a fixed word of its own."""
    w = rel.subst.alphabet.word(w)
    if not w:
        raise ValueError("prefix must be nonempty")
    stream = fixed_point_stream(rel.subst)
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
    for component in shift_components(stream, rel, len(w), cap, which):
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


def closure_by_own_words(rel, w, budgets=None, seen=None) -> Closure:
    """engine.run_bpa's worklist closure with the children of every pair
    walked over the pair's own words, children(rel, pair) with no parent;
    its letters_walked counts those words' letters. Given a list `seen`,
    each expansion appends its pair and the Origin run_bpa walks it over,
    each new pair's located by reference_origin from its offsets in sigma
    of its parent."""
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
    frontier = [(i, pair, Origin(pair, 0, (0, 0)))
                for i, pair in enumerate(vertices)]
    sizes = [tuple(len(rel.subst.apply((a,), j))
                   for a in range(rel.subst.size))
             for j in range(engine._walk_power(rel.subst) + 1)]
    cap = budgets.max_word_length
    iteration = 1
    while frontier:
        iteration += 1
        if iteration > budgets.max_iterations:
            return stop("max_iterations", iteration - 1)
        new_frontier = []
        max_new = 0
        for vertex, pair, origin in frontier:
            walked[0] += len(pair.top)
            walked[1] += len(pair.bottom)
            if seen is not None:
                seen.append((pair, origin))
            try:
                kids = children(rel, pair, max_word_length=cap)
            except ScanOverflow:
                return stop("max_word_length", iteration)
            indices = []
            top = bottom = 0  # where the kid starts in sigma(pair)
            for kid in kids:
                i = index.setdefault(kid, len(vertices))
                indices.append(i)
                if i == len(vertices):
                    vertices.append(kid)
                    discovered.append(iteration)
                    new_frontier.append((i, kid, reference_origin(
                        rel, cap, sizes, kid, top, bottom, origin)))
                    max_new = max(max_new, len(kid.top))
                    if len(vertices) > budgets.max_pairs:
                        return stop("max_pairs", iteration)
                top, bottom = top + len(kid.top), bottom + len(kid.bottom)
            edges[vertex] = list(Counter(indices).items())
        if new_frontier:
            trace.append((iteration, max_new))
        frontier = new_frontier
    return stop(None, iteration)


def reference_origin(rel, cap, sizes, kid, top, bottom, origin):
    """The Origin run_bpa gives a new pair that starts top and bottom
    letters into sigma of its parent, whose Origin is origin, sizes[j]
    being the sigma^j image lengths up to the walk power k, as run_bpa
    located it before its walk recorded each cut's letters: per side, the
    running sigma^(d+1) lengths of the parent's ancestor letters S from
    minus its head, d being the parent's depth, a search of them for the
    letters of S that hold the pair (_span) and, for a pair that walks
    at a depth d' <= d, the sigma^(d+1-d') images of those letters, spelled
    out and searched again (_rerooted). The depth policy is _walk_depth's;
    the letters kept of each last image are what is left of the pair past
    the other images."""
    depth = origin.depth + 1
    walk = _walk_depth(kid, min(depth, len(sizes) - 2),
                       [max(row) for row in sizes])
    if not walk:
        return Origin(kid, 0, (0, 0))
    heads = [rel.image_tables(cap, depth).heads[word[0]][dropped][0]
             for word, dropped in zip(origin.ancestor, origin.dropped)]
    starts = [list(accumulate(map(sizes[depth].__getitem__, word),
                              initial=-head))
              for word, head in zip(origin.ancestor, heads)]
    ancestor, dropped = zip(*map(_span, origin.ancestor, starts,
                                 (top, bottom), map(len, kid)))
    new = Origin(ancestor, depth, dropped)
    if walk < depth:
        new = _rerooted(kid, new, walk, rel.image_tables(
            cap, depth - walk).images, sizes[walk], rel.subst.alphabet.word)
    return new._replace(kept=tuple(
        dropped + len(part) - sum(map(sizes[walk].__getitem__, word[:-1]))
        for word, part, dropped in zip(new.ancestor, kid, new.dropped)))


def _span(word, ends, start, length):
    """The letters of the word whose images hold their concatenation's
    letters start to start + length, and the letters of the first one's
    image before start; ends are where the word's images start, in order,
    and where the last one ends."""
    first = bisect_right(ends, start) - 1
    return (word[first:bisect_left(ends, start + length, first)],
            start - ends[first])


def _rerooted(pair, origin, depth, images, sizes, word):
    """The pair's origin at a smaller depth, depth >= 1: its ancestor the
    sigma^(d - depth) images of the origin's ancestor letters, d being the
    origin's depth and images[a] sigma^(d - depth)(a), spelled out with
    the word constructor and cut to the letters whose sigma^depth images,
    sizes[a] letters long, hold the pair."""
    spans = []
    for letters, part, dropped in zip(origin.ancestor, pair, origin.dropped):
        spelled = word(chain.from_iterable(map(images.__getitem__, letters)))
        spans.append(_span(spelled, list(accumulate(
            map(sizes.__getitem__, spelled), initial=0)), dropped, len(part)))
    ancestor, dropped = zip(*spans)
    return Origin(ancestor, depth, dropped)


def _walk_depth(pair, deepest, longest):
    """The deepest depth d <= deepest at which the pair is longer than
    every sigma^d image on a side, longest[d] being the longest, or 0."""
    size = max(map(len, pair))
    while deepest and size <= longest[deepest]:
        deepest -= 1
    return deepest


def reference_density_masses(rel, w, level, horizon):
    """The coincident and total masses of engine.coincidence_density,
    summed over the same components one at a time, each component's
    L-length letter by letter."""
    zero = rel.lengths[0] * 0
    coincident = total = zero
    scanned = 0
    shift = len(rel.subst.apply(w, level))
    for component in shift_split(rel, shift, max(horizon * 4, 10_000),
                                 "max_scan_length"):
        mass = sum((rel.lengths[letter] for letter in component.top), zero)
        total += mass
        if component.is_coincidence:
            coincident += mass
        scanned += len(component.top)
        if scanned >= horizon:
            return coincident, total


def substitute_pair(subst, pair):
    """Images of both sides under the substitution."""
    return subst.apply(pair.top), subst.apply(pair.bottom)


def in_pf_kernel(subst, z) -> bool:
    """True iff the PF left eigenvector annihilates the integer vector z."""
    spectrum = subst.spectrum()
    terms = (weight * zi for weight, zi in zip(spectrum.l_lambda, z))
    return sum(terms, spectrum.perron.zero()).is_zero


def substitution_power(subst, k):
    """The substitution sigma^k as a new Substitution, letter by letter."""
    return Substitution(subst.alphabet,
                        [subst.apply((i,), k) for i in range(subst.size)])


def render_rules(subst):
    alphabet = subst.alphabet
    lines = []
    for i, img in enumerate(subst.rules):
        lines.append(f"{alphabet.tokens[i]} -> {alphabet.render(img)}")
    return "\n".join(lines) + "\n"


def clone(stream):
    """An independent reader of the same fixed word."""
    fresh = FixedPointStream(stream.subst, stream.power, stream.seed)
    fresh._buffer = stream._buffer  # a word: immutable, so shared
    return fresh


# -- the Fraction-based spectral layer that the integer forms replaced --------

def power(p, n):
    """p to the n-th power, n >= 0, by repeated multiplication."""
    out = type(p)((1,))
    for _ in range(n):
        out = out * p
    return out


class FractionPoly:
    """A polynomial with Fraction coefficients, lowest degree first, and
    Fraction arithmetic throughout: euclidean division by the leading
    coefficient, the monic euclidean gcd, Horner evaluation and its
    interval extension, and Sturm counts on the exact signed remainders."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    def divmod(self, other):
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d, lead = other.degree, other.leading
        while rem and len(rem) - 1 >= d:
            k = len(rem) - 1 - d
            q = quo[k] = rem[-1] / lead
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return FractionPoly(quo), FractionPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        return FractionPoly([c / self.leading for c in self.coeffs])

    def derivative(self):
        return FractionPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, lo, hi):
        """Interval extension of Horner: encloses {p(t) : lo <= t <= hi}."""
        alo, ahi = Fraction(0), Fraction(0)
        for c in reversed(self.coeffs):
            cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
            alo, ahi = min(cands) + c, max(cands) + c
        return alo, ahi

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def sturm_chain(self, other=None):
        chain = [self, self.derivative() if other is None else other]
        while not chain[-1].is_zero and chain[-1].degree > 0:
            chain.append(-(chain[-2] % chain[-1]))
        if chain[-1].is_zero:
            chain.pop()
        return chain

    def count_roots(self, lo, hi):
        """Distinct real roots in (lo, hi]."""
        def changes(x):
            signs = [v > 0 for v in (p.eval(x) for p in chain) if v != 0]
            return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        chain = self.sturm_chain()
        return changes(lo) - changes(hi)

    def largest_real_root_interval(self):
        """Bisection of (-B, B], B the Cauchy bound, down to one root."""
        lead = abs(self.leading)
        bound = 1 + max(abs(c) for c in self.coeffs[:-1]) / lead
        lo, hi = -bound, bound
        if self.count_roots(lo, hi) == 0:
            return None
        while self.count_roots(lo, hi) > 1:
            mid = (lo + hi) / 2
            while self.eval(mid) == 0:
                mid = (mid + hi) / 2
            if self.count_roots(mid, hi) >= 1:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def cauchy_index(self, other):
        def variations(signs):
            return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        chain = self.sturm_chain(other)
        at_plus = [p.leading > 0 for p in chain]
        at_minus = [s != (p.degree % 2 == 1) for p, s in zip(chain, at_plus)]
        return variations(at_minus) - variations(at_plus)


def circle_counts_fractions(f):
    """linalg.circle_counts on Fraction polynomials: h of a self-reciprocal
    f from the Chebyshev-like recurrence, and the Cayley transform from
    powers of w + 1 and w - 1."""
    f = FractionPoly(f.coeffs)
    n = f.degree
    if f.coeffs == f.coeffs[::-1]:
        m = n // 2
        t = FractionPoly((0, 1))
        h = FractionPoly((f.coeffs[m],))
        prev, cur = FractionPoly((2,)), t
        for c in f.coeffs[m + 1:]:
            h = h + cur * c
            prev, cur = cur, t * cur - prev
        on = 2 * h.count_roots(-2, 2)
        inside = (n - on) // 2
    else:
        q = FractionPoly(())
        for k, c in enumerate(f.coeffs):
            q = q + (power(FractionPoly((1, 1)), k)
                     * power(FractionPoly((-1, 1)), n - k) * c)
        a = FractionPoly([c * (1, 0, -1, 0)[(j - n) % 4]
                          for j, c in enumerate(q.coeffs)])
        b = FractionPoly([c * (0, 1, 0, -1)[(j - n) % 4]
                          for j, c in enumerate(q.coeffs)])
        on = 0
        inside = (n - a.cauchy_index(b)) // 2
    return inside, on, n - on - inside


class FractionField:
    """NumberField and FieldScalar arithmetic on Fractions: lambda is the
    root of the monic min_poly in (lo, hi], bracketed by bisection on the
    sign of min_poly at Fraction points; enclosures are interval Horner on
    Fraction ends, and residues reduce by Fraction division."""

    def __init__(self, min_poly, lo, hi):
        self.min_poly = FractionPoly(min_poly.coeffs).monic()
        self.degree = self.min_poly.degree
        if self.degree == 1:
            lo = hi = -self.min_poly.coeffs[0]
        self.interval = Fraction(lo), Fraction(hi)
        self.sign_at_hi = 1 if self.min_poly.eval(self.interval[1]) > 0 else -1
        # (k, floor(lambda * 2^k)) from a k with |lambda| < 2^-k
        k = -ceil(max(map(abs, self.interval))).bit_length()
        self._floor = k, 0 if self.at_least(Fraction(0)) else -1

    def at_least(self, x):
        """lambda >= x: min_poly is positive on (lambda, hi] and negative
        on [lo, lambda)."""
        lo, hi = self.interval
        if x <= lo:
            return True
        if x > hi:
            return False
        return self.sign_at_hi * self.min_poly.eval(x) <= 0

    def bracket(self, bits):
        """floor(lambda * 2^bits), one bisection step per bit, resumed from
        the finest bracket found so far."""
        k, m = self._floor
        while k < bits:
            k += 1
            m = 2 * m + self.at_least((2 * m + 1) / Fraction(2) ** k)
        self._floor = k, m
        return m >> (k - bits)

    def enclose(self, coeffs, bits):
        if self.degree == 1:
            v = FractionPoly(coeffs).eval(self.interval[0])
            return v, v
        m = self.bracket(bits)
        return FractionPoly(coeffs).eval_interval(Fraction(m, 1 << bits),
                                                  Fraction(m + 1, 1 << bits))

    def _settled(self, coeffs, settled, bits):
        while True:
            lo, hi = self.enclose(coeffs, bits)
            if settled(lo, hi):
                return lo, hi
            bits *= 2

    def sign_of(self, coeffs):
        lo, hi = self._settled(
            coeffs, lambda lo, hi: lo > 0 or hi < 0 or lo == hi, 16)
        return (lo > 0) - (hi < 0)

    def decimal(self, coeffs, digits=12):
        scale = 10 ** digits
        lo, _ = self._settled(
            coeffs, lambda lo, hi: floor(lo * scale) == floor(hi * scale),
            scale.bit_length() + 16)
        scaled = floor(lo * scale)
        text = str(abs(scaled)).rjust(digits + 1, "0")
        return f"{'-' if scaled < 0 else ''}{text[:-digits]}.{text[-digits:]}"

    def residue(self, poly):
        """The coefficients of poly mod min_poly, padded to the degree."""
        cs = (poly % self.min_poly).coeffs
        return cs + (Fraction(0),) * (self.degree - len(cs))

    def mul(self, a, b):
        return self.residue(FractionPoly(a) * FractionPoly(b))

    def inverse(self, a):
        """By the extended euclidean algorithm on Fraction polynomials."""
        r0, r1 = self.min_poly, FractionPoly(a)
        t0, t1 = FractionPoly(()), FractionPoly((1,))
        while not r1.is_zero:
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 - q * t1
        return self.residue(t0 * (1 / r0.coeffs[0]))
