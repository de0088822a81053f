"""Test oracles and helpers that the library itself does not need.

Each is an independent, slower or more literal form of something the
library computes another way: the Fraction Faddeev-LeVerrier recurrence and
the Gaussian elimination over Q(lambda) that `linalg` replaced with integer
arithmetic, the letter classes read off a whole general[ones] relation
rather than the image lengths alone, a per-letter word equivalence, the
splits of two words (a linear whole-word split and a quadratic one), the
split of the fixed word against its shift from whole-word splits of its
prefixes, a whole-word `reduce_pair`, the initial split on that prefix
split, the closure with every pair's children walked over its own words,
the coincidence density masses summed per component, primitivity by every
power up to Wielandt's bound, and small matrix and rendering helpers.
"""

from collections import Counter
from fractions import Fraction

from balpair.engine import (BalancedPair, Budgets, Closure, children,
                            initial_pairs, shift_split)
from balpair.equivalence import LengthSpec, Relation
from balpair.errors import (InternalInvariantError, NotBalanced, ScanOverflow,
                            StabilityNotReached)
from balpair.linalg import mat_mul
from balpair.numberfield import NumberField
from balpair.polynomial import RatPoly
from balpair.substitution import FixedPointStream, fixed_point_stream


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


def closure_by_own_words(rel, w, budgets=None) -> Closure:
    """engine.run_bpa's worklist closure with the children of every pair
    walked over the pair's own words, children(rel, pair) with no parent;
    its letters_walked counts those words' letters."""
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
    frontier = list(enumerate(vertices))
    iteration = 1
    while frontier:
        iteration += 1
        if iteration > budgets.max_iterations:
            return stop("max_iterations", iteration - 1)
        new_frontier = []
        max_new = 0
        for vertex, pair in frontier:
            walked[0] += len(pair.top)
            walked[1] += len(pair.bottom)
            try:
                kids = children(rel, pair,
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
            edges[vertex] = list(Counter(indices).items())
        if new_frontier:
            trace.append((iteration, max_new))
        frontier = new_frontier
    return stop(None, iteration)


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
