"""The walk of the engine's splits against slower references.

`children` and `shift_split` run one cut loop, `_walk`, over parent words
and the image tables: the cuts inside the images of a top and a bottom
parent letter are one table lookup, accepted only within cap letters of
the last cut. The oracle `split`, the linear whole-word split, is checked
against a naive quadratic reference, which cuts at every (i, j) with
top[:i] ~ bottom[:j], checked with `word_equiv` on the two prefixes, and
reads the components off between consecutive cuts. `children` is checked
against `split` of the whole images, on long parent windows and on images
with long runs of one letter, at caps around the longest image.
`shift_split`, the split of a fixed word against its own shift, walks an
ancestor word under sigma^k; it is checked against `shift_components`, the
linear split of prefixes of that word, at its own k and at forced k of 1,
2 and 3, and `initial_pairs` against the same loop over `shift_components`.
The image tables' hit lists, built per state difference, are checked
against entries built whole, and their runs against the image stretches
between the hits. `children` of a pair given its origin, a
stretch of sigma^(d+1) of its ancestor d levels up, is checked against
`children` of the pair's own words, and `run_bpa`, which walks such
stretches, against `closure_by_own_words`, the same closure over own
words throughout; each Origin it walks is checked against sigma^d of its
ancestor's letters, spelled out: the ancestor holds exactly the letters
whose images hold the pair, and at depth 0 it is the pair itself. Each
Origin, located from the cuts of its parent's walk, also equals the one
`reference_origin` finds by searching running image lengths. `_walk`,
which keeps each side's running sums itself, is checked against
`reference_walk`, which reads them from zipped `accumulate` streams, on
own words, on the closure's walks of ancestor stretches and on the
initial split's iterators at k >= 2: the same items in order, the same
error, and as many letters read from each iterator. Known-wrong variants
of `_walk`, `children`, `_located` and `initial_pairs`, built from their
source, must fail those differentials.
"""

import functools
import inspect
import json
import random
import textwrap
import tracemalloc
import types
from collections import Counter
from fractions import Fraction
from itertools import (accumulate, combinations_with_replacement, islice,
                       permutations, product)
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balpair import engine
from balpair.engine import (BalancedPair, Budgets, Origin, _walk_power,
                            children, coincidence_analysis, initial_pairs,
                            run_bpa, shift_split)
from balpair.equivalence import LengthSpec, Relation, RelationSpec, Run
from balpair.errors import NotBalanced, ScanOverflow, StabilityNotReached
from balpair.numberfield import NumberField
from balpair.substitution import fixed_point_stream, parse_substitution
from balpair.verdict import verdict

import oracles
from conftest import CORPUS_NAMES, count_calls, load_corpus, load_expect
from oracles import (linear_cuts, reduce_pair, reference_initial_pairs,
                     reference_split, shift_components, split)

RULES = {
    "ex1": "1 -> 112\n2 -> 12",  # lambda = (3 + sqrt 5) / 2
    "tribonacci": "1 -> 12\n2 -> 13\n3 -> 1",  # cubic lambda
    "exnoncon": "1 -> 31\n2 -> 412\n3 -> 312\n4 -> 412",
    "const-len": "1 -> 112\n2 -> 122",  # rational lambda = 3
    "three": "1 -> 112\n2 -> 2321\n3 -> 12",
    # lambda = (3 + sqrt 13) / 2 with lengths (1, 1 / (3 lambda), 1 / 3):
    # one letter's lambda-length is rational but not dyadic
    "third": "1 -> 121212\n2 -> 3\n3 -> 12",
    # u is fixed by sigma^2 from 1 and is the image of the word fixed by
    # sigma^2 from 2, so shift_split walks a parent word other than u
    "two-cycle": "1 -> 21\n2 -> 112",
}
SUBSTS = {name: parse_substitution(text) for name, text in RULES.items()}
WHICH = ("max_word_length", "max_scan_length")


def _outcome(fn):
    try:
        return fn()
    except (ScanOverflow, StabilityNotReached) as exc:
        return (type(exc).__name__, exc.which)
    except NotBalanced:
        return ("NotBalanced",)


def _drain(components):
    """The components up to the first error, and that error's kind."""
    out = []
    return out, _outcome(lambda: out.extend(components))


@st.composite
def relations(draw):
    name = draw(st.sampled_from(sorted(SUBSTS)))
    subst = SUBSTS[name]
    kind = draw(st.sampled_from(
        ("plain", "letters", "ones", "custom", "huge", "lambda")))
    if kind == "plain":
        return subst, Relation.plain(subst)
    if kind == "letters":
        return subst, Relation.letter_classes(subst)
    if kind == "ones":
        return subst, Relation.generalized(subst, LengthSpec.ones())
    if kind == "lambda":
        return subst, Relation.generalized(subst, LengthSpec.pf())
    # custom lengths; "huge" makes the scaled integer entries exceed 64 bits
    scale = 2 ** 70 + 1 if kind == "huge" else 1
    values = draw(st.lists(
        st.builds(Fraction, st.integers(1, 7), st.integers(1, 5)),
        min_size=subst.size, max_size=subst.size))
    values = [v * scale if i % 2 else v / scale for i, v in enumerate(values)]
    return subst, Relation.generalized(subst, LengthSpec.custom(values))


def equivalent_multisets(rel, size, max_len=5):
    """Classes of two or more letter multisets with equal states."""
    groups = {}
    for k in range(1, max_len + 1):
        for word in combinations_with_replacement(range(size), k):
            state = tuple(map(sum, zip(*(rel.letter_eq[a] for a in word))))
            groups.setdefault(state, []).append(list(word))
    return [group for group in groups.values() if len(group) > 1]


@st.composite
def cases(draw):
    subst, rel = draw(relations())
    letters = st.integers(0, subst.size - 1)
    groups = equivalent_multisets(rel, subst.size)
    # equivalent blocks side by side give pairs with many cuts
    top, bottom = [], []
    for _ in range(draw(st.integers(1, 4))):
        if groups and draw(st.booleans()):
            # equivalent words that are not rearrangements of each other
            group = draw(st.sampled_from(groups))
            top += draw(st.permutations(draw(st.sampled_from(group))))
            bottom += draw(st.permutations(draw(st.sampled_from(group))))
            continue
        block = draw(st.lists(letters, min_size=1, max_size=4))
        if draw(st.booleans()):
            block = list(subst.apply(block, draw(st.integers(0, 2))))
        top += block
        bottom += draw(st.permutations(block))
    if draw(st.integers(0, 4)) == 0:  # unbalanced words
        bottom = draw(st.lists(letters, min_size=0, max_size=len(top) + 2))
    top, bottom = map(subst.alphabet.word, (top[:40], bottom[:40]))
    cap = draw(st.integers(1, max(len(top), len(bottom), 1) + 1))
    return rel, top, bottom, cap, draw(st.sampled_from(WHICH))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_split_matches_reference(case):
    rel, top, bottom, cap, which = case
    expected = _outcome(lambda: reference_split(rel, top, bottom, cap, which))
    got = _outcome(lambda: list(split(rel, top, bottom, cap, which)))
    assert got == expected


def test_lambda_rational_non_dyadic_length_is_exact():
    # 3331 ~ 11 under lambda: the length 1/3 of letter 3 has no finite
    # binary expansion, and its walk length is exact, a third of letter
    # 1's. The images of 2223 and 3222, 33312 and 12333, cut there first
    subst = SUBSTS["third"]
    w = subst.alphabet.word_from_text
    rel = Relation.generalized(subst, LengthSpec.pf())
    assert rel.walk_lengths[0] == 3 * rel.walk_lengths[2]
    assert reduce_pair(rel, w("3331"), w("11")) == [
        BalancedPair(w("333"), w("1")), BalancedPair(w("1"), w("1"))]
    pair = BalancedPair(w("2223"), w("3222"))
    assert children(rel, pair, max_word_length=24) == [
        BalancedPair(w("333"), w("1")), BalancedPair(w("12"), w("2333"))]
    # the second component is over a cap of 3 on its bottom side alone
    assert _children_outcomes(subst, rel, pair, 3) == (
        ("ScanOverflow", "max_word_length"),) * 2


@pytest.mark.parametrize("name", ["ex1", "pisot-rewrite"])
def test_lambda_closure_decides_no_sign(monkeypatch, name):
    subst = load_corpus(name)
    perron = subst.spectrum().perron
    before = perron.interval
    relation_signs = count_calls(monkeypatch, Relation, "sign_of_scaled")
    field_signs = count_calls(monkeypatch, NumberField, "sign_of")
    rel = Relation.generalized(subst, LengthSpec.pf())
    outcome = run_bpa(rel, (0,))
    assert outcome.terminated
    assert relation_signs == [] and field_signs == []
    assert perron.interval == before


@pytest.mark.parametrize("cap", [1, 20])
def test_packed_states_tell_states_apart_up_to_the_cap(cap):
    # i copies of one letter against j of another: equal packed states
    # exactly when the state vectors are equal
    for subst in SUBSTS.values():
        for rel in (Relation.plain(subst),
                    Relation.generalized(subst, LengthSpec.ones()),
                    Relation.generalized(subst, LengthSpec.pf())):
            packed = rel.packed_states(cap)
            for a in range(subst.size):
                for b in range(subst.size):
                    for i in range(cap + 2):
                        for j in range(3):
                            same = ([i * x for x in rel.letter_eq[a]]
                                    == [j * y for y in rel.letter_eq[b]])
                            assert (i * packed[a] == j * packed[b]) == same


# -- the walk over long parent words -------------------------------------------

def _caps(subst):
    """Small caps, caps around the longest image, which one parent
    letter's lookup spans, and 400."""
    longest = max(map(len, subst.rules))
    return sorted({1, 2, 3, longest - 1, longest, longest + 1,
                   2 * longest + 1, 400} - {0})


@functools.cache
def fixed_word(name):
    return fixed_point_stream(SUBSTS[name]).prefix(6000)


def _relation(subst, kind):
    if kind == "plain":
        return Relation.plain(subst)
    if kind == "letters":
        return Relation.letter_classes(subst)
    return Relation.generalized(
        subst, LengthSpec.ones() if kind == "ones" else LengthSpec.pf())


@st.composite
def long_relations(draw, subst):
    """A relation of one of the four kinds, or custom letter lengths of 1
    and 1000, scaled 2^70 apart or not as in relations(): then one top
    image may be longer than many bottom images, which the walk holds in
    its window."""
    kind = draw(st.sampled_from(("plain", "letters", "ones", "lambda",
                                 "skewed")))
    if kind != "skewed":
        return _relation(subst, kind)
    scale = draw(st.sampled_from((1, 2 ** 70 + 1)))
    values = draw(st.lists(st.sampled_from((1, 1000)), min_size=subst.size,
                           max_size=subst.size))
    values = [Fraction(v) * scale if i % 2 else Fraction(v, scale)
              for i, v in enumerate(values)]
    return Relation.generalized(subst, LengthSpec.custom(values))


def _windows(draw, rel, word, longest):
    """Parent windows of a fixed word against a shifted window, ended at
    their last cut or not: the images of windows ended at a cut end at a
    cut too."""
    start = draw(st.integers(0, len(word) // 3))
    shift = draw(st.integers(0, 200))  # a long shift makes long components
    top = word[start:start + draw(st.integers(1, longest))]
    bottom = word[start + shift:start + shift + draw(st.integers(1, longest))]
    if draw(st.booleans()):
        cuts = linear_cuts(rel, top, bottom)
        if cuts:
            top, bottom = top[:cuts[-1][0]], bottom[:cuts[-1][1]]
    return BalancedPair(top, bottom)


@st.composite
def windows(draw):
    name = draw(st.sampled_from(sorted(SUBSTS)))
    subst = SUBSTS[name]
    rel = draw(long_relations(subst))
    pair = _windows(draw, rel, fixed_word(name), 1000)
    return subst, rel, pair, draw(st.sampled_from(_caps(subst) + [10_000]))


@settings(max_examples=150, deadline=None)
@given(windows())
def test_split_of_long_windows_matches_linear_oracle(case):
    got, expected = _children_outcomes(*case)
    assert got == expected


@st.composite
def long_runs(draw):
    """Images of 2-3 letters, each with a run of up to 60 copies of one
    letter, so that one top image spans many bottom images and a letter
    pair's table entry holds many (r, s) pairs of one state difference,
    most of them past the cap. The parent words are windows of the fixed
    word, or one letter moved across a run of another, whose images are
    long runs against long runs."""
    size = draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rules = []
    for _ in range(size):
        image = [rng.randrange(size) for _ in range(rng.randint(0, 3))]
        image += [rng.randrange(size)] * rng.randint(1, 60)
        image += [rng.randrange(size) for _ in range(rng.randint(0, 3))]
        rules.append("".join(str(a + 1) for a in image))
    subst = parse_substitution("".join(f"{i + 1} -> {image}\n"
                                       for i, image in enumerate(rules)))
    assume(subst.is_primitive())
    try:
        rel = draw(long_relations(subst))
    except ValueError:  # letter classes whose images disagree
        assume(False)
    if draw(st.booleans()):
        word = fixed_point_stream(subst).prefix(400)
        pair = _windows(draw, rel, word, 100)
    else:
        word = subst.alphabet.word
        a, b = rng.sample(range(size), 2)
        run = word((b,)) * rng.randint(1, 100)
        pair = BalancedPair(word((a,)) + run, run + word((a,)))
    return subst, rel, pair, draw(st.sampled_from(_caps(subst) + [10_000]))


@settings(max_examples=100, deadline=None)
@given(long_runs())
def test_split_of_long_runs_matches_linear_oracle(case):
    got, expected = _children_outcomes(*case)
    assert got == expected


def _counted(letters, tally):
    for letter in letters:
        tally[0] += 1
        yield letter


def _parents_through(images, parents, letters):
    """The fewest parent letters whose images hold `letters` letters."""
    count = total = 0
    while total < letters:
        total += len(images[parents[count]])
        count += 1
    return count


@pytest.mark.parametrize("kind", ["plain", "letters", "ones", "lambda"])
@pytest.mark.parametrize("name", ["ex1", "tribonacci", "three", "two-cycle"])
def test_split_of_infinite_streams_is_lazy(name, kind):
    # u against its shift by 3, as initial_pairs reads it. shift_split
    # walks the ancestor word v, with u = sigma^k(v), once from its first
    # letter for the top and once from the letter whose image holds u's
    # letter 3 for the bottom. Right after a component, the top has read
    # the parent letters up to the one whose image holds the cut. The
    # bottom has read those whose images may start before the end of that
    # top image, and one more: past the parent letter holding its cut, at
    # most `ratio` whole images, ratio bounding the longest sigma^k
    # image's walk length over the shortest's, and two more. In letters
    # of u, each side reads up to about (ratio + 2) max |sigma^k(a)| ahead
    subst = parse_substitution(RULES[name])  # its own fixed word
    rel = _relation(subst, kind)
    head = list(islice(shift_components(fixed_point_stream(subst), rel, 3,
                                        400), 200))
    assert len(head) == 200
    k = _walk_power(subst)
    assert k > 1  # short images: the walk is over sigma^k images
    parents = subst.fixed_point().ancestor(k)
    reads = []
    letters = parents.letters

    def counted(start):
        reads.append([0])
        return _counted(letters(start), reads[-1])

    parents.letters = counted
    lazy = shift_split(rel, 3, 400)
    tables = rel.image_tables(400, k)
    ratio = -(-max(tables.lengths) // min(tables.lengths))
    word = parents.prefix(1000)
    bottom_start = _parents_through(tables.images, word, 4) - 1
    top = bottom = 0
    for component in head:
        assert next(lazy) == component
        top += len(component.top)
        bottom += len(component.bottom)
        [read_top], [read_bottom] = reads
        assert read_top == _parents_through(tables.images, word, top)
        assert (bottom_start + read_bottom
                <= _parents_through(tables.images, word, 3 + bottom)
                + ratio + 2)


def test_one_long_component_keeps_a_bounded_window():
    # u = 1 2 2 2 ... against its shift by one never cuts under plain
    # balance, so shift_split reads n + 1 letters of u into one component.
    # It holds those letters, once for each side, and a window of bottom
    # parent letters: its peak measured 3.3 MB on CPython 3.11.
    n = 200_000
    subst = parse_substitution("1 -> 12\n2 -> 22")
    rel = Relation.plain(subst)
    subst.fixed_point().prefix(n)  # the fixed word itself is not counted
    tracemalloc.start()
    try:
        with pytest.raises(ScanOverflow):
            next(shift_split(rel, 1, n))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


# -- the fixed word against its own shift -------------------------------------

def _shift_outcomes(subst, rel, shift, caps, count):
    """Per cap and which: the first `count` components of u against its
    shift by `shift`, and the error that ends them, expected and got.
    Expected are those of shift_components at the largest cap, up to the
    first of more than cap letters on a side, which ends them at a smaller
    cap; got are those of shift_split."""
    stream = fixed_point_stream(subst)
    components, error = _drain(islice(
        shift_components(stream, rel, shift, max(caps)), count))
    for cap in caps:
        long = [k for k, pair in enumerate(components)
                if max(len(pair.top), len(pair.bottom)) > cap]
        for which in WHICH:
            overflow = ("ScanOverflow", which)
            if long:
                expected = components[:long[0]], overflow
            else:
                expected = components, error and overflow
            got = _drain(islice(shift_split(rel, shift, cap, which),
                                count))
            yield (cap, which), expected, got


@pytest.mark.parametrize("kind", ["plain", "letters", "ones", "lambda"])
@pytest.mark.parametrize("name", sorted(RULES))
def test_shift_split_matches_split_of_two_streams(name, kind):
    # shifts 1-12 land inside images and on image boundaries of the parent
    # word, at caps around the longest image
    subst = SUBSTS[name]
    rel = _relation(subst, kind)
    for shift in range(1, 13):
        for case, expected, got in _shift_outcomes(subst, rel, shift,
                                                   _caps(subst), 600):
            assert got == expected, (shift, case)


@st.composite
def primitive_substitutions(draw, longest=4, letters=4):
    size = draw(st.integers(2, letters))
    images = st.lists(st.integers(0, size - 1), min_size=1, max_size=longest)
    rules = draw(st.lists(images, min_size=size, max_size=size))
    text = "".join(f"{i + 1} -> {''.join(str(a + 1) for a in image)}\n"
                   for i, image in enumerate(rules))
    subst = parse_substitution(text)
    assume(subst.is_primitive())
    return subst


@settings(max_examples=150, deadline=None)
@given(primitive_substitutions(longest=5), st.sampled_from(
    ("plain", "letters", "ones", "lambda")), st.integers(1, 12))
def test_shift_split_of_random_substitutions(subst, kind, shift):
    try:
        rel = _relation(subst, kind)
    except ValueError:  # letter classes whose images disagree
        assume(False)
    for case, expected, got in _shift_outcomes(subst, rel, shift,
                                               _caps(subst), 600):
        assert got == expected, case


def _scan_stops(rel, w, window, monkeypatch):
    """Letters scanned at each cut up to the window stop of the reference,
    with no scan budget in the way."""
    scanned = [0]

    def counted(*args):
        for component in shift_components(*args):
            scanned.append(scanned[-1] + len(component.top))
            yield component

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "shift_components", counted)
        reference_initial_pairs(rel, w,
                                Budgets(split_stability_window=window))
    return scanned[1:]


@pytest.mark.parametrize("kind", ["plain", "lambda"])
@pytest.mark.parametrize("name", sorted(RULES))
def test_initial_pairs_stops_at_the_same_cut(name, kind, monkeypatch):
    # the window stop and the scan stop, each at, just before and just
    # after the cut where the reference stops; a scan budget
    # below the longest component also caps the split
    subst = SUBSTS[name]
    rel = _relation(subst, kind)
    w = fixed_word(name)[:2]
    for window in (1, 40, 500):
        scanned = _scan_stops(rel, w, window, monkeypatch)
        limits = {1, 2, 3} | {n + d for n in scanned[-3:] for d in (-1, 0, 1)}
        for max_scan_length in sorted(limits):
            budgets = Budgets(split_stability_window=window,
                              max_scan_length=max_scan_length)
            expected = _outcome(lambda: reference_initial_pairs(
                rel, w, budgets))
            got = _outcome(lambda: initial_pairs(rel, w, budgets))
            assert got == expected, (window, max_scan_length)


# -- walks under sigma^k ------------------------------------------------------

def _assert_hits_match_whole_entries(tables, prefixes, rng):
    """Each difference's hits, looked up in a random order, equal those of
    the entry built whole: every (r, s) grouped by P_b[s] - P_a[r], in
    order. The lookups are of every difference with a pair, its
    neighbours and one far miss. Hits that increase strictly in r and in
    s, two or more, have a run, whose count, letters and largest step are
    those of the image stretches between consecutive hits; any others have
    none. Returns the number of runs seen."""
    runs = 0
    for a, b in product(range(len(prefixes)), repeat=2):
        whole = {}
        for r, mine in enumerate(prefixes[a], 1):
            for s, theirs in enumerate(prefixes[b], 1):
                whole.setdefault(theirs - mine, []).append((r, s))
        diffs = [d + e for d in whole for e in (-1, 0, 1)]
        diffs.append(rng.randrange(-2 ** 80, 2 ** 80))
        rng.shuffle(diffs)
        for diff in diffs:
            entry = tables.rows[a][b][diff]
            if diff not in whole:
                assert entry == ()
                continue
            hits, run = entry
            expected = whole[diff]
            assert list(hits) == expected
            stretches = [
                BalancedPair(tables.images[a][r:r2], tables.images[b][s:s2])
                for (r, s), (r2, s2) in zip(expected, expected[1:])]
            if len(expected) < 2 or not all(
                    top and bottom for top, bottom in stretches):
                assert run is None
                continue
            runs += 1
            assert run.hits is hits
            assert run.last == expected[-1]
            assert run.images == (tables.images[a], tables.images[b])
            assert run.count == len(stretches)
            assert run.letters == sum(len(top) for top, _ in stretches)
            assert run.step == max(max(map(len, pair)) for pair in stretches)
            assert list(engine._spelled(run)) == stretches
    return runs


@settings(max_examples=150, deadline=None)
@given(primitive_substitutions(), st.sampled_from(
    ("plain", "letters", "ones", "lambda")), st.integers(1, 3),
    st.sampled_from((1, 2, 5, 400)), st.randoms(use_true_random=False))
def test_image_table_hits_match_whole_entries(subst, kind, k, cap, rng):
    try:
        rel = _relation(subst, kind)
    except ValueError:  # letter classes whose images disagree
        assume(False)
    tables = rel.image_tables(cap, k)
    assert rel.image_tables(cap, k) is tables
    packed = rel.packed_states(cap)
    images = tuple(subst.apply((a,), k) for a in range(subst.size))
    assert tables.images == images
    assert tables.sizes == tuple(map(len, images))
    prefixes = [list(accumulate(map(packed.__getitem__, image)))
                for image in images]
    assert tables.states == tuple(p[-1] for p in prefixes)
    _assert_hits_match_whole_entries(tables, prefixes, rng)


def test_image_tables_hold_runs():
    # tribonacci's sigma^3 images against each other: the entries of
    # equal letters at D = 0 have every prefix as a hit, a run of one
    # letter steps; the check above finds runs among its entries
    rel = Relation.plain(SUBSTS["tribonacci"])
    tables = rel.image_tables(400, 3)
    packed = rel.packed_states(400)
    prefixes = [list(accumulate(map(packed.__getitem__, image)))
                for image in tables.images]
    assert _assert_hits_match_whole_entries(tables, prefixes,
                                            random.Random(0))
    hits, run = tables.rows[0][0][0]
    assert hits == tuple((r, r) for r in range(1, 8))
    assert (run.count, run.letters, run.step, run.last) == (6, 6, 1, (7, 7))


def test_image_table_hits_keep_repeated_prefix_states():
    # packed for cap 1, letter 1's state (8, -1) is -56 and letter 2's
    # (8, 0) is 8, so the nine-letter image 2 1 2222222 repeats the packed
    # prefix state 8 at s = 1 and s = 9: a state difference of more than
    # 2 (cap + 1) letters may pack to zero. Each s is kept
    subst = parse_substitution("1 -> 212222222\n2 -> 12")
    rel = Relation(subst, RelationSpec.plain(), ((8, -1), (8, 0)), (1, 1))
    tables = rel.image_tables(1)
    prefixes = [list(accumulate(map(rel.packed_states(1).__getitem__, image)))
                for image in subst.rules]
    assert prefixes[0][0] == prefixes[0][8] == 8
    # the hits repeat r = 1 and r = 9, so they make no run
    assert tables.rows[0][0][0] == (((1, 1), (1, 9), (2, 2), (3, 3), (4, 4),
                                     (5, 5), (6, 6), (7, 7), (8, 8), (9, 1),
                                     (9, 9)), None)
    _assert_hits_match_whole_entries(tables, prefixes, random.Random(0))


def test_walk_power_is_the_largest_under_the_letter_bound():
    # ex1's sigma^k images hold 5, 13, 34, 89, 233, 610 letters in all, so
    # it walks sigma^5 under 512 and sigma^3 under 88; images that already
    # hold more than the bound are walked under sigma itself
    assert engine.WALK_LETTERS == 512
    assert _walk_power(SUBSTS["ex1"]) == 5
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "WALK_LETTERS", 88)
        assert _walk_power(SUBSTS["ex1"]) == 3
    # the image lengths are built once per substitution and bound
    sizes = SUBSTS["ex1"].image_sizes(512)
    assert SUBSTS["ex1"].image_sizes(512) is sizes
    assert [sum(row) for row in sizes] == [2, 5, 13, 34, 89, 233]
    assert _walk_power(parse_substitution(
        f"1 -> {'12' * 150}\n2 -> {'21' * 150}")) == 1


def _walk_letters(subst, k):
    """A WALK_LETTERS under which shift_split walks sigma^k images."""
    return sum(len(subst.apply((a,), k)) for a in range(subst.size))


def _forced_outcomes(subst, rel, k, count):
    """_shift_outcomes with shift_split forced to walk sigma^k images, at
    shifts inside the first sigma^k image of the ancestor word, on its end
    and just past it, and caps around the longest sigma^k image."""
    stream = fixed_point_stream(subst)
    first = len(subst.apply((stream.ancestor(k).letter(0),), k))
    longest = max(len(subst.apply((a,), k)) for a in range(subst.size))
    caps = sorted({1, 2, longest - 1, longest, longest + 1, 400} - {0})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "WALK_LETTERS", _walk_letters(subst, k))
        assert _walk_power(subst) == k
        for shift in sorted({1, first - 1, first, first + 1} - {0}):
            for case, expected, got in _shift_outcomes(subst, rel, shift,
                                                       caps, count):
                yield (shift, longest) + case, expected, got


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["ex1", "tribonacci", "const-len",
                                  "two-cycle"])
def test_shift_split_under_a_forced_power(name, k):
    # power-1 words and the power-2 two-cycle, walked over sigma^k images;
    # caps below the longest image end in the same ScanOverflow after the
    # same components, which some case here covers
    subst = SUBSTS[name]
    overflows = 0
    for kind in ("plain", "lambda"):
        rel = _relation(subst, kind)
        for case, expected, got in _forced_outcomes(subst, rel, k, 300):
            assert got == expected, (kind, case)
            shift, longest, cap, which = case
            components, error = expected
            overflows += (cap < longest and bool(components)
                          and error == ("ScanOverflow", which))
    assert overflows


@st.composite
def powered_substitutions(draw):
    """Primitive substitutions on 2-4 letters with images of 1-4 letters,
    whose fixed word is fixed by sigma or, when the first letters of 1
    and 2 swap and no image starts with its own letter, by sigma^2."""
    size = draw(st.integers(2, 4))
    power = draw(st.integers(1, 2))
    letters = st.integers(0, size - 1)
    rules = draw(st.lists(st.lists(letters, min_size=1, max_size=4),
                          min_size=size, max_size=size))
    if power == 2:
        rules[0][0], rules[1][0] = 1, 0
        for image in rules[2:]:
            image[0] = draw(st.integers(0, 1))
    text = "".join(f"{i + 1} -> {''.join(str(a + 1) for a in image)}\n"
                   for i, image in enumerate(rules))
    subst = parse_substitution(text)
    assume(subst.is_primitive())
    assume(fixed_point_stream(subst).power == power)
    return subst


@settings(max_examples=100, deadline=None)
@given(powered_substitutions(), st.sampled_from(
    ("plain", "letters", "ones", "lambda")), st.integers(1, 3))
def test_shift_split_under_a_forced_power_of_random_substitutions(subst,
                                                                  kind, k):
    try:
        rel = _relation(subst, kind)
    except ValueError:  # letter classes whose images disagree
        assume(False)
    for case, expected, got in _forced_outcomes(subst, rel, k, 200):
        assert got == expected, case


def test_sigma_k_tables_and_a_long_initial_split_keep_a_bounded_peak():
    # tetranacci walks sigma^7 images, 349 letters in all. The tables hold
    # the lookups made, a few differences per letter pair, and the walk
    # the pending component: 20 000 components peaked at 47 kB on CPython
    # 3.11 (52 kB when a word was a tuple of ints). Entries holding every
    # (r, s) of the 349-letter images would hold 121 801 pairs, several
    # megabytes. A warm-up split on a relation of its own, dropped before
    # tracing starts, leaves the interpreter's free lists as full as
    # earlier tests would: run alone, the peak read 65-67 kB without it
    # and 47 kB with it, as in the whole suite. The traced relation
    # builds its tables inside the window
    subst = parse_substitution("1 -> 12\n2 -> 13\n3 -> 14\n4 -> 1")
    rel = Relation.plain(subst)
    assert _walk_power(subst) == 7
    subst.fixed_point().prefix(100_000)  # the fixed word is not counted
    assert sum(1 for _ in islice(shift_split(Relation.plain(subst), 1, 400),
                                 20_000)) == 20_000
    tracemalloc.start()
    try:
        count = sum(1 for _ in islice(shift_split(rel, 1, 400),
                                      20_000))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 20_000
    assert peak < 72_000


# -- the closure's children ---------------------------------------------------

def _children_outcomes(subst, rel, pair, cap):
    """children of the pair, and the linear split of the whole images at
    the same cap, each as its list of components or its error."""
    top, bottom = subst.apply(pair.top), subst.apply(pair.bottom)
    if cap is None:  # a cap no component of the images outgrows
        cap = max(len(pair.top), len(pair.bottom)) * max(map(len, subst.rules))
    expected = _outcome(lambda: list(split(rel, top, bottom, cap,
                                           "max_word_length")))
    got = _outcome(lambda: children(rel, pair, max_word_length=cap))
    return got, expected


def _closure_pairs(subst, rel):
    """The pairs of a short closure from the fixed word's first letter."""
    budgets = Budgets(max_iterations=4, max_pairs=60, max_word_length=80)
    return run_bpa(rel, fixed_point_stream(subst).prefix(1),
                   budgets).vertices


@st.composite
def children_cases(draw):
    """A pair from a short closure, two such pairs end to end (several
    components), or the top of one against the bottom of another (mostly
    unbalanced), under random images of 1-7 letters."""
    subst = draw(primitive_substitutions(longest=7))
    try:
        rel = draw(long_relations(subst))
    except ValueError:  # letter classes whose images disagree
        assume(False)
    pairs = _closure_pairs(subst, rel)
    assume(pairs)
    first, second = draw(st.sampled_from(pairs)), draw(st.sampled_from(pairs))
    pair = draw(st.sampled_from((
        first,
        BalancedPair(first.top + second.top, first.bottom + second.bottom),
        BalancedPair(first.top, second.bottom))))
    longest = max(map(len, subst.rules))
    cap = draw(st.one_of(st.none(), st.just(1),
                         st.integers(1, max(1, longest - 1)),
                         st.integers(1, 300)))
    return subst, rel, pair, cap


def _assert_cuts_bound_the_components(subst, pair, kids):
    """Each cut children hands back with its components, (t, u, r, s), is
    r letters into sigma of the top's letter t, s into sigma of the
    bottom's letter u, and where the components before it end."""
    ends = [[0, 0]]
    for kid in kids:
        ends.append([ends[-1][0] + len(kid.top),
                     ends[-1][1] + len(kid.bottom)])
    assert len(kids.cuts) == len(ends)
    for (t, u, r, s), (top, bottom) in zip(kids.cuts[1:], ends[1:]):
        assert 1 <= r <= len(subst.rules[pair.top[t]])
        assert 1 <= s <= len(subst.rules[pair.bottom[u]])
        assert (len(subst.apply(pair.top[:t])) + r,
                len(subst.apply(pair.bottom[:u])) + s) == (top, bottom)


@settings(max_examples=300, deadline=None)
@given(children_cases())
def test_children_matches_linear_oracle(case):
    got, expected = _children_outcomes(*case)
    assert got == expected
    if isinstance(got, list):
        _assert_cuts_bound_the_components(case[0], case[2], got)


def test_children_of_long_images_match_linear_oracle():
    # 64-letter images: each letter pair's table holds 4096 (r, s) pairs,
    # and a parent letter's image spans many of the other side's
    rng = random.Random(64)
    text = "".join(f"{i} -> {''.join(rng.choice('12') for _ in range(64))}\n"
                   for i in (1, 2))
    subst = parse_substitution(text)
    assert subst.is_primitive()
    for kind in ("plain", "ones", "lambda"):
        rel = _relation(subst, kind)
        w = subst.alphabet.word_from_text
        pairs = [BalancedPair(w("12"), w("21")),
                 BalancedPair(w("1122"), w("2121")),
                 BalancedPair(w("12"), w("11"))]
        pairs += _closure_pairs(subst, rel)[:12]
        for pair in pairs:
            for cap in (1, 63, 64, 65, 200, None):
                got, expected = _children_outcomes(subst, rel, pair, cap)
                assert got == expected, (kind, pair, cap)


def test_children_overflow_inside_the_last_top_letter():
    # 1 against 1: one cut, then the top's image goes on for four letters
    # where the bottom's has ended, more than a cap of 2 and not of 4
    subst = parse_substitution("1 -> 12222\n2 -> 1")
    rel = Relation.plain(subst)
    pair = BalancedPair(b"\x00", b"\x01")
    for cap, outcome in ((2, ("ScanOverflow", "max_word_length")),
                         (4, ("NotBalanced",))):
        got, expected = _children_outcomes(subst, rel, pair, cap)
        assert got == expected == outcome


def test_children_stop_reading_at_an_overflow():
    # a^N b against b a^N: once the top is more than cap letters past its
    # last cut, the walk raises without reading the rest of either parent
    class Counted(bytes):
        read = 0  # the most letters any one reader has taken

        def __iter__(self):
            for read, letter in enumerate(bytes.__iter__(self), 1):
                self.read = max(self.read, read)
                yield letter

    n, cap = 10_000, 50
    subst = SUBSTS["const-len"]
    top = Counted(b"\x00" * n + b"\x01")
    bottom = Counted(b"\x01" + b"\x00" * n)
    with pytest.raises(ScanOverflow):
        children(Relation.plain(subst), BalancedPair(top, bottom),
                 max_word_length=cap)
    # the images have 3 letters and the first cut is at letter 1, so the
    # top overflows at its 19th parent letter, whose images before it hold
    # 54 letters; the bottom has read no further
    assert top.read <= cap // 3 + 3 and bottom.read <= cap // 3 + 3


def test_children_of_a_growth_pair_keep_a_bounded_peak():
    # const-len under plain balance grows a pair about x3 an iteration. Its
    # longest pair under a 20 000-letter budget has 19 684 letters a side,
    # and its middle child 59 050. The walk of its own words, given no
    # origin or its depth-0 one, holds the pending component's letters
    # and the output, one byte a letter: its peak measured 0.30 MB on
    # CPython 3.11, against 2.4 MB when a word was a tuple of ints and 14
    # MB for a join of the whole images, the two images and a packed
    # prefix-state dict per side. The walks of the pair's stretch of
    # sigma^(d+1) of its ancestor d levels up, d = 1 to 4 (const-len walks
    # sigma^5), hold the same and the sigma^(d+1) tables, and measured
    # 0.31-0.38 MB (2.41-2.51 MB with tuple words).
    subst = parse_substitution("1 -> 112\n2 -> 122")
    rel = Relation.plain(subst)
    budgets = Budgets(max_word_length=20_000)
    closure = run_bpa(rel, (0,), budgets)
    assert closure.which == "max_word_length"
    pair = max(closure.vertices, key=lambda p: len(p.top))
    assert len(pair.top) == 19_684
    assert _walk_power(subst) == 5
    chain = next(chain for kid, chain, _after in _first_finds(
        rel, closure, budgets.max_word_length, 4) if kid == pair)
    origins = [_origin(subst, ancestor, depth, top, bottom, pair)
               for depth, (ancestor, top, bottom) in enumerate(chain, 1)]
    assert [origin.depth for origin in origins] == [1, 2, 3, 4]
    for origin in [None, Origin(pair, 0, (0, 0))] + origins:
        tracemalloc.start()
        try:
            kids = children(rel, pair, max_word_length=3 * len(pair.top),
                            origin=origin)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(kid.top) for kid in kids] == [1, 59_050, 1]
        assert peak < 580_000, origin and origin.depth


def _walked_runs(call):
    """The call's result and the Runs its walks yielded, in order."""
    runs = []
    walk = engine._walk

    def recording(*args, **kwargs):
        for item in walk(*args, **kwargs):
            if item.__class__ is Run:
                runs.append(item)
            yield item

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_walk", recording)
        return call(), runs


def test_children_spell_each_run_once():
    # the walk of sigma of this pair of reducible3's plain closure meets
    # one run twice: each time, and in a second call, children add the
    # components the run kept at its first spelling, the same objects
    subst = load_corpus("reducible3")
    rel = Relation.plain(subst)
    w = subst.alphabet.word_from_text
    pair = BalancedPair(w("112232123"), w("232123211"))
    first, runs = _walked_runs(
        lambda: children(rel, pair, max_word_length=200))
    second = children(rel, pair, max_word_length=200)
    assert first == second == _children_outcomes(subst, rel, pair, 200)[1]
    [(run, met)] = [(run, met) for run, met in Counter(runs).items()
                    if met > 1]
    assert run.components == tuple(engine._spelled(run))
    for kids in (first, second):
        assert sum(any(kid is kept for kept in run.components)
                   for kid in kids) == met * run.count
    # the split of the fixed word against its shift, and the initial
    # split, spell runs for each use and keep none
    fresh = Relation.plain(subst)
    _components, runs = _walked_runs(
        lambda: list(islice(shift_split(fresh, 2, 200), 5000)))
    _pairs, more = _walked_runs(
        lambda: initial_pairs(fresh, w("11"), Budgets()))
    assert runs and more
    assert all(run.components is None for run in runs + more)


# -- children over a stretch of sigma^(d+1) of an ancestor ---------------------

# the closure budgets of the benchmark's batch survey
BATCH_BUDGETS = Budgets(max_iterations=8, max_pairs=250, max_word_length=400)
CLOSURE_FIELDS = ("vertices", "discovered", "edges", "growth_trace",
                  "iterations_done", "which")
BENCH_INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


def _origin(subst, ancestor, depth, top, bottom, pair):
    """The Origin of the pair that starts `top` and `bottom` letters into
    sigma^depth of the ancestor's two words, found one ancestor letter at
    a time: per side, the ancestor's letters from the first whose image
    holds the pair's start to the last, the letters of the first image
    before the pair, and those of the last image in it."""
    size = [len(subst.apply((a,), depth)) for a in range(subst.size)]
    words, dropped, kept = [], [], []
    for word, start, part in zip(ancestor, (top, bottom), pair):
        first = before = 0
        while before + size[word[first]] <= start:
            before += size[word[first]]
            first += 1
        last, end = first, before + size[word[first]]
        while end < start + len(part):
            last += 1
            end += size[word[last]]
        words.append(word[first:last + 1])
        dropped.append(start - before)
        kept.append(start + len(part) - end + size[word[last]])
    return Origin(tuple(words), depth, tuple(dropped), tuple(kept))


def _first_finds(rel, closure, cap, deepest=1):
    """Each pair the closure found after its initial split, where it was
    first found, in the order found: its ancestors up to `deepest` levels
    up, nearest first, each with the pair's offsets in sigma^d of the
    ancestor d levels up, and the parent's next child, or None. The
    children of the expanded pairs are recomputed over their own words, in
    the order the closure expanded them, and an offset one level up is
    sigma of the parent's offset prefix, spelled out, plus the offset in
    sigma of the parent."""
    subst = rel.subst
    spelled = functools.cache(subst.apply)
    chains = {closure.vertices[i]: [] for i, found in
              enumerate(closure.discovered) if found == 1}
    for vertex in closure.edges:
        parent = closure.vertices[vertex]
        kids = children(rel, parent, max_word_length=cap)
        top = bottom = 0
        for kid, after in zip(kids, kids[1:] + [None]):
            if kid not in chains:
                chain = [(parent, top, bottom)]
                for depth, (ancestor, *offsets) in enumerate(
                        chains[parent][:deepest - 1], 1):
                    chain.append((ancestor, *(
                        len(subst.apply(spelled(word, depth)[:offset]))
                        + mine for word, offset, mine in zip(
                            ancestor, offsets, (top, bottom)))))
                chains[kid] = chain
                yield kid, chain, after
            top, bottom = top + len(kid.top), bottom + len(kid.bottom)


def _stretch_outcomes(rel, closure, cap, deepest=1):
    """children of each pair the closure found after its initial split,
    over its stretch of sigma^d of its ancestor d levels up, for each d up
    to `deepest` its chain reaches, and over its own words, each as its
    list of components or its error, labelled with d: at the closure's
    cap, and at one below the longest child, so that the last component
    may overflow, and at one below what is left past the last cut. Also
    stretches whose last top cut is not at the bottom's end: the pair less
    the last letter of a side, and, for a pair that has a next sibling,
    the pair's top against its bottom followed by the sibling's, its top
    followed by the sibling's against its bottom, and both followed by the
    sibling's less the sibling's last bottom letter."""
    for pair, chain, after in _first_finds(rel, closure, cap, deepest):
        own = _outcome(lambda: children(rel, pair, max_word_length=cap))
        caps = [cap]
        if isinstance(own, list):
            longest = max(max(map(len, kid)) for kid in own)
            caps += [longest - 1] if longest > 1 else []
        cases = [pair, BalancedPair(pair.top, pair.bottom[:-1]),
                 BalancedPair(pair.top[:-1], pair.bottom)]
        if after is not None:
            cases += [BalancedPair(pair.top, pair.bottom + after.bottom),
                      BalancedPair(pair.top + after.top, pair.bottom),
                      BalancedPair(pair.top + after.top,
                                   pair.bottom + after.bottom[:-1])]
        cases = [case for case in cases if case.top and case.bottom]
        for case in cases:
            for at in caps + _left_after_the_last_cut(rel, case):
                expected = _outcome(lambda: children(rel, case,
                                                     max_word_length=at))
                for depth, (ancestor, top, bottom) in enumerate(chain, 1):
                    origin = _origin(rel.subst, ancestor, depth, top, bottom,
                                     case)
                    got = _outcome(lambda: children(
                        rel, case, max_word_length=at, origin=origin))
                    yield (depth, case, at), expected, got


def _left_after_the_last_cut(rel, pair):
    """The cap one below the most letters a side of sigma(pair) holds past
    its last cut, at which that remainder overflows, if it holds two or
    more."""
    top, bottom = rel.subst.apply(pair.top), rel.subst.apply(pair.bottom)
    i, j = ([(0, 0)] + linear_cuts(rel, top, bottom))[-1]
    left = max(len(top) - i, len(bottom) - j)
    return [left - 1] if left > 1 else []


@st.composite
def batch_prefixes(draw, least_power=1):
    """A random primitive substitution on 2-4 letters with images of 1-4
    letters whose walk power is at least least_power, under one of four
    relations, and a prefix of 1-3 letters of its fixed word."""
    subst = draw(primitive_substitutions())
    assume(_walk_power(subst) >= least_power)
    try:
        rel = _relation(subst, draw(st.sampled_from(
            ("plain", "letters", "ones", "lambda"))))
    except ValueError:  # letter classes whose images disagree
        assume(False)
    return rel, fixed_point_stream(subst).prefix(draw(st.integers(1, 3)))


def batch_closures(least_power=1):
    """The closure of a batch_prefixes case under the batch survey's
    budgets."""
    return batch_prefixes(least_power).map(
        lambda case: (case[0], run_bpa(*case, BATCH_BUDGETS)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch_closures())
def test_children_of_a_parent_stretch_match_own_words(case):
    rel, closure = case
    for label, expected, got in _stretch_outcomes(
            rel, closure, BATCH_BUDGETS.max_word_length):
        assert got == expected, label


def test_children_of_an_ancestor_stretch_match_own_words():
    # every pair found at iteration 2 or later, over its stretch of
    # sigma^(d+1) of its ancestor d levels up, d = 1, 2 and 3
    depths = Counter()

    # a walk power of 3 or more, so that the closure's children walk
    # ancestors at depths 1 and 2
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(batch_closures(3))
    def check(case):
        rel, closure = case
        for label, expected, got in _stretch_outcomes(
                rel, closure, BATCH_BUDGETS.max_word_length, 3):
            assert got == expected, label
            depths[label[0]] += 1

    check()
    assert depths.keys() == {1, 2, 3}, depths


def test_children_of_a_parent_stretch_end_as_own_words_do():
    # mt-rewrite's lambda closure under a 2000-letter budget, over the
    # stretches of sigma^2 of parents and sigma^3 of grandparents (its
    # walk power is 3): every outcome of _stretch_outcomes occurs at both
    # depths, a list, an overflow of the last component and an unbalanced
    # end
    subst = load_corpus("mt-rewrite")
    assert _walk_power(subst) == 3
    rel = _relation(subst, "lambda")
    closure = run_bpa(rel, (0,), Budgets(max_word_length=2000))
    kinds = Counter()
    for label, expected, got in _stretch_outcomes(rel, closure, 2000, 2):
        assert got == expected, label
        kinds[label[0], expected[0] if isinstance(expected, tuple)
              else "list"] += 1
    assert kinds.keys() == {(depth, kind) for depth in (1, 2) for kind in
                            ("list", "ScanOverflow", "NotBalanced")}, kinds


def _recorded_run(rel, w, budgets):
    """run_bpa's closure and each pair it walks, with the Origin it walks
    over, in the order of the children calls."""
    seen = []

    def recording(rel, pair, *, origin=None, **budget):
        seen.append((pair, origin))
        return children(rel, pair, origin=origin, **budget)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "children", recording)
        closure = engine.run_bpa(rel, w, budgets)
    return closure, seen


def _assert_origins_hold_their_pairs(subst, seen):
    """Each side of each pair is the stretch of sigma^d of its origin's
    ancestor letters that starts `dropped` letters in, and both the first
    and the last image hold letters of it; a depth-0 origin is the pair
    itself, dropping nothing. Returns the depths seen."""
    depths = Counter()
    for pair, origin in seen:
        depths[origin.depth] += 1
        if not origin.depth:
            assert origin.ancestor == pair, origin
            assert origin.dropped == (0, 0), origin
        for word, part, dropped in zip(origin.ancestor, pair,
                                       origin.dropped):
            image = subst.apply(word, origin.depth)
            assert image[dropped:dropped + len(part)] == part, origin
            assert dropped < len(subst.apply(word[:1], origin.depth)), origin
            assert (len(image) - len(subst.apply(word[-1:], origin.depth))
                    < dropped + len(part)), origin
    return depths


def _assert_closure_matches_own_words(rel, w, budgets):
    """run_bpa's closure equals the closure over own words, and each Origin
    it walks holds its pair and equals the reference location's
    (oracles.reference_origin). Returns the two closures and the depths of
    the Origins walked."""
    got, seen = _recorded_run(rel, w, budgets)
    depths = _assert_origins_hold_their_pairs(rel.subst, seen)
    reference = []
    expected = oracles.closure_by_own_words(rel, w, budgets, reference)
    for field in CLOSURE_FIELDS:
        assert getattr(got, field) == getattr(expected, field), field
    assert len(seen) == len(reference)
    for (pair, origin), (_pair, expected_origin) in zip(seen, reference):
        assert origin == expected_origin, pair
    return got, expected, depths


@pytest.mark.parametrize("least_power, examples", [(1, 60), (3, 40)])
def test_closure_origins_hold_their_pairs(least_power, examples):
    # both sets of closures walk ancestors at depths 1 and 2
    depths = Counter()

    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(batch_prefixes(least_power))
    def check(case):
        rel, w = case
        depths.update(_assert_origins_hold_their_pairs(
            rel.subst, _recorded_run(rel, w, BATCH_BUDGETS)[1]))

    check()
    assert {1, 2} <= depths.keys(), depths


def test_closure_origins_hold_their_pairs_on_mt_rewrite():
    # mt-rewrite's lambda closure under a 2000-letter budget walks at
    # depths 1 and 2, its walk power being 3, and its short pairs over
    # their own words, depth 0
    rel = _relation(load_corpus("mt-rewrite"), "lambda")
    _closure, seen = _recorded_run(rel, (0,), Budgets(max_word_length=2000))
    assert _assert_origins_hold_their_pairs(rel.subst, seen).keys() == {
        0, 1, 2}


def test_closure_asks_for_no_sigma_zero_tables():
    # each expansion walks and reads its heads from the sigma^(d+1) tables
    # of its origin, depth 0 included, so the closure over depths 0-2 and
    # its initial split over sigma^3 ask for the tables of sigma^1-sigma^3
    # only
    rel = _relation(load_corpus("mt-rewrite"), "lambda")
    asked = Counter()
    tables = Relation.image_tables

    def recording(self, cap, k=1):
        asked[k] += 1
        return tables(self, cap, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Relation, "image_tables", recording)
        engine.run_bpa(rel, (0,), Budgets(max_word_length=2000))
    assert asked.keys() == {1, 2, 3}, asked


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_closure_matches_own_words_on_the_fixtures(name):
    subst, expect = load_corpus(name), load_expect(name)
    for cell in expect["cells"]:
        mode = cell["mode"]
        rel = (Relation.generalized(subst, LengthSpec.parse(mode[7:]))
               if mode.startswith("custom:") else _relation(subst, mode))
        budgets = Budgets(**cell.get("budgets", {}))
        _assert_closure_matches_own_words(
            rel, subst.alphabet.word_from_text(cell["prefix"]), budgets)


def test_closure_origins_match_the_reference_location():
    # random fixed words of sigma and of sigma^2 under the batch survey's
    # budgets: each new pair's Origin, read from its parent's walk, equals
    # the one searched for in the running image lengths of the parent's
    # ancestor, at depths 1 and 2 among others
    depths = Counter()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(powered_substitutions(), st.sampled_from(
        ("plain", "letters", "ones", "lambda")), st.integers(1, 3))
    def check(subst, kind, length):
        try:
            rel = _relation(subst, kind)
        except ValueError:  # letter classes whose images disagree
            assume(False)
        depths.update(_assert_closure_matches_own_words(
            rel, subst.fixed_point().prefix(length), BATCH_BUDGETS)[2])

    check()
    assert {1, 2} <= depths.keys(), depths


# the ancestor letters the closures' children walks read, a side: the walk
# depth policy (_located, at most one below the walk power) fixes them
WALKED = {"big-1232.sub": (12_366, 12_374), "big-2343.sub": (5_887, 5_889),
          "big-132.sub": (3_828, 3_829), "const-len": (395, 395),
          "mt-rewrite": (852, 852)}


@pytest.mark.parametrize("entry", json.loads(
    (BENCH_INPUTS / "closures.json").read_text()), ids=lambda e: e["file"])
def test_closure_matches_own_words_on_the_large_closures(entry):
    subst = parse_substitution((BENCH_INPUTS / entry["file"]).read_text())
    rel = _relation(subst, "lambda")
    got, _expected, _depths = _assert_closure_matches_own_words(
        rel, subst.alphabet.word_from_text(entry["prefix"]), Budgets())
    assert got.terminated and len(got.vertices) == entry["pairs"]
    assert got.letters_walked == WALKED[entry["file"]]


@pytest.mark.parametrize("name, kind", [("const-len", "plain"),
                                        ("mt-rewrite", "lambda")])
def test_growth_closure_matches_own_words(name, kind):
    rel = _relation(load_corpus(name), kind)
    got, expected, _depths = _assert_closure_matches_own_words(
        rel, (0,), Budgets(max_word_length=20_000))
    assert got.which == "max_word_length"
    assert got.letters_walked == WALKED[name]
    if name == "mt-rewrite":
        # mt-rewrite walks sigma^3, so its long pairs walk their stretches
        # of sigma^3 of their grandparents, which read at most a
        # fourteenth of the letters the pairs' own words hold: 852 of
        # 12 788 a side
        assert all(14 * mine <= theirs for mine, theirs in
                   zip(got.letters_walked, expected.letters_walked))


# -- scaled lengths: a custom length vector L and c L give one closure --------

SCALES = (Fraction(3), Fraction(1, 2), Fraction(5, 3), Fraction(7, 1000))


def _run_and_verdict(rel, w, budgets):
    closure = run_bpa(rel, w, budgets)
    failing = ()
    if closure.terminated:
        reached = coincidence_analysis(closure)
        failing = tuple(pair for i, pair in enumerate(closure.vertices)
                        if i not in reached)
    u = rel.subst.fixed_point()
    return closure, verdict(closure, failing, u.letter(len(w)) == u.letter(0))


def _closure_and_verdict(subst, values, w, budgets):
    return _run_and_verdict(
        Relation.generalized(subst, LengthSpec.custom(values)), w, budgets)


def _assert_scaling_keeps_the_closure(subst, values, w, budgets):
    closure, expected = _closure_and_verdict(subst, values, w, budgets)
    for scale in SCALES:
        got, decided = _closure_and_verdict(
            subst, [scale * v for v in values], w, budgets)
        for field in CLOSURE_FIELDS:
            assert getattr(got, field) == getattr(closure, field), (scale,
                                                                    field)
        assert decided == expected, scale
    return closure


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_scaled_lengths_give_the_same_closure_on_the_fixtures(name):
    # a fixture's own custom length vector, or 1, 2, ..., n, under the
    # batch survey's budgets
    subst = load_corpus(name)
    cells = [cell for cell in load_expect(name)["cells"]
             if cell["mode"].startswith("custom:")]
    cases = [(LengthSpec.parse(cell["mode"][7:]).values,
              subst.alphabet.word_from_text(cell["prefix"]))
             for cell in cells] or [(range(1, subst.size + 1),
                                     subst.fixed_point().prefix(1))]
    for values, w in cases:
        _assert_scaling_keeps_the_closure(subst, values, w, BATCH_BUDGETS)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(primitive_substitutions(), st.data())
def test_scaled_lengths_give_the_same_closure(subst, data):
    values = data.draw(st.lists(st.builds(Fraction, st.integers(1, 9),
                                          st.integers(1, 9)),
                                min_size=subst.size, max_size=subst.size))
    w = subst.fixed_point().prefix(data.draw(st.integers(1, 3)))
    _assert_scaling_keeps_the_closure(subst, values, w, BATCH_BUDGETS)


# -- relabelling: a permutation of the alphabet changes only the names -------

def _relabelled(subst, pi):
    """The substitution with letter a renamed pi[a], its letters numbered
    1 to n: the rule of pi[a] is pi of the image of a."""
    source = sorted(range(subst.size), key=pi.__getitem__)
    return parse_substitution("".join(
        f"{b + 1} -> {' '.join(str(pi[c] + 1) for c in subst.rules[a])}\n"
        for b, a in enumerate(source)))


def _keeps_the_seed(subst, pi):
    """fixed_point_stream picks the first seed letter in index order, so
    only a pi under which it still picks pi of the seed, at the same
    power, renames the fixed word."""
    mine, theirs = subst.fixed_point(), _relabelled(subst, pi).fixed_point()
    return (theirs.seed, theirs.power) == (pi[mine.seed], mine.power)


def _relations(subst, custom):
    """The relation of each kind, or the ValueError building it raised."""
    out = []
    for build in (Relation.plain, Relation.letter_classes,
                  lambda s: Relation.generalized(s, LengthSpec.ones()),
                  lambda s: Relation.generalized(s, LengthSpec.pf()),
                  lambda s: Relation.generalized(
                      s, LengthSpec.custom(custom))):
        try:
            out.append(build(subst))
        except ValueError as exc:  # letter classes whose images disagree
            out.append(type(exc))
    return out


def _assert_relabelling_keeps_everything(subst, pi, w, budgets):
    """Equal spectral data, L_lambda renamed up to its scale, and under
    every relation pi of every pair, with equal discovery levels, edges,
    growth trace, budget stop and verdict."""
    other = _relabelled(subst, pi)
    mine, theirs = subst.spectrum(), other.spectrum()
    for field in ("char_poly", "factors", "eigen"):
        assert getattr(theirs, field) == getattr(mine, field), field
    assert theirs.perron.min_poly == mine.perron.min_poly
    assert (theirs.perron.canonical_interval()
            == mine.perron.canonical_interval())
    # L' is L renamed, over L's entry at the letter renamed first
    first = mine.l_lambda[pi.index(0)]
    assert [theirs.l_lambda[pi[a]] * first for a in range(subst.size)] == \
        list(mine.l_lambda)

    def rename(word):
        return bytes(pi[c] for c in word)

    custom = [Fraction(a + 2, a + 1) for a in range(subst.size)]
    renamed = [custom[pi.index(b)] for b in range(subst.size)]
    for rel, their_rel in zip(_relations(subst, custom),
                              _relations(other, renamed)):
        if not isinstance(rel, Relation):
            assert their_rel is rel
            continue
        closure, decided = _run_and_verdict(rel, w, budgets)
        got, got_decided = _run_and_verdict(their_rel, rename(w), budgets)
        assert got.vertices == [BalancedPair(rename(p.top), rename(p.bottom))
                                for p in closure.vertices], rel.spec
        for field in CLOSURE_FIELDS[1:]:
            assert getattr(got, field) == getattr(closure, field), field
        assert got_decided == decided, rel.spec


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_relabelling_keeps_spectra_and_closures_on_the_fixtures(name):
    # the first permutation, in itertools order, that moves a letter and
    # keeps the seed
    subst = load_corpus(name)
    pi = next(list(pi) for pi in permutations(range(subst.size))
              if list(pi) != sorted(pi) and _keeps_the_seed(subst, list(pi)))
    _assert_relabelling_keeps_everything(
        subst, pi, subst.fixed_point().prefix(2), BATCH_BUDGETS)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(primitive_substitutions(), st.data())
def test_relabelling_keeps_spectra_and_closures(subst, data):
    pi = data.draw(st.permutations(range(subst.size)))
    assume(_keeps_the_seed(subst, pi))
    w = subst.fixed_point().prefix(data.draw(st.integers(1, 3)))
    _assert_relabelling_keeps_everything(subst, pi, w, BATCH_BUDGETS)


# -- the walk against the reference walk ---------------------------------------

def _assert_walks_agree(arguments):
    """engine._walk and oracles.reference_walk, each on arguments() made
    afresh, yield equal pairs and the same Runs, in the same order, and
    end in the same error with the same which."""
    expected, got = (_drain(walk(*arguments()))
                     for walk in (oracles.reference_walk, engine._walk))
    assert got == expected, arguments()[2:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cases(), st.integers(1, 2), st.booleans())
def test_walk_matches_reference_on_own_words(case, k, streamed):
    # two words walked over sigma or sigma^2 images from empty heads, as
    # children walks a pair's own words, given as words or as iterators
    rel, top, bottom, cap, which = case
    tables = rel.image_tables(cap, k)

    def arguments():
        words = (iter(top), iter(bottom)) if streamed else (top, bottom)
        return rel.subst.alphabet, tables, *words, cap, which

    _assert_walks_agree(arguments)


def _recorded_walks(rel, w, budgets):
    """The arguments of each walk of two words that run_bpa makes, in
    order: those of children, and not the initial split's walk of two
    iterators."""
    walks = []
    walk = engine._walk

    def recording(*arguments, **heads):
        if iter(arguments[2]) is not arguments[2]:
            walks.append(arguments)
        return walk(*arguments, **heads)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_walk", recording)
        engine.run_bpa(rel, w, budgets)
    return walks


def test_walk_matches_reference_on_origin_walks():
    # the closure's walks of its pairs' stretches of sigma^(d+1) of their
    # ancestors, a depth-0 walk of a pair's own words among them, at their
    # own cap and at one below their longest component's longest side, so
    # that it overflows; both heads are nonempty on many of them
    both_heads = Counter()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(batch_prefixes(), batch_prefixes(3)))
    def check(case):
        rel, w = case
        for arguments in _recorded_walks(rel, w, BATCH_BUDGETS)[:60]:
            heads = arguments[6:]
            both_heads[all(head[0] for head in heads)] += 1
            items, _error = _drain(oracles.reference_walk(*arguments))
            longest = max((max(map(len, item)) for item in items
                           if item.__class__ is not Run), default=2)
            for cap in {arguments[4], max(1, longest - 1)}:
                _assert_walks_agree(
                    lambda: (*arguments[:4], cap, *arguments[5:]))

    check()
    assert both_heads[True] > 50, both_heads


@settings(max_examples=80, deadline=None, derandomize=True)
@given(primitive_substitutions(longest=5), st.sampled_from(
    ("plain", "letters", "ones", "lambda")), st.integers(2, 3),
    st.integers(1, 12), st.data())
def test_walk_matches_reference_on_shift_streams(subst, kind, k, shift, data):
    # the fixed word against its shift over sigma^k images, k >= 2, as
    # initial_pairs walks it: the ancestor word v_k read as an unbounded
    # iterator on both sides. Each walk reads as many letters of each
    # iterator by its 300th item or its error
    try:
        rel = _relation(subst, kind)
    except ValueError:  # letter classes whose images disagree
        assume(False)
    longest = max(len(subst.apply((a,), k)) for a in range(subst.size))
    cap = data.draw(st.sampled_from(
        sorted({1, 2, longest - 1, longest, longest + 1, 400} - {0})))
    which = data.draw(st.sampled_from(WHICH))
    outcomes = []
    for walk in (oracles.reference_walk, engine._walk):
        reads = [[0], [0]]

        def counting(alphabet, tables, top, bottom, *rest, **heads):
            return walk(alphabet, tables, _counted(top, reads[0]),
                        _counted(bottom, reads[1]), *rest, **heads)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "WALK_LETTERS", _walk_letters(subst, k))
            patch.setattr(engine, "_walk", counting)
            outcomes.append((_drain(islice(
                engine._shift_walk(rel, shift, cap, which), 300)), reads))
    expected, got = outcomes
    assert got == expected, (cap, which)


# -- mutant gates: known-wrong walks that the differentials above catch -------

def _mutant(module, name, old, new):
    """The module's function `name` (Class.method for a method) with the
    one `old` in its source replaced by `new`, reading the module's
    globals, so that it reaches the module's other names as patched (a
    patched engine.children or engine._walk, say)."""
    target = functools.reduce(getattr, name.split("."), module)
    source = textwrap.dedent(inspect.getsource(target))
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"),
         namespace)
    built = namespace[target.__name__]
    built = getattr(built, "__func__", built)  # a staticmethod's function
    function = types.FunctionType(built.__code__, vars(module),
                                  target.__name__, built.__defaults__,
                                  built.__closure__)
    function.__kwdefaults__ = built.__kwdefaults__
    return function


MUTANTS = {
    "bottom cap check dropped": ("_walk", "and bottom < p <= bottom + cap:",
                                 "and bottom < p:"),
    "bottom slice one letter short": ("_walk", "p - bottom_from])))",
                                      "p - bottom_from - 1])))"),
    "starts at 0, not minus the head": (
        "children", "[(0, 0, heads[0][0], heads[1][0])]", "[(0, 0, 0, 0)]"),
    "head read one letter late": ("children",
                                  "tables.heads[word[0]][dropped]",
                                  "tables.heads[word[0]][dropped + 1]"),
    "tail read one letter late": ("children", "tables.heads[word[-1]][kept]",
                                  "tables.heads[word[-1]][kept - 1]"),
    "no origin keeps no letter of the last images": (
        "children", "Origin(pair, 0, (0, 0))",
        "Origin(pair, 0, (0, 0), (0, 0))"),
    "bottom head's state sign flipped": (
        "_walk", "b_state, b_length, b_first = -b_state,",
        "b_state, b_length, b_first = b_state,"),
    "run taken past the cap": ("_walk", "if run and run.step > cap:",
                               "if 0:"),
    "bottom low advanced before the window test": (
        "_walk", "while ahead is not None and b_length < end:",
        "while ahead is not None and b_length + lengths[ahead] < end:"),
    "known run skipped without the stop tests": (
        "initial_pairs", "elif item in known and (",
        "elif item in known or 0 * ("),
    "ancestor starts one letter early": ("_located", "word[first:",
                                         "word[max(first - 1, 0):"),
    "ancestor ends one letter late": ("_located", "last + 1]", "last + 2]"),
    "rerooted spells one level deep": ("_located", "depth - walk).images",
                                       "depth - walk + 1).images"),
    "start at an image's end kept in that image": (
        "_located", "if head == step[word[first]]:", "if 0:"),
}


def _linear_cases():
    """Pairs of short closures, with caps of 1-3 letters and one no
    component outgrows, for the linear oracle, and a pair whose second
    child is over a cap of 3 on its bottom side alone."""
    w = SUBSTS["third"].alphabet.word_from_text
    pair = BalancedPair(w("2223"), w("3222"))
    cases = [(SUBSTS["third"], _relation(SUBSTS["third"], "lambda"), pair,
              cap) for cap in (3, 24)]
    for name in ("third", "ex1", "three"):
        subst = SUBSTS[name]
        for kind in ("plain", "lambda"):
            rel = _relation(subst, kind)
            cases += [(subst, rel, pair, cap)
                      for pair in _closure_pairs(subst, rel)
                      for cap in (1, 2, 3, None)]
    return cases


def _linear_oracle(cases):
    for case in cases:
        got, expected = _children_outcomes(*case)
        assert got == expected, case[2:]


def _own_words(rel):
    budgets = Budgets(max_word_length=2000)
    try:
        got = engine.run_bpa(rel, b"\x00", budgets)
    except NotBalanced as exc:  # the closure over own words ends balanced
        raise AssertionError("run_bpa ends unbalanced") from exc
    expected = oracles.closure_by_own_words(rel, b"\x00", budgets)
    for field in CLOSURE_FIELDS:
        assert getattr(got, field) == getattr(expected, field), field


def _reference_location():
    # big-132's lambda closure from its manifest prefix: new pairs that
    # walk at their parent's depth plus one start at the end of an image
    # of the parent's ancestor, where reducible3's do not
    entry = next(entry for entry in json.loads(
        (BENCH_INPUTS / "closures.json").read_text())
        if entry["file"] == "big-132.sub")
    subst = parse_substitution((BENCH_INPUTS / entry["file"]).read_text())
    _assert_closure_matches_own_words(
        _relation(subst, "lambda"),
        subst.alphabet.word_from_text(entry["prefix"]), Budgets())


def _origin_contract(rel):
    # each Origin is checked as run_bpa hands it to children, before the
    # walk that a wrong one may end unbalanced
    depths = Counter()

    def checked(rel, pair, *, origin=None, **budget):
        depths.update(_assert_origins_hold_their_pairs(rel.subst,
                                                       [(pair, origin)]))
        return children(rel, pair, origin=origin, **budget)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "children", checked)
        engine.run_bpa(rel, b"\x00", Budgets(max_word_length=2000))
    # the check reached origins of depth 1 or more, whose heads a wrong
    # walk may misplace; a depth-0 origin drops no head
    assert depths.keys() - {0}


def _initial_split_stops():
    with pytest.MonkeyPatch.context() as patch:
        for name in sorted(RULES):
            for kind in ("plain", "lambda"):
                test_initial_pairs_stops_at_the_same_cut(name, kind, patch)


@pytest.mark.parametrize("mutant, caught_by", [
    ("bottom cap check dropped", "linear oracle"),
    ("bottom slice one letter short", "linear oracle"),
    ("starts at 0, not minus the head", "origin contract"),
    ("starts at 0, not minus the head", "own words"),
    ("head read one letter late", "own words"),
    ("head read one letter late", "linear oracle"),
    ("tail read one letter late", "own words"),
    ("tail read one letter late", "linear oracle"),
    ("no origin keeps no letter of the last images", "linear oracle"),
    ("bottom head's state sign flipped", "own words"),
    ("run taken past the cap", "shift split"),
    ("bottom low advanced before the window test", "reference walk"),
    ("known run skipped without the stop tests", "initial split stops"),
    ("ancestor starts one letter early", "own words"),
    ("ancestor ends one letter late", "own words"),
    ("rerooted spells one level deep", "own words"),
    ("start at an image's end kept in that image", "reference location"),
])
def test_a_wrong_walk_fails_a_differential(mutant, caught_by):
    # each differential holds on the engine as it is, and fails with the
    # mutant patched in. reducible3's plain closure under a 2000-letter
    # budget walks ancestors whose heads are not empty; on mt-rewrite the
    # mutant's walks end unbalanced instead, before any check. A run with
    # a step over the cap holds hits that may not be cuts (const-len's
    # runs at caps 1-7). A run the initial split skips past its stop
    # leaves the split to stop at a later cut, or on the other budget. A
    # head or a tail read one letter late from the running sums, or a
    # bottom head's state of the wrong sign, walks words that end
    # unbalanced, where the closure over own words ends balanced; a pair
    # with no origin reads its heads and tails from the same tables, so
    # the linear oracle's own-word calls catch those two, and a default
    # origin that keeps no letter of its last images. A start at 0 is
    # a depth-0 walk's own start, so only deeper walks catch it. A bottom
    # letter let in by where its image ends, not where it starts, enters
    # the window late, and the walk misses cuts the reference walk finds.
    # An ancestor located one letter off at either end, or spelled one
    # level too deep, walks letters whose images do not hold the pair where
    # its head and tail say: the closure differs or ends unbalanced. So do
    # the pairs located from a walk's start put at 0, not past the heads,
    # whose Origins the contract checks before they are walked. A pair
    # whose start cut ends an image, located in that image, walks the same
    # letters, but its Origin's first image holds none of it, and it is
    # not the reference location's
    rel = _relation(load_corpus("reducible3"), "plain")
    check = {"linear oracle": functools.partial(_linear_oracle,
                                                _linear_cases()),
             "own words": functools.partial(_own_words, rel),
             "origin contract": functools.partial(_origin_contract, rel),
             "reference location": _reference_location,
             "shift split": functools.partial(
                 test_shift_split_matches_split_of_two_streams, "const-len",
                 "plain"),
             "initial split stops": _initial_split_stops,
             "reference walk": test_walk_matches_reference_on_own_words,
             }[caught_by]
    check()
    name, old, new = MUTANTS[mutant]
    wrong = _mutant(engine, name, old, new)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, name, wrong)
        if name in globals():  # the engine name this module imported
            patch.setitem(globals(), name, wrong)
        with pytest.raises(AssertionError):
            check()
