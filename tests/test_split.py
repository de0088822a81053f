"""The split routines against slower references.

The engine's cut loop, `_split`, reads blocks of CHUNK letters: the top
takes its blocks in order and the bottom is read ahead. The oracle `split`
runs it over two block readers, and is checked against a naive quadratic
reference, which cuts at every (i, j) with top[:i] ~ bottom[:j], checked
with `word_equiv` on the two prefixes, and reads the components off between
consecutive cuts, and against a linear whole-word one, on long words whose
bottom may run many blocks ahead, at caps below, at and above CHUNK.
`shift_split`, the one-pass split of a fixed word against its own shift, is
checked against `split` of the two streams, and `initial_pairs` against the
same loop over `split`. `children`, the parent-letter walk over image
tables, is checked against the linear split of the whole images.
"""

import functools
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balpair.engine import (CHUNK, BalancedPair, Budgets, children,
                            initial_pairs, run_bpa, shift_split)
from balpair.equivalence import LengthSpec, Relation
from balpair.errors import NotBalanced, ScanOverflow, StabilityNotReached
from balpair.numberfield import NumberField
from balpair.substitution import fixed_point_stream, parse_substitution

import oracles
from conftest import count_calls, load_corpus
from oracles import (initial_pairs_two_streams, linear_cuts, linear_split,
                     reduce_pair, reference_split, split)

RULES = {
    "ex1": "1 -> 112\n2 -> 12",  # lambda = (3 + sqrt 5) / 2
    "tribonacci": "1 -> 12\n2 -> 13\n3 -> 1",  # cubic lambda
    "exnoncon": "1 -> 31\n2 -> 412\n3 -> 312\n4 -> 412",
    "const-len": "1 -> 112\n2 -> 122",  # rational lambda = 3
    "three": "1 -> 112\n2 -> 2321\n3 -> 12",
    # lambda = (3 + sqrt 13) / 2 with lengths (1, 1 / (3 lambda), 1 / 3):
    # one letter's lambda-length is rational but not dyadic
    "third": "1 -> 121212\n2 -> 3\n3 -> 12",
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
    top, bottom = tuple(top[:40]), tuple(bottom[:40])
    cap = draw(st.integers(1, max(len(top), len(bottom), 1) + 1))
    return rel, top, bottom, cap, draw(st.sampled_from(WHICH))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_split_matches_reference(case):
    rel, top, bottom, cap, which = case
    expected = _outcome(lambda: reference_split(rel, top, bottom, cap, which))
    got = _outcome(lambda: list(split(rel, top, bottom, cap, which)))
    assert got == expected


def test_lambda_rational_non_dyadic_length_is_enclosed():
    # 3331 ~ 11 under lambda: the length 1/3 of letter 3 has no exact
    # floor(2^64 * l), so its enclosure must not have width zero
    rel = Relation.generalized(SUBSTS["third"], LengthSpec.pf())
    assert reduce_pair(rel, (2, 2, 2, 0), (0, 0)) == [
        BalancedPair((2, 2, 2), (0,)), BalancedPair((0,), (0,))]


@pytest.mark.parametrize("name", ["ex1", "pisot-rewrite"])
def test_lambda_closure_decides_no_sign(monkeypatch, name):
    subst = load_corpus(name)
    perron = subst.spectrum().perron
    before = perron.interval
    relation_signs = count_calls(monkeypatch, Relation, "sign_of_scaled")
    field_signs = count_calls(monkeypatch, NumberField, "sign_of")
    rel = Relation.generalized(subst, LengthSpec.pf())
    outcome = run_bpa(subst, rel, (0,))
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


# -- the chunked read: long windows of fixed words ---------------------------

CAPS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK + 1, 10_000)


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
    and 1000, scaled 2^70 apart or not as in relations(): then one top block
    may be longer than many bottom blocks, which the bottom reads ahead."""
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


@st.composite
def windows(draw):
    name = draw(st.sampled_from(sorted(SUBSTS)))
    rel = draw(long_relations(SUBSTS[name]))
    word = fixed_word(name)
    start = draw(st.integers(0, 2000))
    shift = draw(st.integers(0, 400))  # a long shift makes long components
    top = word[start:start + draw(st.integers(300, 3000))]
    bottom = word[start + shift:start + shift + draw(st.integers(300, 3000))]
    if draw(st.booleans()):  # end both words at their last cut
        cuts = linear_cuts(rel, top, bottom)
        if cuts:
            top, bottom = top[:cuts[-1][0]], bottom[:cuts[-1][1]]
    return rel, top, bottom, draw(st.sampled_from(CAPS))


@settings(max_examples=150, deadline=None)
@given(windows())
def test_split_of_long_windows_matches_linear_oracle(case):
    rel, top, bottom, cap = case
    expected = _drain(linear_split(rel, top, bottom, cap, "max_word_length"))
    assert _drain(split(rel, top, bottom, cap)) == expected


@st.composite
def uneven_blocks(draw):
    """Long balanced words from equivalent blocks, of different letter
    counts where the relation has them, so that the two sides' chunks end
    at different lengths. Now and then a long stretch is lighter on the
    bottom, so the bottom reads ahead over many blocks: the shortest word of
    a group repeated against its longest, or one letter against a long run
    of another, under skewed lengths."""
    name = draw(st.sampled_from(sorted(SUBSTS)))
    size = SUBSTS[name].size
    rel = draw(long_relations(SUBSTS[name]))
    groups = [g for g in equivalent_multisets(rel, size)
              if len({len(w) for w in g}) > 1]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    top, bottom = [], []
    for _ in range(draw(st.integers(50, 600))):
        roll = rng.random()
        if roll < 0.01 and groups:  # fewer letters a cut on the top
            group = sorted(rng.choice(groups), key=len)
            count = rng.randint(CHUNK // 2, 2 * CHUNK)
            top += group[0] * count
            bottom += group[-1] * count
            continue
        if roll < 0.02:
            a, b = rng.sample(range(size), 2)
            run = [b] * rng.randint(CHUNK, 8 * CHUNK)
            top += [a] + run
            bottom += run + [a]
            continue
        if groups and roll < 0.7:
            group = rng.choice(groups)
            blocks = [rng.choice(group), rng.choice(group)]
        else:
            blocks = [[rng.randrange(size) for _ in range(rng.randint(1, 4))]]
            blocks.append(blocks[0])
        for side, block in zip((top, bottom), blocks):
            block = list(block)
            rng.shuffle(block)
            side += block
    return rel, tuple(top), tuple(bottom), draw(st.sampled_from(CAPS))


@settings(max_examples=100, deadline=None)
@given(uneven_blocks())
def test_split_of_uneven_blocks_matches_linear_oracle(case):
    rel, top, bottom, cap = case
    expected = _drain(linear_split(rel, top, bottom, cap, "max_word_length"))
    assert _drain(split(rel, top, bottom, cap)) == expected


def _counted(letters, tally):
    for letter in letters:
        tally[0] += 1
        yield letter


@pytest.mark.parametrize("kind", ["plain", "letters", "ones", "lambda"])
@pytest.mark.parametrize("name", ["ex1", "tribonacci", "three"])
def test_split_of_infinite_streams_is_lazy(name, kind):
    # u against its shift by 3, as initial_pairs reads it: the components
    # of finite words are the head of the components of the streams
    rel = _relation(SUBSTS[name], kind)
    word, cap = fixed_word(name), 2 * CHUNK + 1
    head, _error = _drain(split(rel, word[:4000], word[3:4000], cap))
    assert len(head) > 10
    stream = fixed_point_stream(SUBSTS[name])
    read_top, read_bottom = [0], [0]
    lazy = split(rel, _counted(stream.letters(0), read_top),
                 _counted(stream.letters(3), read_bottom), cap)
    assert list(islice(lazy, len(head))) == head
    # no side reads more than cap + 1 letters past the last cut
    assert read_top[0] <= sum(len(p.top) for p in head) + cap + 1
    assert read_bottom[0] <= sum(len(p.bottom) for p in head) + cap + 1
    # shift_split reads u once. Past the last cut the top finishes its
    # block of under CHUNK letters, and u is read on until a block's bottom
    # prefixes outgrow that block: at most ratio bottom letters for each
    # top letter, and one more block
    read = [0]
    letters = stream.letters
    stream.letters = lambda start: _counted(letters(start), read)
    lazy = shift_split(rel, stream, 3, cap)
    assert list(islice(lazy, len(head))) == head
    ratio = -(-max(rel.length_high) // min(rel.length_low))
    last_cut = 3 + sum(len(p.bottom) for p in head)
    assert read[0] <= last_cut + (ratio + 1) * CHUNK
    # below CHUNK the blocks, not the cap, bound the read of split too: past
    # the last cut the top finishes its block, and the bottom reads at most
    # ratio letters for each of those and one more block
    for cap in (1, CHUNK - 1):
        head, error = _drain(split(rel, word[:4000], word[3:4000], cap))
        read_top, read_bottom = [0], [0]
        lazy = split(rel, _counted(letters(0), read_top),
                     _counted(letters(3), read_bottom), cap)
        assert list(islice(lazy, len(head))) == head
        assert read_top[0] <= sum(len(p.top) for p in head) + CHUNK
        assert read_bottom[0] <= (sum(len(p.bottom) for p in head)
                                  + (ratio + 1) * CHUNK)
        if cap == 1:  # an early overflow, the same on unending streams
            assert _drain(lazy) == ([], error)


def test_one_long_component_keeps_a_bounded_window():
    # a^N b against b a^N is one plain component whose 2N prefix states
    # all differ. The split holds the pending letters and the output, 8
    # bytes a letter in lists and tuples, and a window of O(CHUNK) prefix
    # states: its peak measured 8.2 MB on CPython 3.11. A dict of each
    # side's prefix states over the whole component, as a whole-component
    # join keeps, measured 50 MB.
    n = 200_000
    rel = Relation.plain(SUBSTS["ex1"])
    top, bottom = (0,) * n + (1,), (1,) + (0,) * n
    tracemalloc.start()
    try:
        [pair] = split(rel, top, bottom, n + 1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair == BalancedPair(top, bottom)
    assert peak < 12_000_000
    # u = 1 2 2 2 ... against its shift by one never cuts, so shift_split
    # reads n + 1 letters of u into one component. It holds those letters,
    # once for each side, and a few blocks of prefix states: its peak
    # measured 4.3 MB on CPython 3.11.
    stream = fixed_point_stream(parse_substitution("1 -> 12\n2 -> 22"))
    stream.prefix(n + 4 * CHUNK)  # the fixed word itself is not counted
    tracemalloc.start()
    try:
        with pytest.raises(ScanOverflow):
            next(shift_split(rel, stream, 1, n))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


# -- the fixed word against its own shift -------------------------------------

SHIFT_CAPS = (1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 400)


def _shift_outcomes(subst, rel, shift, cap, which, count):
    """The first `count` components of u against its shift by `shift`, and
    the error that ends them, from split of two streams and shift_split."""
    stream = fixed_point_stream(subst)
    two = split(rel, stream.letters(0), stream.letters(shift), cap, which)
    one = shift_split(rel, fixed_point_stream(subst), shift, cap, which)
    return _drain(islice(two, count)), _drain(islice(one, count))


@pytest.mark.parametrize("kind", ["plain", "letters", "ones", "lambda"])
@pytest.mark.parametrize("name", sorted(RULES))
def test_shift_split_matches_split_of_two_streams(name, kind):
    subst = SUBSTS[name]
    rel = _relation(subst, kind)
    for shift in range(1, 13):
        for cap in SHIFT_CAPS:
            for which in WHICH:
                expected, got = _shift_outcomes(subst, rel, shift, cap,
                                                which, 600)
                assert got == expected, (shift, cap, which)


@st.composite
def primitive_substitutions(draw, longest=4):
    size = draw(st.integers(2, 4))
    images = st.lists(st.integers(0, size - 1), min_size=1, max_size=longest)
    rules = draw(st.lists(images, min_size=size, max_size=size))
    text = "".join(f"{i + 1} -> {''.join(str(a + 1) for a in image)}\n"
                   for i, image in enumerate(rules))
    subst = parse_substitution(text)
    assume(subst.is_primitive())
    return subst


@settings(max_examples=150, deadline=None)
@given(primitive_substitutions(), st.sampled_from(
    ("plain", "letters", "ones", "lambda")), st.integers(1, 12),
    st.sampled_from(SHIFT_CAPS), st.sampled_from(WHICH))
def test_shift_split_of_random_substitutions(subst, kind, shift, cap, which):
    try:
        rel = _relation(subst, kind)
    except ValueError:  # letter classes whose images disagree
        assume(False)
    expected, got = _shift_outcomes(subst, rel, shift, cap, which, 600)
    assert got == expected


def _scan_stops(subst, rel, w, window, monkeypatch):
    """Letters scanned at each cut up to the window stop of the reference,
    with no scan budget in the way."""
    scanned = [0]

    def counted(*args):
        for component in split(*args):
            scanned.append(scanned[-1] + len(component.top))
            yield component

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "split", counted)
        initial_pairs_two_streams(
            subst, rel, w, Budgets(split_stability_window=window))
    return scanned[1:]


@pytest.mark.parametrize("kind", ["plain", "lambda"])
@pytest.mark.parametrize("name", sorted(RULES))
def test_initial_pairs_stops_at_the_same_cut(name, kind, monkeypatch):
    # the window stop and the scan stop, each at, just before and just
    # after the cut where the two-stream reference stops; a scan budget
    # below the longest component also caps the split
    subst = SUBSTS[name]
    rel = _relation(subst, kind)
    w = fixed_word(name)[:2]
    for window in (1, 40, 500):
        scanned = _scan_stops(subst, rel, w, window, monkeypatch)
        limits = {1, 2, 3} | {n + d for n in scanned[-3:] for d in (-1, 0, 1)}
        for max_scan_length in sorted(limits):
            budgets = Budgets(split_stability_window=window,
                              max_scan_length=max_scan_length)
            expected = _outcome(lambda: initial_pairs_two_streams(
                subst, rel, w, budgets))
            got = _outcome(lambda: initial_pairs(subst, rel, w, budgets))
            assert got == expected, (window, max_scan_length)


# -- the closure's children ---------------------------------------------------

def _children_outcomes(subst, rel, pair, cap):
    """children of the pair, and the linear split of the whole images at
    the same cap, each as its list of components or its error."""
    top, bottom = subst.apply(pair.top), subst.apply(pair.bottom)
    whole = cap
    if whole is None:
        whole = (max(len(pair.top), len(pair.bottom))
                 * max(map(len, subst.rules)))
    expected = _outcome(lambda: list(linear_split(rel, top, bottom, whole,
                                                  "max_word_length")))
    got = _outcome(lambda: children(subst, rel, pair, max_word_length=cap))
    return got, expected


def _closure_pairs(subst, rel):
    """The pairs of a short closure from the fixed word's first letter."""
    budgets = Budgets(max_iterations=4, max_pairs=60, max_word_length=80)
    return run_bpa(subst, rel, fixed_point_stream(subst).prefix(1),
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


@settings(max_examples=300, deadline=None)
@given(children_cases())
def test_children_matches_linear_oracle(case):
    got, expected = _children_outcomes(*case)
    assert got == expected


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
        pairs = [BalancedPair((0, 1), (1, 0)),
                 BalancedPair((0, 0, 1, 1), (1, 0, 1, 0)),
                 BalancedPair((0, 1), (0, 0))]
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
    pair = BalancedPair((0,), (1,))
    for cap, outcome in ((2, ("ScanOverflow", "max_word_length")),
                         (4, ("NotBalanced",))):
        got, expected = _children_outcomes(subst, rel, pair, cap)
        assert got == expected == outcome


def test_children_stop_reading_at_an_overflow():
    # a^N b against b a^N: once the top is more than cap letters past its
    # last cut, the walk raises without reading the rest of either parent
    class Counted(tuple):
        read = 0  # the most letters any one reader has taken

        def __iter__(self):
            for read, letter in enumerate(tuple.__iter__(self), 1):
                self.read = max(self.read, read)
                yield letter

    n, cap = 10_000, 50
    subst = SUBSTS["const-len"]
    top, bottom = Counted((0,) * n + (1,)), Counted((1,) + (0,) * n)
    with pytest.raises(ScanOverflow):
        children(subst, Relation.plain(subst), BalancedPair(top, bottom),
                 max_word_length=cap)
    assert top.read <= cap + 2 and bottom.read <= cap + 2


def test_children_of_a_growth_pair_keep_a_bounded_peak():
    # const-len under plain balance grows a pair about x3 an iteration. Its
    # longest pair under a 20 000-letter budget has 19 684 letters a side,
    # and its middle child 59 050. The walk holds the pending component's
    # letters and the output: its peak measured 2.4 MB on CPython 3.11, and
    # the block split of the streamed images it replaced 2.5 MB. A join of
    # the whole images, the two images and a packed prefix-state dict per
    # side, measured 14 MB.
    subst = parse_substitution("1 -> 112\n2 -> 122")
    rel = Relation.plain(subst)
    closure = run_bpa(subst, rel, (0,), Budgets(max_word_length=20_000))
    assert closure.which == "max_word_length"
    pair = max(closure.vertices, key=lambda p: len(p.top))
    assert len(pair.top) == 19_684
    tracemalloc.start()
    try:
        kids = children(subst, rel, pair)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(kid.top) for kid in kids] == [1, 59_050, 1]
    assert peak < 3_750_000
