"""The split routine against a naive quadratic reference.

The reference cuts at every (i, j) with top[:i] ~ bottom[:j], checked with
`word_equiv` on the two prefixes, and reads the components off
between consecutive cuts.
"""

import functools
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balpair.engine import CHUNK, BalancedPair, run_bpa, split
from balpair.equivalence import LengthSpec, Relation
from balpair.errors import NotBalanced, ScanOverflow
from balpair.numberfield import NumberField
from balpair.substitution import fixed_point_stream, parse_substitution

from conftest import count_calls, load_corpus
from oracles import reduce_pair, word_equiv

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


def reference_split(rel, top, bottom, cap, which):
    cuts = [(i, j) for i in range(1, len(top) + 1)
            for j in range(1, len(bottom) + 1)
            if word_equiv(rel, top[:i], bottom[:j])]
    return list(_components(top, bottom, cuts, cap, which))


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


def linear_split(rel, top, bottom, cap, which):
    """The whole-word oracle, lazy like split."""
    return _components(top, bottom, linear_cuts(rel, top, bottom), cap, which)


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


def _outcome(fn):
    try:
        return fn()
    except ScanOverflow as exc:
        return ("ScanOverflow", exc.which)
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
def windows(draw):
    name = draw(st.sampled_from(sorted(SUBSTS)))
    rel = _relation(SUBSTS[name], draw(st.sampled_from(
        ("plain", "letters", "ones", "lambda"))))
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
    at different lengths."""
    name = draw(st.sampled_from(sorted(SUBSTS)))
    size = SUBSTS[name].size
    rel = _relation(SUBSTS[name], draw(st.sampled_from(
        ("plain", "letters", "ones", "lambda"))))
    groups = [g for g in equivalent_multisets(rel, size)
              if len({len(w) for w in g}) > 1]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    top, bottom = [], []
    for _ in range(draw(st.integers(50, 600))):
        if groups and rng.random() < 0.7:
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
