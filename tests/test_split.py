"""The split routine against a naive quadratic reference.

The reference cuts at every (i, j) with top[:i] ~ bottom[:j], checked with
`Relation.word_equiv` on the two prefixes, and reads the components off
between consecutive cuts.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balpair.engine import BalancedPair, reduce_pair, run_bpa, split
from balpair.equivalence import LengthSpec, Relation
from balpair.errors import NotBalanced, ScanOverflow
from balpair.numberfield import NumberField
from balpair.substitution import parse_substitution

from conftest import count_calls, load_corpus

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
            if rel.word_equiv(top[:i], bottom[:j])]
    out = []
    i0 = j0 = 0
    for i, j in cuts:
        if max(i - i0, j - j0) > cap:
            raise ScanOverflow("component too long", which=which)
        out.append(BalancedPair(top[i0:i], bottom[j0:j]))
        i0, j0 = i, j
    if (i0, j0) != (len(top), len(bottom)):
        if max(len(top) - i0, len(bottom) - j0) > cap:
            raise ScanOverflow("remainder too long", which=which)
        raise NotBalanced("no cut at the end")
    return out


def _outcome(fn):
    try:
        return fn()
    except ScanOverflow as exc:
        return ("ScanOverflow", exc.which)
    except NotBalanced:
        return ("NotBalanced",)


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
