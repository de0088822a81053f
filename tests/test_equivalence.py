import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balpair.equivalence import (LengthSpec, Relation, letter_equiv_classes,
                                 resolve_length_vector)
from balpair.numberfield import FieldScalar
from balpair.substitution import parse_substitution

from oracles import in_pf_kernel, mat_vec, ones_letter_classes, word_equiv


@pytest.fixture(scope="module")
def three():
    return parse_substitution("1 -> 112\n2 -> 2321\n3 -> 12")


@pytest.fixture(scope="module")
def noncon():
    return parse_substitution("1 -> 31\n2 -> 412\n3 -> 312\n4 -> 412")


def test_letter_classes_examples(noncon):
    assert letter_equiv_classes(noncon) == ((0,), (1, 2, 3))
    constlen = parse_substitution("1 -> 112\n2 -> 122")
    assert letter_equiv_classes(constlen) == ((0, 1),)
    ex1 = parse_substitution("1 -> 112\n2 -> 12")
    assert letter_equiv_classes(ex1) == ((0,), (1,))


@st.composite
def substitutions(draw, primitive):
    size = draw(st.integers(2, 5))
    images = st.lists(st.integers(0, size - 1), min_size=1, max_size=4)
    rules = draw(st.lists(images, min_size=size, max_size=size))
    text = "".join(f"{i + 1} -> {''.join(str(a + 1) for a in image)}\n"
                   for i, image in enumerate(rules))
    subst = parse_substitution(text)
    assume(subst.is_primitive() == primitive)
    return subst


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(substitutions))
def test_letter_classes_match_the_ones_relation(subst):
    assert letter_equiv_classes(subst) == ones_letter_classes(subst)


def test_letter_partition_must_be_respected_by_sigma():
    # 1 and 4 have equal iterated image lengths, but sigma(1) = 414 has
    # class counts (3, 0, 0) and sigma(4) = 213 has (1, 1, 1)
    subst = parse_substitution("1 -> 414\n2 -> 41\n3 -> 1411\n4 -> 213")
    assert letter_equiv_classes(subst) == ((0, 3), (1,), (2,))
    with pytest.raises(ValueError, match="letters 1 and 4 share a class"):
        Relation.letter_classes(subst)


def test_length_spec_parsing():
    assert LengthSpec.parse("ones").kind == "ones"
    assert LengthSpec.parse("lambda").kind == "lambda"
    custom = LengthSpec.parse("4,2,5,4")
    assert custom.values == (4, 2, 5, 4)
    assert LengthSpec.parse("1/2,1,3").values == (Fraction(1, 2), 1, 3)
    with pytest.raises(ValueError):
        LengthSpec.parse("1,x")


def test_resolve_length_vector(three):
    ones = resolve_length_vector(three, LengthSpec.ones())
    assert ones == (1, 1, 1)
    lam = resolve_length_vector(three, LengthSpec.pf())
    assert lam[0] == 1
    assert lam[1].coeffs == (Fraction(-2), Fraction(1))  # (-1+sqrt13)/2
    assert lam[2].coeffs == (Fraction(4), Fraction(-1))  # (5-sqrt13)/2
    custom = resolve_length_vector(three, LengthSpec.custom([1, 1, 2]))
    assert custom == (1, 1, 2)
    with pytest.raises(ValueError):
        resolve_length_vector(three, LengthSpec.custom([1, 0, 2]))
    with pytest.raises(ValueError):
        resolve_length_vector(three, LengthSpec.custom([1, 1]))


def test_word_equiv_examples(three):
    w = three.alphabet.word_from_text
    lam = Relation.generalized(three, LengthSpec.pf())
    assert word_equiv(lam, w("11"), w("23"))
    custom = Relation.generalized(three, LengthSpec.custom([1, 1, 2]))
    assert not word_equiv(custom, w("11"), w("23"))
    assert word_equiv(custom, w("12"), w("12"))  # reflexivity

    mt = parse_substitution("1 -> 1234\n2 -> 124\n3 -> 13234\n4 -> 1324")
    wm = mt.alphabet.word_from_text
    rel = Relation.generalized(mt, LengthSpec.pf())
    assert word_equiv(rel, wm("124"), wm("33"))


def test_length_of_examples(three):
    w = three.alphabet.word_from_text
    cases = [
        (Relation.generalized(three, LengthSpec.ones()), "112", 3, Fraction),
        (Relation.plain(three), "112", 3, Fraction),
        (Relation.generalized(three, LengthSpec.custom([1, 1, 2])), "23", 3,
         Fraction),
        # exact after field reduction
        (Relation.generalized(three, LengthSpec.pf()), "23", 2, FieldScalar),
    ]
    for rel, text, expected, scalar in cases:
        # the empty word too: a report prints a lambda length as a field
        # element, never as a plain 0
        for word, value in ((w(text), expected), ((), 0)):
            length = rel.length_of(word)
            assert type(length) is scalar, (rel.spec.label(), word)
            assert length == value


def test_in_pf_kernel(three, noncon):
    assert in_pf_kernel(three, (2, -1, -1))
    assert not in_pf_kernel(three, (1, 0, 0))
    assert in_pf_kernel(noncon, (0, 0, 1, -1))


def random_words(rng, n, count, max_len=8):
    return [tuple(rng.randrange(n) for _ in range(rng.randint(1, max_len)))
            for _ in range(count)]


def test_equivalence_axioms(three):
    rng = random.Random(11)
    rels = [Relation.plain(three),
            Relation.letter_classes(three),
            Relation.generalized(three, LengthSpec.pf()),
            Relation.generalized(three, LengthSpec.custom([1, 1, 2]))]
    words = random_words(rng, three.size, 30)
    for rel in rels:
        for u in words[:10]:
            assert word_equiv(rel, u, u)
        for u in words:
            for v in words[:10]:
                assert word_equiv(rel, u, v) == word_equiv(rel, v, u)
        # transitivity on permuted triples (guaranteed equivalent)
        for u in words[:10]:
            perm1 = tuple(sorted(u))
            perm2 = tuple(reversed(sorted(u)))
            if word_equiv(rel, u, perm1) and word_equiv(rel, perm1, perm2):
                assert word_equiv(rel, u, perm2)


def test_concatenation_linearity(three):
    # if u ~ v and prefixes u' ~ v', then the suffixes are equivalent
    rng = random.Random(13)
    rel = Relation.generalized(three, LengthSpec.pf())
    checked = 0
    for _ in range(500):
        u = tuple(rng.randrange(3) for _ in range(8))
        v = tuple(rng.sample(u, len(u)))  # permutation: plainly balanced
        cut_u = rng.randint(1, 7)
        cut_v = rng.randint(1, 7)
        if word_equiv(rel, u[:cut_u], v[:cut_v]):
            assert word_equiv(rel, u[cut_u:], v[cut_v:])
            checked += 1
    assert checked > 10


def test_substitution_invariance(three, corpus):
    rng = random.Random(17)
    for subst in corpus.values():
        rels = [Relation.plain(subst),
                Relation.letter_classes(subst),
                Relation.generalized(subst, LengthSpec.pf()),
                Relation.generalized(subst, LengthSpec.ones())]
        word = subst.alphabet.word
        for _ in range(40):
            u = word(rng.randrange(subst.size) for _ in range(6))
            v = word(rng.sample(u, len(u)))
            for rel in rels:
                if word_equiv(rel, u, v):
                    assert word_equiv(rel, subst.apply(u), subst.apply(v))
    # pairs that are equivalent without sharing a population vector
    w3 = three.alphabet.word_from_text
    lam3 = Relation.generalized(three, LengthSpec.pf())
    u, v = w3("11"), w3("23")
    for _ in range(4):
        assert word_equiv(lam3, u, v)
        u, v = three.apply(u), three.apply(v)
    mt = parse_substitution("1 -> 1234\n2 -> 124\n3 -> 13234\n4 -> 1324")
    wm = mt.alphabet.word_from_text
    lamm = Relation.generalized(mt, LengthSpec.pf())
    u, v = wm("124"), wm("33")
    for _ in range(4):
        assert word_equiv(lamm, u, v)
        u, v = mt.apply(u), mt.apply(v)


def test_contained_in_lambda_relation(three):
    # E(L) subset of E(L_lambda) on permuted pairs plus random pairs
    rng = random.Random(19)
    lam = Relation.generalized(three, LengthSpec.pf())
    for values in [(1, 1, 2), (2, 3, 1), (Fraction(1, 2), 1, 3)]:
        rel = Relation.generalized(three, LengthSpec.custom(values))
        for _ in range(60):
            u = tuple(rng.randrange(3) for _ in range(rng.randint(1, 8)))
            v = (tuple(rng.sample(u, len(u))) if rng.random() < 0.5
                 else tuple(rng.randrange(3) for _ in range(len(u))))
            if word_equiv(rel, u, v):
                assert word_equiv(lam, u, v)


def diff_equiv(rel, z):
    """The truncated (m <= n-1) equivalence test on a difference vector."""
    acc = [0] * rel.eq_dim
    for letter, count in enumerate(z):
        for t, val in enumerate(rel.letter_eq[letter]):
            acc[t] += count * val
    return not any(acc)


def brute_equiv(rel, a, z, horizon):
    """L . A^m z == 0 for every m up to the horizon, exactly from the lengths."""
    current = tuple(z)
    for _ in range(horizon + 1):
        if sum(length * count
               for length, count in zip(rel.lengths, current)) != 0:
            return False
        current = mat_vec(a, current)
    return True


def test_truncated_test_matches_brute_force(three):
    # m <= n-1 suffices by Cayley-Hamilton; compare against m <= 50
    rng = random.Random(23)
    n = three.size
    a = three.transition_matrix()
    rel = Relation.generalized(three, LengthSpec.pf())
    rel1 = Relation.generalized(three, LengthSpec.custom([1, 1, 2]))
    for _ in range(150):
        z = tuple(rng.randint(-6, 6) for _ in range(n))
        for relation in (rel, rel1):
            assert diff_equiv(relation, z) == brute_equiv(relation, a, z, 50)


def test_lambda_scaling_of_lengths(three):
    rel = Relation.generalized(three, LengthSpec.pf())
    nf = three.spectrum().perron
    lam = nf.element((0, 1))
    rng = random.Random(29)
    for _ in range(30):
        w = three.alphabet.word(rng.randrange(3)
                                for _ in range(rng.randint(1, 6)))
        assert rel.length_of(three.apply(w)) == lam * rel.length_of(w)
