import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balpair.errors import NoExpandingFixedPoint, RuleSyntaxError
from balpair.linalg import mat_mul
from balpair.substitution import (Alphabet, Substitution,
                                  admissible_prefixes, auto_prefixes,
                                  fixed_point_stream, parse_substitution)

from oracles import (clone, mat_vec, primitive_by_powers, render_rules,
                     substitution_power)


def test_parse_basic():
    subst = parse_substitution("1 -> 112\n2 -> 12")
    assert subst.alphabet.tokens == ("1", "2")
    assert subst.rules == (b"\x00\x00\x01", b"\x00\x01")


def test_parse_empty_image():
    with pytest.raises(RuleSyntaxError) as exc:
        parse_substitution("1 ->\n")
    assert "empty image" in str(exc.value)
    assert exc.value.line == 1


def test_parse_tokenized():
    subst = parse_substitution("x -> x y\ny -> y x")
    assert subst.alphabet.tokens == ("x", "y")
    assert subst.rules == (b"\x00\x01", b"\x01\x00")
    # single-character tokens render jammed; multi-character ones spaced
    assert subst.alphabet.render((0, 1)) == "xy"
    wide = parse_substitution("ab -> ab cd\ncd -> cd ab")
    assert wide.alphabet.render((0, 1)) == "ab cd"
    assert wide.alphabet.word_from_text("ab cd") == b"\x00\x01"


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((
    tuple("123456789abcdefghijklmnopqrstuvwxyz"),  # joined ASCII, bytes path
    ("ab", "cd", "e", "fgh"),  # multi-character, spaced
    ("\u03b1", "\u03b2", "\u03b3", "1"),  # non-ASCII single characters
)).flatmap(lambda tokens: st.tuples(
    st.just(tokens), st.lists(st.integers(0, len(tokens) - 1)))))
def test_render_matches_the_token_join(case):
    tokens, word = case
    alphabet = Alphabet(tokens)
    sep = "" if all(len(t) == 1 for t in tokens) else " "
    assert alphabet.render(alphabet.word(word)) == sep.join(tokens[i]
                                                          for i in word)


def test_parse_comments_and_errors():
    subst = parse_substitution("# heading\n1 -> 12 # trailing\n2 -> 1\n")
    assert subst.rules == (b"\x00\x01", b"\x00")
    with pytest.raises(RuleSyntaxError):
        parse_substitution("1 -> 13\n2 -> 1\n")  # unknown letter 3
    with pytest.raises(RuleSyntaxError):
        parse_substitution("1 => 11\n")
    with pytest.raises(RuleSyntaxError):
        parse_substitution("1 -> 1\n1 -> 11\n")  # duplicate lhs


def test_an_int_is_not_a_word():
    # bytes(2) would be two copies of letter 0
    alphabet = Alphabet("ab")
    assert alphabet.word_of([1, 0]) == b"\x01\x00"
    with pytest.raises(TypeError):
        alphabet.word_of(2)
    with pytest.raises(TypeError):
        Substitution(alphabet, [2, (0, 1)])
    subst = parse_substitution("1 -> 112\n2 -> 12")
    with pytest.raises(TypeError):
        subst.apply(1, 0)


def test_apply():
    subst = parse_substitution("1 -> 112\n2 -> 12")
    w = subst.alphabet.word_from_text
    assert subst.apply(w("1")) == w("112")
    assert subst.apply(w("12")) == w("11212")
    assert subst.apply(w("12"), 0) == w("12")


def test_population_vector():
    subst = parse_substitution("1 -> 112\n2 -> 12")
    assert subst.population_vector((0, 0, 1)) == (2, 1)
    assert subst.population_vector(()) == (0, 0)
    four = parse_substitution("1 -> 12\n2 -> 23\n3 -> 34\n4 -> 41")
    assert four.population_vector(four.alphabet.word_from_text("13234")) == \
        (1, 1, 2, 1)


def test_transition_matrix():
    assert parse_substitution("1 -> 112\n2 -> 12").transition_matrix() == \
        ((2, 1), (1, 1))
    assert parse_substitution("1 -> 112\n2 -> 2321\n3 -> 12").transition_matrix() == \
        ((2, 1, 1), (1, 2, 1), (0, 1, 0))
    ident = parse_substitution("1 -> 1\n2 -> 2")
    assert ident.transition_matrix() == ((1, 0), (0, 1))


def test_is_primitive():
    assert parse_substitution("1 -> 112\n2 -> 12").is_primitive()
    assert not parse_substitution("1 -> 11\n2 -> 22").is_primitive()
    assert parse_substitution(
        "1 -> 31\n2 -> 412\n3 -> 312\n4 -> 412").is_primitive()


def test_a_long_cycle_decides_primitivity_quickly():
    # a_i -> a_(i+1), the last letter -> a_0 a_1: primitive, and its
    # least positive power has an exponent near Wielandt's bound, so a
    # loop over every power takes about n^5 steps (25.9 s at n = 50)
    n = 50
    rules = [(a + 1,) for a in range(n - 1)] + [(0, 1)]
    subst = Substitution(Alphabet([f"a{a}" for a in range(n)]), rules)
    start = time.perf_counter()
    assert subst.is_primitive()
    assert time.perf_counter() - start < 1


def test_permutations_and_reducible_inputs_are_not_primitive():
    assert not parse_substitution("1 -> 2\n2 -> 1").is_primitive()
    assert not parse_substitution("1 -> 12\n2 -> 2").is_primitive()
    assert parse_substitution("1 -> 1").is_primitive()


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
    min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_primitivity_matches_every_power(rules):
    subst = Substitution(Alphabet([str(a) for a in range(len(rules))]),
                         rules)
    assert subst.is_primitive() == primitive_by_powers(
        subst.transition_matrix())


def test_is_constant_length():
    assert parse_substitution("1 -> 112\n2 -> 122").is_constant_length()
    assert not parse_substitution("1 -> 112\n2 -> 12").is_constant_length()
    assert not parse_substitution(
        "1 -> 31\n2 -> 412\n3 -> 312\n4 -> 412").is_constant_length()


def test_fixed_point_examples():
    ex1 = parse_substitution("1 -> 112\n2 -> 12")
    stream = fixed_point_stream(ex1)
    assert (stream.power, stream.seed) == (1, 0)
    assert ex1.alphabet.render(stream.prefix(11)) == "11211212112"

    noncon = parse_substitution("1 -> 31\n2 -> 412\n3 -> 312\n4 -> 412")
    stream = fixed_point_stream(noncon)
    assert (stream.power, stream.seed) == (1, 2)
    assert noncon.alphabet.render(stream.prefix(3)) == "312"

    with pytest.raises(NoExpandingFixedPoint):
        fixed_point_stream(parse_substitution("1 -> 2\n2 -> 1"))


def test_fixed_point_needs_power_two():
    # first letters swap, so only phi^2 fixes a letter
    subst = parse_substitution("1 -> 21\n2 -> 112")
    stream = fixed_point_stream(subst)
    assert stream.power == 2
    prefix = stream.prefix(6)
    assert subst.apply(prefix, 2)[:6] == prefix


@pytest.mark.parametrize("text, power", [
    ("1 -> 112\n2 -> 12", 1),
    ("1 -> 21\n2 -> 112", 2),
    ("1 -> 21\n2 -> 31\n3 -> 123", 3),  # first letters cycle 1, 2, 3
])
def test_ancestors_map_onto_the_fixed_word(text, power):
    # u = sigma^k(v_k) for each k, with v_k fixed by sigma^power; v_k is u
    # itself when power divides k
    subst = parse_substitution(text)
    stream = fixed_point_stream(subst)
    assert stream.power == power
    u = stream.prefix(300)
    for k in range(1, 2 * power + 1):
        ancestor = stream.ancestor(k)
        assert ancestor.power == power
        assert (ancestor is stream) == (k % power == 0)
        assert ancestor is stream.ancestor(k)  # built once
        assert ancestor is stream.ancestor(k + power)
        v = ancestor.prefix(300)
        assert subst.apply(v, k)[:300] == u
        assert subst.apply(v, power)[:300] == v


def test_prefix_stability():
    subst = parse_substitution("1 -> 112\n2 -> 12")
    stream = fixed_point_stream(subst)
    p5 = stream.prefix(5)
    p40 = stream.prefix(40)
    assert p40[:5] == p5
    assert subst.apply(p5)[:5] == p5


def test_letters_iterator_and_clone():
    subst = parse_substitution("1 -> 112\n2 -> 12")
    stream = fixed_point_stream(subst)
    it = stream.letters(2)
    head = [next(it) for _ in range(4)]
    assert subst.alphabet.word(head) == stream.prefix(6)[2:]
    twin = clone(stream)
    assert twin.prefix(10) == stream.prefix(10)


def test_interleaved_readers_across_buffer_growths():
    # as initial_pairs reads u against its shift: two readers of one stream
    # at different offsets, each growing the buffer under the other
    subst = parse_substitution("1 -> 112\n2 -> 12")
    stream, reference = fixed_point_stream(subst), fixed_point_stream(subst)
    readers = {0: stream.letters(0), 7: stream.letters(7)}
    read = dict.fromkeys(readers, 0)
    sizes = []
    for step in range(400):
        offset = (0, 7)[step % 2]
        for _ in range(1 + step % 11):
            i = offset + read[offset]
            assert next(readers[offset]) == reference.letter(i), (offset, i)
            read[offset] += 1
        sizes.append(len(stream._buffer))
    assert len(set(sizes)) >= 5  # the buffer was replaced several times


def test_admissible_prefixes():
    ex1 = parse_substitution("1 -> 112\n2 -> 12")
    stream = fixed_point_stream(ex1)
    render = ex1.alphabet.render
    returning = admissible_prefixes(stream, 2, require_return=True)
    assert [render(w) for w in returning] == ["1"]  # u_1 = 1; u_2 = 2 excludes "11"
    everything = admissible_prefixes(stream, 4, require_return=False)
    assert [render(w) for w in everything] == ["1", "11", "112", "1121"]


def test_auto_prefixes_fall_back_to_the_shortest_returning_prefix():
    ex1 = parse_substitution("1 -> 112\n2 -> 12")
    stream = fixed_point_stream(ex1)
    assert auto_prefixes(stream, 4) == admissible_prefixes(stream, 4)
    late = parse_substitution("1 -> 343\n2 -> 214\n3 -> 42\n4 -> 1133")
    stream = fixed_point_stream(late)
    assert admissible_prefixes(stream, 8) == []
    [prefix] = auto_prefixes(stream, 8)
    assert late.alphabet.render(prefix) == "21434311334"
    assert auto_prefixes(stream, 8) == admissible_prefixes(stream, 11)
    assert auto_prefixes(stream, 8, require_return=False) == \
        admissible_prefixes(stream, 8, require_return=False)


# randomized substitutions for property checks

def random_substitution(rng, max_letters=4, max_image=4):
    n = rng.randint(2, max_letters)
    while True:
        rules = [tuple(rng.randrange(n)
                       for _ in range(rng.randint(1, max_image)))
                 for _ in range(n)]
        text = "\n".join(
            f"{i + 1} -> {''.join(str(x + 1) for x in rules[i])}"
            for i in range(n))
        subst = parse_substitution(text)
        if any(len(img) > 1 for img in rules):
            return subst


def brute_force_primitive(subst):
    n = subst.size
    a = subst.transition_matrix()
    power = a
    for _ in range(4 * (n - 1) ** 2 + 4):
        if all(all(v > 0 for v in row) for row in power):
            return True
        power = mat_mul(power, a)
    return False


def test_primitivity_matches_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        subst = random_substitution(rng)
        assert subst.is_primitive() == brute_force_primitive(subst)


@given(st.integers(0, 2**30), st.integers(1, 10))
@settings(max_examples=80, deadline=None)
def test_population_commutes_with_substitution(seed, length):
    rng = random.Random(seed)
    subst = random_substitution(rng)
    word = subst.alphabet.word(rng.randrange(subst.size)
                               for _ in range(length))
    lhs = mat_vec(subst.transition_matrix(), subst.population_vector(word))
    assert lhs == subst.population_vector(subst.apply(word))


def test_power_matrix_identity(corpus):
    for subst in corpus.values():
        a = subst.transition_matrix()
        power = a
        for k in range(1, 6):
            assert substitution_power(subst, k).transition_matrix() == power
            power = mat_mul(power, a)


def test_round_trip_render(corpus):
    for subst in corpus.values():
        assert parse_substitution(render_rules(subst)) == subst
