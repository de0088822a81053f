import random
from itertools import islice

import pytest

from balpair import engine
from balpair.engine import (BalancedPair, Budgets, children,
                            coincidence_analysis, coincidence_density,
                            initial_pairs, pair_graph, run_bpa, shift_split)
from balpair.equivalence import LengthSpec, Relation
from balpair.errors import (NotBalanced, NotClosed, ScanOverflow,
                            StabilityNotReached)
from balpair.substitution import (Alphabet, Substitution, fixed_point_stream,
                                  parse_substitution)

from conftest import CORPUS_NAMES, load_corpus, load_expect
from oracles import (closure_by_own_words, reduce_pair,
                     reference_density_masses, shift_components, split,
                     substitute_pair, word_equiv)


@pytest.fixture(scope="module")
def ex1():
    return parse_substitution("1 -> 112\n2 -> 12")


@pytest.fixture(scope="module")
def noncon():
    return parse_substitution("1 -> 31\n2 -> 412\n3 -> 312\n4 -> 412")


@pytest.fixture(scope="module")
def three():
    return parse_substitution("1 -> 112\n2 -> 2321\n3 -> 12")


def rendered(subst, pairs):
    return [p.render(subst.alphabet) for p in pairs]


def W(subst, text):
    return subst.alphabet.word_from_text(text)


# reduce_pair

def test_reduce_plain_example(ex1):
    rel = Relation.plain(ex1)
    out = reduce_pair(rel, W(ex1, "11212"), W(ex1, "12112"))
    assert rendered(ex1, out) == ["|1/1|", "|12/21|", "|1/1|", "|2/2|"]


def test_reduce_letter_classes_example(noncon):
    rel = Relation.letter_classes(noncon)
    out = reduce_pair(rel, W(noncon, "31412"), W(noncon, "41231"))
    assert rendered(noncon, out) == ["|3/4|", "|1/1|", "|4/2|", "|12/31|"]


def test_reduce_identical_words_gives_coincidences(ex1):
    rel = Relation.plain(ex1)
    w = W(ex1, "1212112")
    out = reduce_pair(rel, w, w)
    assert all(p.is_coincidence for p in out)
    assert len(out) == len(w)


def test_reduce_rejects_unbalanced(ex1):
    rel = Relation.plain(ex1)
    with pytest.raises(NotBalanced):
        reduce_pair(rel, W(ex1, "11"), W(ex1, "12"))
    with pytest.raises(NotBalanced):
        reduce_pair(rel, (), W(ex1, "1"))


def test_reduce_component_cap(ex1):
    rel = Relation.plain(ex1)
    with pytest.raises(ScanOverflow) as exc:
        reduce_pair(rel, W(ex1, "12"), W(ex1, "21"), max_word_length=1)
    assert exc.value.which == "max_word_length"


def concat_invariant(pairs, u, v):
    top = b"".join(p.top for p in pairs)
    bottom = b"".join(p.bottom for p in pairs)
    return top == u and bottom == v


def test_reduce_concatenation_invariant(three):
    rng = random.Random(31)
    rel = Relation.generalized(three, LengthSpec.pf())
    word = three.alphabet.word
    for _ in range(200):
        u = word(rng.randrange(3) for _ in range(rng.randint(1, 10)))
        v = word(rng.sample(u, len(u)))
        out = reduce_pair(rel, u, v)
        assert concat_invariant(out, u, v)


def brute_force_irreducible(rel, pair):
    """No proper prefix pair is equivalent (direct definition)."""
    top, bottom = pair.top, pair.bottom
    for i in range(1, len(top) + 1):
        for j in range(1, len(bottom) + 1):
            if i == len(top) and j == len(bottom):
                continue
            if word_equiv(rel, top[:i], bottom[:j]):
                return False
    return True


def test_reduce_emits_irreducible_pairs(three):
    rng = random.Random(37)
    for spec in (LengthSpec.pf(), LengthSpec.ones()):
        rel = Relation.generalized(three, spec)
        word = three.alphabet.word
        for _ in range(60):
            u = word(rng.randrange(3) for _ in range(rng.randint(1, 8)))
            v = word(rng.sample(u, len(u)))
            for pair in reduce_pair(rel, u, v):
                if len(pair.top) < 30:
                    assert brute_force_irreducible(rel, pair)


# substitute_pair / children

def test_substitute_pair_examples(ex1, noncon):
    b = BalancedPair(W(ex1, "12"), W(ex1, "21"))
    assert substitute_pair(ex1, b) == (W(ex1, "11212"), W(ex1, "12112"))
    b2 = BalancedPair(W(noncon, "31412"), W(noncon, "41231"))
    assert substitute_pair(noncon, b2) == (W(noncon, "3123141231412"),
                                           W(noncon, "4123141231231"))
    c = BalancedPair(W(ex1, "1"), W(ex1, "1"))
    assert substitute_pair(ex1, c) == (W(ex1, "112"), W(ex1, "112"))


def test_children_examples(ex1):
    rel = Relation.plain(ex1)
    coin = BalancedPair(W(ex1, "1"), W(ex1, "1"))
    # a cap of the longer side times the longest image never overflows
    assert rendered(ex1, children(rel, coin, max_word_length=3)) == \
        ["|1/1|", "|1/1|", "|2/2|"]
    troubling = BalancedPair(W(ex1, "12"), W(ex1, "21"))
    assert rendered(ex1, children(rel, troubling, max_word_length=6)) == \
        ["|1/1|", "|12/21|", "|1/1|", "|2/2|"]


def test_children_11_23_regression(three):
    # locked by computation; the concatenation invariant pins it down
    rel = Relation.generalized(three, LengthSpec.pf())
    pair = BalancedPair(W(three, "11"), W(three, "23"))
    kids = children(rel, pair, max_word_length=8)
    top, bottom = substitute_pair(three, pair)
    assert concat_invariant(kids, top, bottom)
    assert rendered(three, kids) == \
        ["|11/23|", "|2/2|", "|1/1|", "|1/1|", "|2/2|"]


# initial_pairs

def test_initial_pairs_ex1(ex1):
    rel = Relation.plain(ex1)
    pairs = initial_pairs(rel, W(ex1, "1"), Budgets())
    assert rendered(ex1, pairs) == ["|1/1|", "|12/21|"]
    out = run_bpa(rel, W(ex1, "1"), Budgets())
    assert out.vertices[:len(pairs)] == pairs
    assert out.discovered[:len(pairs)] == [1] * len(pairs)


def test_initial_pairs_constant_length():
    cl = parse_substitution("1 -> 112\n2 -> 122")
    rel = Relation.plain(cl)
    pairs = initial_pairs(rel, W(cl, "1"), Budgets())
    assert "|12/21|" in rendered(cl, pairs)


def test_initial_pairs_troubling_word_in_closure(three):
    # the troubling pair surfaces while iterating the shifted-by-two split
    rel = Relation.plain(three)
    out = run_bpa(rel, W(three, "11"), Budgets())
    assert not out.terminated
    assert "|11223/23211|" in rendered(three, out.vertices)


def test_initial_pairs_validates_prefix(three):
    rel = Relation.plain(three)
    with pytest.raises(ValueError):
        initial_pairs(rel, W(three, "2"), Budgets())
    with pytest.raises(ValueError):
        initial_pairs(rel, (), Budgets())


def test_initial_pairs_budget_signals(ex1):
    rel = Relation.plain(ex1)
    with pytest.raises(StabilityNotReached):
        initial_pairs(rel, W(ex1, "1"), Budgets(max_pairs=1))


# run_bpa

def test_run_bpa_ex1_terminates(ex1):
    rel = Relation.plain(ex1)
    out = run_bpa(rel, W(ex1, "1"), Budgets())
    assert out.terminated
    assert out.closure_iteration == 2
    assert set(rendered(ex1, out.vertices)) == {"|1/1|", "|12/21|", "|2/2|"}


def test_run_bpa_morse_thue_budget():
    mt = parse_substitution("1 -> 1234\n2 -> 124\n3 -> 13234\n4 -> 1324")
    rel = Relation.generalized(mt, LengthSpec.pf())
    out = run_bpa(rel, W(mt, "1"), Budgets())
    assert not out.terminated
    assert out.which == "max_word_length"
    lengths = [ln for _, ln in out.growth_trace]
    tail = lengths[1:]
    assert all(a < b for a, b in zip(tail, tail[1:]))
    assert len(out.longest_pairs) == 5


def test_run_bpa_letters_terminates_constant_length():
    cl = parse_substitution("1 -> 112\n2 -> 122")
    out = run_bpa(Relation.letter_classes(cl), W(cl, "1"), Budgets())
    assert out.terminated


def test_run_bpa_closure_property(three):
    rel = Relation.generalized(three, LengthSpec.pf())
    out = run_bpa(rel, W(three, "11"), Budgets())
    assert out.terminated
    members = set(out.vertices)
    for pair in out.vertices:
        cap = 4 * max(len(pair.top), len(pair.bottom))
        for kid in children(rel, pair, max_word_length=cap):
            assert kid in members


def test_run_bpa_monotone_discovery(three):
    rel = Relation.generalized(three, LengthSpec.pf())
    out = run_bpa(rel, W(three, "11"), Budgets())
    iterations = out.discovered
    assert iterations == sorted(iterations)
    assert iterations[0] == 1


def test_run_bpa_deterministic(three):
    rel = Relation.generalized(three, LengthSpec.pf())
    out1 = run_bpa(rel, W(three, "11"), Budgets())
    out2 = run_bpa(rel, W(three, "11"), Budgets())
    assert out1.vertices == out2.vertices
    assert out1.growth_trace == out2.growth_trace


# pair_graph / coincidence

def test_pair_graph_ex1(ex1):
    rel = Relation.plain(ex1)
    out = run_bpa(rel, W(ex1, "1"), Budgets())
    graph = pair_graph(rel, out.vertices)
    assert len(graph.vertices) == 3
    labels = {p.render(ex1.alphabet): i for i, p in enumerate(graph.vertices)}
    edges = {graph.vertices[i].render(ex1.alphabet):
             [(graph.vertices[j].render(ex1.alphabet), m)
              for j, m in graph.edges[i]]
             for i in graph.edges}
    assert edges["|12/21|"] == [("|1/1|", 2), ("|12/21|", 1), ("|2/2|", 1)]
    # coincidence vertices only reach coincidences
    for i in graph.coincidence_indices():
        for j, _ in graph.edges[i]:
            assert graph.vertices[j].is_coincidence


def test_pair_graph_not_closed(ex1):
    rel = Relation.plain(ex1)
    partial = [BalancedPair(W(ex1, "12"), W(ex1, "21"))]
    with pytest.raises(NotClosed):
        pair_graph(rel, partial)


def test_singleton_coincidence_graph():
    ident = parse_substitution("1 -> 11\n2 -> 12")
    rel = Relation.plain(ident)
    pairs = [BalancedPair(W(ident, "1"), W(ident, "1"))]
    graph = pair_graph(rel, pairs)
    assert graph.edges[0] == [(0, 2)]  # |1/1| -> |1/1| twice


def test_coincidence_analysis_ex1(ex1):
    rel = Relation.plain(ex1)
    out = run_bpa(rel, W(ex1, "1"), Budgets())
    graph = pair_graph(rel, out.vertices)
    reached = coincidence_analysis(graph)
    assert reached == set(range(len(graph.vertices)))
    coincidences = [p for p in graph.vertices if p.is_coincidence]
    assert len(coincidences) == 2


def test_coincidence_analysis_stranded_component():
    # a two-cycle of non-coincidences with no exit never reaches one
    from balpair.engine import PairGraph
    a = BalancedPair(b"\x00", b"\x01")
    b = BalancedPair(b"\x01", b"\x00")
    graph = PairGraph(vertices=[a, b], edges={0: [(1, 1)], 1: [(0, 1)]})
    assert coincidence_analysis(graph) == set()


# density

def test_density_identical_streams_is_one(ex1):
    rel = Relation.plain(ex1)
    total = coincident = 0
    for comp in shift_split(rel, 0, 10_000):
        total += len(comp.top)
        if comp.is_coincidence:
            coincident += len(comp.top)
        if total >= 500:
            break
    assert coincident == total


def test_density_ex1_increases_toward_one(ex1):
    rel = Relation.plain(ex1)
    ratios = []
    for level in range(6):
        stats = coincidence_density(rel, W(ex1, "1"), level, 2000)
        ratios.append(stats.ratio_fraction)
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.99


def test_density_morse_thue_bounded_away():
    mt = parse_substitution("1 -> 1234\n2 -> 124\n3 -> 13234\n4 -> 1324")
    rel = Relation.generalized(mt, LengthSpec.pf())
    w = W(mt, "1")
    for level in range(6):
        shift = len(mt.apply(w, level))
        stats = coincidence_density(rel, w, level, max(2 * shift, 2000))
        assert float(stats.ratio_decimal) < 0.7


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_density_masses_are_exact(name):
    # the masses, from the letter counts of the coincident components and
    # of the prefix of u they cover, equal the per-component sums
    subst = load_corpus(name)
    w = subst.fixed_point().prefix(1)
    for rel in (Relation.generalized(subst, LengthSpec.pf()),
                Relation.generalized(subst, LengthSpec.ones()),
                Relation.plain(subst)):
        for level in range(3):
            horizon = max(2 * len(subst.apply(w, level)), 4000)
            stats = coincidence_density(rel, w, level, horizon)
            assert (stats.coincident_mass, stats.total_mass) == \
                reference_density_masses(rel, w, level, horizon)
            assert type(stats.total_mass) is type(rel.lengths[0])


def test_density_validates_horizon(ex1):
    rel = Relation.plain(ex1)
    with pytest.raises(ValueError):
        coincidence_density(rel, W(ex1, "1"), 5, 10)


def test_initial_pairs_scan_overflow(noncon):
    # plain mode needs five letters before its first cut; a three-letter
    # stretch budget cannot get there
    rel = Relation.plain(noncon)
    with pytest.raises(ScanOverflow) as exc:
        initial_pairs(rel, W(noncon, "3"), Budgets(max_scan_length=3))
    assert exc.value.which == "max_scan_length"


def test_run_bpa_folds_initial_budget_signals(noncon):
    rel = Relation.plain(noncon)
    out = run_bpa(rel, W(noncon, "3"), Budgets(max_scan_length=3))
    assert not out.terminated
    assert out.which == "max_scan_length"


def test_run_bpa_max_pairs_budget(three):
    rel = Relation.generalized(three, LengthSpec.custom([1, 1, 2]))
    out = run_bpa(rel, W(three, "11"), Budgets(max_pairs=10))
    assert not out.terminated
    assert out.which == "max_pairs"


def test_run_bpa_max_iterations_budget():
    cl = parse_substitution("1 -> 112\n2 -> 122")
    out = run_bpa(Relation.plain(cl), W(cl, "1"),
                  Budgets(max_iterations=3, max_word_length=100_000))
    assert not out.terminated
    assert out.which == "max_iterations"
    assert out.iterations_done == 3


# the word type: one per alphabet, bytes up to 256 letters, else tuple

def _fixture_relation(subst, mode):
    if mode == "plain":
        return Relation.plain(subst)
    if mode == "letters":
        return Relation.letter_classes(subst)
    return Relation.generalized(subst, LengthSpec.parse(
        mode.removeprefix("custom:")))


def _closure_words(rel, w, budgets, monkeypatch):
    """run_bpa's closure of the prefix w, and every word in it: the sides
    of its pairs and of the ancestor of each Origin of depth 1 or more it
    passes to children (a depth-0 origin's ancestor is its pair). A tuple
    of w's letters gives an equal Closure, so no tuple word leaks in
    beside the alphabet's words, where it would be a second vertex."""
    ancestors = []

    def recording(rel, pair, *, origin=None, **budget):
        if origin is not None and origin.depth:
            ancestors.extend(origin.ancestor)
        return children(rel, pair, origin=origin, **budget)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "children", recording)
        closure = run_bpa(rel, w, budgets)
    assert run_bpa(rel, tuple(w), budgets) == closure
    sides = [side for pair in closure.vertices for side in pair]
    return closure, sides, ancestors


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_every_word_is_of_the_alphabets_type(name, monkeypatch):
    # the fixture cells, and mt-rewrite's lambda growth closure under a
    # 20 000-letter budget, whose children walk ancestors at depths 1-2
    subst, expect = load_corpus(name), load_expect(name)
    assert subst.alphabet.word is bytes
    words = [*subst.rules, *map(subst.apply, subst.rules),
             subst.apply((0,), 3), subst.fixed_point().prefix(50)]
    cells = [(_fixture_relation(subst, cell["mode"]),
              subst.alphabet.word_from_text(cell["prefix"]),
              Budgets(**cell.get("budgets", {})))
             for cell in expect["cells"]]
    if name == "mt-rewrite":
        cells.append((_fixture_relation(subst, "lambda"), b"\x00",
                      Budgets(max_word_length=20_000)))
    walked = 0
    for rel, w, budgets in cells:
        _closure, sides, ancestors = _closure_words(rel, w, budgets,
                                                    monkeypatch)
        words += sides + ancestors
        walked += len(ancestors)
    assert {type(word) for word in words} == {bytes}
    if name == "mt-rewrite":
        assert walked


def test_an_alphabet_of_more_than_256_letters_has_tuple_words(monkeypatch):
    # tribonacci on letters 0, 128 and 256 of 257, the others fixed: the
    # images of sigma^7 hold 447 letters, so the closure walks ancestors.
    # A plain relation, built directly: nothing here needs the spectrum
    n = 257
    rules = [(a,) for a in range(n)]
    rules[0], rules[128], rules[256] = (0, 128), (0, 256), (0,)
    subst = Substitution(Alphabet([f"a{a}" for a in range(n)]), rules)
    assert subst.alphabet.word is tuple and subst.alphabet.buffer is list
    assert subst.rules[0] == (0, 128) and type(subst.rules[0]) is tuple
    rel = Relation.plain(subst)

    def drained(components):
        out = []
        try:
            out.extend(islice(components, 300))
        except ScanOverflow as exc:
            out.append(exc.which)
        return out

    for shift in (1, 2, 3, 5):
        for cap in (2, 3, 60):
            assert drained(shift_split(rel, shift, cap)) == drained(
                shift_components(fixed_point_stream(subst), rel, shift, cap))
    stops = []
    for budgets in (Budgets(max_iterations=20, max_pairs=200,
                            max_word_length=60),
                    Budgets(max_word_length=3)):
        closure, sides, ancestors = _closure_words(rel, (0,), budgets,
                                                   monkeypatch)
        expected = closure_by_own_words(rel, (0,), budgets)
        for field in ("vertices", "discovered", "edges", "growth_trace",
                      "iterations_done", "which"):
            assert getattr(closure, field) == getattr(expected, field)
        assert ancestors and max(map(max, sides)) == 256
        assert {type(word) for word in sides + ancestors} == {tuple}
        for pair in closure.vertices:
            assert children(rel, pair, max_word_length=60) == list(
                split(rel, *substitute_pair(subst, pair), 60))
        stops.append(closure.which)
    assert stops == [None, "max_word_length"]
