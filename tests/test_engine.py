import itertools
import random

import pytest

from balpair.engine import (BalancedPair, Budgets, children,
                            coincidence_analysis, coincidence_density,
                            initial_pairs, pair_graph, run_bpa, split)
from balpair.equivalence import LengthSpec, Relation
from balpair.errors import (NotBalanced, NotClosed, ScanOverflow,
                            StabilityNotReached)
from balpair.substitution import fixed_point_stream, parse_substitution

from oracles import reduce_pair, substitute_pair, word_equiv


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
    top = tuple(itertools.chain.from_iterable(p.top for p in pairs))
    bottom = tuple(itertools.chain.from_iterable(p.bottom for p in pairs))
    return top == tuple(u) and bottom == tuple(v)


def test_reduce_concatenation_invariant(three):
    rng = random.Random(31)
    rel = Relation.generalized(three, LengthSpec.pf())
    for _ in range(200):
        u = tuple(rng.randrange(3) for _ in range(rng.randint(1, 10)))
        v = tuple(rng.sample(u, len(u)))
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
        for _ in range(60):
            u = tuple(rng.randrange(3) for _ in range(rng.randint(1, 8)))
            v = tuple(rng.sample(u, len(u)))
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
    assert rendered(ex1, children(ex1, rel, coin)) == \
        ["|1/1|", "|1/1|", "|2/2|"]
    troubling = BalancedPair(W(ex1, "12"), W(ex1, "21"))
    assert rendered(ex1, children(ex1, rel, troubling)) == \
        ["|1/1|", "|12/21|", "|1/1|", "|2/2|"]


def test_children_11_23_regression(three):
    # locked by computation; the concatenation invariant pins it down
    rel = Relation.generalized(three, LengthSpec.pf())
    pair = BalancedPair(W(three, "11"), W(three, "23"))
    kids = children(three, rel, pair)
    top, bottom = substitute_pair(three, pair)
    assert concat_invariant(kids, top, bottom)
    assert rendered(three, kids) == \
        ["|11/23|", "|2/2|", "|1/1|", "|1/1|", "|2/2|"]


# initial_pairs

def test_initial_pairs_ex1(ex1):
    rel = Relation.plain(ex1)
    pairs = initial_pairs(ex1, rel, W(ex1, "1"), Budgets())
    assert rendered(ex1, pairs) == ["|1/1|", "|12/21|"]
    out = run_bpa(ex1, rel, W(ex1, "1"), Budgets())
    assert out.vertices[:len(pairs)] == pairs
    assert out.discovered[:len(pairs)] == [1] * len(pairs)


def test_initial_pairs_constant_length():
    cl = parse_substitution("1 -> 112\n2 -> 122")
    rel = Relation.plain(cl)
    pairs = initial_pairs(cl, rel, W(cl, "1"), Budgets())
    assert "|12/21|" in rendered(cl, pairs)


def test_initial_pairs_troubling_word_in_closure(three):
    # the troubling pair surfaces while iterating the shifted-by-two split
    rel = Relation.plain(three)
    out = run_bpa(three, rel, W(three, "11"), Budgets())
    assert not out.terminated
    assert "|11223/23211|" in rendered(three, out.vertices)


def test_initial_pairs_validates_prefix(three):
    rel = Relation.plain(three)
    with pytest.raises(ValueError):
        initial_pairs(three, rel, W(three, "2"), Budgets())
    with pytest.raises(ValueError):
        initial_pairs(three, rel, (), Budgets())


def test_initial_pairs_budget_signals(ex1):
    rel = Relation.plain(ex1)
    with pytest.raises(StabilityNotReached):
        initial_pairs(ex1, rel, W(ex1, "1"), Budgets(max_pairs=1))


# run_bpa

def test_run_bpa_ex1_terminates(ex1):
    rel = Relation.plain(ex1)
    out = run_bpa(ex1, rel, W(ex1, "1"), Budgets())
    assert out.terminated
    assert out.closure_iteration == 2
    assert set(rendered(ex1, out.vertices)) == {"|1/1|", "|12/21|", "|2/2|"}


def test_run_bpa_morse_thue_budget():
    mt = parse_substitution("1 -> 1234\n2 -> 124\n3 -> 13234\n4 -> 1324")
    rel = Relation.generalized(mt, LengthSpec.pf())
    out = run_bpa(mt, rel, W(mt, "1"), Budgets())
    assert not out.terminated
    assert out.which == "max_word_length"
    lengths = [ln for _, ln in out.growth_trace]
    tail = lengths[1:]
    assert all(a < b for a, b in zip(tail, tail[1:]))
    assert len(out.longest_pairs) == 5


def test_run_bpa_letters_terminates_constant_length():
    cl = parse_substitution("1 -> 112\n2 -> 122")
    out = run_bpa(cl, Relation.letter_classes(cl), W(cl, "1"), Budgets())
    assert out.terminated


def test_run_bpa_closure_property(three):
    rel = Relation.generalized(three, LengthSpec.pf())
    out = run_bpa(three, rel, W(three, "11"), Budgets())
    assert out.terminated
    members = set(out.vertices)
    for pair in out.vertices:
        for kid in children(three, rel, pair):
            assert kid in members


def test_run_bpa_monotone_discovery(three):
    rel = Relation.generalized(three, LengthSpec.pf())
    out = run_bpa(three, rel, W(three, "11"), Budgets())
    iterations = out.discovered
    assert iterations == sorted(iterations)
    assert iterations[0] == 1


def test_run_bpa_deterministic(three):
    rel = Relation.generalized(three, LengthSpec.pf())
    out1 = run_bpa(three, rel, W(three, "11"), Budgets())
    out2 = run_bpa(three, rel, W(three, "11"), Budgets())
    assert out1.vertices == out2.vertices
    assert out1.growth_trace == out2.growth_trace


# pair_graph / coincidence

def test_pair_graph_ex1(ex1):
    rel = Relation.plain(ex1)
    out = run_bpa(ex1, rel, W(ex1, "1"), Budgets())
    graph = pair_graph(ex1, rel, out.vertices)
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
        pair_graph(ex1, rel, partial)


def test_singleton_coincidence_graph():
    ident = parse_substitution("1 -> 11\n2 -> 12")
    rel = Relation.plain(ident)
    pairs = [BalancedPair((0,), (0,))]
    graph = pair_graph(ident, rel, pairs)
    assert graph.edges[0] == [(0, 2)]  # |1/1| -> |1/1| twice


def test_coincidence_analysis_ex1(ex1):
    rel = Relation.plain(ex1)
    out = run_bpa(ex1, rel, W(ex1, "1"), Budgets())
    graph = pair_graph(ex1, rel, out.vertices)
    reached = coincidence_analysis(graph)
    assert reached == set(range(len(graph.vertices)))
    coincidences = [p for p in graph.vertices if p.is_coincidence]
    assert len(coincidences) == 2


def test_coincidence_analysis_stranded_component():
    # a two-cycle of non-coincidences with no exit never reaches one
    from balpair.engine import PairGraph
    a = BalancedPair((0,), (1,))
    b = BalancedPair((1,), (0,))
    graph = PairGraph(vertices=[a, b], edges={0: [(1, 1)], 1: [(0, 1)]})
    assert coincidence_analysis(graph) == set()


# density

def test_density_identical_streams_is_one(ex1):
    rel = Relation.plain(ex1)
    stream = fixed_point_stream(ex1)
    total = coincident = 0
    for comp in split(rel, stream.letters(0), stream.letters(0), 10_000):
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
        stats = coincidence_density(ex1, rel, W(ex1, "1"), level, 2000)
        ratios.append(stats.ratio_fraction)
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.99


def test_density_morse_thue_bounded_away():
    mt = parse_substitution("1 -> 1234\n2 -> 124\n3 -> 13234\n4 -> 1324")
    rel = Relation.generalized(mt, LengthSpec.pf())
    w = W(mt, "1")
    for level in range(6):
        shift = len(mt.apply(w, level))
        stats = coincidence_density(mt, rel, w, level, max(2 * shift, 2000))
        assert float(stats.ratio_decimal) < 0.7


def test_density_validates_horizon(ex1):
    rel = Relation.plain(ex1)
    with pytest.raises(ValueError):
        coincidence_density(ex1, rel, W(ex1, "1"), 5, 10)


def test_initial_pairs_scan_overflow(noncon):
    # plain mode needs five letters before its first cut; a three-letter
    # stretch budget cannot get there
    rel = Relation.plain(noncon)
    with pytest.raises(ScanOverflow) as exc:
        initial_pairs(noncon, rel, W(noncon, "3"),
                      Budgets(max_scan_length=3))
    assert exc.value.which == "max_scan_length"


def test_run_bpa_folds_initial_budget_signals(noncon):
    rel = Relation.plain(noncon)
    out = run_bpa(noncon, rel, W(noncon, "3"), Budgets(max_scan_length=3))
    assert not out.terminated
    assert out.which == "max_scan_length"


def test_run_bpa_max_pairs_budget(three):
    rel = Relation.generalized(three, LengthSpec.custom([1, 1, 2]))
    out = run_bpa(three, rel, W(three, "11"), Budgets(max_pairs=10))
    assert not out.terminated
    assert out.which == "max_pairs"


def test_run_bpa_max_iterations_budget():
    cl = parse_substitution("1 -> 112\n2 -> 122")
    out = run_bpa(cl, Relation.plain(cl), W(cl, "1"),
                  Budgets(max_iterations=3, max_word_length=100_000))
    assert not out.terminated
    assert out.which == "max_iterations"
    assert out.iterations_done == 3
