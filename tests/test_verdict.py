import importlib

import pytest

import balpair.engine
import balpair.equivalence
from balpair.engine import BalancedPair, Budgets, Closure
from balpair.equivalence import LengthSpec, Relation
from balpair.errors import EmptyConfig
from balpair.verdict import AnalysisConfig, RelationSpec, analyze, verdict

from conftest import count_calls


def _terminated(pairs):
    return Closure(vertices=list(pairs), edges={}, discovered=[1] * len(pairs),
                   growth_trace=[(1, 1)], iterations_done=2)


def _budget():
    return Closure(vertices=[], edges={}, discovered=[],
                   growth_trace=[(1, 2)], iterations_done=3, which="max_pairs")


COIN = BalancedPair((0,), (0,))
STUCK = BalancedPair((0,), (1,))


def test_verdict_table_is_total():
    all_lead = ()  # no failing pair
    some_not = (STUCK,)
    term = _terminated([COIN, STUCK])
    cases = {
        ("terminated", "all_lead", True): "pure_discrete",
        ("terminated", "all_lead", False): "pure_discrete",
        ("terminated", "some_not", True): "not_pure_discrete",
        ("terminated", "some_not", False): "inconclusive",
        ("budget", "all_lead", True): "inconclusive",
        ("budget", "all_lead", False): "inconclusive",
        ("budget", "some_not", True): "inconclusive",
        ("budget", "some_not", False): "inconclusive",
    }
    for (status, lead, prefix_ok), expected in cases.items():
        outcome = term if status == "terminated" else _budget()
        failing = all_lead if lead == "all_lead" else some_not
        v = verdict(outcome, failing, prefix_ok)
        assert v.kind == expected, (status, lead, prefix_ok)


def test_verdict_reasons():
    term = _terminated([STUCK])
    some_not = (STUCK,)
    v = verdict(term, some_not, prefix_ok=False)
    assert v.kind == "inconclusive"
    assert v.reason == "prefix_condition_unmet"
    assert v.failing_pairs == (STUCK,)
    v2 = verdict(_budget(), (), prefix_ok=True)
    assert v2.reason == "budget_exceeded"
    v3 = verdict(term, some_not, prefix_ok=True)
    assert v3.kind == "not_pure_discrete"
    assert v3.failing_pairs == (STUCK,)


def test_pure_discrete_never_from_budget():
    for prefix_ok in (True, False):
        for failing in ((), (STUCK,)):
            assert verdict(_budget(), failing, prefix_ok).kind == \
                "inconclusive"


def test_analyze_three_letter_spec_table(corpus):
    three = corpus["reducible3"]
    w11 = three.alphabet.word_from_text("11")
    config = AnalysisConfig(
        prefixes=[w11],
        relations=[RelationSpec.general(LengthSpec.pf()),
                   RelationSpec.general(LengthSpec.ones()),
                   RelationSpec.general(LengthSpec.custom([1, 1, 2]))])
    report = analyze(three, config)
    outcomes = [c.outcome.terminated for c in report.cells]
    assert outcomes == [True, True, False]
    assert report.cells[2].outcome.which == "max_word_length"
    # the (1,1,2) cell never ran the corollary check (it did not terminate)
    assert report.cells[2].corollary_check is None
    # the ones cell did, and the PF run terminated
    assert report.cells[1].corollary_check == {"relation": "general[lambda]",
                                               "terminated": True}
    assert report.corollary_ok


def test_analyze_empty_config(corpus):
    with pytest.raises(EmptyConfig):
        analyze(corpus["ex1"], AnalysisConfig(relations=[]))


def test_analyze_rejects_non_primitive():
    from balpair.substitution import parse_substitution
    block = parse_substitution("1 -> 11\n2 -> 22")
    with pytest.raises(ValueError):
        analyze(block, AnalysisConfig())


def test_analyze_rejects_bad_prefix(corpus):
    ex1 = corpus["ex1"]
    with pytest.raises(ValueError):
        analyze(ex1, AnalysisConfig(
            prefixes=[ex1.alphabet.word_from_text("2")]))


def test_analyze_auto_prefixes(corpus):
    ex1 = corpus["ex1"]
    report = analyze(ex1, AnalysisConfig(
        auto_max_len=4,
        relations=[RelationSpec.plain()]))
    rendered = [ex1.alphabet.render(c.prefix) for c in report.cells]
    assert rendered == ["1", "112", "1121"]
    assert all(c.verdict.kind == "pure_discrete" for c in report.cells)
    # two-letter Pisot: flow result moves to shift
    assert report.subst.spectrum().eigen.pisot_type_literal


def test_analyze_cells_fail_independently(corpus):
    ex1 = corpus["ex1"]
    config = AnalysisConfig(
        prefixes=[ex1.alphabet.word_from_text("1")],
        relations=[RelationSpec.general(LengthSpec.custom([1])),  # wrong size
                   RelationSpec.plain()])
    report = analyze(ex1, config)
    assert report.cells[0].error is not None
    assert report.cells[1].error is None
    assert report.cells[1].verdict.kind == "pure_discrete"


def test_analyze_densities(corpus):
    ex1 = corpus["ex1"]
    config = AnalysisConfig(
        prefixes=[ex1.alphabet.word_from_text("1")],
        relations=[RelationSpec.plain()],
        density_levels=2)
    report = analyze(ex1, config)
    densities = report.cells[0].densities
    assert len(densities) == 3
    assert densities[0].ratio_fraction <= densities[2].ratio_fraction


def test_synthetic_not_pure_discrete_via_analyze():
    # Morse-Thue itself: terminated pair sets contain a coincidence-free
    # cycle {|12/21|, |21/12|}, and prefix w = 1 returns (u_1 = u_0 is false;
    # u = 122..., so use w = 12 with u_2 = 2 = u_1? actual check below)
    from balpair.substitution import fixed_point_stream, parse_substitution
    mt = parse_substitution("1 -> 12\n2 -> 21")
    stream = fixed_point_stream(mt)
    prefix = stream.prefix(3)  # "122"; u_3 = '1' = u_0, so prefix_ok holds
    assert stream.letter(3) == stream.letter(0)
    config = AnalysisConfig(prefixes=[prefix],
                            relations=[RelationSpec.plain()])
    report = analyze(mt, config)
    cell = report.cells[0]
    assert cell.outcome.terminated
    assert cell.verdict.failing_pairs  # not every pair leads
    assert cell.verdict.kind == "not_pure_discrete"
    assert len(cell.verdict.failing_pairs) >= 2


@pytest.mark.parametrize("name, prefix", [("ex1", "1"),
                                          ("pisot-rewrite", "122334")])
def test_analyze_computes_children_once_per_pair(corpus, monkeypatch, name,
                                                 prefix):
    # general[lambda] alone runs no corollary, so one closure is all
    calls = count_calls(monkeypatch, balpair.engine, "children")
    subst = corpus[name]
    report = analyze(subst, AnalysisConfig(
        prefixes=[subst.alphabet.word_from_text(prefix)],
        relations=[RelationSpec.general(LengthSpec.pf())]))
    [cell] = report.cells
    assert cell.outcome.terminated
    assert len(calls) == len(cell.outcome.vertices)


def test_analyze_computes_letter_classes_once(corpus, monkeypatch):
    # the package re-exports verdict(), which hides the module attribute
    verdict_module = importlib.import_module("balpair.verdict")
    in_analyze = count_calls(monkeypatch, verdict_module,
                             "letter_equiv_classes")
    in_relations = count_calls(monkeypatch, balpair.equivalence,
                               "letter_equiv_classes")
    subst = corpus["exnoncon"]
    report = analyze(subst, AnalysisConfig(
        prefixes=[subst.alphabet.word_from_text("31")],
        relations=[RelationSpec.letters(), RelationSpec.plain()],
        budgets=Budgets(max_iterations=6, max_word_length=400)))
    assert report.letter_classes == ((0,), (1, 2, 3))
    assert report.cells[0].verdict.kind == "pure_discrete"
    assert len(in_analyze) + len(in_relations) == 1


def test_analyze_builds_all_ones_relation_once(corpus, monkeypatch):
    # the letter classes need no relation; the cells build theirs in order
    builds = count_calls(monkeypatch, balpair.equivalence.Relation,
                         "generalized")
    subst = corpus["ex1"]
    analyze(subst, AnalysisConfig(prefixes=[(0,)]))
    assert [args[1].kind for args in builds] == ["lambda", "ones"]


PF = RelationSpec.general(LengthSpec.pf())
ONES = RelationSpec.general(LengthSpec.ones())


@pytest.mark.parametrize("name, requested, expected", [
    ("reducible3", [PF, ONES, RelationSpec.letters()],
     [PF, ONES, RelationSpec.letters()]),
    # ones terminates, so its PF corollary builds PF on first use
    ("reducible3", [ONES, RelationSpec.letters()],
     [ONES, PF, RelationSpec.letters()]),
    # plain never terminates on mt-rewrite, so no corollary needs PF, and
    # the letter classes need no relation: plain alone is built
    ("mt-rewrite", [RelationSpec.plain()], [RelationSpec.plain()]),
])
def test_analyze_builds_each_relation_once(corpus, monkeypatch, name,
                                           requested, expected):
    built = []
    for constructor in ("plain", "letter_classes", "generalized"):
        def wrapper(*args, _original=getattr(Relation, constructor),
                    **kwargs):
            rel = _original(*args, **kwargs)
            built.append(rel.spec)
            return rel
        monkeypatch.setattr(Relation, constructor, staticmethod(wrapper))
    report = analyze(corpus[name], AnalysisConfig(
        relations=requested,
        budgets=Budgets(max_iterations=6, max_word_length=400)))
    assert len({cell.prefix for cell in report.cells}) > 1
    assert built == expected
