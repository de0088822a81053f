"""Closures of one cut key share their expansions across the prefixes of an
analysis (engine.Expansions), and each is still the closure run_bpa finds
alone.

When an analysis has more than one prefix, `analyze` keeps one record per
cut key, and a closure replays the children of every pair that an earlier
prefix's closure expanded. The differential below runs each cell's closure
again with no record and compares every field the report and the verdict
read. Random substitutions under budgets down to 1 make max_pairs stop
inside replayed expansions, and max_word_length stop on a walk whose
earlier expansion overflowed and was not recorded. A replay that reads its
children in another order, or drops their repeats (each edge's
multiplicity), fails it.
"""

import importlib
import random

import pytest

from balpair.engine import Budgets, Expansions, run_bpa
from balpair.equivalence import LengthSpec, RelationSpec
from balpair.report import report_document
from balpair.verdict import AnalysisConfig, analyze

from conftest import CORPUS_NAMES, count_calls, load_corpus
from test_split import _mutant
from test_substitution import random_substitution

# the package re-exports verdict(), which hides the module attribute
verdict_module = importlib.import_module("balpair.verdict")
engine_module = importlib.import_module("balpair.engine")

RELATIONS = [RelationSpec.general(LengthSpec.pf()),
             RelationSpec.general(LengthSpec.ones()),
             RelationSpec.plain(), RelationSpec.letters()]
FIELDS = ("vertices", "discovered", "growth_trace", "iterations_done",
          "which")


def _random_cases(count=100):
    """Derandomized primitive 2-4-letter substitutions, each with budgets
    of 1 to 12 iterations, 1 to 60 pairs and 1 to 40 letters."""
    rng = random.Random(38)
    cases = []
    while len(cases) < count:
        subst = random_substitution(rng)
        if subst.is_primitive():
            cases.append((subst, Budgets(
                max_iterations=rng.randint(1, 12),
                max_pairs=rng.randint(1, 60),
                max_word_length=rng.randint(1, 40))))
    return cases


def _differences(subst, config):
    """Each cell of the analysis whose closure differs from a fresh
    run_bpa of its prefix, with no record, and the replay counts of every
    closure, by the budget that stopped it."""
    report = analyze(subst, config)
    differ, replays = [], []
    for i, cell in enumerate(report.cells):
        got = cell.outcome
        if got is None:
            continue
        fresh = run_bpa(cell.spec.build(subst), cell.prefix, config.budgets)
        if (any(getattr(got, f) != getattr(fresh, f) for f in FIELDS)
                or list(got.edges.items()) != list(fresh.edges.items())):
            differ.append(i)
        replays.append((got.which, got.replayed))
    return differ, replays


def _fixture_check():
    replayed = 0
    for name in CORPUS_NAMES:
        config = AnalysisConfig(relations=RELATIONS,
                                budgets=Budgets(max_word_length=400))
        differ, replays = _differences(load_corpus(name), config)
        assert differ == [], name
        replayed += sum(count for _which, count in replays)
    assert replayed


def _random_check(cases):
    stops = set()
    for subst, budgets in cases:
        config = AnalysisConfig(auto_max_len=4, relations=RELATIONS,
                                budgets=budgets)
        differ, replays = _differences(subst, config)
        assert differ == [], (subst, budgets)
        stops.update(which for which, count in replays if count)
    # budgets stopped closures that replayed earlier expansions
    assert {"max_pairs", "max_word_length"} <= stops


def test_shared_expansions_keep_the_fixture_closures():
    _fixture_check()


def test_shared_expansions_keep_random_closures():
    _random_check(_random_cases())


def test_a_single_prefix_analysis_keeps_no_record(monkeypatch):
    calls = []
    original = verdict_module.run_bpa

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(verdict_module, "run_bpa", recording)
    subst = load_corpus("ex1")
    report = analyze(subst, AnalysisConfig(prefixes=[(0,)],
                                           relations=RELATIONS))
    assert calls and all(kw["expansions"] is None for kw in calls)
    assert all(cell.outcome.replayed == 0 for cell in report.cells
               if cell.outcome is not None)
    assert set(report_document(report)["metrics"]["expansions_replayed"]) \
        <= {0, None}
    calls.clear()
    analyze(subst, AnalysisConfig(relations=RELATIONS))
    assert all(isinstance(kw["expansions"], Expansions) for kw in calls)


def test_the_counters_add_up_to_the_expansions(monkeypatch):
    # an expansion adds a vertex's edges unless a budget stops it: a walk
    # that overflows, or a new pair past max_pairs
    walks = count_calls(monkeypatch, engine_module, "children")
    subst = load_corpus("exnoncon")
    report = analyze(subst, AnalysisConfig(relations=RELATIONS,
                                           budgets=Budgets(max_pairs=40)))
    metrics = report_document(report)["metrics"]
    closures = {}
    for i, cell in enumerate(report.cells):
        outcome = cell.outcome
        if outcome is None:
            assert metrics["expansions_walked"][i] is None
            continue
        assert metrics["expansions_walked"][i] == outcome.walked
        assert metrics["expansions_replayed"][i] == outcome.replayed
        stopped = outcome.which in ("max_pairs", "max_word_length")
        expansions = outcome.walked + outcome.replayed
        assert expansions == len(outcome.edges) + stopped
        closures[id(outcome)] = outcome
    assert sum(c.walked for c in closures.values()) == len(walks)
    assert sum(c.replayed for c in closures.values()) > 0


# -- mutant gate: replays the differential catches ---------------------------

REPLAY_MUTANTS = {
    "repeats dropped": ("recorded[pair] = tuple(found)",
                        "recorded[pair] = tuple(dict.fromkeys(found))"),
    "kids recorded in vertex-index order": (
        "recorded[pair] = tuple(found)",
        "recorded[pair] = tuple(sorted(found, key=index.get))"),
}


@pytest.mark.parametrize("mutant, check", [
    ("repeats dropped", "fixtures"),
    ("kids recorded in vertex-index order", "fixtures"),
    ("kids recorded in vertex-index order", "random"),
])
def test_a_wrong_replay_fails_the_differential(mutant, check):
    # analyze runs the mutant; the fresh closures it is compared with run
    # the engine's own run_bpa
    run = {"fixtures": _fixture_check,
           "random": lambda: _random_check(_random_cases(40))}[check]
    old, new = REPLAY_MUTANTS[mutant]
    wrong = _mutant(engine_module, "run_bpa", old, new)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verdict_module, "run_bpa", wrong)
        with pytest.raises(AssertionError):
            run()
