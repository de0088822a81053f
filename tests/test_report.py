import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import balpair
from balpair.engine import Budgets, pair_graph, run_bpa
from balpair.equivalence import LengthSpec, Relation
from balpair.report import render_dot, render_json, report_document
from balpair.substitution import parse_substitution
from balpair.verdict import AnalysisConfig, RelationSpec, analyze

from conftest import CORPUS_NAMES, load_corpus


def ex1_report(**kw):
    subst = parse_substitution("1 -> 112\n2 -> 12")
    config = AnalysisConfig(
        prefixes=[subst.alphabet.word_from_text("1")],
        relations=[RelationSpec.plain(),
                   RelationSpec.general(LengthSpec.pf())], **kw)
    return subst, analyze(subst, config)


def test_render_json_deterministic():
    _, report = ex1_report()
    assert render_json(report) == render_json(report)


def test_repeated_analyses_agree_up_to_timings():
    def strip(doc):
        doc.pop("metrics")
        return doc

    _, r1 = ex1_report()
    _, r2 = ex1_report()
    assert strip(report_document(r1)) == strip(report_document(r2))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_fresh_analyses_agree_outside_metrics(name):
    def result_bytes():
        data = render_json(analyze(load_corpus(name),
                                   AnalysisConfig(density_levels=1)))
        # metrics is the last key, and the only one with run timings
        return data[:data.rindex(b'\n  "metrics": {')]

    assert result_bytes() == result_bytes()


def test_json_structure_and_exact_scalars():
    subst = parse_substitution("1 -> 112\n2 -> 2321\n3 -> 12")
    config = AnalysisConfig(
        prefixes=[subst.alphabet.word_from_text("11")],
        relations=[RelationSpec.general(LengthSpec.pf())])
    doc = report_document(analyze(subst, config))
    assert doc["tool_version"]
    sub = doc["substitution"]
    assert sub["char_poly"] == ["1", "2", "-4", "1"]
    assert sub["perron"]["min_poly"] == ["-1", "-3", "1"]
    assert sub["perron"]["approx"].startswith("3.3027")
    # letter 2 of L_lambda is (-1+sqrt(13))/2 = -2 + lambda over basis {1, l}
    assert sub["l_lambda"]["exact"][1] == {"poly_coeffs": ["-2", "1"],
                                           "approx_decimal": "1.302775637731"}
    assert sub["l_lambda"]["integer_form"] is None
    assert sub["flags"]["pisot_type_literal"] is False
    assert doc["letter_classes"] == [["1"], ["2"], ["3"]]
    cell = doc["cells"][0]
    assert cell["outcome"]["status"] == "terminated"
    assert cell["verdict"]["kind"] == "pure_discrete"
    assert cell["coincidence"]["all_lead"] is True


def test_json_integer_form_and_rational_scalars():
    subst = parse_substitution("1 -> 1234\n2 -> 124\n3 -> 13234\n4 -> 1324")
    config = AnalysisConfig(
        prefixes=[subst.alphabet.word_from_text("1")],
        relations=[RelationSpec.general(LengthSpec.pf())],
        budgets=Budgets(max_iterations=4, max_word_length=500))
    doc = report_document(analyze(subst, config))
    l_lambda = doc["substitution"]["l_lambda"]
    assert l_lambda["integer_form"] == [3, 2, 4, 3]
    assert l_lambda["exact"][1]["poly_coeffs"] == ["2/3"]
    cell = doc["cells"][0]
    assert cell["outcome"]["status"] == "budget_exceeded"
    assert cell["verdict"] == {"kind": "inconclusive",
                               "reason": "budget_exceeded",
                               "scope": "tiling flow with the Perron "
                                        "length vector"}


def _pairs(text):
    """'1/1 12/21' -> the JSON entries of those pairs."""
    return [dict(zip(("top", "bottom"), pair.split("/")))
            for pair in text.split()]


def _discovered(text, iterations):
    return [{**pair, "discovered": iteration}
            for pair, iteration in zip(_pairs(text), iterations)]


EX1 = "1 -> 112\n2 -> 12"
CONST_LEN = "1 -> 112\n2 -> 122"  # plain closure grows without end

# the rule text, the budgets and the outcome block, in key order
CLOSURE_ENDS = {
    "terminated": (EX1, {}, {
        "status": "terminated",
        "closure_iteration": 2,
        "pair_count": 3,
        "growth_trace": [[1, 2], [2, 1]],
        "pairs": _discovered("1/1 12/21 2/2", [1, 1, 2])}),
    "max_iterations": (CONST_LEN, {"max_iterations": 2}, {
        "status": "budget_exceeded",
        "which_budget": "max_iterations",
        "iterations_done": 2,
        "pair_count": 6,
        "longest_pairs": _pairs(
            "1212212/2212211 1212/2211 122/221 12/21 1/1"),
        "growth_trace": [[1, 3], [2, 7]],
        "pairs": _discovered(
            "1/1 12/21 122/221 2/2 1212/2211 1212212/2212211",
            [1, 1, 1, 2, 2, 2])}),
    "max_pairs": (EX1, {"max_pairs": 2}, {
        "status": "budget_exceeded",
        "which_budget": "max_pairs",
        "iterations_done": 2,
        "pair_count": 3,
        "longest_pairs": _pairs("12/21 1/1 2/2"),
        "growth_trace": [[1, 2]],
        "pairs": _discovered("1/1 12/21 2/2", [1, 1, 2])}),
    # a child of |122/221| outgrows 6 letters in iteration 2
    "max_word_length": (CONST_LEN, {"max_word_length": 6}, {
        "status": "budget_exceeded",
        "which_budget": "max_word_length",
        "iterations_done": 2,
        "pair_count": 5,
        "longest_pairs": _pairs("1212/2211 122/221 12/21 1/1 2/2"),
        "growth_trace": [[1, 3]],
        "pairs": _discovered("1/1 12/21 122/221 2/2 1212/2211",
                             [1, 1, 1, 2, 2])}),
    # the initial split finds a second distinct pair and stops
    "initial_split": (EX1, {"max_pairs": 1}, {
        "status": "budget_exceeded",
        "which_budget": "max_pairs",
        "iterations_done": 1,
        "pair_count": 0,
        "longest_pairs": [],
        "growth_trace": []}),
}


@pytest.mark.parametrize("end", CLOSURE_ENDS)
def test_outcome_block_for_every_closure_end(end):
    text, budgets, expected = CLOSURE_ENDS[end]
    subst = parse_substitution(text)
    report = analyze(subst, AnalysisConfig(
        prefixes=[(0,)], relations=[RelationSpec.plain()],
        budgets=Budgets(**budgets)))
    outcome = report_document(report)["cells"][0]["outcome"]
    assert list(outcome.items()) == list(expected.items())


def test_json_pair_list_threshold():
    _, report = ex1_report()
    small = json.loads(render_json(report, pair_list_limit=1000))
    assert len(small["cells"][0]["outcome"]["pairs"]) == 3
    capped = json.loads(render_json(report, pair_list_limit=2))
    assert "pairs" not in capped["cells"][0]["outcome"]
    assert capped["cells"][0]["outcome"]["pairs_omitted"] == 3
    assert len(capped["cells"][0]["outcome"]["pair_sample"]) == 3


def test_json_round_trip_rules():
    subst = parse_substitution("1 -> 112\n2 -> 12")
    _, report = ex1_report()
    doc = report_document(report)
    text = "\n".join(f"{k} -> {v}" for k, v in
                     doc["substitution"]["rules"].items())
    assert parse_substitution(text) == subst


def test_render_dot_ex1():
    subst = parse_substitution("1 -> 112\n2 -> 12")
    rel = Relation.plain(subst)
    out = run_bpa(rel, (0,), Budgets())
    dot = render_dot(pair_graph(rel, out.vertices), subst.alphabet)
    assert dot.count("doublecircle") == 2
    assert 'label="12/21"' in dot
    assert 'label="2"' in dot  # the multiplicity-2 edge |12/21| -> |1/1|
    assert dot.startswith("digraph balanced_pairs {")
    assert dot.rstrip().endswith("}")


def test_render_dot_empty_graph():
    from balpair.engine import PairGraph
    dot = render_dot(PairGraph(vertices=[], edges={}),
                     parse_substitution("1 -> 11").alphabet)
    assert dot == "digraph balanced_pairs {\n  rankdir=LR;\n}\n"


NO_MPMATH = """
import sys
from balpair import AnalysisConfig, Budgets, analyze, parse_substitution
from balpair.report import render_json
# the second input has a complex pair on the unit circle
for text in ("1 -> 112\\n2 -> 12", "1 -> 2\\n2 -> 14\\n3 -> 23\\n4 -> 1233"):
    render_json(analyze(parse_substitution(text), AnalysisConfig(
        prefixes=[(0,)], budgets=Budgets(max_word_length=200))))
print(sorted(name for name in sys.modules if name.startswith("mpmath")))
"""


def test_analysis_does_not_import_mpmath():
    src = str(Path(balpair.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_MPMATH],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
