"""Spectral data is computed once per substitution and read everywhere."""

import importlib
import json

import pytest

import balpair.linalg
from balpair.cli import main
from balpair.report import render_json, report_document
from balpair.substitution import parse_substitution
from balpair.verdict import AnalysisConfig, analyze

from conftest import load_corpus


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def result_text(report):
    doc = report_document(report)
    doc.pop("timings")
    for cell in doc["cells"]:
        cell.pop("seconds", None)
    return json.dumps(doc)


def test_spectrum_is_memoised():
    subst = load_corpus("ex1")
    assert subst.spectrum() is subst.spectrum()


def test_spectrum_needs_a_primitive_substitution():
    block = parse_substitution("1 -> 11\n2 -> 22")
    with pytest.raises(ValueError):
        block.spectrum()


def test_one_analysis_factors_once(monkeypatch):
    factor_calls = count_calls(monkeypatch, balpair.linalg, "factor_poly")
    char_poly_calls = count_calls(monkeypatch, balpair.linalg, "char_poly")
    subst = load_corpus("pisot-rewrite")
    render_json(analyze(subst, AnalysisConfig()))
    assert len(factor_calls) == 1
    assert len(char_poly_calls) == 1


@pytest.mark.parametrize("name", ["ex1", "pisot-rewrite"])
def test_reanalysis_matches_a_fresh_parse(name):
    # the second analysis starts from a Perron field the first one refined
    config = AnalysisConfig(density_levels=0)
    subst = load_corpus(name)
    first = result_text(analyze(subst, config))
    second = result_text(analyze(subst, config))
    fresh = result_text(analyze(load_corpus(name), config))
    assert first == second == fresh


def test_info_factors_once(fixtures_dir, capsys, monkeypatch):
    factor_calls = count_calls(monkeypatch, balpair.linalg, "factor_poly")
    assert main(["info", str(fixtures_dir / "pisot-rewrite.sub")]) == 0
    capsys.readouterr()
    assert len(factor_calls) == 1


@pytest.mark.parametrize("length, relations", [
    ("lambda", ["general[lambda]"]),
    # ones terminates on ex1, so its PF corollary runs too
    ("ones", ["general[ones]", "general[lambda]"]),
])
def test_bpa_runs_only_the_printed_cell(fixtures_dir, capsys, monkeypatch,
                                        length, relations):
    # the package re-exports verdict(), which hides the module attribute
    verdict_module = importlib.import_module("balpair.verdict")
    calls = count_calls(monkeypatch, verdict_module, "run_bpa")
    code = main(["bpa", str(fixtures_dir / "ex1.sub"), "--length", length])
    out = capsys.readouterr().out
    assert code == 0
    [line] = out.splitlines()
    assert line.startswith(f"  w=1 general[{length}]: terminated")
    assert [(args[2], args[1].label()) for args in calls] == \
        [((0,), label) for label in relations]
