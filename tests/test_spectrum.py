"""Spectral data and the fixed word are computed once per substitution
and read everywhere."""

import importlib
import json
import sys
from dataclasses import replace

import pytest

import balpair.linalg
import balpair.substitution
from balpair.cli import main
from balpair.report import render_json, report_document
from balpair.substitution import parse_substitution
from balpair.verdict import AnalysisConfig, analyze

from conftest import count_calls, load_corpus


def result_text(report):
    doc = report_document(report)
    doc.pop("metrics")
    return json.dumps(doc)


def test_spectrum_is_memoised():
    subst = load_corpus("ex1")
    assert subst.spectrum() is subst.spectrum()


def test_fixed_point_is_memoised():
    subst = load_corpus("ex1")
    assert subst.fixed_point() is subst.fixed_point()


def _count_everywhere(monkeypatch, module, name):
    """The calls of module.name, counted in every balpair module that
    binds it, so a module that imports it is counted too."""
    original = getattr(module, name)
    calls = [count_calls(monkeypatch, binder, name)
             for key, binder in list(sys.modules.items())
             if key.split(".")[0] == "balpair"
             and getattr(binder, name, None) is original]
    return lambda: sum(map(len, calls))


def test_bpa_and_analyze_build_the_fixed_word_once(fixtures_dir, capsys,
                                                   monkeypatch):
    builds = _count_everywhere(monkeypatch, balpair.substitution,
                               "fixed_point_stream")
    assert main(["bpa", str(fixtures_dir / "ex1.sub")]) == 0
    capsys.readouterr()
    assert builds() == 1
    analyze(load_corpus("pisot-rewrite"), AnalysisConfig(density_levels=1))
    assert builds() == 2


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
    # the second analysis reads the Perron field the first one bisected
    config = AnalysisConfig(density_levels=0)
    subst = load_corpus(name)
    first = result_text(analyze(subst, config))
    second = result_text(analyze(subst, config))
    fresh = result_text(analyze(load_corpus(name), config))
    assert first == second == fresh


def test_eigenvalues_are_classified_once(fixtures_dir, tmp_path, capsys,
                                         monkeypatch):
    calls = count_calls(monkeypatch, balpair.linalg, "classify_spectrum")
    subst = load_corpus("pisot-rewrite")
    report = analyze(subst, AnalysisConfig())
    render_json(report)
    assert len(calls) == 1
    # the report reads the classes the substitution's spectrum holds
    spectrum = subst.spectrum()
    marked = replace(spectrum, eigen=replace(spectrum.eigen, dim_large=99))
    monkeypatch.setattr(subst, "spectrum", lambda: marked)
    flags = report_document(report)["substitution"]["flags"]
    assert flags["dim_large_eigenspaces"] == 99
    assert main(["info", str(fixtures_dir / "pisot-rewrite.sub"),
                 "--json", str(tmp_path / "info.json")]) == 0
    capsys.readouterr()
    assert len(calls) == 2


def test_info_json_non_primitive_builds_the_char_poly_once(tmp_path, capsys,
                                                         monkeypatch):
    builds = _count_everywhere(monkeypatch, balpair.linalg, "char_poly")
    path, info = tmp_path / "block.sub", tmp_path / "info.json"
    path.write_text("1 -> 11\n2 -> 22\n")
    assert main(["info", str(path), "--json", str(info)]) == 0
    assert "char poly: 4 - 4*x + x^2" in capsys.readouterr().out
    assert builds() == 1


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
    assert [(args[1], args[0].spec.label()) for args in calls] == \
        [(b"\x00", label) for label in relations]
