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


def _bpa_calls(fixtures_dir, tmp_path, capsys, monkeypatch, name, flags):
    """The (prefix, relation) of each run_bpa call of one `bpa` run, and
    the report's one cell."""
    # the package re-exports verdict(), which hides the module attribute
    verdict_module = importlib.import_module("balpair.verdict")
    calls = count_calls(monkeypatch, verdict_module, "run_bpa")
    path = tmp_path / "report.json"
    code = main(["bpa", str(fixtures_dir / f"{name}.sub"), *flags,
                 "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    [line, _wrote] = out.splitlines()
    [cell] = json.loads(path.read_text())["cells"]
    assert line.startswith(
        f"  w={cell['prefix']} {cell['relation']}: terminated")
    return [(args[1], args[0].spec.label()) for args in calls], cell


PF_COROLLARY = {"relation": "general[lambda]", "terminated": True}


@pytest.mark.parametrize("length, relations", [
    ("lambda", ["general[lambda]"]),
    # ones terminates on ex1, so its PF corollary is checked; ones and
    # lambda have equal cut keys there, so the check reads the ones closure
    ("ones", ["general[ones]"]),
])
def test_bpa_runs_only_the_printed_cell(fixtures_dir, tmp_path, capsys,
                                        monkeypatch, length, relations):
    calls, cell = _bpa_calls(fixtures_dir, tmp_path, capsys, monkeypatch,
                             "ex1", ["--length", length])
    assert (cell["prefix"], cell["relation"]) == ("1", f"general[{length}]")
    assert calls == [(b"\x00", label) for label in relations]
    if length == "ones":
        assert cell["corollary_check"] == PF_COROLLARY


@pytest.mark.parametrize("name, flags, relations", [
    # 4,2,5,4 is a scale of pisot-rewrite's L_lambda integer form, with
    # lambda's cut key: the rerun is a lookup
    ("pisot-rewrite", ["--length", "4,2,5,4"], ["general[4,2,5,4]"]),
    # plain's cut key on exnoncon is not lambda's: the rerun runs lambda's
    # closure. (ones never terminates on pisot-rewrite, so it has no rerun)
    ("exnoncon", ["--mode", "plain"], ["plain", "general[lambda]"]),
])
def test_pf_rerun_runs_only_under_another_cut_key(fixtures_dir, tmp_path,
                                                  capsys, monkeypatch, name,
                                                  flags, relations):
    calls, cell = _bpa_calls(fixtures_dir, tmp_path, capsys, monkeypatch,
                             name, flags)
    assert cell["relation"] == relations[0]
    prefix = load_corpus(name).alphabet.word_from_text(cell["prefix"])
    assert calls == [(prefix, label) for label in relations]
    assert cell["corollary_check"] == PF_COROLLARY
