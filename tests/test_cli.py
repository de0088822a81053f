import importlib
import json

import pytest

import balpair.engine
from balpair.cli import main
from balpair.engine import Budgets, pair_graph, run_bpa
from balpair.equivalence import LengthSpec, Relation
from balpair.errors import InternalInvariantError, NotBalanced
from balpair.report import render_dot

from conftest import count_calls, load_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verdict_ex1_exit_zero(tmp_path, fixtures_dir, capsys):
    out_json = tmp_path / "ex1.json"
    code, out, _ = run_cli(capsys, "verdict",
                           str(fixtures_dir / "ex1.sub"),
                           "--length", "ones", "--prefix", "1",
                           "--json", str(out_json))
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["cells"][0]["verdict"]["kind"] == "pure_discrete"
    assert "pure_discrete" in out


def test_bpa_morse_thue_exit_two(fixtures_dir, capsys):
    code, out, _ = run_cli(capsys, "bpa",
                           str(fixtures_dir / "mt-rewrite.sub"),
                           "--length", "lambda", "--prefix", "1")
    assert code == 2
    assert "budget exceeded" in out


def test_info_malformed_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.sub"
    bad.write_text("1 ->\n")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 1
    assert "empty image" in err


def test_info_ex1(fixtures_dir, capsys):
    code, out, _ = run_cli(capsys, "info", str(fixtures_dir / "ex1.sub"))
    assert code == 0
    assert "char poly: 1 - 3*x + x^2" in out
    assert "primitive: True" in out
    assert "pisot type (literal): True" in out


def test_info_json_spectral_fields_match_the_report(tmp_path, fixtures_dir,
                                                    capsys):
    path = str(fixtures_dir / "pisot-rewrite.sub")
    info_json, report_json = tmp_path / "info.json", tmp_path / "report.json"
    assert run_cli(capsys, "info", path, "--json", str(info_json))[0] == 0
    run_cli(capsys, "verdict", path, "--json", str(report_json))
    info = json.loads(info_json.read_text())
    report = json.loads(report_json.read_text())["substitution"]
    assert info["perron"] == report["perron"]
    assert info["factors"] == report["factors"]


def test_info_reducible(fixtures_dir, capsys):
    code, out, _ = run_cli(capsys, "info",
                           str(fixtures_dir / "mt-rewrite.sub"))
    assert code == 0
    assert "integer form: (3, 2, 4, 3)" in out
    assert "{1 4}" in out  # letters 1 and 4 are equivalent


def test_info_non_primitive(tmp_path, capsys):
    path = tmp_path / "block.sub"
    path.write_text("1 -> 11\n2 -> 22\n")
    code, out, _ = run_cli(capsys, "info", str(path))
    assert code == 0
    assert "not primitive" in out


def test_verdict_letters_mode(fixtures_dir, capsys):
    code, out, _ = run_cli(capsys, "verdict",
                           str(fixtures_dir / "exnoncon.sub"),
                           "--mode", "letters", "--prefix", "31")
    assert code == 0
    assert "pure_discrete" in out


def test_verdict_writes_dot(tmp_path, fixtures_dir, capsys, monkeypatch):
    calls = count_calls(monkeypatch, balpair.engine, "children")
    dot_path = tmp_path / "graph.dot"
    code, _, _ = run_cli(capsys, "verdict", str(fixtures_dir / "ex1.sub"),
                         "--prefix", "1", "--length", "lambda",
                         "--dot", str(dot_path))
    assert code == 0
    text = dot_path.read_text()
    assert "doublecircle" in text
    # the DOT graph is the one the closure computed: children once per pair
    children_calls = len(calls)
    subst = load_corpus("ex1")
    rel = Relation.generalized(subst, LengthSpec.pf())
    outcome = run_bpa(subst, rel, (0,), Budgets())
    assert children_calls == len(outcome.vertices)
    assert text == render_dot(pair_graph(subst, rel, outcome.vertices),
                              subst.alphabet)


def test_verdict_budget_flags(fixtures_dir, capsys):
    code, out, _ = run_cli(capsys, "verdict",
                           str(fixtures_dir / "reducible3.sub"),
                           "--prefix", "11", "--length", "1,1,2",
                           "--max-word-len", "800")
    assert code == 2
    assert "budget exceeded (max_word_length)" in out


def test_batch_over_corpus(tmp_path, fixtures_dir, capsys):
    out_dir = tmp_path / "reports"
    code, out, _ = run_cli(capsys, "batch", str(fixtures_dir),
                           "--out-dir", str(out_dir),
                           "--length", "lambda",
                           "--max-word-len", "1500")
    assert code == 2  # mt-rewrite never terminates
    written = sorted(p.name for p in out_dir.glob("*.json"))
    assert written == ["const-len.json", "ex1.json", "exnoncon.json",
                       "mt-rewrite.json", "pisot-rewrite.json",
                       "reducible3.json"]
    doc = json.loads((out_dir / "mt-rewrite.json").read_text())
    statuses = {c["outcome"]["status"] for c in doc["cells"] if "outcome" in c}
    assert "budget_exceeded" in statuses


def test_batch_requires_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "batch", str(tmp_path / "missing"))
    assert code == 1


def test_usage_error_unknown_length(fixtures_dir, capsys):
    code, _, err = run_cli(capsys, "verdict", str(fixtures_dir / "ex1.sub"),
                           "--length", "bogus")
    assert code == 1


def test_bpa_plain_mode_single_cell(fixtures_dir, capsys):
    code, out, _ = run_cli(capsys, "bpa", str(fixtures_dir / "ex1.sub"),
                           "--mode", "plain")
    assert code == 0
    assert out.count("->") == 1  # exactly one cell line
    assert "plain" in out


def test_verdict_density_levels_in_json(tmp_path, fixtures_dir, capsys):
    out_json = tmp_path / "d.json"
    code, _, _ = run_cli(capsys, "verdict", str(fixtures_dir / "ex1.sub"),
                         "--prefix", "1", "--length", "lambda",
                         "--density-levels", "2", "--json", str(out_json))
    assert code == 0
    doc = json.loads(out_json.read_text())
    densities = doc["cells"][0]["densities"]
    assert [d["level"] for d in densities] == [0, 1, 2]
    assert all(0.0 <= float(d["ratio_decimal"]) <= 1.0 for d in densities)


def test_info_ten_letter_chain(tmp_path, capsys):
    path = tmp_path / "chain10.sub"
    path.write_text("".join(f"{i} -> 1{i + 1}\n" for i in range(1, 9))
                    + "9 -> 1a\na -> 1\n")
    code, out, _ = run_cli(capsys, "info", str(path))
    assert code == 0
    factors = [line for line in out.splitlines() if line.startswith("factor:")]
    assert factors == ["factor: (-1 - x - x^2 - x^3 - x^4 - x^5 - x^6 - x^7 "
                       "- x^8 - x^9 + x^10)^1"]


def test_verdict_eight_letters_exit_budget(tmp_path, capsys):
    path = tmp_path / "eight.sub"
    path.write_text("1 -> 1153\n2 -> 2624\n3 -> 3552\n4 -> 48\n5 -> 5826\n"
                    "6 -> 67\n7 -> 71\n8 -> 877\n")
    code, out, _ = run_cli(capsys, "verdict", str(path),
                           "--prefix", "1", "--length", "lambda")
    assert code == 2
    assert "budget exceeded" in out


def test_verdict_letter_partition_error_exit_one(tmp_path, capsys):
    # sigma maps letters 1 and 4 of one class to images with different
    # class counts, so the letters relation cannot be built
    path = tmp_path / "split-class.sub"
    path.write_text("1 -> 414\n2 -> 41\n3 -> 1411\n4 -> 213\n")
    code, out, _ = run_cli(capsys, "verdict", str(path),
                           "--mode", "letters", "--prefix", "2")
    assert code == 1
    assert "ERROR ValueError: letters 1 and 4 share a class" in out


# the ids keep the numbering of a retired exit-code-3 case before these two
@pytest.mark.parametrize("error, code", [
    (InternalInvariantError("broken"), 4),
    (NotBalanced("unbalanced"), 1),
], ids=["error1-4", "error2-1"])
def test_verdict_errored_cell_exit_code(fixtures_dir, capsys, monkeypatch,
                                        error, code):
    def fail(*args, **kwargs):
        raise error

    # the package re-exports verdict(), which hides the module attribute
    monkeypatch.setattr(importlib.import_module("balpair.verdict"),
                        "run_bpa", fail)
    got, out, _ = run_cli(capsys, "verdict", str(fixtures_dir / "ex1.sub"),
                          "--length", "ones", "--prefix", "1")
    assert got == code
    assert f"ERROR {type(error).__name__}" in out


@pytest.mark.parametrize("extra", [[], ["--prefix", "12"]],
                         ids=["auto-prefix", "prefix-12"])
def test_batch_keeps_going_after_a_failed_file(tmp_path, capsys, extra):
    # b.sub is not primitive; with --prefix 12, a.sub (fixed word 112...)
    # fails as well
    (tmp_path / "a.sub").write_text("1 -> 112\n2 -> 12\n")
    (tmp_path / "b.sub").write_text("1 -> 1\n2 -> 21\n")
    (tmp_path / "c.sub").write_text("1 -> 12\n2 -> 1\n")
    code, out, _ = run_cli(capsys, "batch", str(tmp_path), *extra)
    assert code == 1
    blocks = dict(block.split("\n", 1) for block in out.split("== ")[1:])
    assert blocks["b.sub"] == \
        "  error: analysis requires a primitive substitution\n"
    assert ("error: prefix '12' does not start the fixed word"
            in blocks["a.sub"]) == bool(extra)
    assert "w=12 general[lambda]: terminated" in blocks["c.sub"]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("flag, name", [
    ("--max-iter", "max_iterations"),
    ("--max-pairs", "max_pairs"),
    ("--max-word-len", "max_word_length"),
])
def test_budget_flags_must_be_positive(fixtures_dir, capsys, flag, name,
                                       value):
    code, out, err = run_cli(capsys, "verdict", str(fixtures_dir / "ex1.sub"),
                             flag, value)
    assert code == 1
    assert err == f"error: budget {name} must be positive\n"
    assert out == ""


SALEM = "1 -> 2\n2 -> 14\n3 -> 23\n4 -> 1233\n"


def test_salem_input_is_classified(tmp_path, capsys):
    # char poly x^4 - x^3 - 2x^2 - x + 1: a Salem number, its inverse and a
    # complex pair on the unit circle
    path = tmp_path / "salem.sub"
    path.write_text(SALEM)
    code, out, _ = run_cli(capsys, "info", str(path))
    assert code == 0
    assert "dim large / small eigenspaces: 2 / 1" in out

    out_json = tmp_path / "salem.json"
    code, _, _ = run_cli(capsys, "verdict", str(path), "--length", "lambda",
                         "--max-word-len", "300", "--json", str(out_json))
    assert code == 2
    flags = json.loads(out_json.read_text())["substitution"]["flags"]
    assert flags.pop("undecidable") is None
    assert None not in flags.values()
    assert (flags["dim_large_eigenspaces"],
            flags["dim_small_eigenspaces"]) == (2, 1)


def test_verdict_falls_back_to_the_shortest_returning_prefix(tmp_path,
                                                             capsys):
    # the fixed word 21434311334 2... first returns to its first letter
    # after 11 letters, past the default --prefix-auto 8
    path = tmp_path / "late-return.sub"
    path.write_text("1 -> 343\n2 -> 214\n3 -> 42\n4 -> 1133\n")
    out_json = tmp_path / "late-return.json"
    code, out, _ = run_cli(capsys, "verdict", str(path), "--length", "lambda",
                           "--json", str(out_json))
    assert code == 0
    assert out.splitlines()[0] == ("  no returning prefix has at most 8 "
                                   "letters; using the shortest, "
                                   "21434311334 (11 letters)")
    [cell] = json.loads(out_json.read_text())["cells"]
    assert cell["prefix"] == "21434311334"
