"""The report's JSON writer against `json.dumps(indent=2)`, the reference.

`report._encode` writes the report in one pass; these tests hold it byte
for byte to the stdlib's indent encoder on generated values and on every
shipped fixture, pin the TypeError on a key that is not a str, bound the
render peak of the largest report, and carry the mutant gate: known-wrong
writers that the checks here catch.
"""

import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balpair import report
from balpair.engine import Budgets
from balpair.equivalence import letter_equiv_classes
from balpair.report import (_encode, info_document, render_info_json,
                            render_json, report_document)
from balpair.verdict import AnalysisConfig, RelationSpec, analyze

from conftest import FIXTURES, load_corpus
from test_split import _mutant


def _stdlib(doc):
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode()


class Text(str):
    pass


class Int(int):
    pass


# quotes, backslashes, control characters, a line separator, non-ASCII and
# non-BMP text
TEXT = st.text(st.sampled_from(
    ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
     '\u2028', '\xe9', '\u03bb', '\u4e2d', '\U0001f600', '\U00010348']),
    max_size=8)
LEAVES = st.one_of(
    TEXT,
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False) | st.sampled_from([-0.0, 1e300, 0.5]),
    st.booleans(),
    st.none(),
    TEXT.map(Text),
    st.integers(-5, 5).map(Int),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT | TEXT.map(Text), inner,
                                     max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(VALUES)
def test_writer_matches_the_stdlib(value):
    assert _encode(value) == _stdlib(value)


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.sub"))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reports_match_the_stdlib_on_every_fixture(name):
    subst = load_corpus(name)
    result = analyze(subst, AnalysisConfig(density_levels=1))
    assert any(cell.densities for cell in result.cells)
    assert render_json(result) == _stdlib(report_document(result))
    classes = letter_equiv_classes(subst)
    assert render_info_json(subst, classes) == \
        _stdlib(info_document(subst, classes))


def _keys_must_be_str():
    # the stdlib would write the key 1 as "1"; the writer refuses it,
    # wherever the dict sits
    bad = {1: "x"}
    for doc in (bad, {"a": bad}, [bad], ("a", bad)):
        try:
            _encode(doc)
        except TypeError:
            continue
        raise AssertionError(f"no TypeError on {doc!r}")


def test_a_key_that_is_not_a_str_raises():
    _keys_must_be_str()


def _render_peak(render, result):
    gc.collect()
    tracemalloc.start()
    try:
        render(result)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _const_len_plain():
    # the largest report of the closure jobs: criterion 2's budgets
    subst = load_corpus("const-len")
    return analyze(subst, AnalysisConfig(
        prefixes=[subst.alphabet.word_from_text("1")],
        relations=[RelationSpec.plain()],
        budgets=Budgets(max_iterations=14, max_word_length=200_000)))


def _peak_bounded(result):
    # the stdlib path holds its chunks beside the text, then the text
    # beside its copy with the newline; the writer must peak no higher
    reference = _render_peak(lambda r: _stdlib(report_document(r)), result)
    peak = _render_peak(render_json, result)
    assert peak <= 1.05 * reference, (peak, reference)


def test_render_peak_of_the_largest_report_is_bounded():
    _peak_bounded(_const_len_plain())


# -- mutant gate: known-wrong writers that the checks above catch ------------

MUTANTS = {
    "tuple written as a leaf": ("_write", "elif cls is list or cls is tuple:",
                                "elif cls is list:"),
    "bool through the int path": (
        "_write", "elif kind is int:\n                out.append(head",
        "elif isinstance(item, int):\n                out.append(head"),
    "parts list kept through .encode": ("_encode", "    del out\n", ""),
}


@pytest.mark.parametrize("mutant, caught_by", [
    ("tuple written as a leaf", "str keys"),
    ("bool through the int path", "differential"),
    ("parts list kept through .encode", "render peak"),
])
def test_a_wrong_writer_fails_a_check(mutant, caught_by):
    # each check holds as the writer is, and fails with the mutant in. A
    # tuple sent to the json.dumps fallback comes out in the same bytes,
    # but a key inside it is coerced where it should raise. A bool on the
    # int path is written True, not true. Parts kept alive through
    # .encode sit beside the text and the bytes: about a third more peak
    check = {"str keys": _keys_must_be_str,
             "differential": test_writer_matches_the_stdlib,
             "render peak": lambda: _peak_bounded(_const_len_plain()),
             }[caught_by]
    check()
    name, old, new = MUTANTS[mutant]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, name, _mutant(report, name, old, new))
        with pytest.raises(AssertionError):
            check()
