"""A relation's cut key decides its closures, and an analysis shares them.

`Relation.cut_key` is the reduced row-echelon basis of the span of the
relation's state columns: two relations with equal keys have equal state
equality on every pair of words, so `run_bpa` gives them equal closures,
and `analyze` computes one closure per (prefix, cut key). Checked here:
equal keys give equal closures in every field, on the fixtures and on
random substitutions, under plain, letters, general[ones], general[lambda]
and custom length vectors; an analysis that shares closures reports what
one that runs `run_bpa` for every cell reports; and a key built from the
rank alone, which shares closures between relations that cut differently,
fails that differential.

Length vectors of deficient rank come from the rational eigenvectors of
the length map L -> L . A: ones plus a small multiple of one eigenvector
spans one dimension more than ones does, and two such vectors for two
eigenvalues span spaces of one dimension but differ.
"""

import importlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balpair import equivalence
from balpair.engine import run_bpa
from balpair.equivalence import LengthSpec, Relation, RelationSpec
from balpair.errors import BalpairError
from balpair.report import report_document
from balpair.substitution import auto_prefixes, parse_substitution
from balpair.verdict import AnalysisConfig, analyze

from conftest import CORPUS_NAMES, count_calls, load_corpus, load_expect
from test_split import BATCH_BUDGETS, _mutant, primitive_substitutions

FIELDS = ("vertices", "edges", "discovered", "growth_trace", "iterations_done",
          "which", "letters_walked")


def _null_space(rows):
    """A basis of the right null space of a Fraction matrix."""
    rows = [list(row) for row in rows]
    size = len(rows[0])
    pivots = []
    for col in range(size):
        at = next((k for k in range(len(pivots), len(rows)) if rows[k][col]),
                  None)
        if at is None:
            continue
        top = len(pivots)
        rows[top], rows[at] = rows[at], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for k, row in enumerate(rows):
            if k != top and row[col]:
                rows[k] = [x - row[col] * y for x, y in zip(row, rows[top])]
        pivots.append(col)
    basis = []
    for free in (col for col in range(size) if col not in pivots):
        v = [Fraction(0)] * size
        v[free] = Fraction(1)
        for row, col in zip(rows, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def eigen_lengths(subst):
    """Per rational eigenvector v of the length map L -> L . A that has
    entries of both signs: ones + v / (2 max |v|), a positive vector."""
    n = subst.size
    counts = [subst.population_vector(image) for image in subst.rules]
    out = []
    for factor, _ in subst.spectrum().factors:
        if factor.degree != 1:
            continue
        c0, c1 = factor.coeffs
        mu = -c0 / c1
        for v in _null_space([[counts[j][i] - (mu if i == j else 0)
                               for i in range(n)] for j in range(n)]):
            if min(v) < 0 < max(v):
                scale = 2 * max(map(abs, v))
                out.append(tuple(1 + x / scale for x in v))
    return out


def _specs(subst, customs):
    return [RelationSpec.plain(), RelationSpec.letters(),
            RelationSpec.general(LengthSpec.ones()),
            RelationSpec.general(LengthSpec.pf()),
            *(RelationSpec.general(LengthSpec.custom(c)) for c in customs)]


def _relations(subst, customs):
    """The relations of _specs that build; letters may not."""
    out = []
    for spec in _specs(subst, customs):
        try:
            out.append(spec.build(subst))
        except ValueError:  # letter classes whose images disagree
            pass
    return out


def _closure(rel, w):
    try:
        closure = run_bpa(rel, w, BATCH_BUDGETS)
    except BalpairError as exc:
        return type(exc).__name__, str(exc)
    return tuple(getattr(closure, field) for field in FIELDS)


def _assert_equal_keys_give_equal_closures(subst, customs, tally):
    """Every two relations with equal cut keys have equal closures on every
    auto prefix; tally counts the relation pairs with equal and with
    different keys."""
    rels = _relations(subst, customs)
    for a, b in combinations(rels, 2):
        tally["shared" if a.cut_key == b.cut_key else "apart"] += 1
    groups = {}
    for rel in rels:
        groups.setdefault(rel.cut_key, []).append(rel)
    for group in groups.values():
        if len(group) < 2:
            continue
        for w in auto_prefixes(subst.fixed_point(), 8):
            first, *rest = group
            expected = _closure(first, w)
            for rel in rest:
                assert _closure(rel, w) == expected, (rel.spec, first.spec, w)


def _fixture_customs(subst, name):
    """The fixture's own custom length vectors, 1..n, its image under
    sigma, and the eigen_lengths."""
    ramp = tuple(range(1, subst.size + 1))
    own = [LengthSpec.parse(cell["mode"][7:]).values
           for cell in load_expect(name)["cells"]
           if cell["mode"].startswith("custom:")]
    return [*own, ramp, subst.image_lengths(ramp), *eigen_lengths(subst)]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_lambda_and_ones_share_a_key_where_the_closures_agree(name):
    subst = load_corpus(name)
    ones, pf = (RelationSpec.general(spec).build(subst)
                for spec in (LengthSpec.ones(), LengthSpec.pf()))
    shared = name in ("const-len", "ex1", "exnoncon", "reducible3")
    assert (ones.cut_key == pf.cut_key) == shared
    # the key is the same span however the relation is reached
    assert pf.cut_key == equivalence._echelon(
        [[2 * x for x in col] for col in zip(*pf.letter_eq)][::-1])


def test_equal_cut_keys_give_equal_closures_on_the_fixtures():
    tally = Counter()
    for name in CORPUS_NAMES:
        subst = load_corpus(name)
        _assert_equal_keys_give_equal_closures(
            subst, _fixture_customs(subst, name), tally)
    assert tally["shared"] and tally["apart"], tally


def test_equal_cut_keys_give_equal_closures():
    tally = Counter()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(primitive_substitutions(), st.data())
    def check(subst, data):
        custom = data.draw(st.lists(st.builds(Fraction, st.integers(1, 9),
                                              st.integers(1, 9)),
                                    min_size=subst.size, max_size=subst.size))
        _assert_equal_keys_give_equal_closures(
            subst, [custom, subst.image_lengths(custom),
                    *eigen_lengths(subst)], tally)

    check()
    assert tally["shared"] and tally["apart"], tally


def test_cut_key_is_the_reduced_echelon_basis():
    # rows over Q: (2, 4, 0), (1, 2, 1) and (3, 6, 1) span the rows
    # (1, 2, 0) and (0, 0, 1); a zero row adds nothing
    assert equivalence._echelon([(2, 4, 0), (0, 0, 0), (1, 2, 1),
                                 (3, 6, 1)]) == ((1, 2, 0), (0, 0, 1))
    assert equivalence._echelon([(0, -3, 6), (5, 1, 0)]) == \
        ((5, 0, 2), (0, 1, -2))
    assert equivalence._echelon([(0, 0)]) == ()


# -- the analysis: one closure per (prefix, cut key) ---------------------------

def _result(subst, config):
    doc = report_document(analyze(subst, config))
    doc.pop("metrics")
    return json.dumps(doc)


def _unshared_result(subst, config):
    """The result part of an analysis that runs run_bpa for every cell and
    every PF rerun: no two relations, or two reads of one, share a key."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Relation, "cut_key", property(lambda self: object()))
        return _result(subst, config)


def _config(specs):
    return AnalysisConfig(relations=specs, budgets=BATCH_BUDGETS)


def _assert_sharing_keeps_the_report(subst, specs):
    config = _config(specs)
    assert _result(subst, config) == _unshared_result(subst, config)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_shared_closures_keep_the_report_on_the_fixtures(name):
    subst = load_corpus(name)
    _assert_sharing_keeps_the_report(subst, AnalysisConfig().relations)
    _assert_sharing_keeps_the_report(
        subst, _specs(subst, _fixture_customs(subst, name))[2:])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(primitive_substitutions(), st.data())
def test_shared_closures_keep_the_report(subst, data):
    custom = data.draw(st.lists(st.builds(Fraction, st.integers(1, 9),
                                          st.integers(1, 9)),
                                min_size=subst.size, max_size=subst.size))
    customs = [custom, *eigen_lengths(subst)]
    specs = _specs(subst, customs)
    # letters, when its classes disagree, fails its cells and is kept
    _assert_sharing_keeps_the_report(
        subst, data.draw(st.permutations(specs)))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_each_closure_runs_once_per_prefix_and_key(name, monkeypatch):
    subst = load_corpus(name)
    specs = _specs(subst, _fixture_customs(subst, name))
    # the package re-exports verdict(), which hides the module attribute
    calls = count_calls(monkeypatch, importlib.import_module("balpair.verdict"),
                        "run_bpa")
    report = analyze(subst, _config(specs))
    ran = [(w, rel.cut_key) for rel, w, _budgets in calls]
    assert len(ran) == len(set(ran))
    # cells with one prefix and key read one closure, which the cell they
    # name computed, itself or an earlier one of the same prefix
    closures = {}
    for i, cell in enumerate(report.cells):
        if cell.outcome is None:
            assert cell.closure_cell is None
            continue
        key = (cell.prefix, cell.spec.build(subst).cut_key)
        assert key in ran
        assert closures.setdefault(key, cell.outcome) is cell.outcome
        assert cell.closure_cell <= i
        assert report.cells[cell.closure_cell].prefix == cell.prefix
    assert len(closures) < len(report.cells)
    assert report_document(report)["metrics"]["cell_closure"] == [
        cell.closure_cell for cell in report.cells]


# -- a mutant key: the rank alone ----------------------------------------------

# 3- and 4-letter substitutions with two rational eigenvectors, and the
# lengths eigen_lengths builds from them: equal ranks, different spans
RANK_CASES = [
    "1 -> 1233\n2 -> 3311\n3 -> 1231",
    "1 -> 332\n2 -> 312\n3 -> 123",
    "1 -> 3412\n2 -> 242\n3 -> 12\n4 -> 4132",
]


def _rank_case(rules):
    subst = parse_substitution(rules)
    return subst, [RelationSpec.general(LengthSpec.ones()),
                   RelationSpec.general(LengthSpec.pf()),
                   *(RelationSpec.general(LengthSpec.custom(c))
                     for c in eigen_lengths(subst))]


def test_a_rank_only_cut_key_fails_the_differential():
    cases = [_rank_case(rules) for rules in RANK_CASES]
    for subst, specs in cases:
        keys = [spec.build(subst).cut_key for spec in specs]
        assert any(len(a) == len(b) and a != b
                   for a, b in combinations(keys, 2))
        _assert_sharing_keeps_the_report(subst, specs)
    wrong = _mutant(
        equivalence, "_echelon",
        "return tuple(tuple(basis[col]) for col in sorted(basis))",
        "return len(basis)")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "_echelon", wrong)
        for subst, specs in cases:
            with pytest.raises(AssertionError):
                _assert_sharing_keeps_the_report(subst, specs)
