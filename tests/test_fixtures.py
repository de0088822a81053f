"""Integration: every corpus fixture reproduces its expected-outcome sidecar."""

import pytest

from balpair.engine import Budgets, run_bpa, pair_graph, coincidence_analysis
from balpair.equivalence import LengthSpec, Relation, letter_equiv_classes
from balpair.linalg import (char_poly, classify_spectrum, integer_form,
                            left_pf_eigenvector)
from balpair.polynomial import factor_poly
from balpair.substitution import fixed_point_stream
from balpair.verdict import verdict

from conftest import CORPUS_NAMES, load_corpus, load_expect
from oracles import word_equiv


def relation_for(subst, mode):
    if mode == "plain":
        return Relation.plain(subst)
    if mode == "letters":
        return Relation.letter_classes(subst)
    if mode == "lambda":
        return Relation.generalized(subst, LengthSpec.pf())
    if mode == "ones":
        return Relation.generalized(subst, LengthSpec.ones())
    assert mode.startswith("custom:")
    return Relation.generalized(subst,
                                LengthSpec.parse(mode.split(":", 1)[1]))


def budgets_for(cell):
    budgets = Budgets()
    for key, value in cell.get("budgets", {}).items():
        setattr(budgets, key, value)
    return budgets


def longest_strict_run(values):
    best = run = 1
    for a, b in zip(values, values[1:]):
        run = run + 1 if b > a else 1
        best = max(best, run)
    return best


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_fixture_spectral_data(name):
    subst = load_corpus(name)
    expect = load_expect(name)
    flags = expect["flags"]
    assert subst.is_primitive() == flags["primitive"]
    assert subst.is_constant_length() == flags["constant_length"]

    matrix = subst.transition_matrix()
    cp = char_poly(matrix)
    assert [str(c) for c in cp.coeffs] == expect["char_poly"]
    factors = [{"poly": [str(c) for c in f.coeffs], "multiplicity": m}
               for f, m in factor_poly(cp)]
    assert factors == expect["factors"]

    spectrum = subst.spectrum()
    eigen = classify_spectrum(spectrum.factors, spectrum.perron)
    assert eigen.charpoly_irreducible == flags["charpoly_irreducible"]
    assert eigen.pisot_type_literal == flags["pisot_type_literal"]

    nf = spectrum.perron
    assert [str(c) for c in nf.min_poly.coeffs] == \
        expect["perron"]["min_poly"]
    assert nf.approx_str().startswith(expect["perron"]["approx_prefix"])

    vec = left_pf_eigenvector(matrix, cp, nf)
    ints = integer_form(vec)
    if expect["l_lambda_integer"] is None:
        assert ints is None
    else:
        assert list(ints) == expect["l_lambda_integer"]
    if "l_lambda_coeffs" in expect:
        got = [[str(c) for c in v.coeffs] for v in vec]
        assert got == expect["l_lambda_coeffs"]

    classes = letter_equiv_classes(subst)
    rendered = [[subst.alphabet.tokens[i] for i in cls] for cls in classes]
    assert rendered == expect["letter_classes"]

    stream = fixed_point_stream(subst)
    fp = expect["fixed_point"]
    assert stream.power == fp["power"]
    assert subst.alphabet.tokens[stream.seed] == fp["seed"]
    assert subst.alphabet.render(stream.prefix(len(fp["prefix"]))) == \
        fp["prefix"]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_fixture_equiv_checks(name):
    expect = load_expect(name)
    if "equiv_checks" not in expect:
        pytest.skip("no equivalence checks for this fixture")
    subst = load_corpus(name)
    for check in expect["equiv_checks"]:
        rel = relation_for(subst, check["mode"])
        u = subst.alphabet.word_from_text(check["u"])
        v = subst.alphabet.word_from_text(check["v"])
        assert word_equiv(rel, u, v) == check["equivalent"], check


def test_pisot_rewrite_orthogonality():
    expect = load_expect("pisot-rewrite")
    ortho = expect["orthogonality"]
    length = ortho["length_vector"]
    eigvec = ortho["unit_right_eigenvector"]
    assert sum(a * b for a, b in zip(length, eigvec)) == ortho["dot"]
    assert sum(a * b for a, b in zip(ortho["miscomputed_vector"], eigvec)) == \
        ortho["miscomputed_dot"]
    # the right eigenvector really has eigenvalue 1
    subst = load_corpus("pisot-rewrite")
    a = subst.transition_matrix()
    image = [sum(a[i][j] * eigvec[j] for j in range(4)) for i in range(4)]
    assert image == eigvec


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_fixture_cells(name):
    subst = load_corpus(name)
    expect = load_expect(name)
    stream = fixed_point_stream(subst)
    for cell in expect["cells"]:
        rel = relation_for(subst, cell["mode"])
        w = subst.alphabet.word_from_text(cell["prefix"])
        outcome = run_bpa(subst, rel, w, budgets_for(cell), stream=stream)
        spec = cell["expect"]
        label = f"{name} w={cell['prefix']} {cell['mode']}"
        if spec["outcome"] == "terminated":
            assert outcome.terminated, label
            assert len(outcome.vertices) == spec["pairs"], label
            if "closure_iteration" in spec:
                assert outcome.closure_iteration == spec["closure_iteration"]
            if "longest_top" in spec:
                assert max(len(p.top) for p in outcome.vertices) == \
                    spec["longest_top"], label
            graph = outcome
            oracle = pair_graph(subst, rel, outcome.vertices)
            assert graph.vertices == oracle.vertices, label
            assert list(graph.edges.items()) == \
                list(oracle.edges.items()), label
            reached = coincidence_analysis(graph)
            all_lead = reached == set(range(len(graph.vertices)))
            assert all_lead == spec["all_lead"], label
            failing = tuple(p for i, p in enumerate(graph.vertices)
                            if i not in reached)
            prefix_ok = stream.letter(len(w)) == stream.letter(0)
            v = verdict(outcome, failing, prefix_ok)
            assert v.kind == spec["verdict"], label
        else:
            assert not outcome.terminated, label
            assert outcome.which == spec["which"], label
            lengths = [ln for _, ln in outcome.growth_trace]
            assert longest_strict_run(lengths) >= \
                spec["min_strictly_increasing"], (label, lengths)
