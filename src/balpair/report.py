"""Serialization: canonical JSON report documents and DOT graph export.

JSON rendering is a pure function of the report value once its last key,
`metrics` (the run timings, and which cell computed each cell's closure),
is removed: key order is fixed by construction, rationals are encoded as
strings, and exact algebraic scalars as coefficient vectors plus a decimal
approximation. `info --json` writes the report's
first three keys from the same builders.

The bytes are UTF-8 in exactly the layout of `json.dumps(indent=2,
ensure_ascii=False)` plus a final newline, written in one pass by one
recursive writer, `_write`, in place of the stdlib's pure-Python indent
encoder (see `_encode`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring

from . import __version__
from .linalg import integer_form
from .numberfield import FieldScalar
from .verdict import SCOPE


def _scalar(value):
    """Exact scalar -> JSON value: rationals as strings, field elements as
    coefficient vector plus decimal."""
    if isinstance(value, FieldScalar):
        if value.is_rational:
            return {"poly_coeffs": [str(value.coeffs[0])],
                    "approx_decimal": value.decimal()}
        return {"poly_coeffs": [str(c) for c in value.coeffs],
                "approx_decimal": value.decimal()}
    return str(Fraction(value))


def _poly(p):
    return [str(c) for c in p.coeffs]


def _pair(pair, alphabet):
    return {"top": alphabet.render(pair.top),
            "bottom": alphabet.render(pair.bottom)}


def _outcome(outcome, alphabet, pair_list_limit):
    vertices = outcome.vertices
    doc = {"status": "terminated" if outcome.terminated else "budget_exceeded"}
    if outcome.terminated:
        doc["closure_iteration"] = outcome.closure_iteration
        doc["pair_count"] = len(vertices)
    else:
        doc["which_budget"] = outcome.which
        doc["iterations_done"] = outcome.iterations_done
        doc["pair_count"] = len(vertices)
        doc["longest_pairs"] = [_pair(p, alphabet)
                                for p in outcome.longest_pairs]
    doc["growth_trace"] = [[it, ln] for it, ln in outcome.growth_trace]
    # an initial-split overrun found no pairs and lists none
    if len(vertices) > pair_list_limit:
        doc["pairs_omitted"] = len(vertices)
        doc["pair_sample"] = [_pair(p, alphabet) for p in vertices[:10]]
    elif vertices:
        render = alphabet.render
        doc["pairs"] = [{"top": render(p.top), "bottom": render(p.bottom),
                         "discovered": iteration}
                        for p, iteration in zip(vertices, outcome.discovered)]
    return doc


def _verdict(v):
    if v is None:
        return None
    doc = {"kind": v.kind}
    if v.reason:
        doc["reason"] = v.reason
    doc["scope"] = SCOPE
    if v.failing_pairs:
        doc["failing_pair_count"] = len(v.failing_pairs)
    return doc


def _cell(cell, alphabet, pair_list_limit):
    length = cell.spec.length
    doc = {
        "prefix": alphabet.render(cell.prefix),
        "relation": cell.spec.label(),
        "length_spec": length.label() if length is not None else None,
        "prefix_returns": cell.prefix_ok,
    }
    if cell.error is not None:
        doc["error"] = cell.error
        return doc
    outcome = cell.outcome
    doc["outcome"] = _outcome(outcome, alphabet, pair_list_limit)
    if outcome.terminated:
        failing = cell.verdict.failing_pairs
        doc["graph_stats"] = {
            "vertices": len(outcome.vertices),
            "coincidences": len(outcome.coincidence_indices()),
        }
        doc["coincidence"] = {"all_lead": not failing,
                              "failing_pairs": [p.render(alphabet)
                                                for p in failing]}
    doc["verdict"] = _verdict(cell.verdict)
    if cell.corollary_check is not None:
        doc["corollary_check"] = cell.corollary_check
    if cell.densities is not None:
        doc["densities"] = [
            {"level": lvl,
             "horizon": d.horizon,
             "ratio_decimal": d.ratio_decimal,
             "ratio_fraction": (str(d.ratio_fraction)
                                if d.ratio_fraction is not None else None),
             "coincident_mass": _scalar(d.coincident_mass),
             "total_mass": _scalar(d.total_mass)}
            for lvl, d in enumerate(cell.densities)]
    return doc


def substitution_document(subst):
    """The `substitution` block in canonical key order: matrix data, then,
    for a primitive substitution, spectral data, then flags; a non-primitive
    one gets only the `primitive` and `constant_length` flags."""
    alphabet = subst.alphabet
    primitive = subst.is_primitive()
    doc = {
        "rules": {alphabet.tokens[i]: alphabet.render(img)
                  for i, img in enumerate(subst.rules)},
        "alphabet": list(alphabet.tokens),
        "matrix": [list(row) for row in subst.transition_matrix()],
        "char_poly": _poly(subst.char_poly()),
    }
    flags = {"primitive": primitive,
             "constant_length": subst.is_constant_length()}
    if primitive:
        spectrum = subst.spectrum()
        perron = spectrum.perron
        eigen = spectrum.eigen
        l_lambda_integer = integer_form(spectrum.l_lambda)
        doc["factors"] = [{"poly": _poly(f), "multiplicity": m}
                          for f, m in spectrum.factors]
        doc["perron"] = {
            "min_poly": _poly(perron.min_poly),
            "interval": [str(b) for b in perron.canonical_interval()],
            "approx": perron.approx_str(),
        }
        doc["l_lambda"] = {
            "exact": [_scalar(v) for v in spectrum.l_lambda],
            "approx": [v.decimal() for v in spectrum.l_lambda],
            "integer_form": (list(l_lambda_integer)
                             if l_lambda_integer else None),
        }
        flags.update({
            "charpoly_irreducible": eigen.charpoly_irreducible,
            "pisot_type_literal": eigen.pisot_type_literal,
            "pisot_type_allowing_zero": eigen.pisot_type_allowing_zero,
            "dim_large_eigenspaces": eigen.dim_large,
            "dim_small_eigenspaces": eigen.dim_small,
            "pisot_transfer_to_shift": eigen.pisot_type_literal,
            # constant; every bench/reference.json digest includes the key
            "undecidable": None,
        })
    doc["flags"] = flags
    return doc


def info_document(subst, letter_classes):
    """What `info --json` writes, and the first three keys of a report."""
    tokens = subst.alphabet.tokens
    return {
        "tool_version": __version__,
        "substitution": substitution_document(subst),
        "letter_classes": [[tokens[i] for i in cls]
                           for cls in letter_classes],
    }


def report_document(report, pair_list_limit=1000):
    """The full report as a plain dict in canonical key order; the run
    timings and each cell's closure_cell sit in the last key, `metrics`."""
    subst = report.subst
    alphabet = subst.alphabet
    stream = subst.fixed_point()
    doc = info_document(subst, report.letter_classes)
    doc["substitution"]["fixed_point"] = {
        "power": stream.power,
        "seed": alphabet.tokens[stream.seed],
        "prefix": alphabet.render(report.fixed_prefix),
    }
    doc["cells"] = [_cell(c, alphabet, pair_list_limit) for c in report.cells]
    doc["corollary_ok"] = report.corollary_ok
    doc["metrics"] = {
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
        "cell_seconds": [round(c.seconds, 6) for c in report.cells],
        "cell_closure": [c.closure_cell for c in report.cells],
    }
    return doc


def _write(value, pad, out):
    """Append the JSON text of `value` to the list of parts `out`, laid out
    as `json.dumps(indent=2, ensure_ascii=False)` lays it out, where `pad`
    is "\\n" and the indentation of the value's own lines.

    A container item that is an exact str or int is one part with the
    separator and key before it, as in the stdlib's encoder; a part of its
    own would cost a string object per item. None, True and False are
    constants. Every other value, a float or a subclass say, is written by
    `json.dumps` itself and re-indented: no JSON string holds a raw
    newline, so that is exact at any depth. A dict key that is not a str
    raises TypeError, where `json.dumps` would coerce it.
    """
    cls = type(value)
    if cls is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        comma = "," + inner
        sep = "{" + inner
        for key, item in value.items():
            # encode_basestring raises TypeError on a key that is not a str
            head = sep + encode_basestring(key) + ": "
            kind = type(item)
            if kind is str:
                out.append(head + encode_basestring(item))
            elif kind is int:
                out.append(head + int.__repr__(item))
            else:
                out.append(head)
                _write(item, inner, out)
            sep = comma
        out.append(pad + "}")
    elif cls is list or cls is tuple:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        comma = "," + inner
        sep = "[" + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(sep + encode_basestring(item))
            elif kind is int:
                out.append(sep + int.__repr__(item))
            else:
                out.append(sep)
                _write(item, inner, out)
            sep = comma
        out.append(pad + "]")
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    else:
        out.append(json.dumps(value, indent=2, ensure_ascii=False)
                   .replace("\n", pad))


def _encode(doc):
    """UTF-8 bytes of `doc` exactly as `json.dumps(doc, indent=2,
    ensure_ascii=False)` and a final newline would give them, written in
    one pass by `_write`. The stdlib runs its pure-Python encoder whenever
    `indent` is set, re-yielding each part once per level of nesting.

    The parts are dropped before the text is encoded: kept alive through
    `.encode`, they would sit beside both the text and the bytes and raise
    the peak of a large report by about a third.
    """
    out = []
    _write(doc, "\n", out)
    out.append("\n")
    text = "".join(out)
    del out
    return text.encode("utf-8")


def render_json(report, pair_list_limit=1000) -> bytes:
    """Canonical JSON bytes; identical input report gives identical bytes."""
    return _encode(report_document(report, pair_list_limit=pair_list_limit))


def render_info_json(subst, letter_classes) -> bytes:
    """`info --json` bytes, in the report's serialization."""
    return _encode(info_document(subst, letter_classes))


def _dot_escape(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_dot(graph, alphabet) -> str:
    """DOT text for a pair graph: coincidences are double circles, vertices
    are labeled top/bottom, edge labels carry multiplicities."""
    lines = ["digraph balanced_pairs {", "  rankdir=LR;"]
    for i, pair in enumerate(graph.vertices):
        shape = "doublecircle" if pair.is_coincidence else "circle"
        label = _dot_escape(
            f"{alphabet.render(pair.top)}/{alphabet.render(pair.bottom)}")
        lines.append(f'  n{i} [label="{label}", shape={shape}];')
    for i in sorted(graph.edges):
        for j, mult in graph.edges[i]:
            lines.append(f'  n{i} -> n{j} [label="{mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
