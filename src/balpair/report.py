"""Serialization: canonical JSON report documents and DOT graph export.

JSON rendering is a pure function of the report value: key order is fixed by
construction, rationals are encoded as strings, and exact algebraic scalars
as coefficient vectors plus a decimal approximation, so the same report
always serializes to identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .linalg import integer_form
from .numberfield import FieldScalar


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
    if outcome is None:
        return None
    doc = {"status": "terminated" if outcome.terminated else "budget_exceeded"}
    if outcome.terminated:
        doc["closure_iteration"] = outcome.closure_iteration
        doc["pair_count"] = len(outcome.pairs)
    else:
        doc["which_budget"] = outcome.which
        doc["iterations_done"] = outcome.iterations_done
        doc["pair_count"] = outcome.pair_count
        doc["longest_pairs"] = [_pair(p, alphabet)
                                for p in outcome.longest_pairs]
    doc["growth_trace"] = [[it, ln] for it, ln in outcome.growth_trace]
    pairs = outcome.pairs
    if pairs is not None and len(pairs) <= pair_list_limit:
        doc["pairs"] = [
            {**_pair(p, alphabet), "discovered": pairs.discovered_at(p)}
            for p in pairs]
    elif pairs is not None:
        doc["pairs_omitted"] = len(pairs)
        doc["pair_sample"] = [_pair(p, alphabet)
                              for p in list(pairs.pairs())[:10]]
    return doc


def _verdict(v):
    if v is None:
        return None
    doc = {"kind": v.kind}
    if v.reason:
        doc["reason"] = v.reason
    doc["scope"] = v.scope
    if v.failing_pairs:
        doc["failing_pair_count"] = len(v.failing_pairs)
    return doc


def _cell(cell, alphabet, pair_list_limit):
    length = cell.spec.length
    doc = {
        "prefix": alphabet.render(cell.prefix),
        "relation": cell.relation_label,
        "length_spec": length.label() if length is not None else None,
        "prefix_returns": cell.prefix_ok,
    }
    if cell.error is not None:
        doc["error"] = cell.error
        return doc
    doc["outcome"] = _outcome(cell.outcome, alphabet, pair_list_limit)
    if cell.coincidence is not None:
        failing = [p.render(alphabet) for p, info in cell.coincidence.items()
                   if not info["leads_to_coincidence"]]
        doc["graph_stats"] = {
            "vertices": len(cell.coincidence),
            "coincidences": sum(1 for info in cell.coincidence.values()
                                if info["is_coincidence"]),
        }
        doc["coincidence"] = {"all_lead": cell.all_lead,
                              "failing_pairs": failing}
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
    doc["seconds"] = round(cell.seconds, 6)
    return doc


def report_document(report, pair_list_limit=1000):
    """The full report as a plain dict in canonical key order."""
    subst = report.subst
    alphabet = subst.alphabet
    eigen = report.eigen
    spectrum = report.spectrum
    perron = spectrum.perron
    l_lambda_integer = integer_form(spectrum.l_lambda)
    doc = {
        "tool_version": __version__,
        "substitution": {
            "rules": {alphabet.tokens[i]: alphabet.render(img)
                      for i, img in enumerate(subst.rules)},
            "alphabet": list(alphabet.tokens),
            "matrix": [list(row) for row in subst.transition_matrix()],
            "char_poly": _poly(spectrum.char_poly),
            "factors": ([{"poly": _poly(f), "multiplicity": m}
                         for f, m in spectrum.factors] if eigen else None),
            "perron": {
                "min_poly": _poly(perron.min_poly),
                "interval": [str(b) for b in perron.canonical_interval()],
                "approx": perron.approx_str(),
            },
            "l_lambda": {
                "exact": [_scalar(v) for v in spectrum.l_lambda],
                "approx": [v.decimal() for v in spectrum.l_lambda],
                "integer_form": (list(l_lambda_integer)
                                 if l_lambda_integer else None),
            },
            "flags": {
                "primitive": subst.is_primitive(),
                "constant_length": subst.is_constant_length(),
                "charpoly_irreducible": eigen.charpoly_irreducible if eigen else None,
                "pisot_type_literal": eigen.pisot_type_literal if eigen else None,
                "pisot_type_allowing_zero": (eigen.pisot_type_allowing_zero
                                             if eigen else None),
                "dim_large_eigenspaces": eigen.dim_large if eigen else None,
                "dim_small_eigenspaces": eigen.dim_small if eigen else None,
                "pisot_transfer_to_shift": report.pisot_transfer,
                "undecidable": report.undecidable,
            },
            "fixed_point": {
                "power": report.fixed_power,
                "seed": alphabet.tokens[report.fixed_seed],
                "prefix": alphabet.render(report.fixed_prefix),
            },
        },
        "letter_classes": [[alphabet.tokens[i] for i in cls]
                           for cls in report.letter_classes],
        "cells": [_cell(c, alphabet, pair_list_limit) for c in report.cells],
        "corollary_ok": report.corollary_ok,
        "timings": {k: round(v, 6) for k, v in report.timings.items()},
    }
    return doc


def render_json(report, pair_list_limit=1000) -> bytes:
    """Canonical JSON bytes; identical input report gives identical bytes."""
    doc = report_document(report, pair_list_limit=pair_list_limit)
    return (json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=False)
            + "\n").encode("utf-8")


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
