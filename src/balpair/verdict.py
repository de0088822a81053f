"""Spectral verdicts from pair-closure outcomes, and whole-analysis assembly.

The verdict table encodes the coincidence criterion: a terminated run whose pairs all
lead to a coincidence certifies pure discrete spectrum of the tiling flow
with the Perron length vector; a terminated run with a surviving
non-coincidence component refutes it, but only when the prefix returns to
its first letter (the side condition of the converse half). Everything else
is inconclusive, with the reason recorded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .engine import (Budgets, Closure, coincidence_analysis,
                     coincidence_density, run_bpa)
from .equivalence import LengthSpec, Relation, letter_equiv_classes
from .errors import BalpairError, EmptyConfig
from .linalg import EigenReport, Spectrum, classify_spectrum
from .substitution import Substitution, auto_prefixes, fixed_point_stream

PURE_DISCRETE = "pure_discrete"
NOT_PURE_DISCRETE = "not_pure_discrete"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpectrumVerdict:
    kind: str  # pure_discrete | not_pure_discrete | inconclusive
    reason: str | None = None  # budget_exceeded | prefix_condition_unmet
    failing_pairs: tuple = ()
    # conclusions always concern the tiling flow with the PF length vector
    scope: str = "tiling flow with the Perron length vector"


def verdict(outcome, failing, prefix_ok):
    """Apply the coincidence criterion's decision table to one cell.

    failing is the tuple of pairs, in vertex order, that reach no
    coincidence in the closure's pair graph; it is ignored unless the
    closure terminated.
    """
    if not outcome.terminated:
        return SpectrumVerdict(INCONCLUSIVE, reason="budget_exceeded")
    if not failing:
        return SpectrumVerdict(PURE_DISCRETE)
    if prefix_ok:
        return SpectrumVerdict(NOT_PURE_DISCRETE, failing_pairs=failing)
    return SpectrumVerdict(INCONCLUSIVE, reason="prefix_condition_unmet",
                           failing_pairs=failing)


@dataclass(frozen=True)
class RelationSpec:
    """A relation request: plain, letters, or general with a length spec."""

    mode: str
    length: LengthSpec | None = None

    @staticmethod
    def plain():
        return RelationSpec("plain")

    @staticmethod
    def letters():
        return RelationSpec("letters")

    @staticmethod
    def general(length: LengthSpec):
        return RelationSpec("general", length)

    def label(self):
        if self.mode == "general":
            return f"general[{self.length.label()}]"
        return self.mode

    def build(self, subst, classes=None):
        """The relation; classes, when given, are subst's letter classes."""
        if self.mode == "plain":
            return Relation.plain(subst)
        if self.mode == "letters":
            return Relation.letter_classes(subst, partition=classes)
        return Relation.generalized(subst, self.length)


@dataclass
class AnalysisConfig:
    prefixes: list = field(default_factory=list)  # words; empty means auto
    auto_max_len: int = 8
    require_return: bool = True
    relations: list = field(default_factory=lambda: [
        RelationSpec.general(LengthSpec.pf()),
        RelationSpec.general(LengthSpec.ones()),
    ])
    budgets: Budgets = field(default_factory=Budgets)
    density_levels: int | None = None  # compute densities for l = 0..levels


@dataclass
class CellResult:
    prefix: tuple
    spec: RelationSpec
    outcome: Closure | None = None
    prefix_ok: bool = False
    verdict: SpectrumVerdict | None = None
    corollary_check: dict | None = None
    densities: list | None = None
    exception: Exception | None = None  # what stopped the cell, if any
    seconds: float = 0.0

    @property
    def relation_label(self):
        return self.spec.label()

    @property
    def error(self):
        if self.exception is None:
            return None
        return f"{type(self.exception).__name__}: {self.exception}"


@dataclass
class AnalysisReport:
    subst: Substitution
    fixed_power: int
    fixed_seed: int
    fixed_prefix: tuple
    eigen: EigenReport
    spectrum: Spectrum
    letter_classes: tuple
    cells: list
    corollary_ok: bool
    timings: dict


def analyze(subst: Substitution, config: AnalysisConfig) -> AnalysisReport:
    """Run every (prefix, relation) cell and assemble the full report.

    Cells fail independently; whenever a non-PF relation terminates, the same
    prefix is rerun with the PF length vector and the corollary consistency
    (it must terminate too) is recorded.
    """
    if not config.relations:
        raise EmptyConfig("no relations requested")
    if not subst.is_primitive():
        raise ValueError("analysis requires a primitive substitution")

    t_start = time.perf_counter()
    timings = {}
    stream = fixed_point_stream(subst)
    if config.prefixes:
        prefixes = [tuple(w) for w in config.prefixes]
        for w in prefixes:
            if stream.prefix(len(w)) != w:
                raise ValueError(
                    f"prefix {subst.alphabet.render(w)!r} does not start "
                    "the fixed word")
    else:
        prefixes = auto_prefixes(stream, config.auto_max_len,
                                 config.require_return)

    t0 = time.perf_counter()
    spectrum = subst.spectrum()
    eigen = classify_spectrum(spectrum.factors, spectrum.perron)
    ones_spec = RelationSpec.general(LengthSpec.ones())
    ones_rel = ones_spec.build(subst)
    classes = letter_equiv_classes(subst, ones_rel)
    timings["spectral"] = time.perf_counter() - t0

    relations = []
    for spec in config.relations:
        try:
            relations.append((spec, ones_rel if spec == ones_spec
                              else spec.build(subst, classes)))
        except (BalpairError, ValueError) as exc:
            relations.append((spec, exc))

    pf_spec = RelationSpec.general(LengthSpec.pf())
    pf_rel = dict(relations).get(pf_spec) or pf_spec.build(subst)

    outcome_cache = {}

    def run_cell(prefix, label, rel):
        key = (prefix, label)
        if key not in outcome_cache:
            outcome_cache[key] = run_bpa(subst, rel, prefix,
                                         config.budgets, stream=stream)
        return outcome_cache[key]

    cells = []
    corollary_ok = True
    for prefix in prefixes:
        prefix_ok = stream.letter(len(prefix)) == stream.letter(0)
        for spec, rel in relations:
            cell = CellResult(prefix=prefix, spec=spec, prefix_ok=prefix_ok)
            t0 = time.perf_counter()
            if isinstance(rel, Exception):
                cell.exception = rel
                cell.seconds = time.perf_counter() - t0
                cells.append(cell)
                continue
            try:
                outcome = run_cell(prefix, spec.label(), rel)
                cell.outcome = outcome
                failing = ()
                if outcome.terminated:
                    reached = coincidence_analysis(outcome)
                    failing = tuple(p for i, p in enumerate(outcome.vertices)
                                    if i not in reached)
                cell.verdict = verdict(outcome, failing, prefix_ok)
                if outcome.terminated and spec != pf_spec:
                    pf_outcome = run_cell(prefix, pf_spec.label(), pf_rel)
                    cell.corollary_check = {
                        "relation": pf_spec.label(),
                        "terminated": pf_outcome.terminated,
                    }
                    if not pf_outcome.terminated:
                        corollary_ok = False
                if config.density_levels is not None:
                    cell.densities = _densities(subst, rel, prefix,
                                                config.density_levels, stream)
            except BalpairError as exc:
                cell.exception = exc
            cell.seconds = time.perf_counter() - t0
            cells.append(cell)

    timings["total"] = time.perf_counter() - t_start
    return AnalysisReport(
        subst=subst,
        fixed_power=stream.power,
        fixed_seed=stream.seed,
        fixed_prefix=stream.prefix(min(24, config.budgets.max_word_length)),
        eigen=eigen,
        spectrum=spectrum,
        letter_classes=classes,
        cells=cells,
        corollary_ok=corollary_ok,
        timings=timings,
    )


def _densities(subst, rel, prefix, levels, stream):
    out = []
    for level in range(levels + 1):
        shift = len(subst.apply(prefix, level))
        horizon = max(2 * shift, 4000)
        out.append(coincidence_density(subst, rel, prefix, level, horizon,
                                       stream=stream))
    return out
