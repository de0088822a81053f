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

from .engine import (Budgets, coincidence_analysis, coincidence_density,
                     pair_graph, run_bpa)
from .equivalence import LengthSpec, Relation, letter_equiv_classes
from .errors import BalpairError, EmptyConfig, Undecidable
from .linalg import Spectrum, classify_spectrum
from .substitution import Substitution, admissible_prefixes, fixed_point_stream

PURE_DISCRETE = "pure_discrete"
NOT_PURE_DISCRETE = "not_pure_discrete"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpectrumVerdict:
    kind: str  # pure_discrete | not_pure_discrete | inconclusive
    reason: str | None = None  # budget_exceeded | prefix_condition_unmet | undecidable_numerics
    witness_prefix: tuple | None = None
    relation: str | None = None
    failing_pairs: tuple = ()
    # conclusions always concern the tiling flow with the PF length vector
    scope: str = "tiling flow with the Perron length vector"


def verdict(outcome, analysis, prefix_ok, *, prefix=None, relation=None):
    """Apply the coincidence criterion's decision table to one cell.

    analysis maps each pair to {'is_coincidence', 'leads_to_coincidence'};
    it must cover every pair when the outcome terminated.
    """
    if not outcome.terminated:
        return SpectrumVerdict(INCONCLUSIVE, reason="budget_exceeded",
                               witness_prefix=prefix, relation=relation)
    failing = tuple(p for p, info in analysis.items()
                    if not info["leads_to_coincidence"])
    if not failing:
        return SpectrumVerdict(PURE_DISCRETE, witness_prefix=prefix,
                               relation=relation)
    if prefix_ok:
        return SpectrumVerdict(NOT_PURE_DISCRETE, witness_prefix=prefix,
                               relation=relation, failing_pairs=failing)
    return SpectrumVerdict(INCONCLUSIVE, reason="prefix_condition_unmet",
                           witness_prefix=prefix, relation=relation,
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

    def build(self, subst):
        if self.mode == "plain":
            return Relation.plain(subst)
        if self.mode == "letters":
            return Relation.letter_classes(subst)
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
    precision_bits: int = 1024
    pair_list_limit: int = 1000  # JSON embeds pair lists only below this


@dataclass
class CellResult:
    prefix: tuple
    spec: RelationSpec
    relation: Relation | None = None  # None when the relation failed to build
    outcome: object = None  # Terminated | BudgetExceeded
    prefix_ok: bool = False
    coincidence: dict | None = None
    all_lead: bool | None = None
    verdict: SpectrumVerdict | None = None
    corollary_check: dict | None = None
    densities: list | None = None
    error: str | None = None
    seconds: float = 0.0

    @property
    def relation_label(self):
        return self.spec.label()


@dataclass
class AnalysisReport:
    subst: Substitution
    fixed_power: int
    fixed_seed: int
    fixed_prefix: tuple
    eigen: object
    spectrum: Spectrum
    letter_classes: tuple
    cells: list
    corollary_ok: bool
    pisot_transfer: bool
    undecidable: str | None
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
        prefixes = admissible_prefixes(stream, config.auto_max_len,
                                       config.require_return)
        if not prefixes:
            raise EmptyConfig("no admissible prefixes under the return "
                              "condition; pass --prefix explicitly")

    undecidable = None
    t0 = time.perf_counter()
    spectrum = subst.spectrum()
    try:
        eigen = classify_spectrum(spectrum.factors, spectrum.perron,
                                  constant_length=subst.is_constant_length(),
                                  precision_bits=config.precision_bits)
    except Undecidable as exc:
        eigen = None
        undecidable = str(exc)
    classes = letter_equiv_classes(subst)
    timings["spectral"] = time.perf_counter() - t0

    relations = []
    for spec in config.relations:
        try:
            relations.append((spec, spec.build(subst)))
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
                cell.error = str(rel)
                cell.seconds = time.perf_counter() - t0
                cells.append(cell)
                continue
            cell.relation = rel
            try:
                outcome = run_cell(prefix, spec.label(), rel)
                cell.outcome = outcome
                if outcome.terminated:
                    graph = pair_graph(subst, rel, outcome.pairs)
                    cell.coincidence = coincidence_analysis(graph)
                    cell.all_lead = all(
                        info["leads_to_coincidence"]
                        for info in cell.coincidence.values())
                cell.verdict = verdict(outcome, cell.coincidence or {},
                                       prefix_ok, prefix=prefix,
                                       relation=spec.label())
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
                cell.error = f"{type(exc).__name__}: {exc}"
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
        pisot_transfer=bool(eigen and eigen.pisot_type_literal),
        undecidable=undecidable,
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
