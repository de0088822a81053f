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
from .equivalence import LengthSpec, RelationSpec, letter_equiv_classes
from .errors import BalpairError, EmptyConfig
from .substitution import Substitution, auto_prefixes

PURE_DISCRETE = "pure_discrete"
NOT_PURE_DISCRETE = "not_pure_discrete"
INCONCLUSIVE = "inconclusive"
# conclusions always concern the tiling flow with the PF length vector
SCOPE = "tiling flow with the Perron length vector"


@dataclass(frozen=True)
class SpectrumVerdict:
    kind: str  # pure_discrete | not_pure_discrete | inconclusive
    reason: str | None = None  # budget_exceeded | prefix_condition_unmet
    failing_pairs: tuple = ()


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


@dataclass
class AnalysisConfig:
    # letter sequences, each made a word of the alphabet; empty means auto
    prefixes: list = field(default_factory=list)
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
    prefix: bytes | tuple  # a word, Alphabet.word
    spec: RelationSpec
    outcome: Closure | None = None
    prefix_ok: bool = False
    verdict: SpectrumVerdict | None = None
    corollary_check: dict | None = None
    densities: list | None = None
    exception: Exception | None = None  # what stopped the cell, if any
    seconds: float = 0.0
    closure_cell: int | None = None  # the cell that computed outcome

    @property
    def error(self):
        if self.exception is None:
            return None
        return f"{type(self.exception).__name__}: {self.exception}"


@dataclass
class AnalysisReport:
    subst: Substitution
    fixed_prefix: bytes | tuple  # a word; its length depends on the budgets
    letter_classes: tuple
    cells: list
    timings: dict

    @property
    def corollary_ok(self):
        """No non-PF cell terminated while its PF rerun did not."""
        return all(cell.corollary_check["terminated"] for cell in self.cells
                   if cell.corollary_check is not None)


def analyze(subst: Substitution, config: AnalysisConfig) -> AnalysisReport:
    """Run every (prefix, relation) cell and assemble the full report.

    Cells fail independently; whenever a non-PF relation terminates, the same
    prefix is rerun with the PF length vector and the corollary consistency
    (it must terminate too) is recorded. Each relation is built at most once
    per analysis, when a cell or such a rerun first needs it. A closure is
    computed once per prefix and relation cut key (run_cell): cells whose
    relations cut alike share one Closure, and the PF rerun is a lookup
    when the PF relation cuts as the cell's does.
    """
    if not config.relations:
        raise EmptyConfig("no relations requested")
    if not subst.is_primitive():
        raise ValueError("analysis requires a primitive substitution")

    t_start = time.perf_counter()
    timings = {}
    stream = subst.fixed_point()
    if config.prefixes:
        prefixes = list(map(subst.alphabet.word_of, config.prefixes))
        for w in prefixes:
            if stream.prefix(len(w)) != w:
                raise ValueError(
                    f"prefix {subst.alphabet.render(w)!r} does not start "
                    "the fixed word")
    else:
        prefixes = auto_prefixes(stream, config.auto_max_len,
                                 config.require_return)

    t0 = time.perf_counter()
    subst.spectrum()  # memoised; built here to fall in the spectral timing
    classes = letter_equiv_classes(subst)
    timings["spectral"] = time.perf_counter() - t0
    relations = {}  # spec -> relation or exception

    def relation(spec):
        if spec not in relations:
            try:
                relations[spec] = spec.build(subst, classes)
            except (BalpairError, ValueError) as exc:
                relations[spec] = exc
        return relations[spec]

    outcomes = {}  # (prefix, cut key) -> (closure, index of its cell)

    def run_cell(prefix, rel):
        """The closure of the prefix under rel, and the index of the cell
        that computed it, the current one when none has.

        Closures are keyed by (prefix, rel.cut_key), which decides them:
        every cut the walk accepts is at equal states, and two relations
        with equal keys have equal states on every pair of words; the
        length enclosures only decide which bottom letters the walk looks
        up, never which cuts exist; and ScanOverflow, NotBalanced, the
        stability window and every budget stop read only cut positions and
        counts. So run_bpa would return equal closures, and one is shared.
        """
        key = (prefix, rel.cut_key)
        if key not in outcomes:
            outcomes[key] = (run_bpa(rel, prefix, config.budgets),
                             len(cells))
        return outcomes[key]

    pf = RelationSpec.general(LengthSpec.pf())
    cells = []
    for prefix in prefixes:
        prefix_ok = stream.letter(len(prefix)) == stream.letter(0)
        for spec in config.relations:
            cell = CellResult(prefix=prefix, spec=spec, prefix_ok=prefix_ok)
            t0 = time.perf_counter()
            rel = relation(spec)
            if isinstance(rel, Exception):
                cell.exception = rel
                cell.seconds = time.perf_counter() - t0
                cells.append(cell)
                continue
            try:
                outcome, cell.closure_cell = run_cell(prefix, rel)
                cell.outcome = outcome
                failing = ()
                if outcome.terminated:
                    reached = coincidence_analysis(outcome)
                    failing = tuple(p for i, p in enumerate(outcome.vertices)
                                    if i not in reached)
                cell.verdict = verdict(outcome, failing, prefix_ok)
                if outcome.terminated and spec != pf:
                    pf_outcome, _ = run_cell(prefix, relation(pf))
                    cell.corollary_check = {
                        "relation": pf.label(),
                        "terminated": pf_outcome.terminated,
                    }
                if config.density_levels is not None:
                    cell.densities = _densities(rel, prefix,
                                                config.density_levels)
            except BalpairError as exc:
                cell.exception = exc
            cell.seconds = time.perf_counter() - t0
            cells.append(cell)

    timings["total"] = time.perf_counter() - t_start
    return AnalysisReport(
        subst=subst,
        fixed_prefix=stream.prefix(min(24, config.budgets.max_word_length)),
        letter_classes=classes,
        cells=cells,
        timings=timings,
    )


def _densities(rel, prefix, levels):
    out = []
    for level in range(levels + 1):
        shift = len(rel.subst.apply(prefix, level))
        horizon = max(2 * shift, 4000)
        out.append(coincidence_density(rel, prefix, level, horizon))
    return out
