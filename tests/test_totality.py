"""Totality: every well-formed input ends in a report.

Random primitive substitutions on 2-7 letters with images of 1-5 letters
go through `analyze` and `render_json`, under any of the four relation
kinds and budgets down to 1. No exception may escape, and every cell ends
in a verdict or a recorded error. The one recorded error allowed is the
letters relation's partition error, a usage error of the input
(`test_cli.py::test_verdict_letter_partition_error_exit_one`): an internal
limit or a budget ends a cell in an inconclusive verdict, never in an
error.
"""

import json
from collections import Counter

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from balpair.engine import Budgets
from balpair.equivalence import LengthSpec, RelationSpec
from balpair.report import render_json
from balpair.substitution import parse_substitution
from balpair.verdict import AnalysisConfig, analyze

SPECS = (RelationSpec.plain(), RelationSpec.letters(),
         RelationSpec.general(LengthSpec.ones()),
         RelationSpec.general(LengthSpec.pf()))
# each budget is drawn from 1 up to its value in the benchmark's batch
# survey (the window and the scan budget up to their defaults' scale)
LARGEST = {"max_iterations": 8, "max_pairs": 250, "max_word_length": 400,
           "split_stability_window": 500, "max_scan_length": 5000}
# letters 1 and 4 share a class, and their images have different class
# counts, so the letters relation cannot be built
SPLIT_CLASS = parse_substitution("1 -> 414\n2 -> 41\n3 -> 1411\n4 -> 213\n")


@st.composite
def analyses(draw):
    size = draw(st.integers(2, 7))
    images = st.lists(st.integers(0, size - 1), min_size=1, max_size=5)
    rules = draw(st.lists(images, min_size=size, max_size=size))
    subst = parse_substitution("".join(
        f"{i + 1} -> {''.join(str(a + 1) for a in image)}\n"
        for i, image in enumerate(rules)))
    assume(subst.is_primitive())
    kinds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4,
                          unique=True))
    budgets = Budgets(**{name: draw(st.integers(1, largest))
                         for name, largest in LARGEST.items()})
    return subst, AnalysisConfig(auto_max_len=draw(st.integers(1, 4)),
                                 relations=[SPECS[k] for k in kinds],
                                 budgets=budgets)


def test_every_input_ends_in_a_report():
    # every budget stop occurs among the draws, so that the property is
    # not met by closures that all terminate; random draws seldom hold a
    # class the letters relation rejects, so one example does
    stops = Counter()

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(analyses())
    @example((SPLIT_CLASS, AnalysisConfig(relations=list(SPECS),
                                          budgets=Budgets(**LARGEST))))
    def check(case):
        subst, config = case
        report = analyze(subst, config)
        document = json.loads(render_json(report))
        assert len(document["cells"]) == len(report.cells) > 0
        for cell, rendered in zip(report.cells, document["cells"]):
            if cell.exception is None:
                assert cell.verdict is not None
                assert rendered["verdict"]["kind"] == cell.verdict.kind
                stops[cell.outcome.which] += 1
            else:
                assert cell.spec == RelationSpec.letters(), cell.error
                assert isinstance(cell.exception, ValueError), cell.error
                assert "share a class" in str(cell.exception), cell.error
                assert rendered["error"] == cell.error
                stops["partition error"] += 1

    check()
    assert stops.keys() >= {None, "max_iterations", "max_pairs",
                            "max_word_length", "max_scan_length",
                            "partition error"}, stops
