"""The benchmark under bench/ reaches into the library by name.

`bench/tracing.py` wraps library functions by module and attribute name, and
`bench/workloads.py` builds each job's AnalysisConfig from the library's
config types. A rename in the library breaks `bench/run.py --trace 1` or a
workload without failing any other test, so these tests load both files as
they are and exercise those names.
"""

import importlib
import json
from pathlib import Path

import pytest

import balpair
from balpair.engine import Budgets
from balpair.equivalence import LengthSpec
from balpair.report import render_json
from balpair.substitution import parse_substitution
from balpair.verdict import AnalysisConfig, RelationSpec, analyze

from conftest import load_corpus

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def _target(module_name, path):
    owner = importlib.import_module(f"balpair.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_wraps_every_target_and_restores_it(bench_module):
    tracing = bench_module("tracing")
    tracer = tracing.Tracer()
    before = {path: _target(module, path)
              for module, path, _leaf in tracing.TARGETS}
    try:
        tracer.install()
        for module, path, _leaf in tracing.TARGETS:
            assert _target(module, path).__wrapped__ is before[path], path
        subst = load_corpus("ex1")
        report = analyze(subst, AnalysisConfig(
            prefixes=[(0,)],
            relations=[RelationSpec.general(LengthSpec.pf())]))
    finally:
        tracer.uninstall()
    for module, path, _leaf in tracing.TARGETS:
        assert _target(module, path) is before[path], path
    metrics = tracer.summary()
    assert metrics["engine.run_bpa_calls"] == 1
    # the verdict reads the graph the closure computed
    pairs = report.cells[0].outcome.vertices
    assert metrics["engine.children_calls"] == len(pairs)
    # children covers both images of every pair, so the tracer's letter
    # count is the images' total length
    assert metrics["engine.letters_scanned"] == sum(
        len(subst.apply(p.top)) + len(subst.apply(p.bottom)) for p in pairs)
    assert metrics["engine.children_recomputed_share"] == 0.0
    assert metrics["engine.pair_graph_s"] == 0.0
    # lambda is bisected in one traced place, NumberField.refine_once
    assert metrics["numberfield.refine_calls"] > 0


def test_relation_spec_is_one_class():
    """bench/workloads.py imports RelationSpec from the package; tests and
    older callers import it from balpair.verdict."""
    verdict_module = importlib.import_module("balpair.verdict")
    equivalence = importlib.import_module("balpair.equivalence")
    assert balpair.RelationSpec is verdict_module.RelationSpec
    assert balpair.RelationSpec is equivalence.RelationSpec


def test_every_workload_builds_its_config(bench_module):
    workloads = bench_module("workloads")
    for name in workloads.WORKLOADS:
        job = workloads.jobs_for(name, 0)[0]
        config = job.config(parse_substitution(job.text))
        assert isinstance(config, AnalysisConfig), name
        assert isinstance(config.budgets, Budgets), name


def test_batch_and_spectral_results_match_reference(bench_module):
    """The result part of every seed-0 `batch` and `spectral` report hashes
    to the digest `bench/reference.json` records, so a change to the
    result bytes fails here and not only in a bench run."""
    workloads = bench_module("workloads")
    check = bench_module("check")
    reference = check.load_reference()
    differ = []
    for name in ("batch", "spectral"):
        for job in workloads.jobs_for(name, 0):
            subst = parse_substitution(job.text)
            doc = json.loads(render_json(analyze(subst, job.config(subst))))
            if check.result_digest(doc) != reference[check.job_key(job)]:
                differ.append(f"{name}/{job.name}")
    assert differ == []


def test_closure_jobs_reach_their_recorded_closures(bench_module):
    """Every seed-0 `closure` job reports the result `bench/reference.json`
    records for it, and each terminating one closes with the pair count
    its manifest names (big-1232 2353 pairs, big-2343 830, big-132 590).
    The other three stop at a budget; their digests pin where."""
    workloads = bench_module("workloads")
    check = bench_module("check")
    reference = check.load_reference()
    problems = []
    for job in workloads.jobs_for("closure", 0):
        subst = parse_substitution(job.text)
        doc = json.loads(render_json(analyze(subst, job.config(subst))))
        if job.expect_pairs is not None:
            problems += check.closure_problems(doc, job.expect_pairs)
        if check.result_digest(doc) != reference[check.job_key(job)]:
            problems.append(f"{job.name}: result differs from the reference")
    assert problems == []
