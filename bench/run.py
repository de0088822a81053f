"""Benchmark for balpair: one process, one analysis after another.

    python3 bench/run.py --workload batch|closure|spectral --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`. Each operation is one analysis, done the way `balpair verdict` does
it: parse the rule text, `analyze`, `render_json`. The loop is closed, with
one client on one thread.

With `--trace 0` the run repeats whole passes over the workload's jobs until
`--seconds` have gone by and reports the end-to-end metrics,
with times scaled to a reference host speed (see Speedometer).
With `--trace 1` it makes one untraced pass and one traced pass over the same
jobs and reports the per-layer metrics and the tracing overhead. Every
analysis is checked (see check.py). The run record, with every input as
`.sub` text, per-input rows and, when traced, the spans, is written to
`bench/runs/`. The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_REPEATS = 5
CALIBRATION_SHARE = 0.05  # calibration time per second of analysis
REFERENCE_SAMPLE_S = 0.0011  # calibration_sample() at the reference speed

END_TO_END = ("analyses_per_s", "analysis_p50_s", "analysis_p90_s",
              "setup_s", "peak_rss_mb", "inconclusive_share")
UNITS = {"analyses_per_s": "1/s", "raw_analyses_per_s": "1/s",
         "peak_rss_mb": "MB", "result_mismatches": "count",
         "host_speed_factor": "ratio"}
SUFFIX_UNITS = {"_s": "s", "_share": "ratio", "_bytes": "bytes"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("batch", "closure", "spectral"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args):
    """Median wall time of a fresh interpreter that imports balpair and
    generates and parses the workload's inputs."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def calibration_sample():
    """Seconds for a fixed integer loop that runs no balpair code.

    It allocates no objects the garbage collector tracks, so the size of
    the program's heap cannot slow it down.
    """
    start = time.perf_counter()
    x = acc = 1
    for i in range(1, 3000):
        x = (x * 6364136223846793005 + i) % 18446744073709551557
        acc += x // (i + 7)
    return time.perf_counter() - start


class Speedometer:
    """Speed of the host, sampled between analyses.

    On a shared host the same work can take 1.6x as long from one second to
    the next and drift by a fifth over minutes, as other tenants come and
    go. Calibration samples taken between analyses, for a time proportional
    to each analysis, estimate the speed the analyses ran at; `factor`
    scales a measured time to a host running at REFERENCE_SAMPLE_S per
    sample.
    """

    def __init__(self):
        self.samples = 0
        self.seconds = 0.0

    def measure(self, seconds):
        """Take calibration samples for about `seconds` (at least one);
        returns their mean time."""
        end = time.perf_counter() + seconds
        samples, total = 0, 0.0
        while True:
            total += calibration_sample()
            samples += 1
            if time.perf_counter() >= end:
                self.samples += samples
                self.seconds += total
                return total / samples

    def factor(self):
        return REFERENCE_SAMPLE_S * self.samples / self.seconds


class Runner:
    """Runs and checks analyses; keeps one row per analysis."""

    def __init__(self, jobs):
        import check

        for name in ("substitution", "verdict", "report"):
            importlib.import_module(f"balpair.{name}")
        self.jobs = jobs
        self.check = check
        self.reference = check.load_reference()
        self.rows = []
        self.digests = {}  # job index -> digest of its first analysis
        self.mismatches = []
        self.reference_hits = 0

    @staticmethod
    def analysis(job):
        # looked up on each call, so that a traced pass sees the wrappers
        modules = sys.modules
        subst = modules["balpair.substitution"].parse_substitution(job.text)
        report = modules["balpair.verdict"].analyze(subst, job.config(subst))
        return modules["balpair.report"].render_json(report)

    def run_pass(self, label, speed, tracer=None):
        """One pass over every job; returns the summed analysis time.

        After each analysis `speed` samples the host for a share of the
        analysis's time.
        """
        total = 0.0
        for index, job in enumerate(self.jobs):
            # each analysis starts from a collected heap, as a `balpair
            # verdict` process does, whatever ran before it
            gc.collect()
            start = time.perf_counter()
            try:
                if tracer is None:
                    data = self.analysis(job)
                else:
                    tracer.analysis_id = len(self.rows)
                    data = tracer.span("analysis", None, self.analysis, job)
            except Exception as exc:  # an analysis that raised is a failure
                seconds = time.perf_counter() - start
                self.rows.append({"job": index, "pass": label,
                                  "seconds": seconds,
                                  "raised": f"{type(exc).__name__}: {exc}"})
            else:
                seconds = time.perf_counter() - start
                self.rows.append(self._row(index, job, label, seconds, data))
            total += seconds
            self.rows[-1]["calibration_s"] = speed.measure(
                CALIBRATION_SHARE * seconds)
        return total

    def _row(self, index, job, label, seconds, data):
        doc = json.loads(data)
        digest = self.check.result_digest(doc)
        problems = []
        if digest != self.digests.setdefault(index, digest):
            problems.append("result differs from this job's earlier pass")
        want = self.reference.get(self.check.job_key(job))
        if want is not None:
            self.reference_hits += 1
            if digest != want:
                problems.append("result digest differs from reference.json")
        if job.sidecar is not None:
            problems += self.check.sidecar_problems(doc, job.sidecar)
        if job.expect_pairs is not None:
            problems += self.check.closure_problems(doc, job.expect_pairs)
        if problems:
            self.mismatches.append({"job": job.name, "pass": label,
                                    "problems": problems})
        return {"job": index, "pass": label, "seconds": seconds,
                "digest": digest, "json_bytes": len(data),
                "cells": [_cell_row(c) for c in doc["cells"]]}

    # -- summaries -----------------------------------------------------------

    def rows_of(self, label):
        return [r for r in self.rows if r["pass"] == label]

    def failures(self):
        """Analyses that raised, plus cells carrying an error."""
        raised = sum(1 for r in self.rows if "raised" in r)
        errors = sum(1 for r in self.rows for c in r.get("cells", ())
                     if c["error"])
        return raised + errors

    def cell_shares(self, rows):
        cells = [c for r in rows for c in r.get("cells", ())]
        decided = sum(1 for c in cells
                      if c["verdict"] in ("pure_discrete",
                                          "not_pure_discrete"))
        return len(cells), decided


def _cell_row(cell):
    """A report cell's outcome and verdict, for the run record."""
    outcome = cell.get("outcome") or {}
    verdict = cell.get("verdict") or {}
    return {"prefix": cell["prefix"], "relation": cell["relation"],
            "status": outcome.get("status"),
            "pairs": outcome.get("pair_count", 0),
            "iterations": outcome.get("closure_iteration",
                                      outcome.get("iterations_done", 0)),
            "verdict": verdict.get("kind"), "reason": verdict.get("reason"),
            "error": cell.get("error")}


def timed_run(runner, seconds):
    """Whole passes until `seconds` have gone by.

    Returns the pass count, the host speed factor and the peak resident
    memory in MB after the first pass, which does not depend on how many
    passes fit in the time.
    """
    speed = Speedometer()
    start = time.perf_counter()
    passes = 0
    while True:
        runner.run_pass(passes, speed)
        passes += 1
        if passes == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if time.perf_counter() - start >= seconds:
            return passes, speed.factor(), peak_mb


def end_to_end(runner, setup_s, speed_factor, peak_mb):
    """Times at the reference host speed (see Speedometer), each job with
    its mean over the passes; set-up scaled by the same factor."""
    per_job = {}
    for row in runner.rows:
        per_job.setdefault(row["job"], []).append(row["seconds"])
    times = [statistics.mean(v) * speed_factor for v in per_job.values()]
    n_cells, decided = runner.cell_shares(runner.rows_of(0))
    attempted = len(runner.rows)
    return {
        "analyses_per_s": len(times) / sum(times),
        "analysis_p50_s": statistics.median(times),
        "analysis_p90_s": statistics.quantiles(times, n=10,
                                               method="inclusive")[-1],
        "setup_s": setup_s * speed_factor,
        "peak_rss_mb": peak_mb,
        "inconclusive_share": (n_cells - decided) / n_cells,
        # reported alongside; zero at this commit, so gated through the
        # result's `failed` and `correct` fields instead of a bound
        "error_share": runner.failures() / attempted,
        "result_mismatches": len(runner.mismatches),
        "decided_share": decided / n_cells,
        # as timed on this host, before scaling to the reference speed
        "host_speed_factor": speed_factor,
        "raw_analyses_per_s": len(times) * speed_factor / sum(times),
        "raw_setup_s": setup_s,
    }


def traced_run(runner):
    from tracing import Tracer

    untraced_speed, traced_speed = Speedometer(), Speedometer()
    untraced = runner.run_pass("untraced", untraced_speed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass("traced", traced_speed, tracer)
    finally:
        tracer.uninstall()
    untraced *= untraced_speed.factor()
    traced *= traced_speed.factor()
    rows = runner.rows_of("traced")
    n_cells, decided = runner.cell_shares(rows)
    cells = [c for r in rows for c in r.get("cells", ())]
    metrics = tracer.summary()
    metrics.update({
        "engine.pairs_found": sum(c["pairs"] for c in cells),
        "engine.closure_iterations": sum(c["iterations"] for c in cells),
        "engine.budget_exceeded_cells": sum(
            1 for c in cells if c["status"] == "budget_exceeded"),
        "verdict.cells": n_cells,
        "verdict.decided_share": decided / n_cells,
        "report.json_bytes": sum(r.get("json_bytes", 0) for r in rows),
        "trace.untraced_pass_s": untraced,
        "trace.traced_pass_s": traced,
        "trace.overhead_share": traced / untraced - 1,
        "trace.unattributed_s": tracer.self_by_name["analysis"],
    })
    spans = {"names": tracer.names, "fields": ["name", "start", "end",
                                               "parent", "analysis"],
             "spans": tracer.spans}
    return metrics, spans


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "balpair" / "__init__.py").is_file():
        print(f"error: no balpair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    jobs = workloads.jobs_for(args.workload, args.seed)
    if args.setup_probe:
        for job in jobs:
            workloads.parse_substitution(job.text)
        return 0

    import mpmath  # noqa: F401  # a lazy import inside linalg; not timed

    setup_s = measure_setup(args) if not args.trace else None
    runner = Runner(jobs)
    if args.trace:
        metrics, spans = traced_run(runner)
        passes = 2
    else:
        passes, speed_factor, peak_mb = timed_run(runner, args.seconds)
        metrics = end_to_end(runner, setup_s, speed_factor, peak_mb)
        spans = None

    attempted = len(runner.rows)
    failed = runner.failures()
    correct = not runner.mismatches
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "analyses": attempted, "reference_hits": runner.reference_hits,
        "metrics": metrics, "mismatches": runner.mismatches,
        "jobs": [{"name": job.name, "sub": job.text,
                  "replay": ["balpair", "verdict", f"{job.name}.sub",
                             *job.cli_flags()]} for job in jobs],
        "rows": runner.rows, "spans": spans,
    }
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} passes={passes} "
          f"analyses={attempted} (p50/p90 over {len(jobs)} jobs, each its "
          f"mean over the passes) "
          f"reference_hits={runner.reference_hits} record={path.name}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit_of(name)}")
    for mismatch in runner.mismatches:
        print(f"  MISMATCH {mismatch['job']}: {mismatch['problems']}",
              file=sys.stderr)
    reported = metrics if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
