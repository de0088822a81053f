"""Result checks behind `result_mismatches`.

Two checks, both on the canonical JSON report that `render_json` returns:

- fixtures are compared with their `*.expect.json` sidecars wherever the two
  overlap (spectral data, letter classes, fixed point, and the cells for the
  sidecar's prefix and mode);
- every report is reduced to a digest of its result part (the JSON with
  `timings`, per-cell `seconds` and any top-level `metrics` block removed)
  and compared with the digest recorded in `reference.json` for that job.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

MODE_LABELS = {"plain": "plain", "letters": "letters",
               "lambda": "general[lambda]", "ones": "general[ones]"}


def result_digest(doc):
    """sha256 of the report's result part, independent of key order."""
    doc = dict(doc)
    doc.pop("timings", None)
    doc.pop("metrics", None)
    doc["cells"] = [{k: v for k, v in cell.items() if k != "seconds"}
                    for cell in doc["cells"]]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def job_key(job):
    """Identity of a job: its rule text and `balpair verdict` flags."""
    blob = job.text + "\0" + " ".join(job.cli_flags())
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def load_reference():
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]


def _cell_problems(cell, expect):
    """Differences between a terminated report cell and a sidecar cell."""
    outcome = cell["outcome"]
    if expect["outcome"] != "terminated":
        return [f"terminated, sidecar {expect['outcome']}"]
    checks = [("pairs", outcome["pair_count"]),
              ("closure_iteration", outcome["closure_iteration"]),
              ("all_lead", cell["coincidence"]["all_lead"]),
              ("verdict", cell["verdict"]["kind"])]
    return [f"{key} {value!r}, sidecar {expect[key]!r}"
            for key, value in checks if key in expect and expect[key] != value]


def sidecar_problems(doc, expect):
    """Differences between a fixture report and its sidecar.

    Cells are compared when the report has the sidecar's prefix and mode.
    The benchmark runs fixtures under other budgets than the sidecar's, and
    a closure that terminates is the same under any budgets it fits in; so
    only report cells that terminated are compared, and the sidecar must
    expect that closure too.
    """
    sub = doc["substitution"]
    flags = sub["flags"]
    problems = []
    pairs = [
        ("char_poly", sub["char_poly"], expect["char_poly"]),
        ("factors", sub["factors"], expect["factors"]),
        ("perron.min_poly", sub["perron"]["min_poly"],
         expect["perron"]["min_poly"]),
        ("l_lambda_integer", sub["l_lambda"]["integer_form"],
         expect["l_lambda_integer"]),
        ("letter_classes", doc["letter_classes"], expect["letter_classes"]),
        ("fixed_point.power", sub["fixed_point"]["power"],
         expect["fixed_point"]["power"]),
        ("fixed_point.seed", sub["fixed_point"]["seed"],
         expect["fixed_point"]["seed"]),
    ]
    pairs += [(f"flags.{key}", flags[key], value)
              for key, value in expect["flags"].items()]
    for name, got, want in pairs:
        if got != want:
            problems.append(f"{name}: {got!r}, sidecar {want!r}")
    if not sub["perron"]["approx"].startswith(
            expect["perron"]["approx_prefix"]):
        problems.append(f"perron.approx {sub['perron']['approx']}")
    if not sub["fixed_point"]["prefix"].startswith(
            expect["fixed_point"]["prefix"]):
        problems.append(f"fixed_point.prefix {sub['fixed_point']['prefix']}")
    for spec in expect["cells"]:
        label = MODE_LABELS.get(spec["mode"])
        if spec.get("budgets"):
            continue  # stated under budgets of its own
        for cell in doc["cells"]:
            if (cell["prefix"] != spec["prefix"] or cell["relation"] != label
                    or cell.get("outcome") is None
                    or cell["outcome"]["status"] != "terminated"):
                continue
            problems += [f"cell w={spec['prefix']} {spec['mode']}: {p}"
                         for p in _cell_problems(cell, spec["expect"])]
    return problems


def closure_problems(doc, expect_pairs):
    """Every cell of a closure job terminates with the recorded pair count."""
    problems = []
    for cell in doc["cells"]:
        outcome = cell.get("outcome") or {}
        if (outcome.get("status") != "terminated"
                or outcome.get("pair_count") != expect_pairs):
            problems.append(f"cell w={cell['prefix']} {cell['relation']}: "
                            f"{outcome.get('status')} with "
                            f"{outcome.get('pair_count')} pairs, expected "
                            f"{expect_pairs}")
    return problems
