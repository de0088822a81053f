"""Record the reference result digests that `run.py` checks against.

    python3 bench/reference.py --seeds 0-63

Runs every job of every workload for the given seeds once and writes the
digest of each result (see check.result_digest) to bench/reference.json,
keyed by the job's rule text and flags. Jobs already in the file keep their
recorded digest: the reference is the behaviour of the commit that first
recorded it, and a later commit that changes a result must show up as a
mismatch, not overwrite it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import balpair.report  # noqa: E402,F401  (looked up by Runner.analysis)
import check  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-63",
                        help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    digests = check.load_reference()
    for workload in workloads.WORKLOADS:
        for seed in range(first, last + 1):
            for job in workloads.jobs_for(workload, seed):
                key = check.job_key(job)
                if key in digests:
                    continue
                data = Runner.analysis(job)
                digests[key] = check.result_digest(json.loads(data))
            print(f"{workload} seed {seed}: {len(digests)} digests",
                  flush=True)
            check.REFERENCE.write_text(
                json.dumps({"digests": digests}, indent=0, sort_keys=True)
                + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
