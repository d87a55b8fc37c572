#!/usr/bin/env python3
"""Pins the report digests the benchmark checks its digest workloads against.

    python3 perfbench/make_reference.py [SEED ...]

Builds jsoncdn-perfbench, then for each digest workload (paper-batch) and each
seed (default: 0-20, 42 and the held-out seed 1729) builds the input, runs
the job once and records the sha256 of its report in
perfbench/reference_digests.json. Run it only on code whose reports are
known good; run.py then fails any job whose report differs.
"""

import json
import os
import sys

import run

DEFAULT_SEEDS = list(range(21)) + [42, 1729]


def main(argv):
    seeds = [int(s) for s in argv] or DEFAULT_SEEDS
    if not run.build():
        return 1
    os.makedirs(run.WORK_DIR, exist_ok=True)
    store = os.path.join(run.WORK_DIR, "reference.jlog")
    report = os.path.join(run.WORK_DIR, "reference.report")
    digests = run.load_reference()
    try:
        for workload, spec in sorted(run.WORKLOADS.items()):
            if spec["ref_threads"] is None:
                continue
            pinned = digests.setdefault(workload, {})
            for seed in seeds:
                run.run_program(["setup", "--workload", workload, "--seed",
                                 str(seed), "--out", store])
                run.run_program(["job", "--workload", workload, "--input",
                                 store, "--report", report])
                pinned[str(seed)] = run.sha256_file(report)
                print(workload, seed, pinned[str(seed)], flush=True)
    finally:
        for path in (store, report):
            if os.path.exists(path):
                os.remove(path)
    with open(run.REFERENCE_FILE, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
