#!/usr/bin/env python3
"""Seed discipline check: every workload at the default seed and at a second
seed, for BENCHMARK.json's run length, each run gated like run.py does.

    python3 perfbench/check_seeds.py

Fails unless every run has zero failed ops and matches its pinned
fingerprint, the op count does not depend on the seed, and the two seeds
really run different op lists (different fingerprints). Exits 1 on any
failure. Takes about four minutes.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402

SEEDS = (1, 2)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    run.build()
    pins = run.load_pins()
    problems = []
    for workload in run.WORKLOADS:
        seen = {}
        for seed in SEEDS:
            where = "%s seed %d" % (workload, seed)
            try:
                record = run.run_binary(workload, seed, seconds, trace=False)
            except (RuntimeError, OSError, subprocess.SubprocessError) as e:
                problems.append("%s: %s" % (where, e))
                continue
            failed, reasons = metrics.gate(record, pins)
            problems += ["%s: %s" % (where, r) for r in reasons]
            if "error" in record:
                continue
            if metrics.find_pin(record, pins) is None:
                problems.append("%s: no pinned fingerprint at %d ops" % (
                    where, record["ops"]))
            print("%-24s attempted %-5d failed %d fingerprint %s" % (
                where, record["timed_ops"], failed, record["fingerprint"]))
            seen[seed] = (record["ops"], record["fingerprint"])
        if len({ops for ops, _ in seen.values()}) > 1:
            problems.append("%s: op count depends on the seed" % workload)
        if len({fp for _, fp in seen.values()}) < len(seen):
            problems.append("%s: seeds share a fingerprint" % workload)
    for p in problems:
        print("FAILED: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
