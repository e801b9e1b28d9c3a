#!/usr/bin/env python3
"""Runs one workload of the fba benchmark and prints its metrics.

    python3 perfbench/run.py --workload sweep-sync --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary under .bench_build/perfbench; later runs
reuse the build. The workload runs in a fresh fba_perfbench process on one
thread. With --trace 0 the last line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 the process also replays the op list through
each layer's public calls and the line carries the per-layer metrics. Every
run checks its outputs (see metrics.gate) and exits 1 if any op failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fba_perfbench")
WORKLOADS = ("sweep-sync", "sweep-async-lossy", "service-grudge", "scale-soa")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "fba.h")):
        raise SystemExit("perfbench: no library sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_binary(workload, seed, seconds, trace):
    """The raw record of one fresh fba_perfbench process. A process that
    caught an exception still writes a record, with an "error" field; one
    that wrote no record at all raises RuntimeError."""
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError("fba_perfbench exited with code %d and no record"
                           % proc.returncode) from None


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f)


def summary(record, pins):
    """Lines describing a successful record: op counts, the fingerprint and
    whether a pin covers it, and the noise diagnostics."""
    pin = metrics.find_pin(record, pins)
    return [
        "workload %s seed %d: %d timed ops (+%d warm-up), %d set-ups, "
        "highest tail percentile p%g" % (
            record["workload"], record["seed"], record["timed_ops"],
            record["warmup"], len(record["setup_s"]),
            metrics.tail_percentile(record["timed_ops"])),
        "fingerprint %s, %s" % (
            record["fingerprint"],
            "pinned" if pin else
            "unpinned: pins.json has none for seed %d at %d ops"
            % (record["seed"], record["ops"])),
        "noise: %s" % json.dumps({
            "ops": record["timed_ops"],
            "involuntary_ctx_switches": record["nivcsw"],
            "steal_ticks": record["steal_ticks"],
            "disagreements": record["disagreements"],
        }),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    t0 = time.monotonic()
    build()
    log("perfbench: build ready in %.1fs" % (time.monotonic() - t0))
    try:
        record = run_binary(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as e:
        log("perfbench: %s" % e)
        return 1
    pins = load_pins()
    failed, reasons = metrics.gate(record, pins)
    values, units = {}, {}
    if "error" not in record:
        if args.trace:
            values, units = metrics.per_layer(record), dict(metrics.PER_LAYER)
        else:
            values, units = metrics.end_to_end(record), dict(metrics.END_TO_END)
        for line in summary(record, pins):
            print(line)
        for name, value in values.items():
            print("  %-28s %14.6g %s" % (name, value, units[name]))
    for reason in reasons:
        print("FAILED: " + reason)
    correct = failed == 0 and not reasons
    print(metrics.result_line(correct, record["timed_ops"], failed, values,
                              units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
