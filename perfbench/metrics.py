"""Metric derivation and gating for the fba benchmark.

Turns the raw record one fba_perfbench process prints (per-op wall times,
set-up times, fingerprints, spans, per-op layer counters) into the named
metrics of BENCHMARK.json, and renders/parses the result line. Pure
functions only, so perfbench/tests can check them without a build.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles a tail metric may use, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_SAMPLES = 10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("exp.op_overhead_ms", "ms"),
    ("exp.report_ms", "ms"),
    ("aer.world_build_ms", "ms"),
    ("sampler.rows_built", "count"),
    ("sampler.lookup_ns", "ns"),
    ("net.run_ms", "ms"),
    ("net.deliveries", "count"),
    ("net.ns_per_delivery", "ns"),
    ("net.queue_peak", "count"),
    ("net.sim_time", "sim_time"),
    ("net.fault.dropped", "count"),
    ("net.recovery.retransmits", "count"),
    ("net.recovery.acks", "count"),
    ("net.recovery.dead", "count"),
    ("net.recovery.dup_ratio", "ratio"),
    ("aer.bits_per_node", "bits"),
    ("aer.candidates_per_node", "count"),
    ("aer.max_deferred_answers", "count"),
    ("aer.mem_bytes_per_node", "B"),
    ("proc.setup_minflt", "count"),
    ("proc.op_minflt", "count"),
    ("trace.overhead_frac", "ratio"),
)

# Spans of other layers inside an op; the rest of the op is exp's own work.
LAYER_SPANS = ("aer.world_build", "net.run")


def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def tail_percentile(count):
    """Highest ladder percentile with at least TAIL_SAMPLES samples beyond
    it in a sample of `count`, or None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        # Samples strictly above the p-th percentile; the small epsilon
        # keeps 100 * (1 - 0.9) from rounding below 10.
        beyond = count * (100.0 - p) / 100.0
        if beyond + 1e-9 >= TAIL_SAMPLES:
            best = p
    return best


def percentile(values, p):
    """p-th percentile by linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. `spans` are dicts with name/op/parent/start/end, where
    parent indexes the list (-1 for a root)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = []
        for c in children[i]:
            start = max(spans[c]["start"], s["start"])
            end = min(spans[c]["end"], s["end"])
            if end > start:
                clipped.append((start, end))
        out.append((s["end"] - s["start"]) - covered(clipped))
    return out


def spans_from_rows(rows):
    return [
        {"name": r[0], "op": r[1], "parent": r[2], "start": r[3], "end": r[4]}
        for r in rows
    ]


def end_to_end(record):
    """The five end-to-end metrics of an untraced record."""
    if record["op_ms"]:
        p50 = percentile(record["op_ms"], 50)
        p90 = percentile(record["op_ms"], 90)
    else:
        p50, p90 = record["stream_p50_ms"], record["stream_p90_ms"]
    return {
        "setup_s": statistics.median(record["setup_s"]),
        "ops_per_s": record["timed_ops"] / record["window_s"],
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "peak_rss_mb": record["peak_rss_kib"] / 1024.0,
    }


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def per_layer(record):
    """The per-layer metrics of a traced record (per op unless noted)."""
    spans = spans_from_rows(record["spans"])
    selfs = self_times(spans)
    by_name = {}
    for s, t in zip(spans, selfs):
        by_name.setdefault(s["name"], []).append((s, t))

    ops = [s for s, _ in by_name.get("exp.op", [])]
    layer_time = {}
    for name in LAYER_SPANS:
        for s, _ in by_name.get(name, []):
            layer_time[s["op"]] = layer_time.get(s["op"], 0.0) + (
                s["end"] - s["start"])
    overhead_ms = [
        ((s["end"] - s["start"]) - layer_time.get(s["op"], 0.0)) * 1e3
        for s in ops
    ]
    build_ms = [t * 1e3 for _, t in by_name.get("aer.world_build", [])]
    run_s = [t for _, t in by_name.get("net.run", [])]
    report_ms = sum(
        (s["end"] - s["start"]) * 1e3 for s, _ in by_name.get("exp.report", []))

    layers = record["layers"]
    deliveries = sum(layers["deliveries"])
    retransmits = sum(layers["retransmits"])
    return {
        "exp.op_overhead_ms": statistics.median(overhead_ms),
        "exp.report_ms": report_ms,
        "aer.world_build_ms": statistics.median(build_ms),
        "sampler.rows_built": _mean(layers["rows_built"]),
        "sampler.lookup_ns": statistics.median(layers["lookup_ns"]),
        "net.run_ms": statistics.median(run_s) * 1e3,
        "net.deliveries": _mean(layers["deliveries"]),
        "net.ns_per_delivery": sum(run_s) * 1e9 / deliveries if deliveries else 0.0,
        "net.queue_peak": _mean(layers["queue_peak"]),
        "net.sim_time": _mean(layers["sim_time"]),
        "net.fault.dropped": _mean(layers["fault_dropped"]),
        "net.recovery.retransmits": _mean(layers["retransmits"]),
        "net.recovery.acks": _mean(layers["acks"]),
        "net.recovery.dead": _mean(layers["dead"]),
        "net.recovery.dup_ratio":
            sum(layers["dups"]) / retransmits if retransmits else 0.0,
        "aer.bits_per_node": _mean(layers["bits_per_node"]),
        "aer.candidates_per_node": _mean(layers["candidates_per_node"]),
        "aer.max_deferred_answers": _mean(layers["max_deferred"]),
        "aer.mem_bytes_per_node": _mean(layers["mem_bytes_per_node"]),
        "proc.setup_minflt": float(record["setup_minflt"]),
        "proc.op_minflt": _mean(layers["op_minflt"]),
        "trace.overhead_frac": trace_overhead(record, spans),
    }


def trace_overhead(record, spans):
    """Tracing cost as a share of an untraced op: the calibrated cost of one
    span (record["span_ns"]) times the spans per op, over the median traced
    op less that cost. Both come from the traced pass itself, so host drift
    between passes does not enter."""
    ops = len(record["traced_op_ms"])
    per_op_ms = record["span_ns"] * 1e-6 * sum(
        1 for s in spans if s["op"] >= 0) / ops
    return per_op_ms / (statistics.median(record["traced_op_ms"]) - per_op_ms)


def find_pin(record, pins):
    """The pin of this record's (workload, seed, op count), or None."""
    for pin in pins.get(record["workload"], []):
        if pin["seed"] == record["seed"] and pin["ops"] == record["ops"]:
            return pin
    return None


def gate(record, pins):
    """Correctness of a record: (failed op count, list of reasons).

    Every op fails when the process caught an exception (the record then
    carries "error" and no measurements). Otherwise an op fails when a
    correct node decided wrong in it, and every op fails when the run's
    fingerprint differs from the pinned one for this (workload, seed, op
    count), or when the traced replay's fingerprint differs from the
    untraced run's."""
    attempted = record["timed_ops"]
    if "error" in record:
        return attempted, ["an op threw: %s" % record["error"]]
    failed = record["wrong_ops"]
    reasons = []
    if record["wrong_ops"]:
        reasons.append("%d ops decided wrong" % record["wrong_ops"])
    pin = find_pin(record, pins)
    if pin and pin["fingerprint"] != record["fingerprint"]:
        failed = attempted
        reasons.append("fingerprint %s != pinned %s" % (
            record["fingerprint"], pin["fingerprint"]))
    if record.get("traced"):
        failed = max(failed, record["traced_wrong_ops"])
        if record["traced_fingerprint"] != record["fingerprint"]:
            failed = attempted
            reasons.append("traced fingerprint %s != untraced %s" % (
                record["traced_fingerprint"], record["fingerprint"]))
    return min(failed, attempted), reasons


def result_line(correct, attempted, failed, metrics, units):
    """The benchmark's last output line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in metrics
        },
    })


def parse_result(line):
    """Parses and validates a result line; raises ValueError if malformed."""
    doc = json.loads(line)
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys: %s" % sorted(doc))
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise ValueError("%s must be an integer" % key)
    if doc["attempted"] < 1 or not 0 <= doc["failed"] <= doc["attempted"]:
        raise ValueError("bad op counts")
    for name, m in doc["metrics"].items():
        if not valid_name(name):
            raise ValueError("bad metric name %r" % name)
        if set(m) != {"value", "unit"} or not valid_unit(m["unit"]):
            raise ValueError("bad metric %r" % name)
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise ValueError("metric %r is not a finite number" % name)
    return doc
