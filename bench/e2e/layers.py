#!/usr/bin/env python3
"""Per-layer metrics of the e2e benchmark, derived from a perf_e2e trace.

perf_e2e --trace=<file> writes every span it recorded around a call into a
layer as one Chrome trace "X" event whose args carry the span id, its
parent, its job and (for coarse spans) the process CPU it used, plus the
counts measured at that boundary. This module turns such a file into the
per-layer metrics named in BENCHMARK.json.

    python3 bench/e2e/layers.py trace.json   # metrics + self time per span
"""

import json
import math
import sys
from collections import defaultdict

# name -> unit, in BENCHMARK.json's order.
UNITS = {
    "log.read.ns_per_log": "ns",
    "log.read.cpu_ns_per_log": "ns",
    "log.read.mb_per_s": "MB/s",
    "log.index.ns_per_log": "ns",
    "log.file_bytes_per_log": "bytes",
    "core.pipeline.ns_per_log": "ns",
    "core.pipeline.cpu_ns_per_log": "ns",
    "core.pipeline.week.ns_per_log": "ns",
    "core.l1.ns_per_log": "ns",
    "core.l2.ns_per_log": "ns",
    "core.l3.ns_per_log": "ns",
    "core.l1.pairs_tested": "count",
    "core.l1.pruned_frac": "ratio",
    "core.l2.sessions": "count",
    "core.l2.bigrams": "count",
    "core.l3.stopped_frac": "ratio",
    "core.l3.citations": "count",
    "core.model_f1": "ratio",
    "serve.publish.us": "us",
    "serve.graph.us": "us",
    "serve.serialize.us": "us",
    "serve.write.us": "us",
    "serve.generation_bytes": "bytes",
    "core.graph.query_us_p50": "us",
    "core.graph.query_us_p99": "us",
    "serve.step.ms_p50": "ms",
    "serve.step.ms_p90": "ms",
    "serve.window.ingest_ms_p50": "ms",
    "serve.window.mine_ms_p50": "ms",
    "serve.state_bytes": "bytes",
    "serve.query_ms_p99": "ms",
    "serve.query_late_frac": "ratio",
    "serve.sender_lag_ms_p99": "ms",
    "obs.overhead_frac": "ratio",
    "obs.journal_events": "count",
    "obs.journal_bytes": "bytes",
    "trace.overhead_frac": "ratio",
    "job.unattributed_frac": "ratio",
}

# A stream query slower than this, counted from its due time, is late.
QUERY_LIMIT_MS = 1.0
# Times set by the open-loop query schedule and timer wake-ups rather
# than by CPU speed; left unscaled.
PACED = {"serve.query_ms_p99", "serve.sender_lag_ms_p99"}


def quantile(values, q):
    """perf_e2e's estimator: the mean of the samples ranked within +-w of
    q, w = min(0.05, (1 - q) / 2), else linear interpolation."""
    values = sorted(values)
    if not values:
        raise ValueError("no samples")
    last = len(values) - 1
    w = min(0.05, (1 - q) / 2)
    lo = math.ceil((q - w) * last - 1e-9)
    hi = math.floor((q + w) * last + 1e-9)
    if lo <= hi:
        return sum(values[lo:hi + 1]) / (hi - lo + 1)
    below = int(q * last)
    above = min(below + 1, last)
    return values[below] + (q * last - below) * (values[above] - values[below])


def median(values):
    return quantile(values, 0.5)


class Span:
    def __init__(self, event):
        args = event["args"]
        self.name = event["name"]
        self.id = args["id"]
        self.parent = args["parent"]
        self.job = args["job"]
        self.tid = event["tid"]
        self.start_ns = event["ts"] * 1000.0
        self.dur_ns = event["dur"] * 1000.0
        self.cpu_ns = args.get("cpu_ns")
        self.args = args

    def covered_by(self, children):
        """Nanoseconds of this span covered by the union of `children`."""
        end = self.start_ns + self.dur_ns
        intervals = sorted((max(c.start_ns, self.start_ns),
                            min(c.start_ns + c.dur_ns, end)) for c in children)
        covered, reach = 0.0, self.start_ns
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered


def load(path):
    with open(path) as f:
        trace = json.load(f)
    spans = [Span(e) for e in trace["traceEvents"] if e.get("ph") == "X"]
    return trace.get("otherData", {}), spans


def self_times(spans):
    """Per span name: (count, total ms, self ms), self time being each
    span's duration minus the part its same-thread children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        own = [c for c in children[s.id] if c.tid == s.tid]
        row = table[s.name]
        row[0] += 1
        row[1] += s.dur_ns / 1e6
        row[2] += (s.dur_ns - s.covered_by(own)) / 1e6
    return dict(table)


def per_layer_metrics(path):
    """Every per-layer metric of the trace at `path`, as
    {name: {"value": v, "unit": u}}; raises when a layer is missing."""
    other, spans = load(path)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def spans_of(name):
        found = by_name.get(name)
        if not found:
            raise ValueError(f"trace has no '{name}' span")
        return found

    def per_log(name, field="dur_ns"):
        return median([getattr(s, field) / s.args["logs"]
                       for s in spans_of(name)])

    def dur(name, scale, q=0.5):
        return quantile([s.dur_ns / scale for s in spans_of(name)], q)

    def arg(name, key):
        return median([s.args[key] for s in spans_of(name)])

    def arg_anywhere(key):
        values = [s.args[key] for s in spans if s.args.get(key, 0) > 0]
        if not values:
            raise ValueError(f"no span carries '{key}'")
        return median(values)

    reads = spans_of("log.read")
    queries = spans_of("serve.query")
    query_ms = [(s.dur_ns + s.args["lag_ns"]) / 1e6 for s in queries]
    l1 = spans_of("core.l1")[0].args
    l3 = spans_of("core.l3")[0].args

    jobs = spans_of("job")
    traced = [s for s in jobs if s.args["traced"] == 1]
    untraced = [s for s in jobs if s.args["traced"] == 0]
    if not traced or not untraced:
        raise ValueError("need traced and untraced jobs")
    unattributed = [
        1 - s.covered_by([c for c in children[s.id] if c.tid == s.tid])
        / s.args["job_ns"] for s in traced]

    obs_ratios = []
    replays = spans_of("obs.replay")
    for pair in sorted({s.args["pair"] for s in replays}):
        side = {s.args["obs"]: s.args["step_cpu_ns"] / s.args["logs"]
                for s in replays if s.args["pair"] == pair}
        obs_ratios.append(side[1] / side[0] - 1)

    values = {
        "log.read.ns_per_log": per_log("log.read"),
        "log.read.cpu_ns_per_log": per_log("log.read", "cpu_ns"),
        "log.read.mb_per_s": median(
            [s.args["bytes"] / 1e6 / (s.dur_ns / 1e9) for s in reads]),
        "log.index.ns_per_log": per_log("log.index"),
        "log.file_bytes_per_log": reads[0].args["bytes"] / reads[0].args["logs"],
        "core.pipeline.ns_per_log": per_log("core.pipeline"),
        "core.pipeline.cpu_ns_per_log": per_log("core.pipeline", "cpu_ns"),
        "core.pipeline.week.ns_per_log": per_log("core.pipeline.week"),
        "core.l1.ns_per_log": per_log("core.l1"),
        "core.l2.ns_per_log": per_log("core.l2"),
        "core.l3.ns_per_log": per_log("core.l3"),
        "core.l1.pairs_tested": l1["pairs_tested"],
        "core.l1.pruned_frac":
            l1["pairs_pruned"] / (l1["pairs_tested"] + l1["pairs_pruned"]),
        "core.l2.sessions": arg("core.l2", "sessions"),
        "core.l2.bigrams": arg("core.l2", "bigrams"),
        "core.l3.stopped_frac": l3["stopped"] / l3["scanned"],
        "core.l3.citations": l3["citations"],
        "core.model_f1": other["model_f1"],
        "serve.publish.us": dur("serve.publish", 1e3),
        "serve.graph.us": dur("serve.graph", 1e3),
        "serve.serialize.us": dur("serve.serialize", 1e3),
        "serve.write.us": dur("serve.write", 1e3),
        "serve.generation_bytes": arg("serve.serialize", "bytes"),
        "core.graph.query_us_p50": dur("core.graph.query", 1e3),
        "core.graph.query_us_p99": dur("core.graph.query", 1e3, 0.99),
        "serve.step.ms_p50": dur("serve.step", 1e6),
        "serve.step.ms_p90": dur("serve.step", 1e6, 0.9),
        "serve.window.ingest_ms_p50": dur("serve.window.ingest", 1e6),
        "serve.window.mine_ms_p50": dur("serve.window.mine", 1e6),
        "serve.state_bytes": arg_anywhere("state_bytes"),
        "serve.query_ms_p99": quantile(query_ms, 0.99),
        "serve.query_late_frac":
            sum(ms > QUERY_LIMIT_MS for ms in query_ms) / len(query_ms),
        "serve.sender_lag_ms_p99":
            quantile([s.args["lag_ns"] / 1e6 for s in queries], 0.99),
        "obs.overhead_frac": median(obs_ratios),
        "obs.journal_events": arg_anywhere("journal_events"),
        "obs.journal_bytes": arg_anywhere("journal_bytes"),
        "trace.overhead_frac":
            median([s.args["job_ns"] for s in traced])
            / median([s.args["job_ns"] for s in untraced]) - 1,
        "job.unattributed_frac": median(unattributed),
    }
    # Times are scaled by the run's reference factor, as perf_e2e scales
    # the end-to-end metrics; throughput the other way round. Latencies
    # paced by the open-loop schedule are not.
    factor = other["speed_factor"]
    scale = {"ns": factor, "us": factor, "ms": factor, "MB/s": 1 / factor}
    return {name: {"value": float(values[name]) * (
                1.0 if name in PACED else scale.get(unit, 1.0)),
                   "unit": unit}
            for name, unit in UNITS.items()}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for name, metric in per_layer_metrics(argv[1]).items():
        print(f"{name:32} {metric['value']:14.6g} {metric['unit']}")
    print(f"\n{'span':24} {'count':>7} {'total ms':>12} {'self ms':>12}")
    _, spans = load(argv[1])
    for name, (count, total, own) in sorted(self_times(spans).items()):
        print(f"{name:24} {count:7d} {total:12.3f} {own:12.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
