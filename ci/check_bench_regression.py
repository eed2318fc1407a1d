#!/usr/bin/env python3
"""Fails CI when a perf_e2e cost regresses against ci/bench_baseline.json.

    python3 ci/check_bench_regression.py RUN_DIR [--baseline FILE]
    python3 ci/check_bench_regression.py RUN_DIR... --write-baseline FILE

RUN_DIR holds the runs of ci/bench_e2e_runs.sh: per run, `<name>.json`
from perf_e2e --out and `<name>.trace.json` from --trace. The per-layer
metrics come from bench/e2e/layers.py, which scales each layer time by
the run's reference factor, as perf_e2e scales its end-to-end metrics,
so a slower runner cancels out. One run cannot hold a layer to 20 %, so
each workload keeps the best (lowest) value of its runs. L1's span comes
from the attribution pass, which mines the same day 0 in every workload,
so its runs are pooled across workloads. Given several run directories,
each metric is the median of their bests; a baseline written that way
does not rest on one lucky run.

The guards:
  * every run's own correctness checks passed;
  * the runs share the baseline's shape (core count, threads, scale)
    and number, since a best of fewer runs reads higher;
  * each GUARDED metric grew at most --tolerance (default 20 %) over the
    baseline;
  * the text read costs at least --min-columnar-read-speedup (default
    2x) the columnar read, both measured in the same job.

A summary file (such as the baseline) can stand in for RUN_DIR: the
bench_baseline_self_check ctest holds the checked-in baseline to its own
guards. --write-baseline saves the summary instead of comparing.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # import layers.py without writing to bench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench" / "e2e"))
import layers  # noqa: E402

# Group -> metrics held to the baseline, all lower-is-better times. A
# group is a workload, or ALL for the runs of every workload pooled.
# cpu_ns_per_log is the end-to-end metric of perf_e2e's --out report; the
# dotted names are layers.py's per-layer metrics.
ALL = "all"
GUARDED = {
    "text-1d": ["cpu_ns_per_log", "log.read.cpu_ns_per_log"],
    "columnar-7d": ["cpu_ns_per_log", "log.read.cpu_ns_per_log"],
    "stream-7d": ["cpu_ns_per_log"],
    ALL: ["core.l1.ns_per_log"],
}
READ = "log.read.cpu_ns_per_log"
# The run shape a comparison needs to share with the baseline. The
# reference factor is measured on three threads, so it and every scaled
# time move with the core count.
SHAPE = ("scale", "seconds", "nproc", "executor_threads", "pool_workers",
         "traced")


def read_run(out_path):
    """(stamp, {metric: value}) of one run; raises on a broken run."""
    with open(out_path) as f:
        report = json.load(f)
    trace_path = out_path.with_name(out_path.stem + ".trace.json")
    if not report["correct"]:
        failed = [name for name, ok in report["checks"].items() if not ok]
        raise ValueError(f"{out_path}: failed checks {failed}")
    values = {name: metric["value"]
              for name, metric in layers.per_layer_metrics(trace_path).items()}
    values["cpu_ns_per_log"] = report["metrics"]["cpu_ns_per_log"]["value"]
    return report["stamp"], values


def summarize(run_dir):
    """The best value of every guarded metric over each group's runs."""
    runs = sorted(p for p in run_dir.glob("*.json")
                  if not p.name.endswith(".trace.json"))
    shape, best, counts = None, {}, {}
    for path in runs:
        stamp, values = read_run(path)
        run_shape = {key: stamp[key] for key in SHAPE}
        if shape not in (None, run_shape):
            raise ValueError(f"{path}: shape {run_shape}, others {shape}")
        shape = run_shape
        for group in (stamp["workload"], ALL):
            counts[group] = counts.get(group, 0) + 1
            row = best.setdefault(group, {})
            for name in GUARDED.get(group, []):
                row[name] = min(row.get(name, float("inf")), values[name])
    return {"shape": shape, "runs": counts, "best": best}


def load(path):
    if path.is_dir():
        return summarize(path)
    with open(path) as f:
        return json.load(f)


def median_of(summaries):
    """One summary whose every metric is the median of `summaries`'."""
    if len(summaries) == 1:
        return summaries[0]
    shapes = [s["shape"] for s in summaries]
    if any(shape != shapes[0] for shape in shapes):
        raise ValueError(f"run directories of different shapes: {shapes}")
    best = {group: {name: statistics.median(s["best"][group][name]
                                            for s in summaries)
                    for name in names}
            for group, names in GUARDED.items()}
    runs = {group: min(s["runs"][group] for s in summaries)
            for group in GUARDED}
    return {"shape": shapes[0], "jobs": len(summaries), "runs": runs,
            "best": best}


def check(current, baseline, tolerance, min_speedup):
    """Prints one line per guard; returns the failures."""
    failures = []
    if current["shape"] != baseline["shape"]:
        failures.append(f"run shape {current['shape']} differs from the "
                        f"baseline's {baseline['shape']}")
    if current["runs"] != baseline["runs"]:
        failures.append(f"run counts {current['runs']} differ from the "
                        f"baseline's {baseline['runs']}")
    for group, names in GUARDED.items():
        row = current["best"].get(group)
        if row is None:
            failures.append(f"no {group} run")
            continue
        for name in names:
            base = baseline["best"][group][name]
            growth = row[name] / base - 1
            print(f"{group} {name}: best of {current['runs'][group]} "
                  f"{row[name]:.1f}, baseline {base:.1f}, growth "
                  f"{growth * 100:+.1f}% (tolerance {tolerance * 100:.0f}%)")
            if growth > tolerance:
                failures.append(f"{group} {name} grew {growth * 100:.1f}%")
    text = current["best"].get("text-1d", {}).get(READ)
    columnar = current["best"].get("columnar-7d", {}).get(READ)
    if text and columnar:
        speedup = text / columnar
        print(f"columnar read speedup over text: {speedup:.2f}x "
              f"(minimum {min_speedup:.0f}x)")
        if speedup < min_speedup:
            failures.append(f"columnar read only {speedup:.2f}x faster "
                            f"than text")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, nargs="+",
                        help="run directories, or a summary file")
    parser.add_argument("--baseline", type=Path,
                        default=Path("ci/bench_baseline.json"))
    parser.add_argument("--write-baseline", type=Path)
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--min-columnar-read-speedup", type=float,
                        default=2.0)
    args = parser.parse_args()

    current = median_of([load(path) for path in args.current])
    if args.write_baseline:
        with open(args.write_baseline, "w") as f:
            json.dump(current, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.write_baseline}")
        return 0
    with open(args.baseline) as f:
        baseline = json.load(f)
    failures = check(current, baseline, args.tolerance,
                     args.min_columnar_read_speedup)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError) as error:
        print(f"FAIL: {error}", file=sys.stderr)
        sys.exit(1)
