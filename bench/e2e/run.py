#!/usr/bin/env python3
"""Entry point of the e2e benchmark (the "command" of BENCHMARK.json).

    python3 bench/e2e/run.py --workload text-1d --seed 1 --seconds 20 \\
        --trace 0 [--out result.json]

Builds perf_e2e from this checkout (bench/e2e is its own CMake project
over ../../src) into .bench_build/e2e, runs one workload with
LOGMINE_EXECUTOR_THREADS=2, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or, from a traced run, the
per-layer metrics derived by layers.py (--trace 1). Everything else —
build output, perf_e2e's own report — goes to stderr. --out also saves
the stamped result (perf_e2e's report plus the commit and the per-layer
metrics) for compare.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
# Two pool threads + the main thread + at most one load-generator thread
# fill a 4-core box without oversubscribing it.
EXECUTOR_THREADS = "2"
RUN_TIMEOUT_S = 175


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perf_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / "perf_e2e"


def commit():
    """The checkout's commit, read from .git without running git; None
    in a checkout that is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["text-1d", "columnar-7d", "stream-7d"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus volume; only 1.0 is the benchmark")
    parser.add_argument("--out", help="also save the stamped result here")
    args = parser.parse_args()
    started_at = time.time()

    spec = benchmark_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    binary = build()

    work = BUILD / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report_path = work / "report.json"
    trace_path = work / "trace.json"
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--scale={args.scale}", f"--work={work}",
               f"--out={report_path}"]
    if args.trace:
        command.append(f"--trace={trace_path}")
    env = dict(os.environ, LOGMINE_EXECUTOR_THREADS=EXECUTOR_THREADS)
    log(" ".join(command))
    code = subprocess.run(command, env=env, stdout=sys.stderr,
                          timeout=RUN_TIMEOUT_S).returncode
    with open(report_path) as f:
        report = json.load(f)

    per_layer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        sys.dont_write_bytecode = True
        import layers
        per_layer = layers.per_layer_metrics(trace_path)
        metrics = per_layer
    else:
        metrics = report["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} missing or not in "
                               f"{m['unit']}: {got}")
    metrics = {m["name"]: metrics[m["name"]] for m in wanted}

    if args.out:
        report["stamp"]["commit"] = commit()
        report["stamp"]["started_at"] = started_at
        report["per_layer"] = per_layer
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    # Only the corpus and the trace are large; keep the report.
    for path in work.iterdir():
        if path != report_path:
            path.unlink()

    print(json.dumps({"correct": report["correct"] and code == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"failed: {error}")
        sys.exit(1)
