#!/usr/bin/env python3
"""Compares two sets of e2e benchmark results against BENCHMARK.json.

    python3 bench/e2e/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are directories (or single files) of result JSONs written
by `run.py --out`, typically the parent commit and a change, run on the
same seeds. For every workload and metric it prints each side's median
and quartiles, then:

  * applies the metric's bound: the change regresses when its median is
    worse than the base median by more than the bound. When either side's
    spread (interquartile range / median) is wider than the bound the
    metric is "unresolved" — unless every run of NEW beats every run of
    BASE;
  * checks a gain claim: at least 10 seed-paired runs, NEW better in at
    least 9 of 10 pairs (ties count for neither side), and a median gap
    wider than BASE's interquartile range. Run the pairs alternating
    which side goes first; the report says when they did not;
  * flags more failed operations, and any seed whose model F1 dropped.

Runs of different shapes (workload, scale, seconds, nproc, executor
threads, traced or not) or different seed sets are refused, as is a side
that mixes commits. Exit code: 0 clean, 1 regression / quality drop /
more failures, 2 refused.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SHAPE = ("bench", "workload", "scale", "seconds", "nproc", "executor_threads",
         "pool_workers", "setup_reps", "traced")
MIN_PAIRS = 10
WIN_SHARE = 0.9


class Refused(Exception):
    pass


def load_side(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = defaultdict(list)
    for file in files:
        with open(file) as f:
            result = json.load(f)
        if "stamp" not in result:
            continue
        if not result["correct"]:
            raise Refused(f"{file}: a run with wrong outputs")
        runs[result["stamp"]["workload"]].append(result)
    if not runs:
        raise Refused(f"no results under {path}")
    for workload, group in runs.items():
        commits = {r["stamp"].get("commit") for r in group}
        if len(commits) > 1:
            raise Refused(f"{path}: {workload} mixes commits {commits}")
    return runs


def shape(result):
    return {key: result["stamp"].get(key) for key in SHAPE}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse(new, base, better):
    return new > base if better == "lower" else new < base


def judge(metric, base_vals, new_vals, pairs):
    """One verdict string for one metric of one workload."""
    better = metric["better"]
    b1, bmed, b3 = quartiles(base_vals)
    n1, nmed, n3 = quartiles(new_vals)
    verdicts = []
    bound = metric.get("bound")
    if bound is not None:
        spread = max((b3 - b1) / abs(bmed) if bmed else 0,
                     (n3 - n1) / abs(nmed) if nmed else 0)
        all_better = all(not worse(n, b, better) and n != b
                         for n in new_vals for b in base_vals)
        change = (nmed - bmed) / abs(bmed) if bmed else 0.0
        if better == "higher":
            change = -change
        if spread > bound and not all_better:
            verdicts.append(f"unresolved (spread {spread:.1%} > bound)")
        elif change > bound:
            verdicts.append(f"REGRESSION ({change:+.1%} worse, bound "
                            f"{bound:.0%})")
        else:
            verdicts.append("within bound")
    wins = sum(worse(b, n, better) for b, n in pairs)
    losses = sum(worse(n, b, better) for b, n in pairs)
    gap = abs(nmed - bmed)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gap > b3 - b1 and not worse(nmed, bmed, better)):
        verdicts.append(f"GAIN ({wins}/{len(pairs)} pairs)")
    elif pairs:
        verdicts.append(f"no gain claim ({wins} wins, {losses} losses of "
                        f"{len(pairs)})")
    return (f"{bmed:12.6g} [{b1:.6g}, {b3:.6g}]  {nmed:12.6g} [{n1:.6g}, "
            f"{n3:.6g}]  " + "; ".join(verdicts)), verdicts[0]


def compare_workload(workload, base, new, spec):
    shapes = {json.dumps(shape(r), sort_keys=True) for r in base + new}
    if len(shapes) > 1:
        raise Refused(f"{workload}: runs of different shapes: {shapes}")
    base_seeds = sorted(r["stamp"]["seed"] for r in base)
    new_seeds = sorted(r["stamp"]["seed"] for r in new)
    if base_seeds != new_seeds:
        raise Refused(f"{workload}: seed sets differ: {base_seeds} vs "
                      f"{new_seeds}")
    by_seed = {r["stamp"]["seed"]: r for r in base}
    paired = [(by_seed[r["stamp"]["seed"]], r) for r in new]
    problems = []

    alternated = None
    started = [(b["stamp"].get("started_at"), n["stamp"].get("started_at"))
               for b, n in paired]
    if all(b is not None and n is not None for b, n in started):
        order = [b < n for b, n in sorted(started, key=min)]
        alternated = all(x != y for x, y in zip(order, order[1:]))

    traced = base[0]["stamp"]["traced"]
    print(f"\n== {workload}: {len(paired)} seed pairs, base commit "
          f"{base[0]['stamp'].get('commit')}, new commit "
          f"{new[0]['stamp'].get('commit')}, runs "
          f"{'alternated' if alternated else 'did not alternate' if alternated is not None else 'of unknown order'}")
    print(f"{'metric':32} {'base median [q1, q3]':>30}  "
          f"{'new median [q1, q3]':>30}  verdict")
    metrics = spec["per_layer" if traced else "end_to_end"]
    field = "per_layer" if traced else "metrics"
    for metric in metrics:
        name = metric["name"]
        pairs = [(b[field][name]["value"], n[field][name]["value"])
                 for b, n in paired]
        line, verdict = judge(metric, [b for b, _ in pairs],
                              [n for _, n in pairs], pairs)
        print(f"{name:32} {line}")
        if verdict.startswith("REGRESSION"):
            problems.append(f"{workload} {name}: {verdict}")

    base_failed = sum(r["failed"] for r in base)
    new_failed = sum(r["failed"] for r in new)
    print(f"{'failed ops':32} {base_failed:12d}  {new_failed:30d}")
    if new_failed > base_failed:
        problems.append(f"{workload}: more failed operations "
                        f"({new_failed} vs {base_failed})")
    drops = [b["stamp"]["seed"] for b, n in paired
             if n["quality"]["model_f1"] < b["quality"]["model_f1"]]
    print(f"{'model_f1 (per seed)':32} "
          f"{'lower on seeds ' + str(drops) if drops else 'never lower'}")
    if drops:
        problems.append(f"{workload}: model F1 dropped on seeds {drops}")
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    try:
        base = load_side(args.base)
        new = load_side(args.new)
        if set(base) != set(new):
            raise Refused(f"workloads differ: {sorted(base)} vs "
                          f"{sorted(new)}")
        problems = []
        for workload in sorted(base):
            problems += compare_workload(workload, base[workload],
                                         new[workload], spec)
    except Refused as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2
    print()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("no regression" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
