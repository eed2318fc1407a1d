#!/usr/bin/env python3
"""Fails CI when the L1 hot path regresses against the checked-in baseline.

Compares ``l1.ns_per_log`` at 8 threads from a fresh ``perf_pipeline``
report against ``ci/bench_baseline.json``. Raw ns/log is machine
dependent, so the comparison is normalized by the seed-style serial
reference time measured in the *same* run on both sides: a runner that
is 2x slower overall is 2x slower on the reference too, and the ratio
cancels the machine out. The guard trips only when the normalized L1
cost grew by more than ``--tolerance`` (default 20%).

Also asserts the correctness flags the bench computes:
``results_match_seed_reference`` and
``l1_pruning.pruned_matches_unpruned`` must both be true — a fast but
wrong hot path must never pass. When both reports carry a ``sweep``
section (the sharded-sweep supervisor bench), the fault-free sweep must
additionally be complete (coverage 1.0) and byte-equivalent to the
unsliced mine (``model_matches_unsharded``), and its wall time is held
to the same normalized-growth tolerance as the L1 hot path.

When the current report carries an ``obs`` section, the telemetry tax
is additionally held to an absolute budget: the fully instrumented
end-to-end run (metrics + sketches + journal, globally
installed) may cost at most ``--obs-budget`` (default 3%) over the
uninstrumented run measured in the same report. Unlike the hot-path
guards this is not baseline-relative — the budget is the contract.

When the current report carries an ``ingest`` section (the mmap +
chunked-decode + columnar corpus bench), four more guards apply:

* correctness flags ``parallel_matches_serial``,
  ``columnar_roundtrip_ok`` and ``autodetect_ok`` must all be true —
  a fast decode that produces different records must never pass;
* the columnar re-read must beat the serial text decode of the same
  corpus by ``--min-columnar-read-speedup`` (default 2x). Both sides
  are measured in the same run, so the ratio is machine independent.
  The floor sits at about 5/8 of the ratio the checked-in baseline
  measured (3.65x), the margin the chunked floor below leaves under
  its 8-core ideal. A same-run ratio against text decode stands in
  for a columnar regression only as long as text decode is steady;
  the reference-normalized ``columnar_read`` cost guard below catches
  that regression directly;
* the chunked decode must beat serial by ``--min-chunked-speedup``
  (default 5x) — but only when the report's
  ``hardware_concurrency`` is at least ``--multicore-threshold``
  (default 8) cores, since parallel speedup is physically unobservable
  on the 1–2-core CI runners. The ratio guards above still hold there;
* when the baseline also has an ``ingest`` section, the
  reference-normalized text-decode and columnar-read costs are held to
  the same ``--tolerance`` growth as the L1 hot path.

Usage: check_bench_regression.py --current BENCH_pipeline.json \
           [--baseline ci/bench_baseline.json] [--tolerance 0.20] \
           [--obs-budget 0.03] [--min-columnar-read-speedup 2] \
           [--min-chunked-speedup 5] [--multicore-threshold 8]
"""

import argparse
import json
import sys


def l1_cost(report: dict) -> float:
    """Normalized L1 cost: ns/log at 8 threads over the serial reference."""
    ns_per_log = report["l1"]["8"]["ns_per_log"]
    reference_ms = report["seed_reference_serial"]["l2_plus_l3_ms"]
    if reference_ms <= 0:
        raise SystemExit("baseline reference time is not positive")
    return ns_per_log / reference_ms


def sweep_cost(report: dict) -> float:
    """Normalized sharded-sweep cost: sweep ms over the serial reference."""
    reference_ms = report["seed_reference_serial"]["l2_plus_l3_ms"]
    if reference_ms <= 0:
        raise SystemExit("baseline reference time is not positive")
    return report["sweep"]["ms"] / reference_ms


def ingest_cost(report: dict, sample: str) -> float:
    """Normalized ingest cost: ns/log of one sample over the reference."""
    reference_ms = report["seed_reference_serial"]["l2_plus_l3_ms"]
    if reference_ms <= 0:
        raise SystemExit("baseline reference time is not positive")
    return report["ingest"][sample]["ns_per_log"] / reference_ms


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline", default="ci/bench_baseline.json")
    parser.add_argument("--tolerance", type=float, default=0.20)
    parser.add_argument("--obs-budget", type=float, default=0.03)
    parser.add_argument("--min-columnar-read-speedup", type=float, default=2.0)
    parser.add_argument("--min-chunked-speedup", type=float, default=5.0)
    parser.add_argument("--multicore-threshold", type=int, default=8)
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    failures = []
    if not current.get("results_match_seed_reference"):
        failures.append("results_match_seed_reference is false")
    pruning = current.get("l1_pruning", {})
    if not pruning.get("pruned_matches_unpruned"):
        failures.append("l1_pruning.pruned_matches_unpruned is false")

    base = l1_cost(baseline)
    cur = l1_cost(current)
    growth = cur / base - 1.0
    print(
        f"l1.ns_per_log@8 (reference-normalized): baseline {base:.4f}, "
        f"current {cur:.4f}, growth {growth * 100.0:+.1f}% "
        f"(tolerance {args.tolerance * 100.0:.0f}%)"
    )
    if growth > args.tolerance:
        failures.append(
            f"normalized l1.ns_per_log at 8 threads regressed "
            f"{growth * 100.0:.1f}% > {args.tolerance * 100.0:.0f}%"
        )

    # Sharded-sweep supervisor section: only checked when both sides
    # have it, so an old baseline stays comparable.
    sweep = current.get("sweep")
    if sweep is not None:
        if not sweep.get("model_matches_unsharded"):
            failures.append("sweep.model_matches_unsharded is false")
        if sweep.get("coverage") != 1.0:
            failures.append(
                f"fault-free sweep coverage is {sweep.get('coverage')}, "
                f"expected 1.0"
            )
        if "sweep" in baseline:
            sweep_base = sweep_cost(baseline)
            sweep_cur = sweep_cost(current)
            sweep_growth = sweep_cur / sweep_base - 1.0
            print(
                f"sweep.ms (reference-normalized): baseline "
                f"{sweep_base:.4f}, current {sweep_cur:.4f}, growth "
                f"{sweep_growth * 100.0:+.1f}% "
                f"(tolerance {args.tolerance * 100.0:.0f}%)"
            )
            if sweep_growth > args.tolerance:
                failures.append(
                    f"normalized sharded-sweep time regressed "
                    f"{sweep_growth * 100.0:.1f}% > "
                    f"{args.tolerance * 100.0:.0f}%"
                )

    # Telemetry budget: the instrumented run in the current report must
    # stay within the absolute overhead budget. Negative fractions
    # (instrumented run measured faster — noise) are fine.
    obs = current.get("obs")
    if obs is not None:
        overhead = obs.get("overhead_fraction")
        if overhead is None:
            failures.append("obs section has no overhead_fraction")
        else:
            print(
                f"obs.overhead_fraction: {overhead * 100.0:+.2f}% "
                f"(budget {args.obs_budget * 100.0:.0f}%)"
            )
            if overhead > args.obs_budget:
                failures.append(
                    f"telemetry overhead {overhead * 100.0:.2f}% exceeds "
                    f"the {args.obs_budget * 100.0:.0f}% budget"
                )

    # Ingest section: correctness flags, machine-independent speedup
    # ratios, and baseline-relative normalized throughput.
    ingest = current.get("ingest")
    if ingest is not None:
        for flag in ("parallel_matches_serial", "columnar_roundtrip_ok",
                     "autodetect_ok"):
            if not ingest.get(flag):
                failures.append(f"ingest.{flag} is false")

        columnar_speedup = ingest.get("columnar_read_speedup_vs_text", 0.0)
        print(
            f"ingest.columnar_read_speedup_vs_text: {columnar_speedup:.1f}x "
            f"(minimum {args.min_columnar_read_speedup:.0f}x)"
        )
        if columnar_speedup < args.min_columnar_read_speedup:
            failures.append(
                f"columnar re-read is only {columnar_speedup:.1f}x faster "
                f"than the serial text decode, expected >= "
                f"{args.min_columnar_read_speedup:.0f}x"
            )

        cores = ingest.get("hardware_concurrency", 1)
        chunked_speedup = ingest.get("chunked_speedup", 0.0)
        if cores >= args.multicore_threshold:
            print(
                f"ingest.chunked_speedup: {chunked_speedup:.1f}x on {cores} "
                f"cores (minimum {args.min_chunked_speedup:.0f}x)"
            )
            if chunked_speedup < args.min_chunked_speedup:
                failures.append(
                    f"chunked decode is only {chunked_speedup:.1f}x faster "
                    f"than serial on {cores} cores, expected >= "
                    f"{args.min_chunked_speedup:.0f}x"
                )
        else:
            print(
                f"ingest.chunked_speedup: {chunked_speedup:.1f}x on {cores} "
                f"core(s) — below the {args.multicore_threshold}-core "
                f"threshold, speedup floor not enforced"
            )

        if "ingest" in baseline:
            for sample in ("text_decode_serial", "columnar_read"):
                base_cost = ingest_cost(baseline, sample)
                cur_cost = ingest_cost(current, sample)
                sample_growth = cur_cost / base_cost - 1.0
                print(
                    f"ingest.{sample}.ns_per_log (reference-normalized): "
                    f"baseline {base_cost:.4f}, current {cur_cost:.4f}, "
                    f"growth {sample_growth * 100.0:+.1f}% "
                    f"(tolerance {args.tolerance * 100.0:.0f}%)"
                )
                if sample_growth > args.tolerance:
                    failures.append(
                        f"normalized ingest.{sample} cost regressed "
                        f"{sample_growth * 100.0:.1f}% > "
                        f"{args.tolerance * 100.0:.0f}%"
                    )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
