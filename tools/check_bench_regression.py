#!/usr/bin/env python3
"""Gate the simulation kernel's throughput against the committed baseline.

Reads two google-benchmark JSON files — the committed trajectory artifact
(BENCH_micro_hotpaths.json) and a fresh run — and fails when the fresh
items_per_second of any gated benchmark drops more than --tolerance
(default 20%) below the committed value.

Also enforces machine-independent invariants inside the fresh run
itself (each compares two measurements from the same process on the same
machine, so they hold on any runner class):

  * --min-ratio R: BM_SimKernelColumnar must be at least R times faster
    (items/sec) than BM_SimKernelReference at every common fleet size.
  * --min-spes-ratio R: BM_SpesProvisionMinute (the event-driven SPES
    step) must be at least R times faster (items/sec) than
    BM_SpesProvisionMinuteReference (the dense reference loop) at every
    common fleet size.
  * --min-spes-train-ratio R: BM_SpesTrain (SPES training from the
    slots of a TrainingWindow) must be at least R times faster (items/sec)
    than BM_SpesTrainReference (the dense reference over the materialized
    Trace) at every common fleet size.
  * --max-stream-overhead F: BM_TraceFileStreamDecode (the packed-file
    streaming decode) may be at most F times slower than BM_InMemoryDecode
    at every common fleet size — the out-of-core path must stay within a
    bounded factor of reading RAM.

Usage:
  tools/check_bench_regression.py BASELINE.json FRESH.json \
      [--tolerance 0.20] [--min-ratio 10] [--min-spes-ratio 0.6] \
      [--min-spes-train-ratio 3] [--max-stream-overhead 6] \
      [--gate BM_SimKernelColumnar]
"""

import argparse
import json
import sys


def load_items_per_second(path):
    """Returns {benchmark name: items_per_second} for aggregate-free runs."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    result = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregates (mean/median/stddev) if present
        ips = bench.get("items_per_second")
        if ips is not None:
            result[bench["name"]] = float(ips)
    return result


def fleet_size(name):
    """'BM_SimKernelColumnar/4000' -> '4000' (or '' when unparameterized)."""
    return name.rsplit("/", 1)[1] if "/" in name else ""


def series(results, base):
    """{fleet size: items/sec} of the benchmarks named exactly `base`."""
    return {fleet_size(n): v for n, v in results.items()
            if n.split("/", 1)[0] == base}


def check_min_ratio(fresh, fast, slow, floor, label, failures):
    """Requires fast/slow items/sec >= floor at every common fleet size."""
    fast_ips = series(fresh, fast)
    slow_ips = series(fresh, slow)
    common = sorted(set(fast_ips) & set(slow_ips))
    if not common:
        failures.append(f"{label}: the fresh run has no common "
                        f"{fast}/{slow} sizes")
    for size in common:
        ratio = fast_ips[size] / slow_ips[size]
        status = "ok" if ratio >= floor else "TOO SLOW"
        print(f"{label} @ {size or 'default'} functions: {ratio:.2f}x "
              f"[{status}]")
        if ratio < floor:
            failures.append(
                f"{label} only {ratio:.2f}x at {size or 'default'} "
                f"functions (requires >= {floor:g}x)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_*.json artifact")
    parser.add_argument("fresh", help="freshly produced benchmark JSON")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="max allowed fractional drop vs the baseline")
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="required columnar/reference items/sec ratio "
                             "within the fresh run")
    parser.add_argument("--min-spes-ratio", type=float, default=None,
                        help="required event-driven/dense SPES provision "
                             "step items/sec ratio within the fresh run")
    parser.add_argument("--min-spes-train-ratio", type=float, default=None,
                        help="required slot-form/dense SPES training "
                             "items/sec ratio within the fresh run")
    parser.add_argument("--max-stream-overhead", type=float, default=None,
                        help="max allowed in-memory/streamed decode "
                             "items/sec ratio within the fresh run")
    parser.add_argument("--gate", action="append", default=None,
                        help="benchmark name prefix to gate vs the baseline "
                             "(repeatable; default: BM_SimKernelColumnar)")
    args = parser.parse_args()
    gates = args.gate or ["BM_SimKernelColumnar"]

    baseline = load_items_per_second(args.baseline)
    fresh = load_items_per_second(args.fresh)
    failures = []

    for name, base_ips in sorted(baseline.items()):
        if not any(name.startswith(g) for g in gates):
            continue
        fresh_ips = fresh.get(name)
        if fresh_ips is None:
            failures.append(f"{name}: present in baseline, missing from "
                            f"the fresh run")
            continue
        drop = 1.0 - fresh_ips / base_ips
        status = "REGRESSED" if drop > args.tolerance else "ok"
        print(f"{name}: baseline {base_ips:.3e} -> fresh {fresh_ips:.3e} "
              f"items/s ({-drop:+.1%}) [{status}]")
        if drop > args.tolerance:
            failures.append(
                f"{name}: throughput dropped {drop:.1%} "
                f"(> {args.tolerance:.0%} tolerance)")

    if args.min_ratio is not None:
        check_min_ratio(fresh, "BM_SimKernelColumnar",
                        "BM_SimKernelReference", args.min_ratio,
                        "SimKernel columnar/reference", failures)

    if args.min_spes_ratio is not None:
        check_min_ratio(fresh, "BM_SpesProvisionMinute",
                        "BM_SpesProvisionMinuteReference",
                        args.min_spes_ratio,
                        "SPES provision event-driven/dense", failures)

    if args.min_spes_train_ratio is not None:
        check_min_ratio(fresh, "BM_SpesTrain", "BM_SpesTrainReference",
                        args.min_spes_train_ratio,
                        "SPES training slots/dense", failures)

    if args.max_stream_overhead is not None:
        in_memory = series(fresh, "BM_InMemoryDecode")
        streamed = series(fresh, "BM_TraceFileStreamDecode")
        common = sorted(set(in_memory) & set(streamed))
        if not common:
            failures.append("--max-stream-overhead given but the fresh run "
                            "has no common InMemory/TraceFileStream decode "
                            "sizes")
        for size in common:
            overhead = in_memory[size] / streamed[size]
            status = ("ok" if overhead <= args.max_stream_overhead
                      else "TOO SLOW")
            print(f"streamed decode overhead @ {size or 'default'} "
                  f"functions: {overhead:.2f}x [{status}]")
            if overhead > args.max_stream_overhead:
                failures.append(
                    f"streamed decode {overhead:.2f}x slower than in-memory "
                    f"at {size or 'default'} functions "
                    f"(allows <= {args.max_stream_overhead:g}x)")

    if failures:
        print("\nBENCH REGRESSION CHECK FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
