#!/usr/bin/env python3
"""End-to-end benchmark of the SPES simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The script builds perfbench/spes_bench from source into .bench_build/,
generates and packs the workload's fleet from --seed once (cached per
workload, scale and seed), reads the packed file once so timed runs start
from the page cache, then times whole runs of the simulator, one process
per run, until --seconds have been spent (at least three runs).

--trace 0 prints the end-to-end metrics: medians over the runs.
--trace 1 adds one traced run and prints the per-layer metrics.
--smoke runs every workload on a tiny fleet, traced and untraced, with
the output check, and exits non-zero if anything fails.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cmake", "spes_bench")

WORKLOADS = ("spes_sparse", "baseline_lockstep", "cluster_latency")
MIN_RUNS = 3
MAX_RUNS = 40
RUN_TIMEOUT_S = 150

# Host-side figures: medians over the runs, bounded in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("sim_min_per_s", "min/s"),
    ("peak_rss_mib", "MiB"),
)

# Simulated figures: every run of one fleet must reproduce them exactly.
# They change with the seed's fleet by up to a quarter, so they are
# printed here, not bounded; the traced run reports the ones that are
# not times with the per-layer metrics.
EXACT = (
    ("cold_starts", "count"),
    ("wasted_mem_min", "inst-min"),
    ("lat_p99_ms", "ms"),
    ("lat_dropped_frac", "ratio"),
)
EXACT_KEYS = tuple(name for name, _ in EXACT)

# Every time among these is measured on every workload; a layer that a
# workload does not run shows up only in counts and shares, as 0.
LANES = ("spes", "fixed_keepalive", "faascache", "hybrid_histogram", "defuse")
PER_LAYER = (
    [
        ("trace.pack_s", "s"),
        ("trace.open_s", "s"),
        ("trace.prefix_s", "s"),
        ("trace.prefix_rss_mib", "MiB"),
        ("trace.decode_s", "s"),
        ("trace.blocks_decoded", "count"),
        ("trace.invocations_decoded", "count"),
        ("policy.train_s", "s"),
        ("policy.step_s", "s"),
        ("policy.step_us_p50", "us"),
        ("policy.step_us_p99", "us"),
    ]
    + [(f"policy.{lane}.{share}", "%") for lane in LANES for share in ("setup_pct", "loop_pct")]
    + [
        ("sim.loop_s", "s"),
        ("sim.step_ms_p50", "ms"),
        ("sim.step_ms_p99", "ms"),
        ("sim.self_s", "s"),
        ("sim.minutes_decoded", "count"),
        ("sim.lanes", "count"),
        ("cluster.pressure_evictions", "count"),
        ("cluster.reroutes", "count"),
        ("cluster.node_cold_cv", "ratio"),
        ("latency.loop_pct", "%"),
        ("latency.served", "count"),
        ("latency.timeouts", "count"),
        ("latency.shed", "count"),
        ("latency.max_queue_depth", "count"),
        ("cold_starts", "count"),
        ("wasted_mem_min", "inst-min"),
        ("lat_dropped_frac", "ratio"),
        ("setup_accounted_pct", "%"),
        ("loop_accounted_pct", "%"),
        ("tracing_overhead_pct", "%"),
    ]
)


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(message):
    print(message, flush=True)


def child_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compilers and tools keep their scratch inside
    return env


def build():
    """Configures and builds spes_bench; incremental after the first run."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise BenchError(f"no SPES source tree at {ROOT}: CMakeLists.txt and src/ are required")
    os.makedirs(BUILD, exist_ok=True)
    build_dir = os.path.join(BUILD, "cmake")
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "spes_bench", "-j", jobs])
    with open(log_path, "w") as out:
        for step in steps:
            rc = subprocess.run(
                step, stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
            ).returncode
            if rc != 0:
                out.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError(f"build failed ({' '.join(step)}); see {log_path}")


def call(args, timeout=RUN_TIMEOUT_S):
    """Runs spes_bench; returns (ok, parsed last JSON line or error text)."""
    try:
        proc = subprocess.run(
            [BINARY] + args,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
            env=child_env(),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {timeout} s: {' '.join(args)}"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        return False, f"exit {proc.returncode}, no result: {proc.stderr.strip()[-400:]}"
    if proc.returncode != 0 or not result.get("ok"):
        return False, result.get("error", f"exit {proc.returncode}")
    return True, result


def fixture(workload, scale, seed):
    """The packed fleet for (workload, scale, seed), packed once and cached.

    Returns (path, the pack step's JSON result). Older seeds of the same
    workload and scale are deleted, so the cache holds one file per workload."""
    directory = os.path.join(BUILD, "fixtures")
    os.makedirs(directory, exist_ok=True)
    stem = f"{workload}-{scale}-"
    path = os.path.join(directory, f"{stem}{seed}.spt")
    meta_path = path + ".json"
    if not (os.path.isfile(path) and os.path.isfile(meta_path)):
        for name in os.listdir(directory):
            if name.startswith(stem):
                os.remove(os.path.join(directory, name))
        tmp = path + ".tmp"
        ok, result = call(
            ["pack", f"--workload={workload}", f"--scale={scale}", f"--seed={seed}", f"--out={tmp}"]
        )
        if not ok:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise BenchError(f"pack {workload}: {result}")
        os.replace(tmp, path)
        with open(meta_path, "w") as f:
            json.dump(result, f)
    with open(meta_path) as f:
        meta = json.load(f)
    # Read the file once so every timed run starts from the page cache.
    with open(path, "rb") as f:
        while f.read(1 << 22):
            pass
    return path, meta


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Runs:
    """Untraced runs of one workload: one process each, same fleet."""

    def __init__(self, workload, scale, path):
        self.base = [f"--workload={workload}", f"--scale={scale}", f"--trace-file={path}"]
        self.results = []
        self.errors = []
        self.attempted = 0

    def run(self, budget_s, min_runs):
        start = time.monotonic()
        last = 0.0
        while self.attempted < MAX_RUNS:
            elapsed = time.monotonic() - start
            if self.attempted >= min_runs and elapsed + last > budget_s:
                break
            began = time.monotonic()
            ok, result = call(["run"] + self.base)
            last = time.monotonic() - began
            self.attempted += 1
            if ok:
                result["sim_min_per_s"] = result["sim_minutes"] / result["loop_s"]
                self.results.append(result)
            else:
                self.errors.append(result)

    def exact(self):
        """The exact figures, or None when two runs disagree."""
        seen = {tuple(r.get(k) for k in EXACT_KEYS) for r in self.results}
        return dict(zip(EXACT_KEYS, seen.pop())) if len(seen) == 1 else None


def end_to_end_metrics(runs):
    metrics = {}
    log(f"{'metric':<16} {'unit':<9} {'median':>14} {'q1':>14} {'q3':>14}  n")
    for name, unit in END_TO_END:
        values = [r[name] for r in runs.results]
        q1, median, q3 = quartiles(values)
        log(f"{name:<16} {unit:<9} {median:>14.6g} {q1:>14.6g} {q3:>14.6g}  {len(values)}")
        metrics[name] = {"value": median, "unit": unit}
    for name, unit in EXACT:
        if name in runs.results[0]:
            log(f"{name:<16} {unit:<9} {runs.results[0][name]:>14.10g}  (exact, every run)")
    return metrics


def per_layer_metrics(traced, meta, untraced_total):
    found = dict(traced)
    found["trace.pack_s"] = meta["pack_s"]
    found["tracing_overhead_pct"] = 100.0 * (traced["total_s"] - untraced_total) / untraced_total
    metrics = {}
    for name, unit in PER_LAYER:
        # A lane, cluster or latency block the workload lacks did no work.
        value = found.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        log(f"{name:<36} {unit:<6} {value:.6g}")
    return metrics


def run_workload(workload, seed, seconds, trace, scale="full"):
    """Returns (correct, attempted, failed, metrics)."""
    path, meta = fixture(workload, scale, seed)
    log(
        f"{workload}: seed {seed}, {meta['functions']} functions, "
        f"{meta['invocations']} invocations, {meta['file_mib']:.1f} MiB packed "
        f"in {meta['pack_s']:.2f} s"
    )
    runs = Runs(workload, scale, path)
    runs.run(seconds / 2 if trace else seconds, MIN_RUNS if scale == "full" else 1)
    for error in runs.errors:
        log(f"FAILED run: {error}")
    if not runs.results:
        return False, runs.attempted, runs.attempted, {}
    exact = runs.exact()
    correct = not runs.errors and exact is not None
    if exact is None:
        log("FAILED: the exact figures differ between runs of one fleet")
    metrics = end_to_end_metrics(runs)
    attempted, failed = runs.attempted, len(runs.errors)
    if trace:
        attempted += 1
        ok, traced = call(
            ["trace", f"--workload={workload}", f"--scale={scale}", f"--trace-file={path}"]
        )
        if not ok:
            log(f"FAILED traced run: {traced}")
            return False, attempted, failed + 1, metrics
        if exact is not None and any(traced.get(k) != exact[k] for k in EXACT_KEYS):
            log("FAILED: the traced run's exact figures differ from the untraced runs'")
            correct = False
        untraced_total = statistics.median(r["total_s"] for r in runs.results)
        metrics = per_layer_metrics(traced, meta, untraced_total)
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny fleets, every workload")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        build()
        if args.smoke:
            correct, attempted, failed, metrics = True, 0, 0, {}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    ok, a, f, m = run_workload(workload, args.seed, 0, trace, scale="smoke")
                    correct, attempted, failed = correct and ok, attempted + a, failed + f
                    if trace == 0 and "total_s" in m:
                        metrics[f"{workload}.total_s"] = m["total_s"]
        else:
            correct, attempted, failed, metrics = run_workload(
                args.workload, args.seed, args.seconds, args.trace
            )
    except BenchError as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 2
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
