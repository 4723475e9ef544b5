#!/usr/bin/env python3
"""The repository benchmark: host job time, memory and service throughput.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload q9_dup10|store_join|service_day \
        --seed N --seconds S --trace 0|1

Builds perfbench_worker (perfbench/CMakeLists.txt, engine sources from
src/) into .bench_build/perfbench, then runs the workload one repetition per
fresh worker process for about S seconds. Every repetition's output is
checked against a reference computed by a separate worker with an
independent plan or backend. Human-readable lines (metric, value, unit,
clock) come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is nonzero when any
output check fails.

--trace 0 reports the end-to-end metrics (untraced repetitions at
min(4, nproc) engine threads). --trace 1 reports the per-layer metrics from
traced repetitions at one engine thread, each paired with an untraced
one-thread repetition to measure the cost of tracing.

Why each workload was chosen, and which end-to-end metric each layer metric
should move on which workload, is recorded in perfbench/README.md;
BENCHMARK.json lists the metrics of the tables below.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

PKG_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BUILD_DIR, "perfbench_worker")
WORKER_TIMEOUT_S = 150
MIN_REPS = 3

WORKLOADS = ("q9_dup10", "store_join", "service_day")

# Metric tables: name -> (unit, clock, better). Clock "host" is wall or CPU
# time of this machine, "sim" the simulated cluster clock, "count" a count
# from the program or the shims; sim and count values repeat exactly for
# one seed. Meanings, and which end-to-end metric each layer metric should
# move on which workload, are in perfbench/README.md.
E2E = {
    "job_s": ("s", "host", "lower"),
    "cpu_s": ("s", "host", "lower"),
    "peak_rss_mb": ("MB", "host", "lower"),
    "setup_s": ("s", "host", "lower"),
    "sim_s": ("s", "sim", "lower"),
}

# Printed on the readable lines of a --trace 0 run of service_day only: the
# JSON metrics must exist on every workload and never be 0.
SERVICE_EXTRA = {
    "jobs_per_s": ("jobs/s", "host", "higher"),
    "svc_latency_p50_s": ("s", "sim", "lower"),
    "svc_latency_p90_s": ("s", "sim", "lower"),
}

LAYER = {
    "workloads.generate_s": ("s", "host", "lower"),
    "store.build_s": ("s", "host", "lower"),
    "service.setup_s": ("s", "host", "lower"),
    "efind.stats_s": ("s", "host", "lower"),
    "efind.optimizer_s": ("s", "host", "lower"),
    "efind.execute_s": ("s", "host", "lower"),
    "service.run_s": ("s", "host", "lower"),
    "kvstore.lookup_s": ("s", "host", "lower"),
    "kvstore.lookups": ("count", "count", "lower"),
    "kvstore.ns_per_lookup": ("ns", "host", "lower"),
    "store.lookup_s": ("s", "host", "lower"),
    "store.lookups": ("count", "count", "lower"),
    "store.flushes": ("count", "count", "lower"),
    "store.ns_per_lookup": ("ns", "host", "lower"),
    "efind.pre_s": ("s", "host", "lower"),
    "efind.post_s": ("s", "host", "lower"),
    "mapreduce.map_fn_s": ("s", "host", "lower"),
    "mapreduce.reduce_fn_s": ("s", "host", "lower"),
    "engine.self_s": ("s", "host", "lower"),
    "engine.self_frac": ("ratio", "host", "lower"),
    "traced.wall_s": ("s", "host", "lower"),
    "traced.unattributed_s": ("s", "host", "lower"),
    "traced.overhead_frac": ("ratio", "host", "lower"),
    "efind.cache_hits": ("count", "count", "higher"),
    "efind.index_lookups": ("count", "count", "lower"),
    "efind.cache_hit_ratio": ("ratio", "count", "higher"),
    "mapreduce.shuffle_records": ("count", "count", "lower"),
    "mapreduce.shuffle_bytes": ("bytes", "count", "lower"),
    "common.arena_allocs": ("count", "count", "lower"),
    "common.arena_alloc_bytes": ("bytes", "count", "lower"),
    "common.records_per_alloc": ("ratio", "count", "higher"),
    "efind.dfs_boundary_bytes": ("bytes", "count", "lower"),
    "store.page_reads": ("count", "count", "lower"),
    "store.coalesced_page_reads": ("count", "count", "higher"),
    "store.pages_per_lookup": ("ratio", "count", "lower"),
    "reuse.hits": ("count", "count", "higher"),
    "reuse.misses": ("count", "count", "lower"),
    "reuse.hit_ratio": ("ratio", "count", "higher"),
    "reuse.materialized_bytes": ("bytes", "count", "lower"),
    "common.wal_bytes_per_job": ("bytes", "count", "lower"),
    "service.deferred": ("count", "count", "lower"),
    "service.rejected": ("count", "count", "lower"),
    "service.backups_preempted": ("count", "count", "lower"),
    "process.cpu_util": ("ratio", "host", "higher"),
}

# Layer metrics that are host timings (median over traced repetitions);
# the rest repeat exactly between repetitions of one seed.
LAYER_TIMED = {n for n, spec in LAYER.items() if spec[1] == "host"}
# Sim-clock metrics that must repeat exactly between repetitions.
SIM_METRICS = ["sim_s", "svc_latency_p50_s", "svc_latency_p90_s"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def engine_threads():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures and builds the worker (both are quick when up to date);
    exits nonzero on failure."""
    cmds = [["cmake", "-S", PKG_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD_DIR, "-j", str(engine_threads()),
             "--target", "perfbench_worker"]]
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


class Runner:
    """Starts worker processes, each in a fresh scratch directory."""

    def __init__(self, args):
        self.args = args
        self.run_dir = os.path.join(TMP_ROOT, "run-%d" % os.getpid())
        self.count = 0

    def worker(self, role, threads):
        self.count += 1
        tmp = os.path.join(self.run_dir, "rep%d" % self.count)
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        cmd = [WORKER, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--threads", str(threads),
               "--role", role, "--size", self.args.size, "--tmp", tmp]
        if role == "traced":
            os.makedirs(TRACE_DIR, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                TRACE_DIR, "%s-seed%d-spans%d.json" % (
                    self.args.workload, self.args.seed, self.count))]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if proc.returncode != 0:
            log(proc.stderr[-4000:])
            log("perfbench: worker failed (%s, exit %d)" % (
                role, proc.returncode))
            sys.exit(1)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def close(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


def reference_digests(ref, corrupt):
    """Expected digest per job name ("" for a one-shot job). A service-day
    job that failed verification in the reference has no entry, so it fails
    in every measured repetition too."""
    if int(ref["errored"]):
        log("perfbench: %d job(s) of the reference run failed verification"
            % int(ref["errored"]))
    expected = {}
    for d in ref["digests"]:
        name, _, digest = d.rpartition("=")
        if corrupt:
            digest = "0" * 16 + digest[16:]
        expected[name] = digest
    return expected


def failures_of(rep, expected):
    """Jobs of one repetition whose output or status failed."""
    failed = int(rep["errored"])
    for d in rep["digests"]:
        name, _, digest = d.rpartition("=")
        if expected.get(name) != digest:
            failed += 1
    return min(failed, int(rep["attempted"]))


def check_reps(reps, expected, same_as=None):
    """(attempted, failed) over repetitions of one seed; a repetition whose
    sim-clock metrics or plan differ from the first counts as failed."""
    first = same_as if same_as is not None else reps[0]
    attempted = failed = 0
    for rep in reps:
        attempted += int(rep["attempted"])
        n = failures_of(rep, expected)
        drift = rep["plan"] != first["plan"] or any(
            rep["metrics"].get(k) != first["metrics"].get(k)
            for k in SIM_METRICS)
        if drift:
            log("perfbench: sim-clock metric or plan differs between "
                "repetitions of seed %d" % rep["seed"])
            n = int(rep["attempted"])
        failed += n
    return attempted, failed


def median_of(reps, name):
    return statistics.median(r["metrics"][name] for r in reps)


def repeat_until(deadline, step, min_count):
    """Calls step() at least min_count times and until the deadline."""
    out = []
    while len(out) < min_count or time.monotonic() < deadline:
        out.append(step())
    return out


def run_untraced(runner, expected, deadline):
    n = engine_threads()
    reps = repeat_until(deadline, lambda: runner.worker("measure", n),
                        MIN_REPS)
    attempted, failed = check_reps(reps, expected)
    metrics = {name: median_of(reps, name) for name in E2E}
    extras = {name: median_of(reps, name) for name in SERVICE_EXTRA
              if name in reps[0]["metrics"]}
    print("# %s seed=%d threads=%d repetitions=%d plan=%s" % (
        runner.args.workload, runner.args.seed, n, len(reps),
        reps[0]["plan"] or "-"))
    for name, value in list(metrics.items()) + list(extras.items()):
        unit, clock = (E2E.get(name) or SERVICE_EXTRA[name])[:2]
        print("%-20s %16.6f %-7s clock=%s" % (name, value, unit, clock))
    return attempted, failed, metrics


def run_traced(runner, expected, deadline):
    n = engine_threads()
    # Untraced at N threads: the plan and sim-clock metrics every traced
    # repetition must reproduce (outputs all match the one reference), and
    # the process CPU utilization.
    base = runner.worker("measure", n)
    pairs = repeat_until(deadline, lambda: (runner.worker("measure", 1),
                                            runner.worker("traced", 1)), 1)
    untraced = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    attempted, failed = check_reps([base] + untraced + traced, expected,
                                   same_as=base)
    metrics = {}
    for name in LAYER:
        if name in ("traced.overhead_frac", "process.cpu_util"):
            continue
        if name in LAYER_TIMED:
            metrics[name] = median_of(traced, name)
        else:
            metrics[name] = traced[0]["metrics"][name]
    metrics["traced.overhead_frac"] = (
        median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1.0)
    metrics["process.cpu_util"] = (
        base["metrics"]["cpu_s"] / (base["metrics"]["wall_s"] * n))
    wall = metrics["traced.wall_s"]
    print("# %s seed=%d traced repetitions=%d (threads=1), attributed to a "
          "named layer: %.1f%%" % (
              runner.args.workload, runner.args.seed, len(traced),
              100.0 * (1.0 - metrics["traced.unattributed_s"] / wall)))
    for name, value in metrics.items():
        unit, clock = LAYER[name][:2]
        print("%-28s %18.6f %-6s clock=%s" % (name, value, unit, clock))
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Input scale; "tiny" is for perfbench/selftest.py.
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    # Test hook for perfbench/selftest.py: flips the expected digests, so
    # every output check must fail.
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    build()
    runner = Runner(args)
    try:
        ref = runner.worker("reference", engine_threads())
        expected = reference_digests(ref, args.corrupt_reference)
        deadline = time.monotonic() + args.seconds
        if args.trace:
            attempted, failed, metrics = run_traced(runner, expected, deadline)
            specs = LAYER
        else:
            attempted, failed, metrics = run_untraced(runner, expected,
                                                      deadline)
            specs = E2E
    finally:
        runner.close()
    print("%-20s %16.6f %-7s clock=-" % (
        "failed_frac", failed / attempted, "ratio"))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": specs[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
