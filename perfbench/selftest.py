#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

- BENCHMARK.json names exactly the metrics run.py reports, with the same
  units.
- Every workload, at a tiny input size, on two different seeds, in both the
  untraced and the traced mode: exit code 0, correct, no failed job, and
  every metric of the mode present.
- With a corrupted reference every output check fails, and the command
  exits nonzero.
"""

import json
import os
import subprocess
import sys

PKG_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PKG_DIR)
sys.path.insert(0, PKG_DIR)
import run  # noqa: E402  (the benchmark's metric tables)

SEEDS = (3, 17)


def bench(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(PKG_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def check(cond, what, failures):
    print("%s  %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def main():
    failures = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py", failures)
    for key, table in (("end_to_end", run.E2E), ("per_layer", run.LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        reported = {n: (t[0], t[2]) for n, t in table.items()}
        check(declared == reported,
              "BENCHMARK.json %s names, units and directions match run.py"
              % key, failures)

    for workload in run.WORKLOADS:
        for seed in SEEDS:
            for trace, table in ((0, run.E2E), (1, run.LAYER)):
                code, out, proc = bench(workload, seed, trace)
                what = "%s seed=%d trace=%d" % (workload, seed, trace)
                ok = (code == 0 and out is not None and out["correct"]
                      and out["failed"] == 0 and out["attempted"] >= 1
                      and set(out["metrics"]) == set(table))
                if not ok:
                    sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                check(ok, what + ": verified, every metric reported",
                      failures)
        code, out, _ = bench(workload, SEEDS[0], 0, "--corrupt-reference")
        check(code != 0 and out is not None and not out["correct"]
              and out["failed"] == out["attempted"],
              "%s: a corrupted reference fails every job" % workload,
              failures)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
