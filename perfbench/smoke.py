#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, in seconds.

    python3 perfbench/smoke.py

For each workload it checks that an untraced and a traced run exit 0,
print every metric BENCHMARK.json names with its unit, pass the
correctness gate, and run clean on a second seed; that a run whose
application is told to see one corrupted ADU (--inject-mismatch) fails
the gate and exits non-zero; and that two serve-lossy runs of one seed
repeat their repair counts, allocation and wire bytes exactly. Exits 1
on the first failure, 0 when all pass.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = ["--seconds", "0.05", "--min-rounds", "1",
        "--sessions", "300", "--adus", "2", "--records", "40"]
SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def bench(workload, seed, trace, *extra):
    out_dir = os.path.join(run.ROOT, "perfbench", "out", "smoke")
    done = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--out-dir", out_dir] + TINY + list(extra),
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, out_dir


def check(ok, what):
    if not ok:
        print("FAIL:", what)
        sys.exit(1)


def check_run(workload, seed, trace):
    rc, res, out_dir = bench(workload, seed, trace)
    label = "%s seed %d trace %d" % (workload, seed, trace)
    check(rc == 0, label + ": exit code %d" % rc)
    check(res is not None and set(res) == {"correct", "attempted", "failed", "metrics"},
          label + ": last line is not the result object")
    check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
          label + ": correctness gate (%s)" % {k: res[k] for k in ("correct", "attempted", "failed")})
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    check(set(got) == {m["name"] for m in wanted},
          label + ": metric names differ from BENCHMARK.json: %s"
          % sorted(set(got) ^ {m["name"] for m in wanted}))
    for m in wanted:
        v = got[m["name"]]
        check(v["unit"] == m["unit"], label + ": %s unit %r" % (m["name"], v["unit"]))
        check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
              label + ": %s value %r" % (m["name"], v["value"]))
        if not trace:
            check(v["value"] > 0, label + ": %s is not positive" % m["name"])
    if trace:
        stem = os.path.join(out_dir, "%s-seed%d" % (workload, seed))
        check(os.path.exists(stem + ".layers.txt"), label + ": no per-layer table file")
        trace_file = json.load(open(stem + ".trace.json"))
        check(len(trace_file["traceEvents"]) > 0, label + ": empty Chrome trace")
    return got


def main():
    os.makedirs(os.path.join(run.ROOT, "perfbench", "out", "smoke"), exist_ok=True)
    check(run.build(), "build")
    for w in [w["name"] for w in SPEC["workloads"]]:
        check_run(w, 1, 0)
        check_run(w, 1, 1)
        check_run(w, 2, 0)
        rc, res, _ = bench(w, 1, 0, "--inject-mismatch")
        check(rc != 0 and res is not None and res["correct"] is False and res["failed"] > 0,
              "%s: an injected corrupted ADU did not fail the run" % w)
        print("ok", w)
    a, b = check_run("serve-lossy", 5, 0), check_run("serve-lossy", 5, 0)
    for k in ("alloc_words_per_adu", "wire_bytes_per_adu"):
        check(a[k] == b[k], "serve-lossy %s differs between runs of one seed" % k)
    a, b = check_run("serve-lossy", 5, 1), check_run("serve-lossy", 5, 1)
    for k in ("serve.nacks", "gen.regens", "gen.recloses"):
        check(a[k] == b[k], "serve-lossy %s differs between runs of one seed" % k)
    print("ok serve-lossy repeats exactly per seed")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
