#!/usr/bin/env python3
"""The count ledger: per-layer GC words and per-ADU counts, held to
committed values.

    python3 bench/ledger.py            # check against bench/baselines/LEDGER.json
    python3 bench/ledger.py --write    # rewrite it from three runs of each case

Builds perfbench's binary the way perfbench/smoke.py does (release
profile, through perfbench/run.py) and runs each workload traced, at
small sizes, with its traces in a temporary directory. Besides the
metrics of the JSON result it reads two counts from the detail of the
traced run's layers.txt: the serve engine's fallback allocations and
the GC words of one rt.send span. It also runs each workload untraced
at the same sizes for its wire bytes per ADU, which only an untraced
run reports. These counts repeat exactly run to run. A check fails when
a count rises above its committed value by more than the spread its
three runs showed when the file was written; a count that falls passes,
and the change that lowers it rewrites the file. Wire bytes are held
both ways: any change to the bytes on the wire fails until the file is
rewritten. Exits 1 on a failure, 0 when every count holds.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402

LEDGER = os.path.join(ROOT, "bench", "baselines", "LEDGER.json")
RUNS = 3

# (case, workload, seed, extra arguments); serve-lossy keeps its own
# session count, so its repair counts are the benchmark's.
CASES = [
    ("serve-small", "serve-small", 1, ["--sessions", "2000"]),
    ("stream-sealed", "stream-sealed", 1, ["--records", "500"]),
    ("serve-lossy", "serve-lossy", 1, []),
    ("serve-lossy seed 2", "serve-lossy", 2, []),
]

COUNTS = ["rt.sends_per_adu", "tx.frags_per_adu", "serve.pool_outstanding"]
# Not BENCHMARK.json metrics: read from the detail of layers.txt, where a
# workload has them.
DETAIL = ["serve.fallback_allocs", "span.rt.send.self_words"]
REPAIR = ["serve.nacks", "gen.regens", "gen.recloses", "serve.harvested",
          "serve.redelivered"]
# From the untraced run; a change either way fails.
WIRE = "wire_bytes_per_adu"


def wanted(case, metrics):
    """Every per-layer words metric but promoted words, which drifts, and
    the counts; serve-lossy adds its repair signature."""
    names = [k for k in metrics if "words" in k and k != "gc.promoted_words_per_adu"]
    names += COUNTS
    names += [k for k in DETAIL if k in metrics and k not in names]
    if case.startswith("serve-lossy"):
        names += REPAIR
    names.append(WIRE)
    return sorted(names)


def measure(workload, seed, extra, out_dir):
    """One traced run's counts, with the untraced run's wire bytes."""
    got = run_once(workload, seed, extra, out_dir, trace=1)
    got.update(detail(os.path.join(out_dir, "%s-seed%d.layers.txt" % (workload, seed))))
    got[WIRE] = run_once(workload, seed, extra, out_dir, trace=0)[WIRE]
    return got


def run_once(workload, seed, extra, out_dir, trace):
    done = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", str(seed), "--trace", str(trace),
         "--seconds", "0.05", "--min-rounds", "1", "--out-dir", out_dir] + extra,
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("ledger: %s seed %d exited %d\n%s"
                 % (workload, seed, done.returncode, done.stderr[-2000:]))
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        sys.exit("ledger: %s seed %d failed its correctness gate" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def detail(path):
    """The DETAIL counts a traced run's layers.txt lists: lines of
    `name value unit` after its `detail` heading."""
    found = {}
    with open(path) as f:
        in_detail = False
        for line in f:
            if line.startswith("detail"):
                in_detail = True
                continue
            fields = line.split()
            if in_detail and len(fields) == 3 and fields[0] in DETAIL:
                found[fields[0]] = float(fields[1])
    return found


def write(out_dir):
    ledger = {}
    for case, workload, seed, extra in CASES:
        runs = [measure(workload, seed, extra, out_dir) for _ in range(RUNS)]
        entry = {}
        for name in wanted(case, runs[0]):
            values = [r[name] for r in runs]
            entry[name] = {"value": round(sorted(values)[len(values) // 2], 3),
                           "spread": round(max(values) - min(values), 3)}
        ledger[case] = {"workload": workload, "seed": seed, "args": extra,
                        "counts": entry}
        print("wrote", case)
    with open(LEDGER, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")


def check(out_dir):
    ledger = json.load(open(LEDGER))
    failed = []
    for case, entry in sorted(ledger.items()):
        got = measure(entry["workload"], entry["seed"], entry["args"], out_dir)
        rose = []
        for name, ref in sorted(entry["counts"].items()):
            if name not in got:
                rose.append("%s: %s is missing" % (case, name))
            elif name == WIRE and round(got[name], 3) < ref["value"] - ref["spread"] - 1e-9:
                rose.append("%s: %s fell from %.3f to %.3f (spread %.3f); the wire "
                            "changed, so rewrite the ledger"
                            % (case, name, ref["value"], got[name], ref["spread"]))
            elif round(got[name], 3) > ref["value"] + ref["spread"] + 1e-9:
                rose.append("%s: %s rose from %.3f to %.3f (spread %.3f)"
                            % (case, name, ref["value"], got[name], ref["spread"]))
        print("ok" if not rose else "FAIL", case)
        failed += rose
    for line in failed:
        print("FAIL:", line)
    return not failed


def main():
    if not run.build():
        sys.exit("ledger: build failed")
    with tempfile.TemporaryDirectory(prefix="alfnet-ledger-") as out_dir:
        if sys.argv[1:] == ["--write"]:
            write(out_dir)
            return 0
        if sys.argv[1:]:
            sys.exit(__doc__)
        ok = check(out_dir)
    print("ledger: every count holds" if ok else "ledger: a count rose")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
