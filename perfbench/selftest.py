#!/usr/bin/env python3
"""Self-test of the host-cost benchmark. Run it from the repository root:

    python3 perfbench/selftest.py

1. A reduced-size run (--quick) of every workload, untraced and traced,
   passes its checks and emits every metric BENCHMARK.json names, with the
   unit BENCHMARK.json gives it.
2. At seed 0 the first full-size cell of every workload matches its
   committed BENCH_results.json row, and the same cell checked against a
   copy of the file with that row corrupted is reported as a failed cell.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits non-zero on the first failed expectation. Takes about a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

OUT_DIR = ".perfbench"


def run(args, cwd="."):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def result(args):
    code, last, err = run(args)
    if code != 0:
        sys.exit(f"FAIL: run.py {' '.join(args)} exited {code}\n{err}")
    r = json.loads(last)
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL: result keys {sorted(r)}")
    return r


def expect(cond, msg):
    if not cond:
        sys.exit(f"FAIL: {msg}")
    print(f"ok   {msg}")


def corrupt(workload, doc):
    """Perturb one committed value of the workload's first reference row."""
    exp = doc["experiments"][workload]
    if workload == "fig7d":
        exp["series"][0]["points"][0]["rpcs"] += 1
    elif workload == "numa_locks":
        exp[0]["acquisitions"] += 1
    else:
        exp[0]["read"]["p99_us"] += 0.0625
    return doc


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    for w in workloads:
        for trace in (0, 1):
            r = result(["--workload", w, "--quick", "--seconds", "1", "--trace", str(trace)])
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace={trace}: reduced-size run passes its checks")
            missing = [m["name"] for m in wanted[trace]
                       if r["metrics"].get(m["name"], {}).get("unit") != m["unit"]
                       or not isinstance(r["metrics"][m["name"]]["value"], (int, float))]
            expect(not missing, f"{w} trace={trace}: every metric emitted with its unit {missing}")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open("BENCH_results.json") as f:
        committed = json.load(f)
    for w in workloads:
        one = ["--workload", w, "--seed", "0", "--seconds", "1", "--limit-cells", "1"]
        r = result(one)
        expect(r["correct"] and r["failed"] == 0, f"{w}: first cell matches its committed row")
        bad = os.path.join(OUT_DIR, f"corrupt-{w}.json")
        with open(bad, "w") as f:
            json.dump(corrupt(w, copy.deepcopy(committed)), f)
        r = result(one + ["--reference", bad])
        expect(not r["correct"] and r["failed"] == 1 and r["attempted"] == 1,
               f"{w}: a corrupted reference row is reported as a failed cell")
        os.remove(bad)

    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, last, _ = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and not last.startswith("{"),
           "without the repository the benchmark fails and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
