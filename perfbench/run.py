#!/usr/bin/env python3
"""Host-cost benchmark of the Hurricane locking simulator.

Builds perfbench/perfbench.exe from the checkout it runs in, runs one
workload in a fresh process, checks every simulated output and prints the
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload fig7d --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --report            # every workload, both runs

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes the run's spans to .perfbench/. Run it from the repository root.
See perfbench/README.md for what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fig7d", "numa_locks", "slo")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT_DIR = ".perfbench"
REFERENCE = "BENCH_results.json"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
# Host times are scaled to a nominal host on which the runner's reference
# loop takes this long (perfbench.ml, [reference]); see README.md.
REF_NOMINAL_NS = 5e6

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cell_max_s": "s",
    "peak_heap_mb": "MB",
    "ok_frac": "frac",
}

LOCK_SLUGS = ("h1_mcs", "h2_mcs", "spin_35us", "c_mcs_mcs", "hmcs", "cna")

PER_LAYER = {
    "runtime.minor_mwords": "Mwords",
    "runtime.promoted_mwords": "Mwords",
    "runtime.gc_s": "s",
    "runtime.gc_share": "frac",
    "cell.p50_s": "s",
    "cell.n": "count",
    "setup.share": "frac",
    "host_us_per_op": "us",
    "eventsim.dispatch_ns": "ns",
    "eventsim.pause_ns": "ns",
    "eventsim.pause_words": "words",
    "hector.read_local_ns": "ns",
    "hector.read_remote_ns": "ns",
    "hector.fas_ns": "ns",
    "hector.access_words": "words",
    "hector.ctx_read_ns": "ns",
    **{f"locks.{s}.pair_ns": "ns" for s in LOCK_SLUGS},
    **{f"locks.{s}.pair_words": "words" for s in LOCK_SLUGS},
    "obs.pair_overhead_ns": "ns",
    "verify.pair_overhead_ns": "ns",
    "hkernel.insert_untimed_ns": "ns",
    "hkernel.insert_untimed_words": "words",
    "hkernel.lookup_ns": "ns",
    "hkernel.fault_ns": "ns",
    "hkernel.faults": "count",
    "hkernel.rpcs": "count",
    "hkernel.retry_ratio": "frac",
    "locks.acquisitions": "count",
    "locks.remote_handoff_frac": "frac",
    "hkernel.optimistic_hit_ratio": "frac",
    "hector.atomics": "count",
    "host.raw_wall_s": "s",
    "host.ref_ms": "ms",
    "trace.overhead_frac": "frac",
    "trace.lost_events": "count",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the runner; dune's own output goes to stderr."""
    for needed in ("dune-project", REFERENCE):
        if not os.path.isfile(needed):
            log(f"perfbench: {needed} not found; run from the repository root")
            return False
    # dune's shared cache lives outside the checkout; the build stays inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
        )
    except FileNotFoundError:
        log("perfbench: dune not found")
        return False
    return proc.returncode == 0 and os.path.isfile(EXE)


def run_exe(args, timeout):
    """Run the runner in a fresh process; returns its JSON document or None."""
    os.makedirs(OUT_DIR, exist_ok=True)
    # The Runtime_events ring file of a traced run lives in OUT_DIR; the
    # runtime removes it at exit, and a killed run's file is removed here.
    for name in os.listdir(OUT_DIR):
        if name.endswith(".events"):
            os.remove(os.path.join(OUT_DIR, name))
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    try:
        proc = subprocess.run(
            [EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
            timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        log(f"perfbench: runner exceeded {timeout:.0f} s")
        return None
    if proc.returncode != 0:
        log(f"perfbench: runner exited with {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- Output checks ------------------------------------------------------------

def reference_row(experiment, row):
    if "series" in experiment:  # fig7d: per-algorithm series over x
        for series in experiment["series"]:
            if series["algo"] == row["algo"]:
                for point in series["points"]:
                    if point["x"] == row["x"]:
                        return point
        return None
    keys = ("algo", "clusters", "hold_us") if "algo" in row else ("offered_per_ms",)
    for ref in experiment:
        if all(ref.get(k) == row[k] for k in keys):
            return ref
    return None


def reference_errors(experiment, row):
    ref = reference_row(experiment, row)
    if ref is None:
        return ["no committed reference row"]
    return [
        f"{k}: {row.get(k)!r} != committed {v!r}"
        for k, v in ref.items()
        if k != "algo" and row.get(k) != v
    ]


def invariant_errors(workload, row):
    errs = []
    if workload == "fig7d":
        if row["faults"] != row["expected_faults"]:
            errs.append(f"faults {row['faults']} != {row['expected_faults']}")
        if min(row["retries"], row["rpcs"]) < 0:
            errs.append("negative retry/RPC count")
    elif workload == "numa_locks":
        local, remote = row["local_handoffs"], row["remote_handoffs"]
        if row["acquisitions"] < 1:
            errs.append("no acquisitions")
        if row["clusters"] == 1 and remote != 0:
            errs.append("remote hand-off with one cluster")
        if local + remote and row["remote_frac"] != remote / (local + remote):
            errs.append("remote_frac inconsistent with hand-off counts")
    elif workload == "slo":
        if row["completed"] != row["requests"]:
            errs.append(f"completed {row['completed']} != requests {row['requests']}")
        if row["lockdep_violations"] != 0:
            errs.append(f"{row['lockdep_violations']} lockdep violations")
        if row["read"]["n"] + row["update"]["n"] != row["completed"]:
            errs.append("read + update samples != completed")
    return errs


def check_cells(doc, reference_path):
    """Per-cell error lists: runner errors, invariants, and at seed 0 (full
    size) every committed value of the cell's BENCH_results.json row."""
    experiment = None
    if doc["seed"] == 0 and not doc["quick"]:
        with open(reference_path) as f:
            experiment = json.load(f)["experiments"][doc["workload"]]
    out = []
    for cell in doc["cells"]:
        errs = list(cell["errors"])
        row = cell["row"]
        if row is None:
            errs.append("no result")
        else:
            errs += invariant_errors(doc["workload"], row)
            if experiment is not None:
                errs += reference_errors(experiment, row)
        out.append(errs)
    return out


def sim_digest(doc):
    rows = [cell["row"] for cell in doc["cells"]]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- Metrics ------------------------------------------------------------------

def at_nominal_s(times_ns, refs_ns):
    """Median of timed samples, each scaled by the reference loop timed
    around it, in seconds on the nominal host."""
    return statistics.median(t * REF_NOMINAL_NS / r for t, r in zip(times_ns, refs_ns)) / 1e9


def cell_seconds(doc):
    return [at_nominal_s(c["times_ns"], c["refs_ns"]) for c in doc["cells"]]


def end_to_end(doc, n_failed):
    cells = cell_seconds(doc)
    n = len(doc["cells"])
    return {
        "wall_s": sum(cells),
        "setup_s": at_nominal_s(doc["setup_rep_ns"], doc["setup_ref_ns"]),
        "cell_max_s": max(cells),
        "peak_heap_mb": doc["top_heap_words"] * doc["word_bytes"] / 1e6,
        "ok_frac": (n - n_failed) / n,
    }


def total(doc, field):
    """Sum of a simulated output over the cells that have it."""
    return sum(c["row"][field] for c in doc["cells"] if c["row"] and field in c["row"])


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(doc):
    traced = doc["traced_passes"]

    def med(key):
        return statistics.median(p[key] for p in traced)

    cells = cell_seconds(doc)
    ops = sum(c["ops"] for c in doc["cells"])
    faults, retries = total(doc, "faults"), total(doc, "retries")
    local, remote = total(doc, "local_handoffs"), total(doc, "remote_handoffs")
    hits, fallbacks = total(doc, "optimistic_hits"), total(doc, "optimistic_fallbacks")
    m = {
        "runtime.minor_mwords": med("minor_words") / 1e6,
        "runtime.promoted_mwords": med("promoted_words") / 1e6,
        "runtime.gc_s": med("gc_ns") / 1e9,
        "runtime.gc_share": statistics.median(ratio(p["gc_ns"], p["cell_ns"]) for p in traced),
        "cell.p50_s": statistics.median(cells),
        "cell.n": len(doc["cells"]),
        "setup.share": statistics.median(ratio(p["setup_ns"], p["cell_ns"]) for p in traced),
        "host_us_per_op": ratio(sum(cells) * 1e6, ops),
        "host.raw_wall_s": sum(statistics.median(c["times_ns"]) for c in doc["cells"]) / 1e9,
        "host.ref_ms": statistics.median(r for c in doc["cells"] for r in c["refs_ns"]) / 1e6,
        "hkernel.faults": faults,
        "hkernel.rpcs": total(doc, "rpcs"),
        "hkernel.retry_ratio": ratio(retries, faults + retries),
        "locks.acquisitions": total(doc, "acquisitions"),
        "locks.remote_handoff_frac": ratio(remote, local + remote),
        "hkernel.optimistic_hit_ratio": ratio(hits, hits + fallbacks),
        "hector.atomics": total(doc, "atomics"),
        "trace.overhead_frac": ratio(med("cell_ns"), statistics.median(doc["untraced_pass_ns"])) - 1.0,
        "trace.lost_events": doc["lost_events"],
    }
    m.update(doc["probes"])
    return m


# -- Runs ---------------------------------------------------------------------

def run_one(workload, seed, seconds, trace, reference, quick=False, limit_cells=0,
            timeout=RUN_LIMIT_S):
    """One benchmark run; returns the result object (None if the runner
    could not run) and prints the simulation digest and the metric table."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if quick:
        args.append("--quick")
    if limit_cells:
        args += ["--limit-cells", str(limit_cells)]
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    if trace:
        args += ["--spans", spans]
    doc = run_exe(args, timeout)
    if doc is None:
        return None
    errors = check_cells(doc, reference)
    for cell, errs in zip(doc["cells"], errors):
        for e in errs:
            log(f"perfbench: FAILED cell {json.dumps(cell['key'])}: {e}")
    n_failed = sum(1 for errs in errors if errs)
    metrics = per_layer(doc) if trace else end_to_end(doc, n_failed)
    units = PER_LAYER if trace else END_TO_END
    print(f"sim_digest {workload} seed={seed} {sim_digest(doc)}")
    print(f"{workload:>10} passes {doc['passes']}")
    for name, unit in units.items():
        print(f"{workload:>10} {name:<30} {metrics[name]:>16.6g} {unit}")
    if trace:
        print(f"spans {spans}")
    return {
        "correct": n_failed == 0,
        "attempted": len(doc["cells"]),
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="0 = the committed configs' seeds")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=REFERENCE, help="committed results to check against")
    p.add_argument("--quick", action="store_true", help="reduced-size cells (self-test)")
    p.add_argument("--limit-cells", type=int, default=0, help="run only the first N cells")
    p.add_argument("--report", action="store_true",
                   help="run every workload untraced and traced; print all metrics")
    a = p.parse_args()
    if not a.report and a.workload is None:
        p.error("--workload is required")
    start = time.monotonic()
    if not build():
        sys.exit(1)
    if a.report:
        results = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                r = run_one(w, a.seed, a.seconds, trace, a.reference, a.quick, a.limit_cells)
                if r is None:
                    sys.exit(1)
                results[f"{w}.trace{trace}"] = r
        print(json.dumps(results))
        sys.exit(0)
    # A run must end within 180 s; only the first run in a checkout pays
    # for a real build, and it has a longer allowance.
    build_s = time.monotonic() - start
    r = run_one(a.workload, a.seed, a.seconds, a.trace, a.reference, a.quick, a.limit_cells,
                RUN_LIMIT_S - (build_s if build_s < 30 else 0.0))
    if r is None:
        sys.exit(1)
    print(json.dumps(r))


if __name__ == "__main__":
    main()
