#!/usr/bin/env python3
"""The repo benchmark: builds the perfbench harness from source, runs one
workload in its own process, checks it, and prints the result.

    python3 perfbench/run.py --workload table1-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Everything else (build log, provenance, a readable summary)
goes before it or to standard error. See perfbench/README.md for what each
workload and metric is for.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1-dense", "all-but-one", "planetary-storm-100k")
# Held out while the benchmark was tuned: a claimed gain must also hold on it.
HELD_OUT_SEED = 20000509
MASK = (1 << 64) - 1
# Keep a whole run under three minutes, up-to-date build check included.
HARNESS_TIMEOUT_S = 150


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def derive_seeds(seed):
    """The tree, cluster and fault seeds one --seed stands for."""
    return {name: splitmix64(seed * 3 + i) for i, name in enumerate(("tree", "cluster", "fault"))}


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run_harness(exe, args, seeds, out_path):
    cmd = [exe, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_path]
    for name, value in seeds.items():
        cmd += ["--%s-seed" % name, str(value)]
    if os.path.exists(out_path):
        os.remove(out_path)
    # subprocess.run kills and reaps the harness if it overruns.
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=HARNESS_TIMEOUT_S)
    with open(out_path) as f:
        return json.load(f)


median = statistics.median


def by_sim(reps):
    """Groups runs by the batch simulation they ran, in batch order."""
    groups = {}
    for r in reps:
        groups.setdefault(r["sim"], []).append(r)
    return [groups[k] for k in sorted(groups)]


def batch_mean(reps, value):
    """Mean over the batch of each simulation's median of `value`.

    A simulation's repeated runs differ in host time only, so their median
    is taken. Across the batch the outcomes differ for real: on all-but-one
    the per-simulation wire bytes split into two clusters, about 15-22 MB
    and 35-42 MB, so a batch median jumps between them from seed to seed
    while the mean stays within a few percent."""
    return statistics.fmean([median([value(r) for r in runs]) for runs in by_sim(reps)])


def end_to_end(doc, plain):
    return {
        "run_s": (batch_mean(plain, lambda r: r["run_s"]), "s"),
        "cpu_s": (batch_mean(plain, lambda r: r["cpu_s"]), "s"),
        "setup_s": (median(doc["setup_s"]), "s"),
        "peak_rss_mb": (batch_mean(plain, lambda r: r["peak_rss_mb"]), "MB"),
        "sim_makespan_s": (batch_mean(plain, lambda r: r["makespan"]), "s"),
        "expansions_per_node": (
            batch_mean(plain, lambda r: r["total_expanded"] / r["unique_expanded"]), "ratio"),
        "wire_mb": (batch_mean(plain, lambda r: r["net"]["bytes_sent"] / 1e6), "MB"),
    }


def per_layer(doc, plain, traced, sharded):
    def count(value, unit="count"):
        return (batch_mean(traced, value), unit)

    def ledger(item):
        return count(lambda r: r["ledger"][item])

    run_plain = batch_mean(plain, lambda r: r["run_s"])
    run_traced = batch_mean(traced, lambda r: r["run_s"])
    self_s = batch_mean(traced, lambda r: r["model"]["self_s"])
    faults = doc["faults"]
    return {
        "core.code_set.nodes_walked": ledger("contraction_nodes"),
        "core.code_set.codes_inserted": ledger("contraction_codes"),
        "core.code_set.nodes_per_expansion": count(
            lambda r: r["ledger"]["contraction_nodes"] / r["ledger"]["expansions"], "ratio"),
        "core.frame.frames": count(lambda r: r["wire"]["frames"]),
        "core.frame.wire_mb": count(lambda r: r["wire"]["frame_bytes"] / 1e6, "MB"),
        "core.frame.report_mb": count(lambda r: r["wire"]["report_frame_bytes"] / 1e6, "MB"),
        "core.worker.recoveries": ledger("recoveries"),
        "core.worker.request_timeouts": ledger("request_timeouts"),
        "core.worker.expansions": ledger("expansions"),
        "core.worker.useful_frac": count(
            lambda r: r["unique_expanded"] / r["total_expanded"], "ratio"),
        "core.worker.eliminated": ledger("eliminated"),
        "core.worker.covered_skips": ledger("covered_skips"),
        "core.worker.work_requests": ledger("work_requests_sent"),
        "core.worker.grants": ledger("grants_received"),
        "core.worker.denies": ledger("denies_received"),
        "core.worker.reports_sent": ledger("reports_sent"),
        "core.worker.report_codes_sent": ledger("report_codes_sent"),
        "core.worker.table_gossips_sent": ledger("table_gossips_sent"),
        "bnb.pool.pushes": ledger("pool_pushes"),
        "bnb.pool.pops": ledger("pool_pops"),
        "bnb.pool.sweep_scanned": ledger("sweep_entries_scanned"),
        "bnb.model.evals": count(lambda r: r["model"]["evals"]),
        "bnb.model.rebounds": count(lambda r: r["model"]["rebounds"]),
        "bnb.model.self_s": (self_s, "s"),
        "sim.kernel.events": count(lambda r: r["kernel_events"]),
        "sim.kernel.events_per_s": (
            batch_mean(plain, lambda r: r["kernel_events"] / r["run_s"]), "1/s"),
        "sim.network.msgs_sent": count(lambda r: r["net"]["sent"]),
        "sim.network.msgs_delivered": count(lambda r: r["net"]["delivered"]),
        "sim.network.msgs_lost": count(lambda r: r["net"]["lost"]),
        "sim.network.msgs_partitioned": count(lambda r: r["net"]["partitioned"]),
        "sim.executor.threads": (sharded[0]["threads"], "count"),
        "sim.executor.cpu_per_wall": (
            batch_mean(sharded, lambda r: r["cpu_s"] / r["run_s"]), "ratio"),
        "sim.executor.sharded_speedup": (
            run_plain / batch_mean(sharded, lambda r: r["run_s"]), "ratio"),
        "sim.cluster.peak_table_mb": count(
            lambda r: r["table"]["peak_total_bytes"] / 1e6, "MB"),
        "sim.cluster.redundant_table_mb": count(
            lambda r: (r["table"]["peak_total_bytes"] - r["table"]["peak_unique_bytes"]) / 1e6,
            "MB"),
        "fault.crashes": (faults["crashes"], "count"),
        "fault.revives": (faults["revives"], "count"),
        "fault.joins": (faults["joins"], "count"),
        "fault.partitions": (faults["partitions"], "count"),
        "sim.residue_s": (run_traced - self_s, "s"),
        "trace.overhead_frac": (run_traced / run_plain - 1.0, "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for name in ("tree", "cluster", "fault"):
        ap.add_argument("--%s-seed" % name, type=int, default=None,
                        help="override the %s seed derived from --seed" % name)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    seeds = derive_seeds(args.seed)
    for name in seeds:
        override = getattr(args, "%s_seed" % name)
        if override is not None:
            seeds[name] = override & MASK

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        exe = build(build_root)
        out_path = os.path.join(build_root, "perfbench",
                                "result-%s-trace%d.json" % (args.workload, args.trace))
        doc = run_harness(exe, args, seeds, out_path)
    except (OSError, ValueError, subprocess.SubprocessError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1

    reps = doc["reps"]
    plain = [r for r in reps if not r["traced"] and r["threads"] == 1]
    traced = [r for r in reps if r["traced"]]
    sharded = [r for r in reps if r["threads"] > 1]
    failures = [r["failure"] for r in reps if r["failure"]]
    for why in sorted(set(failures)):
        print("perfbench: FAILED check: %s" % why, file=sys.stderr)

    if args.trace:
        metrics = per_layer(doc, plain, traced, sharded)
    else:
        metrics = end_to_end(doc, plain)
    provenance = {k: doc[k] for k in ("git", "build", "hardware_concurrency", "seeds")}
    provenance["dispatch_threads"] = sorted({r["threads"] for r in reps})
    provenance["runs"] = {"batch": doc["batch"], "measured": len(reps),
                          "setups": len(doc["setup_s"])}
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print("%-36s %16.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(reps),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
