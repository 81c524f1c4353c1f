#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation, from a checkout root.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ocaml/repbench.exe with dune, then:

1. gate: one untimed run with the access history and the event trace on.
   Fails unless the run is one-copy serializable, converged (for protocols
   that update replicas) and quiescent. Its simulated fingerprint is the
   reference every later run must reproduce exactly.
2. timed runs, one fresh process each, until --seconds have passed: set-up
   time, run time, peak resident memory and the run's exact work counts,
   which must repeat bit for bit from run to run.
3. with --trace 1 only: one traced run and the layer rungs, which give the
   per-layer metrics and the layer ledger.

Tables go to stdout; the last line of stdout is the JSON result. The traced
run's report, with the benchmark's own spans, is written to perfbench/out/. A broken check prints
the result with "correct": false, counts that run's transactions as failed
and exits 1. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time

DEFAULT_SEED = 42
# Held out from tuning: a claimed gain must also hold at this seed.
HELDOUT_SEED = 7919

TARGET = "perfbench/ocaml/repbench.exe"
EXE = os.path.join("_build", "default", TARGET)
OUT_DIR = os.path.join("perfbench", "out")
SPEC = "BENCHMARK.json"

# Timed runs per invocation never fall below this, however short --seconds.
MIN_RUNS = 5
CHILD_TIMEOUT_S = 60

# Transactions one run attempts, and whether the timed runs record the
# access history (and so run the 1SR check inside Driver.run_on).
WORKLOADS = {
    "paper-backedge-checked": {"attempted": 27000, "history": True},
    "paper-psl": {"attempted": 27000, "history": False},
    "large-dagwt": {"attempted": 6000, "history": False},
}

ABORT_REASONS = ["lock-timeout", "deadlock", "remote-denied", "propagation-timeout"]
PROFILE_CATEGORIES = ["client", "server", "net", "lock", "timeline"]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------- statistics


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First and third quartile, as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def spread(xs):
    """Interquartile distance as a share of the median (0 for one sample)."""
    m = median(xs)
    q1, q3 = quartiles(xs)
    return (q3 - q1) / m if m else math.inf


def nearest_rank(sorted_xs, q):
    """Nearest-rank percentile: the element at 1-based rank ceil(q n)."""
    n = len(sorted_xs)
    if n == 0:
        return 0.0
    return sorted_xs[max(0, min(n - 1, math.ceil(q * n) - 1))]


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


# ---------------------------------------------------------------- processes


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    # Build output goes to stderr, so stdout stays tables + the result line.
    if not os.path.isfile("dune-project"):
        raise SystemExit("perfbench: run from the root of a repdb checkout")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        raise SystemExit("perfbench: build failed")


def child(mode, workload, seed):
    """Run one repbench process; returns (its JSON, its peak RSS in MB)."""
    proc = subprocess.Popen(
        [EXE, mode, "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 rather than wait: it returns this child's own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # A run that raises (Driver.run_on fails one that does not quiesce) or
    # is killed loses all of its transactions.
    check(proc.returncode == 0, "repbench %s exited with %d" % (mode, proc.returncode),
          WORKLOADS[workload]["attempted"])
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------- checks


class Broken(Exception):
    """A correctness check failed; [attempted] transactions are lost."""

    def __init__(self, msg, attempted):
        super().__init__(msg)
        self.attempted = attempted


def check(cond, msg, attempted):
    if not cond:
        raise Broken(msg, attempted)


def same_counts(a, b, skip=()):
    return {k: v for k, v in a.items() if k not in skip} == {
        k: v for k, v in b.items() if k not in skip
    }


def exact_counts(gate, timed, traced):
    """The exact work counts of one seed, as ledger_seed42.json records them."""
    counts = dict(timed["counts"])
    counts["history_accesses"] = gate["counts"]["history_accesses"]
    counts["minor_words"] = timed["minor_words"]
    counts["store_writes"] = traced["store_writes"]
    counts["trace_events"] = traced["trace_events"]
    counts["traced_sim_events"] = traced["counts"]["sim_events"]
    return counts


def check_gate(gate):
    n = gate["counts"]["attempted"]
    check(gate["serializable"] and gate["serializable_recheck"], "gate: not 1SR", n)
    check(gate["converged"], "gate: replicas diverged", n)
    check(gate["quiesced"], "gate: run did not quiesce", n)
    check(gate["trace_dropped"] == 0, "gate: trace ring wrapped", n)
    check(gate["vis_orphans"] == 0, "gate: write without a committed begin", n)
    check(gate["vis_n"] > 0, "gate: no update transactions", n)


# ---------------------------------------------------------------- metrics


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not (valid_name(m["name"]) and valid_unit(m["unit"])):
            raise SystemExit("perfbench: bad metric name or unit in %s: %r" % (SPEC, m))
    return (
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


def end_to_end(gate, runs):
    """Per end-to-end metric: its value and sample count, and for host
    metrics the spread of the timed runs it is the median of."""
    fp = gate["fingerprint"]
    attempted = gate["counts"]["attempted"]
    host = {
        "txns_per_s": [attempted / r["run_s"] for r, _ in runs],
        "setup_s": [r["placement_s"] + r["create_s"] for r, _ in runs],
        "peak_rss_mb": [rss for _, rss in runs],
    }
    values = {k: (median(xs), len(xs), spread(xs)) for k, xs in host.items()}
    values.update({
        "thr_per_site": (fp["thr_per_site"], fp["commits"], None),
        "commit_pct": (100.0 * fp["commits"] / attempted, attempted, None),
        "resp_p50_ms": (fp["resp_p50_ms"], fp["commits"], None),
        "resp_p99_ms": (fp["resp_p99_ms"], fp["commits"], None),
        "vis_p50_ms": (gate["vis_p50_ms"], gate["vis_n"], None),
    })
    return values


def span_s(traced, name):
    return sum(s["end"] - s["start"] for s in traced["spans"] if s["name"] == name)


def ledger(workload, gate, runs, traced, rungs):
    """Run time split into count x unit cost per layer; the rest is core."""
    c = traced["counts"]
    timed_counts = runs[0][0]["counts"]
    run_s = median([r["run_s"] for r, _ in runs])
    rows = [
        ("sim", timed_counts["sim_events"], "events", rungs["sim_ns_per_event"]),
        ("net", c["messages"], "msgs", rungs["net_ns_per_msg"]),
        ("lock", c["lock_acquires"], "acquires", rungs["lock_ns_per_acquire"]),
        ("store", traced["store_writes"], "writes", rungs["store_ns_per_write"]),
        ("workload", c["attempted"], "txns", rungs["workload_ns_per_txn_gen"]),
    ]
    rows = [(name, n, what, ns, n * ns * 1e-9) for name, n, what, ns in rows]
    # Whole calls that run_on makes at the end of the run, timed as repeats.
    if WORKLOADS[workload]["history"]:
        rows.append(("txn", 1, "checks", None, span_s(traced, "txn.check")))
    if gate["updates_replicas"]:
        rows.append(("core.convergence", 1, "checks", None, span_s(traced, "core.convergence")))
    self_s = run_s - sum(row[4] for row in rows)
    return run_s, rows, self_s


def per_layer(workload, gate, runs, traced, rungs):
    c = traced["counts"]
    n = c["attempted"]
    first = runs[0][0]
    run_s, rows, self_s = ledger(workload, gate, runs, traced, rungs)
    row_s = {name: s for name, _, _, _, s in rows}
    phases = traced["phases"]
    aborts = traced["fingerprint"]["aborts_by_reason"]
    profile = traced["profile"]
    prof_total = sum(p["wall_s"] for p in profile.values())
    traced_run_s = span_s(traced, "core.run_on")
    attempt_ms = sum(phases[p]["mean_ms"] for p in phases)
    m = {
        "sim.events_per_txn": first["counts"]["sim_events"] / n,
        "sim.alloc_words_per_event": first["minor_words"] / first["counts"]["sim_events"],
        "sim.ns_per_event": rungs["sim_ns_per_event"],
        "sim.ledger_s": row_s["sim"],
        "net.msgs_per_txn": c["messages"] / n,
        "net.ns_per_msg": rungs["net_ns_per_msg"],
        "net.ledger_s": row_s["net"],
        "lock.acquires_per_txn": c["lock_acquires"] / n,
        "lock.wait_pct": 100.0 * c["lock_waits"] / c["lock_acquires"],
        "lock.timeouts": c["lock_timeouts"],
        "lock.deadlock_aborts": c["lock_deadlock_aborts"],
        "lock.wait_p99_ms": phases["lock"]["p99_waited_ms"],
        "lock.ns_per_acquire": rungs["lock_ns_per_acquire"],
        "lock.ledger_s": row_s["lock"],
        "store.writes_per_txn": traced["store_writes"] / n,
        "store.ns_per_write": rungs["store_ns_per_write"],
        "store.ledger_s": row_s["store"],
        "txn.history_accesses": gate["counts"]["history_accesses"],
        "txn.check_s": gate["check_s"],
        "workload.placement_s": median([r["placement_s"] for r, _ in runs]),
        "core.cluster_create_s": median([r["create_s"] for r, _ in runs]),
        "workload.ns_per_txn_gen": rungs["workload_ns_per_txn_gen"],
        "workload.ledger_s": row_s["workload"],
        "graph.copy_graph_edges": c["copy_graph_edges"],
        "graph.backedges": c["backedges"],
        "workload.replicas": c["replicas"],
        "core.props_per_txn": c["propagations"] / n,
        "core.vis_mean_ms": gate["vis_mean_ms"],
        "core.vis_p99_ms": gate["vis_p99_ms"],
        "core.exec_p99_ms": phases["exec"]["p99_ms"],
        "core.prop_wait_pct": 100.0 * phases["prop"]["mean_ms"] / attempt_ms,
        "core.commit_p99_ms": phases["commit"]["p99_ms"],
        "core.convergence_s": span_s(traced, "core.convergence"),
        "core.run_s": run_s,
        "core.self_s": self_s,
        "obs.trace_overhead_pct": 100.0 * (traced_run_s - run_s) / run_s,
        "obs.trace_events_per_txn": traced["trace_events"] / n,
    }
    for reason in ABORT_REASONS:
        m["core.aborts." + reason] = aborts.get(reason, 0)
    m["core.aborts.other"] = sum(v for k, v in aborts.items() if k not in ABORT_REASONS)
    for cat in PROFILE_CATEGORIES:
        wall = profile.get(cat, {}).get("wall_s", 0.0)
        m["obs.profile.%s.share" % cat] = wall / prof_total
    return m, rows


# ---------------------------------------------------------------- reporting


def print_table(title, header, rows):
    widths = [max(len(str(x)) for x in col) for col in zip(header, *rows)]
    print(title)
    for row in [header] + rows:
        print("  " + "  ".join(str(x).rjust(w) for x, w in zip(row, widths)))


def fmt(x):
    return "%.6g" % x if isinstance(x, float) else str(x)


def result(correct, attempted, failed, metrics):
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def write_traced(workload, seed, traced):
    """The traced run's whole report: spans, trace events by kind, Profile
    rows, span phases and the prop.delay histogram."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d.traced.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump(traced, f, indent=1)
    return path


def measure(args, e2e_spec, layer_spec):
    gate, _ = child("gate", args.workload, args.seed)
    check_gate(gate)
    fp = gate["fingerprint"]
    n = gate["counts"]["attempted"]
    history = WORKLOADS[args.workload]["history"]
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < args.seconds:
        r, rss = child("timed", args.workload, args.seed)
        check(r["fingerprint"] == fp, "timed run %d: fingerprint differs" % len(runs), n)
        skip = () if history else ("history_accesses",)
        check(same_counts(r["counts"], gate["counts"], skip), "timed run: counts differ", n)
        if runs:
            check(r["minor_words"] == runs[0][0]["minor_words"], "timed run: allocation differs", n)
        runs.append((r, rss))
    attempted = n * len(runs)
    if not args.trace:
        values = end_to_end(gate, runs)
        header = ["metric", "value", "unit", "better", "samples", "spread"]
        table = [
            [k, fmt(v), e2e_spec[k]["unit"], e2e_spec[k]["better"], count,
             "-" if sp is None else "%.3f" % sp]
            for k, (v, count, sp) in values.items()
        ]
        print_table("%s seed %d: end to end" % (args.workload, args.seed), header, table)
        metrics = {k: {"value": v, "unit": e2e_spec[k]["unit"]} for k, (v, _, _) in values.items()}
        return attempted, metrics
    traced, _ = child("traced", args.workload, args.seed)
    check(traced["fingerprint"] == fp, "traced run: fingerprint differs", n)
    # The timeline ticker adds its own events; every other count must agree.
    check(
        same_counts(traced["counts"], runs[0][0]["counts"], ("sim_events",)),
        "traced run: counts differ",
        n,
    )
    check(traced["trace_dropped"] == 0, "traced run: trace ring wrapped", n)
    rungs, _ = child("rungs", args.workload, args.seed)
    values, rows = per_layer(args.workload, gate, runs, traced, rungs)
    run_s = values["core.run_s"]
    table = [
        [name, count, what, "-" if ns is None else "%.1f" % ns, "%.4f" % s, "%.1f" % (100 * s / run_s)]
        for name, count, what, ns, s in rows
    ]
    table.append(["core.self", "", "", "", "%.4f" % values["core.self_s"],
                  "%.1f" % (100 * values["core.self_s"] / run_s)])
    print_table(
        "%s seed %d: layer ledger of the median run (%.4f s)" % (args.workload, args.seed, run_s),
        ["layer", "count", "of", "ns each", "s", "% of run"],
        table,
    )
    print("  traced run: %s" % write_traced(args.workload, args.seed, traced))
    metrics = {
        k: {"value": v, "unit": layer_spec[k]["unit"]} for k, v in values.items()
    }
    return attempted, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    e2e_spec, layer_spec = load_spec()
    build()
    try:
        attempted, metrics = measure(args, e2e_spec, layer_spec)
    except Broken as e:
        log("perfbench: CHECK FAILED: %s" % e)
        print(result(False, max(1, e.attempted), e.attempted, {}))
        return 1
    expected = set(layer_spec if args.trace else e2e_spec)
    if set(metrics) != expected:
        log("perfbench: metrics differ from %s: %s" % (SPEC, sorted(set(metrics) ^ expected)))
        return 1
    print(result(True, attempted, 0, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
