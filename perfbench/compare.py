#!/usr/bin/env python3
"""Parent-vs-change comparison for the perfbench benchmark.

Three subcommands:

  collect  run alternating parent/change pairs and record every result
      python3 perfbench/compare.py collect --parent ../parent --change . \\
          --out results/ [--pairs 10] [--trace 0|1]

      Both checkouts must hold the same perfbench/ and BENCHMARK.json (copy
      the change's into the parent first: identical benchmark code on both
      sides).  Every workload of BENCHMARK.json runs for its run_seconds.
      Pair i uses seed SEED_BASE + i on both sides; even pairs run the
      parent first, odd pairs the change.  Each side builds into its own
      checkout's .bench_build/.  Results go to OUT/parent.jsonl and
      OUT/change.jsonl, replacing earlier ones.

  report   apply the pair rule to two result sets
      python3 perfbench/compare.py report --parent results/parent.jsonl \\
          --change results/change.jsonl [--benchmark BENCHMARK.json]

  spread   per-workload medians and run-to-run spread of one result set
      python3 perfbench/compare.py spread results/change.jsonl

The rule (choosing-metrics guide, section 8): a metric is "improved" only
if at least ten pairs ran, the change wins at least nine tenths of them
(ties count for neither side), and the medians differ by more than the
parent's own interquartile range.  Otherwise an end-to-end metric is "worse" if the
change's median is worse than the parent's by more than the metric's bound
from BENCHMARK.json, "unresolved" if the parent's spread (IQR / median)
exceeds that bound and not every change run beats every parent run, and
"unchanged" otherwise.  Per-layer metrics have no bound: they are
"improved" or "worse" by the nine-tenths rule, "unchanged" when the medians
differ by no more than the parent's IQR, and "unresolved" otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402

# Pair i of a collection runs seed SEED_BASE + i on both sides.
SEED_BASE = 1000

# The pair rule needs at least this many pairs to call a metric improved
# (or, without a bound, worse).
MIN_PAIRS = 10


def verdict(parent, change, better, bound=None):
    """Classify one metric from paired samples (parent[i] pairs change[i])."""
    sign = 1.0 if better == "lower" else -1.0
    n = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if (p - c) * sign > 0)
    losses = sum(1 for p, c in zip(parent, change) if (p - c) * sign < 0)
    pm, cm = stats.median(parent), stats.median(change)
    p_iqr = stats.iqr(parent)
    gain = (pm - cm) * sign  # > 0: the change is better
    enough = n >= MIN_PAIRS
    if enough and wins >= 0.9 * n and gain > p_iqr:
        return "improved"
    if bound is None:
        if enough and losses >= 0.9 * n and -gain > p_iqr:
            return "worse"
        return "unchanged" if abs(gain) <= p_iqr else "unresolved"
    all_better = all((p - c) * sign > 0 for p in parent for c in change)
    all_worse = all((p - c) * sign < 0 for p in parent for c in change)
    worse_by = -gain / abs(pm) if pm else (float("inf") if gain < 0 else 0.0)
    noisy = (p_iqr / abs(pm) if pm else 0.0) > bound
    if worse_by > bound and (all_worse or not noisy):
        return "worse"
    if noisy and not all_better:
        return "unresolved"
    return "unchanged"


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def metric_specs(benchmark_path):
    """{name: (better, bound or None)} from BENCHMARK.json."""
    with open(benchmark_path) as f:
        bench = json.load(f)
    specs = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        specs[m["name"]] = (m["better"], None)
    return specs


def pair_up(parent, change):
    """{(workload, trace): [(parent_rec, change_rec), ...]} matched by seed."""
    by_key = {}
    for rec in change:
        by_key[(rec["workload"], rec["trace"], rec["seed"])] = rec
    pairs = {}
    for rec in parent:
        other = by_key.get((rec["workload"], rec["trace"], rec["seed"]))
        if other is not None:
            pairs.setdefault((rec["workload"], rec["trace"]), []).append(
                (rec, other))
    return pairs


def report(parent, change, specs, out=sys.stdout):
    """Print one table per workload; returns the number of "worse" rows."""
    worse = 0
    for (workload, trace), recs in sorted(pair_up(parent, change).items()):
        same_fp = all(p["fingerprint"] == c["fingerprint"] for p, c in recs)
        out.write("\n%s (%s, %d pairs): simulated outcomes %s\n" % (
            workload, "per-layer" if trace else "end-to-end", len(recs),
            "identical" if same_fp else "DIFFER"))
        out.write("%-30s %-31s %-31s %5s  %s\n" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "verdict"))
        for name in recs[0][0]["metrics"]:
            if name not in specs:
                continue
            if any(name not in c["metrics"] for _, c in recs):
                continue
            better, bound = specs[name]
            pv = [p["metrics"][name]["value"] for p, _ in recs]
            cv = [c["metrics"][name]["value"] for _, c in recs]
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(1 for p, c in zip(pv, cv) if (p - c) * sign > 0)
            v = verdict(pv, cv, better, bound)
            worse += v == "worse"
            out.write("%-30s %-31s %-31s %5.2f  %s\n" % (
                name, fmt_q(pv), fmt_q(cv), wins / len(pv), v))
    return worse


def fmt_q(values):
    q1, q2, q3 = stats.quartiles(values)
    return "%.5g [%.5g, %.5g]" % (q2, q1, q3)


def spread(records, out=sys.stdout):
    groups = {}
    for rec in records:
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    for (workload, trace), recs in sorted(groups.items()):
        fps = {}
        for r in recs:
            fps.setdefault(r["seed"], set()).add(r["fingerprint"])
        stable = all(len(v) == 1 for v in fps.values())
        out.write("\n%s trace=%d: %d runs, fingerprints per seed %s\n" % (
            workload, trace, len(recs), "stable" if stable else "DIFFER"))
        for name in recs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in recs
                    if name in r["metrics"]]
            out.write("%-30s median %-12.6g spread %.4f\n" % (
                name, stats.median(vals), stats.spread(vals)))


def bench_files(checkout):
    """{relative path: bytes} of a checkout's perfbench/ and BENCHMARK.json."""
    root = os.path.join(checkout, "perfbench")
    paths = [os.path.join(checkout, "BENCHMARK.json")]
    for d, dirs, names in os.walk(root):
        dirs[:] = [x for x in dirs if x != "__pycache__"]
        paths += [os.path.join(d, n) for n in names]
    files = {}
    for path in paths:
        with open(path, "rb") as f:
            files[os.path.relpath(path, checkout)] = f.read()
    return files


def collect(args):
    for side in (args.parent, args.change):
        if not os.path.isfile(os.path.join(side, "perfbench", "run.py")):
            sys.exit("compare: %s has no perfbench/" % side)
    if bench_files(args.parent) != bench_files(args.change):
        sys.exit("compare: perfbench/ or BENCHMARK.json differs between the "
                 "checkouts; copy the change's into the parent")
    os.makedirs(args.out, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for side in sides:
        open(os.path.join(args.out, side + ".jsonl"), "w").close()
    bench = run.load_benchmark(sides["change"])
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in [w["name"] for w in bench["workloads"]]:
            for side in order:
                cmd = [sys.executable, "perfbench/run.py",
                       "--workload", workload, "--seed", str(SEED_BASE + i),
                       "--seconds", str(bench["run_seconds"]),
                       "--trace", str(args.trace), "--record",
                       os.path.abspath(os.path.join(args.out,
                                                    side + ".jsonl"))]
                env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(
                    sides[side], ".bench_build"))
                print("pair %d %s %s" % (i, side, workload), flush=True)
                if subprocess.run(cmd, cwd=sides[side], env=env,
                                  stdout=subprocess.DEVNULL).returncode:
                    print("  (correctness check failed)", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="parent-vs-change comparison for perfbench")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--parent", required=True)
    c.add_argument("--change", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--benchmark", default="BENCHMARK.json")
    s = sub.add_parser("spread")
    s.add_argument("results")
    args = ap.parse_args(argv)

    if args.cmd == "collect":
        collect(args)
        return 0
    if args.cmd == "spread":
        spread(load(args.results))
        return 0
    worse = report(load(args.parent), load(args.change),
                   metric_specs(args.benchmark))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
