#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the simulated 256-CPU Phi node.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench-<checkout hash>, default
.bench_build/perfbench-<checkout hash> in the checkout, then runs one workload for S seconds in a single process on one host thread and
prints every metric by name with its unit.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  Exits non-zero if a correctness check fails.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

def load_benchmark(root=ROOT):
    """BENCHMARK.json of the checkout: workloads and metric names/units."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        sys.exit("perfbench: %s not found; run from a full checkout" % path)
    with open(path) as f:
        return json.load(f)


def build_dir(root=ROOT):
    """The checkout's own build tree.  Checkouts that share CARGO_TARGET_DIR
    (a parent and a change, say) get separate trees, keyed by the checkout's
    path, so neither builds the other's sources."""
    key = hashlib.sha1(os.path.realpath(root).encode()).hexdigest()[:12]
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        root, ".bench_build")
    return os.path.join(target, "perfbench-" + key)


def build(root=ROOT):
    """Configure (once) and build the checkout's hrt_e2e; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "rt", "system.hpp")):
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir(root)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", out])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "hrt_e2e", "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "hrt_e2e")


def run_binary(binary, args, extra=()):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=170)
    if p.returncode != 0 or not p.stdout.strip():
        sys.stderr.write(p.stderr)
        sys.exit("perfbench: hrt_e2e exited with %d" % p.returncode)
    return json.loads(p.stdout.strip().splitlines()[-1])


def end_to_end(raw, spec):
    """Medians of the untraced iterations plus the deterministic ratios.

    Host times are in reference-host seconds (hrt_e2e scales each repeat by
    the calibration loops around it)."""
    det = raw["deterministic"]
    samples = dict(raw["samples"])
    samples["peak_rss_mb"] = [raw["peak_rss_mb"]]
    samples["deadline_met_frac"] = [
        1.0 - det["misses"] / det["windows"] if det["windows"] else 0.0]
    samples["admit_accept_frac"] = [
        det["admit_accepted"] / det["admit_requested"]
        if det["admit_requested"] else 0.0]
    return [(m["name"], m["unit"], samples[m["name"]])
            for m in spec["end_to_end"]]


def per_layer(raw):
    """Medians of the traced iterations plus the tracing overhead."""
    rows = [(name, m["unit"], m["values"]) for name, m in raw["layers"].items()]
    untraced = raw["samples"].get("run_s", [])
    traced = raw["traced_run_s"]
    overhead = 0.0
    if untraced and traced:
        overhead = stats.median(traced) / stats.median(untraced) - 1.0
    rows.append(("trace.overhead_frac", "ratio", [overhead]))
    rows.append(("host.calib_ms", "ms",
                 [c * 1e3 for c in raw["calibration_s"]]))
    return rows


def main(argv=None):
    spec = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="a few simulated ms per iteration (self-tests)")
    ap.add_argument("--record", metavar="FILE",
                    help="append this run's result to a JSON-lines file "
                         "(input of compare.py)")
    args = ap.parse_args(argv)

    binary = build()
    extra = ["--smoke"] if args.smoke else []
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        extra += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    raw = run_binary(binary, args, extra)

    rows = per_layer(raw) if args.trace else end_to_end(raw, spec)
    correct = (not raw["failures"] and raw["fingerprints_agree"]
               and raw["failed"] == 0)
    print("workload %s seed %d: %d iterations in %.1f s, fingerprint %s"
          % (args.workload, args.seed, raw["iterations"], raw["elapsed_s"],
             raw["fingerprint"]))
    print("env %s" % json.dumps(raw["env"], sort_keys=True))
    for f in raw["failures"]:
        print("FAILED CHECK: %s" % f)
    if raw["deterministic"]["livelocked_cpus"]:
        print("KNOWN FAILURE: %d CPUs in the timer-pass livelock (see "
              "perfbench/README.md, Findings)"
              % raw["deterministic"]["livelocked_cpus"])
    shown = list(rows)
    if raw["samples"].get("raw_run_s"):
        shown.append(("run_s unscaled", "s", raw["samples"]["raw_run_s"]))
    for name, unit, values in shown:
        print("%-32s %14.6g %-6s median of %d, IQR/median %.4f"
              % (name, stats.median(values), unit, len(values),
                 stats.spread(values)))

    metrics = {name: {"value": stats.median(values), "unit": unit}
               for name, unit, values in rows}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "fingerprint": raw["fingerprint"],
                "correct": correct, "metrics": metrics}) + "\n")
    print(json.dumps({"correct": correct, "attempted": raw["iterations"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
