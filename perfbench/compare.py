#!/usr/bin/env python3
"""Steadiness and A/B comparison for the benchmark.

Run a workload in two interleaved sets and compare them:

    python3 perfbench/compare.py run --workload lib-skewed --runs 10 --out .bench_build/cmp

By default both sets run the code of the current checkout, which measures
the benchmark's own run-to-run spread; the bounds in BENCHMARK.json were set
from it. To compare two revisions, give each set the root of a checkout:

    python3 perfbench/compare.py run --workload lib-skewed --runs 10 \\
        --set A=/path/to/parent --set B=. --out .bench_build/ab

Each run's JSON result is saved as <out>/<set>/<workload>-seed<N>.json;
run j of both sets uses seed j (from 1), and the order of the sets
alternates between runs. Compare saved sets with

    python3 perfbench/compare.py report .bench_build/ab/A .bench_build/ab/B

For each workload and metric it prints each set's median and quartiles and
their spread (quartile distance over median), whether B's median is within
the metric's bound of A's, and whether exact counts match seed for seed.
For a revision comparison it also prints the share of seed pairs B won and
whether the medians differ by more than A's quartile distance; a gain is
claimed only when B wins at least nine tenths of the pairs and passes that
test.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Metrics that count model work: they must repeat exactly for a seed.
EXACT = {
    "sim_cycles", "simt.warp_instructions", "simt.stall_cycles", "simt.launches",
    "simt.warps_launched", "simt.atomic_serial", "vwarp.deferred_vertices",
    "gpualgo.iterations", "serve.cache_hits", "serve.device_runs", "resilient.retries",
}
EXACT_PREFIXES = ("gpualgo.repair_",)


def is_exact(name):
    return name in EXACT or name.startswith(EXACT_PREFIXES)


def load_spec():
    with open(BENCHMARK) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics.setdefault(m["name"], m)
    return spec, metrics


def cmd_run(args):
    sets = []
    for s in args.set or ["A=.", "B=."]:
        name, _, path = s.partition("=")
        sets.append((name, os.path.abspath(path or ".")))
    for name, _ in sets:
        os.makedirs(os.path.join(args.out, name), exist_ok=True)
    for j in range(args.runs):
        seed = 1 + j
        order = sets if j % 2 == 0 else list(reversed(sets))
        for name, root in order:
            cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                sys.stderr.write(res.stderr)
                sys.exit("compare: run %s seed %d failed (exit %d)" % (name, seed, res.returncode))
            out = os.path.join(args.out, name, "%s-seed%d.json" % (args.workload, seed))
            with open(out, "w") as f:
                f.write(lines[-1] + "\n")
            print("ran %s %s seed %d" % (name, args.workload, seed), flush=True)
    return report([os.path.join(args.out, n) for n, _ in sets],
                  revisions=len(set(r for _, r in sets)) > 1)


def read_set(d):
    """{workload: {seed: result}} for one set directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(d, "*-seed*.json"))):
        base = os.path.basename(path)[:-len(".json")]
        wl, _, seed = base.rpartition("-seed")
        with open(path) as f:
            out.setdefault(wl, {})[int(seed)] = json.loads(f.read().strip().splitlines()[-1])
    return out


def quartiles(vs):
    if len(vs) == 1:
        return vs[0], vs[0], vs[0]
    q = statistics.quantiles(vs, n=4)
    return q[0], q[1], q[2]


def report(dirs, revisions):
    _, spec = load_spec()
    a, b = read_set(dirs[0]), read_set(dirs[1])
    ok = True
    for wl in sorted(set(a) | set(b)):
        ra, rb = a.get(wl, {}), b.get(wl, {})
        print("\n== %s: %d runs in %s, %d in %s" % (wl, len(ra), dirs[0], len(rb), dirs[1]))
        fa = [(r["failed"], r["attempted"]) for r in ra.values()]
        fb = [(r["failed"], r["attempted"]) for r in rb.values()]
        share = lambda xs: sum(f for f, _ in xs) / max(1, sum(n for _, n in xs))
        print("failed share A=%.6f B=%.6f%s" % (share(fa), share(fb),
              "" if share(fa) == share(fb) else "  DIFFER"))
        ok &= share(fa) == share(fb)
        if not all(r["correct"] for r in list(ra.values()) + list(rb.values())):
            print("a run reported correct=false")
            ok = False
        names = sorted(set().union(*[r["metrics"] for r in list(ra.values()) + list(rb.values())]))
        print("%-36s %12s %12s %8s %12s %12s %8s  %s" % (
            "metric", "A median", "A iqr", "A sprd", "B median", "B iqr", "B sprd", "verdict"))
        for name in names:
            va = [r["metrics"][name]["value"] for r in ra.values() if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in rb.values() if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            sa = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            sb = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            m = spec.get(name, {})
            verdict = []
            bound, better = m.get("bound"), m.get("better", "lower")
            if bound is not None:
                worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
                if better == "higher":
                    worse = -worse
                verdict.append("within bound" if worse <= bound else "WORSE by %.3f > %.3f" % (worse, bound))
                if max(sa, sb) > bound:
                    verdict.append("SPREAD over bound")
                    ok = False
                ok &= worse <= bound
            if is_exact(name):
                same = all(ra[s]["metrics"][name]["value"] == rb[s]["metrics"][name]["value"]
                           for s in set(ra) & set(rb) if name in ra[s]["metrics"] and name in rb[s]["metrics"])
                verdict.append("exact match" if same else "EXACT MISMATCH")
                if not revisions:
                    ok &= same
            if revisions and bound is not None:
                pairs = [(ra[s]["metrics"][name]["value"], rb[s]["metrics"][name]["value"]) for s in set(ra) & set(rb)]
                won = sum(1 for x, y in pairs if (y > x if better == "higher" else y < x))
                diff = abs(qb[1] - qa[1]) > (qa[2] - qa[0])
                verdict.append("B won %d/%d pairs; medians %s A's quartile distance" % (
                    won, len(pairs), "beyond" if diff else "within"))
                if len(pairs) and won >= 0.9 * len(pairs) and diff:
                    verdict.append("GAIN")
            print("%-36s %12.5g %12.5g %8.4f %12.5g %12.5g %8.4f  %s" % (
                name, qa[1], qa[2] - qa[0], sa, qb[1], qb[2] - qb[0], sb, "; ".join(verdict)))
    print("\n" + ("sets agree" if ok else "sets DISAGREE"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a workload in two interleaved sets")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seconds", type=float, default=None)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--set", action="append", help="NAME=CHECKOUT_ROOT (twice); default A=. B=.")
    r.add_argument("--out", required=True)
    p = sub.add_parser("report", help="compare two saved sets")
    p.add_argument("dirs", nargs=2)
    p.add_argument("--revisions", action="store_true", help="the sets are two revisions: print pair wins")
    args = ap.parse_args()
    if args.cmd == "run":
        if args.seconds is None:
            args.seconds = load_spec()[0]["run_seconds"]
        sys.exit(0 if cmd_run(args) else 1)
    else:
        sys.exit(0 if report(args.dirs, args.revisions) else 1)


if __name__ == "__main__":
    main()
