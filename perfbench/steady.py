#!/usr/bin/env python3
"""Check that the benchmark repeats: run each workload in two interleaved
sets of seeded runs and compare them.

Run from the repository root:

    python3 perfbench/steady.py                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workload ddi-ingest-query --runs 5

Set A and set B use the same seeds and alternate run by run (A1 B1 A2 B2
...), so the two sets share any drift of the host. For each end-to-end
metric the script prints each set's median and quartiles and their spread
(the distance between the quartiles as a share of the median). It fails
when, for any metric, the two medians differ by more than the metric's
bound in BENCHMARK.json, when a spread other than setup_s exceeds the
bound, when any run is not correct or failed an operation, or when the
share of failed operations differs between the sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to check (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    ok = True
    for wl in args.workload or names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            seed = 1 + i
            for name in ("A", "B"):
                res = run_once(wl, seed, args.seconds)
                if not res["correct"] or res["failed"] > 0:
                    print(f"{wl} set {name} seed {seed}: correct={res['correct']} "
                          f"failed={res['failed']} of {res['attempted']}")
                    ok = False
                sets[name].append(res)
                print(f"{wl} {name} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                    file=sys.stderr, flush=True)
        shares = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
                  for k, v in sets.items()}
        print(f"\n== {wl}: failed share A={shares['A']:.6f} B={shares['B']:.6f}")
        if shares["A"] != shares["B"]:
            ok = False
        print(f"{'metric':18} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
              f"{'bound':>6} {'diff':>7}  verdict")
        for m in bench["end_to_end"]:
            rows = {k: summary([r["metrics"][m["name"]]["value"] for r in v]) for k, v in sets.items()}
            med_a, med_b = rows["A"][0], rows["B"][0]
            diff = abs(med_b - med_a) / med_a
            spread_ok = m["name"] == "setup_s" or max(rows["A"][3], rows["B"][3]) <= m["bound"]
            verdict = "ok" if diff <= m["bound"] and spread_ok else "FAIL"
            ok = ok and verdict == "ok"
            for k in ("A", "B"):
                med, q1, q3, spread = rows[k]
                tail = f"{m['bound']:6.2f} {diff:7.3f}  {verdict}" if k == "B" else ""
                print(f"{m['name']:18} {k:3} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} {tail}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
