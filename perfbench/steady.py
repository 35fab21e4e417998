"""Steadiness of the benchmark: run every workload repeatedly, each run in
a fresh process with its own seed, and compare the spread of every
end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --seed 100

Run i uses seed (--seed + i) for every workload, and the workload order
alternates between runs, so slow drift on the host does not always land
on the same workload.  For each workload and metric it prints the median,
the quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median
and the bound.  It also prints the share of failed operations, which must
be the same in every run.  It exits 1 when a run is not correct, the
failed shares differ or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from run import ROOT, run_child


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def summarize(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, "
              f"failed share {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = ("ok" if spread <= bound / 3 else
                    "within bound" if spread <= bound else "TOO WIDE")
            steady &= spread <= bound
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound:.2f}"
                  f"  {mark}")
    return steady


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    results = {w: [] for w in args.workloads}
    for i in range(args.runs):
        order = args.workloads if i % 2 == 0 else args.workloads[::-1]
        for workload in order:
            result, lines = run_child(workload, args.seed + i, args.seconds)
            kinds = next((ln.strip() for ln in lines if "by kind" in ln), "")
            results[workload].append(result)
            m = result["metrics"]
            print(f"run {i} {workload:13s} seed {args.seed + i}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in m.items())
                  + f"\n    {kinds}", flush=True)
    print()
    return 0 if summarize(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
