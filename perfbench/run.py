"""Benchmark for tml: four seeded workloads timed end to end.

    python3 perfbench/run.py --workload exp-odd --seed 1 --seconds 10 --trace 0

runs one workload in this process: one caller in a closed loop, calling
tml's public API (or tml.cli.main in-process) one job at a time.  It sets
up, runs whole rounds of the seeded job list until --seconds have passed,
checks the first round against the benchmark's own computations and every
later round against the first, and prints one metric per line followed by
a JSON result as the last line.

With --trace 1 it first times untraced rounds for --seconds as usual, then
wraps tml's layers (see tracer.py) and runs exactly one more round, so the
per-layer counts are those of one round and repeat exactly for a seed.
It prints the per-layer metrics and the tracing overhead, and writes the
spans to perfbench/out/.

Without --workload it runs all four workloads, each in a fresh process,
and prints a table.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, warm_up  # noqa: E402

# Set-up is repeated and its median reported, so one slow repetition on a
# busy host does not decide the figure.
SETUP_REPEATS = 7


def import_tml():
    """Import tml from this checkout's src/, or exit 1 when it is absent."""
    sys.path.insert(0, SRC)
    try:
        import tml
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import tml from {SRC}: {exc}")
    if not os.path.abspath(tml.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: tml imported from {tml.__file__}, not {SRC}")


def run_round(plan, timed, visit):
    """Run every job once and hand each output to visit(index, job,
    output) outside the timed region; the seconds per job."""
    secs = []
    clock = time.perf_counter
    for i, job in enumerate(plan.jobs):
        t0 = clock()
        out = timed(job)
        secs.append(clock() - t0)
        visit(i, job, out)
    return secs


def freeze(out):
    """A hashable copy of an output: lists become tuples, and dataclasses
    (some hold lists) their type and fields."""
    if isinstance(out, (list, tuple)):
        return tuple(freeze(x) for x in out)
    if dataclasses.is_dataclass(out):
        return (type(out).__name__,) + tuple(
            freeze(getattr(out, f.name)) for f in dataclasses.fields(out))
    return out


class Outcomes:
    """Check results of the first round, and a digest of each output that
    every later round must match."""

    def __init__(self, plan):
        self.plan = plan
        self.errors = []
        self.failed = []
        self.digests = []

    def first(self, i, job, out):
        self.errors.extend(self.plan.check(job, out))
        self.failed.append(self.plan.failed(job, out))
        self.digests.append(hash(freeze(out)))

    def again(self, i, job, out):
        if hash(freeze(out)) != self.digests[i]:
            self.errors.append(f"{job.kind}: output differs from the first "
                               "round")


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(args):
    os.environ.pop("TML_COLOR", None)
    import_tml()
    imported = time.perf_counter() - STARTED
    build = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            plan = build(args.seed, workdir)
            warm_up(plan)
            setups.append(time.perf_counter() - t0)
        return measure(args, plan, imported + statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, plan, setup_s):
    direct = lambda job: job.run()
    seen = Outcomes(plan)
    secs = run_round(plan, direct, seen.first)
    failed = seen.failed
    all_secs = [secs]
    busy = sum(secs)
    # whole rounds until the jobs have run for --seconds; checks and
    # comparisons between jobs do not count
    while busy < args.seconds:
        secs = run_round(plan, direct, seen.again)
        all_secs.append(secs)
        busy += sum(secs)
    ok = [s for secs in all_secs for s, bad in zip(secs, failed) if not bad]
    jobs_per_s = len(ok) / sum(ok)
    attempted = len(all_secs) * len(plan.jobs)
    n_failed = len(all_secs) * sum(failed)
    if args.trace:
        metrics = traced(args, plan, seen, jobs_per_s)
        attempted += len(plan.jobs)
        n_failed += sum(failed)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "job_p50_ms": (quantile(ok, 50) * 1000.0, "ms"),
            "job_p90_ms": (quantile(ok, 90) * 1000.0, "ms"),
            "jobs_per_s": (jobs_per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
    report(args, plan, seen, all_secs, attempted, n_failed, metrics)
    return 0


def report(args, plan, seen, all_secs, attempted, n_failed, metrics):
    """Print check failures, per-kind medians, one line per metric, and
    the JSON result as the last line."""
    for err in seen.errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    by_kind = {}
    for secs in all_secs:
        for job, s, bad in zip(plan.jobs, secs, seen.failed):
            if not bad:
                by_kind.setdefault(job.kind, []).append(s * 1000.0)
    traced_note = " + 1 traced" if args.trace else ""
    print(f"workload {args.workload}, seed {args.seed}: {len(all_secs)}"
          f"{traced_note} rounds of {len(plan.jobs)} jobs, {n_failed} failed "
          f"of {attempted}")
    print("  median ms by kind: " + ", ".join(
        f"{kind} {statistics.median(v):.2f}" for kind, v in
        sorted(by_kind.items())))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    result = {"correct": not seen.errors, "attempted": attempted,
              "failed": n_failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))


def traced(args, plan, seen, untraced_jps):
    """One traced round: the per-layer metrics and the tracing overhead."""
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        secs = run_round(plan, lambda job: tracer.job(job.kind, job.run),
                         seen.again)
    finally:
        tracer.uninstall()
    ok = [s for s, bad in zip(secs, seen.failed) if not bad]
    traced_jps = len(ok) / sum(ok)
    metrics = tracer.metrics()
    metrics["trace.jobs_per_s"] = (traced_jps, "1/s")
    metrics["trace.overhead_pct"] = (
        (untraced_jps - traced_jps) / untraced_jps * 100.0, "%")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "spans": tracer.span_records()}, fh)
    return metrics


def run_child(workload, seed, seconds, trace=0):
    """Run one workload in a fresh process: its JSON result and the lines
    it printed before it.  Exits when the process fails."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def run_all(args):
    """Every workload in its own fresh process, then one table."""
    rows = []
    for name in WORKLOADS:
        result, lines = run_child(name, args.seed, args.seconds, args.trace)
        rows.append((name, result))
        print("\n".join(lines))
    print()
    print(f"{'workload':14s} {'attempted':>9s} {'failed':>6s} correct")
    for name, result in rows:
        print(f"{name:14s} {result['attempted']:9d} {result['failed']:6d} "
              f"{result['correct']}")
    print(json.dumps({name: result for name, result in rows}))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
