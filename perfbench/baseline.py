"""Run the benchmark over several seeds and summarize it per workload.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

For every workload and seed it runs ``run.py --trace 0`` for the
``run_seconds`` of BENCHMARK.json; for seeds 1 and 2 it also runs
``run.py --trace 1``.  It prints, per end-to-end metric, the median, the
quartiles and the spread (interquartile distance over median) next to the
metric's bound, and with ``--out`` writes all values, the per-layer metrics
and the run context as JSON.  A perf change quotes this file before and after.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from jobs import DEFAULT_SEED, WORKLOADS  # noqa: E402
from run import RESULTS, ROOT, load_spec  # noqa: E402

TRACE_SEEDS = (DEFAULT_SEED, 2)


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def quartiles(values):
    """First and third quartile, as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_once(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    with open(os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")) as handle:
        return json.loads(lines[-1]), json.load(handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in WORKLOADS:
        values = {name: [] for name in bounds}
        context = None
        for seed in args.seeds:
            result, summary = run_once(workload, seed, 0, spec["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            context = context or {k: summary[k] for k in
                                  ("commit", "python", "nproc", "jobs_per_pass", "family_mix")}
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: run_s={values['run_s'][-1]:.3f}", file=sys.stderr)
        entry = {**context, "seeds": args.seeds, "end_to_end": {}, "per_layer": {}}
        for name, vals in values.items():
            q1, q3 = quartiles(vals)
            median = statistics.median(vals)
            entry["end_to_end"][name] = {
                "unit": bounds[name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": bounds[name]["bound"], "values": vals}
            print(f"{workload:7s} {name:12s} median={median:<11.6g} q1={q1:<11.6g} "
                  f"q3={q3:<11.6g} spread={(q3 - q1) / median:.3f} "
                  f"bound={bounds[name]['bound']} {bounds[name]['unit']} n={len(vals)}")
        for seed in TRACE_SEEDS:
            result, _ = run_once(workload, seed, 1, spec["run_seconds"])
            entry["per_layer"][str(seed)] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload:7s} trace seed {seed}: overhead_ratio="
                  f"{entry['per_layer'][str(seed)]['trace.overhead_ratio']:.3f}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
