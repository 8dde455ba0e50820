"""inflectionary benchmark: closed-loop CLI workloads, timed end to end, and a
traced run that splits the time by layer.

    python3 perfbench/run.py --workload verify|census|render|all \
        --seconds S [--seed N] [--trace 0|1]

Every pass is a fresh interpreter (``worker.py``) that runs the workload's
seeded job list through ``inflectionary.cli.main``, one job after another.
With ``--trace 0`` the benchmark runs passes until ``--seconds`` have gone
by and reports the end-to-end metrics of ``BENCHMARK.json``, each the median
over passes.  With ``--trace 1`` it alternates untraced and traced passes, two of each, and
reports the per-layer metrics.  Every job's output is checked; a failed
job counts in ``failed`` and the run goes on.  Human-readable lines come
first; the last line of stdout is one JSON object.  Each run also writes its
context and per-pass data to ``perfbench/results/``.

The host this runs on changes speed by itself: for seconds, sometimes for a
whole run, it runs the same code up to 1.9 times slower.  So each pass times
fixed reference work right after set-up, before every job and after the
last, and every time is scaled by ``NOMINAL_REFERENCE_S`` over the reference
time measured around it, raised to ``SPEED_EXPONENT``: an estimate of the
time at a fixed nominal speed of the host.  The raw times are printed and
written to the results file too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)
from jobs import DEFAULT_SEED, WORKLOADS, make_jobs  # noqa: E402
from tracing import layer_metrics, layer_totals  # noqa: E402

# Extra launches that stop once the first job is ready, so that the median
# set-up time rests on more samples than there are passes.
SETUP_PROBES = 10
TRACED_PASSES = 2
PASS_TIMEOUT_S = 170
# The tail percentile must leave at least this many jobs beyond it.
TAIL_BEYOND = 10
# The time of worker.reference_work at the nominal speed every time is scaled
# to: its fastest time on the 2-core x86-64 host (Python 3.11) the benchmark
# was built on.  A constant, so that a run spent wholly in a slow state of the
# host is scaled too; a change of it rescales every timing metric.
NOMINAL_REFERENCE_S = 1.4e-3
# The program slows less than the reference work when the host does: fitted
# over the passes of ten seeds per workload, its pass time moved with the
# 0.35 (verify), 0.67 (census) and 0.77 (render) power of the reference time.
# Scaling by the ratio's 2/3 power left the smallest spreads across seeds.
SPEED_EXPONENT = 2 / 3


class PassError(Exception):
    pass


def run_pass(workload, seed, workdir, trace=False, setup_only=False):
    """Launch one worker; return its result with ``setup_s`` added."""
    out = tempfile.NamedTemporaryFile(dir=workdir, suffix=".json", delete=False).name
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out", out, "--outdir", workdir]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    launched = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise PassError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out) as handle:
        result = json.load(handle)
    os.remove(out)
    result["setup_s"] = result["ready"] - launched
    return result


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples beyond it."""
    return max(0, math.floor(100 * (n - TAIL_BEYOND) / n))


def nearest_rank(values, percentile):
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def scaled(seconds, probe):
    """A time measured while the reference work took ``probe`` seconds,
    brought to the nominal speed."""
    return seconds * (NOMINAL_REFERENCE_S / probe) ** SPEED_EXPONENT


def setup_time(result):
    """A launch's set-up time scaled by the reference time taken just after it."""
    return scaled(result["setup_s"], result["ready_probe"])


def pass_timing(result):
    """A pass's job latencies, raw and scaled to the nominal speed.

    Job i ran between probes i and i + 1; their mean stands for the host's
    speed during the job.  ``run_s`` is the sum of the jobs' latencies, so
    the checks and probes between jobs do not count.
    """
    probes = result["probes"]
    raw = [r["end"] - r["start"] for r in result["records"]]
    latencies = [scaled(lat, (probes[i] + probes[i + 1]) / 2) for i, lat in enumerate(raw)]
    return {
        "run_s": sum(latencies),
        "raw_run_s": sum(raw),
        "peak_rss_mb": result.get("peak_rss_mb"),
        "setup_s": result["setup_s"],
        "latencies": latencies,
        "raw_latencies": raw,
        "probes": probes,
    }


def job_latencies(timings, key="latencies"):
    """Each job's median latency over the passes, so that a job slowed by a
    burst of host load in one pass does not set a percentile."""
    return [statistics.median(lat) for lat in zip(*(t[key] for t in timings))]


def check_digests(passes, expected):
    """Mark jobs whose output differs from the first pass or the stored digests.

    Returns the number of jobs newly marked failed.
    """
    reference = {r["id"]: (r["stdout_sha256"], r["svg_sha256"]) for r in passes[0]["records"]}
    marked = 0
    for result in passes:
        for r in result["records"]:
            digest = (r["stdout_sha256"], r["svg_sha256"])
            why = None
            if digest != reference[r["id"]]:
                why = "output differs between passes"
            elif expected is not None and list(digest) != expected[r["id"]]:
                why = "output differs from the stored digest"
            if why and r["error"] is None:
                r["error"] = why
                marked += 1
    return marked


def load_spec():
    with open(SPEC) as handle:
        return json.load(handle)


def load_expected_digests(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as handle:
        stored = json.load(handle).get(workload)
    return None if stored is None else {int(k): v for k, v in stored.items()}


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(workload, seed, seconds, trace, workdir):
    """Run one workload; return (summary dict, list of problems)."""
    jobs = make_jobs(workload, seed)
    problems = []
    untraced = []
    traced = []
    launches = []
    began = time.monotonic()
    if trace:
        # Untraced and traced passes alternate, so that each traced pass is
        # compared with an untraced one run just before it.
        for _ in range(TRACED_PASSES):
            untraced.append(run_pass(workload, seed, workdir))
            traced.append(run_pass(workload, seed, workdir, trace=True))
    else:
        for _ in range(SETUP_PROBES):
            launches.append(run_pass(workload, seed, workdir, setup_only=True))
        # Start another pass while it would end, by the last pass's length,
        # within ``seconds``; run at least two.
        last = 0.0
        while len(untraced) < 2 or time.monotonic() - began + last <= seconds:
            launched = time.monotonic()
            untraced.append(run_pass(workload, seed, workdir))
            last = time.monotonic() - launched
    passes = untraced + traced

    check_digests(passes, load_expected_digests(workload, seed))
    attempted = sum(len(p["records"]) for p in passes)
    failures = [(i, r["id"], r["error"]) for i, p in enumerate(passes)
                for r in p["records"] if r["error"] is not None]
    for i, job_id, error in failures[:20]:
        problems.append(f"pass {i} job {job_id} ({' '.join(jobs[job_id]['argv'])}): {error}")

    launches += untraced
    timings = [pass_timing(p) for p in untraced]
    setups = [setup_time(p) for p in launches]
    latencies = job_latencies(timings)
    raw_latencies = job_latencies(timings, "raw_latencies")
    percentile = tail_percentile(len(latencies))
    end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(t["run_s"] for t in timings),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": nearest_rank(latencies, percentile),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in timings),
        "fail_ratio": len(failures) / attempted,
    }
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in launches),
        "run_s": statistics.median(t["raw_run_s"] for t in timings),
        "job_p50_s": statistics.median(raw_latencies),
        "job_tail_s": nearest_rank(raw_latencies, percentile),
    }
    samples = {"setup_s": len(setups), "run_s": len(timings),
               "job_p50_s": len(timings) * len(jobs), "job_tail_s": len(timings) * len(jobs),
               "peak_rss_mb": len(timings), "fail_ratio": attempted}

    per_layer = None
    if trace:
        layers = [layer_metrics(**{k: p["trace"][k] for k in ("names", "spans", "counts")})
                  for p in traced]
        # Every count, EXACT_COUNTS among them, must repeat exactly.
        for name, value in layers[0].items():
            if isinstance(value, int) and any(other[name] != value for other in layers[1:]):
                problems.append(f"count {name} differs between traced passes: "
                                f"{[other[name] for other in layers]}")
        per_layer = {name: (statistics.median(l[name] for l in layers)
                            if isinstance(value, float) else value)
                     for name, value in layers[0].items()}
        per_layer["trace.overhead_ratio"] = statistics.median(
            pass_timing(t)["run_s"] / u_timing["run_s"]
            for t, u_timing in zip(traced, timings))

    families = {}
    for job in jobs:
        families[job["family"]] = families.get(job["family"], 0) + 1
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jobs_per_pass": len(jobs),
        "family_mix": families,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": end_to_end,
        "raw": raw,
        "reference_s": min(min(p.get("probes", []) + [p["ready_probe"]])
                           for p in launches + traced),
        "samples": samples,
        "tail_percentile": percentile,
        "job_latencies": latencies,
        "trace_overhead_ratio": per_layer and per_layer["trace.overhead_ratio"],
        "per_layer": per_layer,
        "per_pass": timings,
        # Calls, self time and total time of every traced function, first traced pass.
        "layer_totals": traced and layer_totals(traced[0]["trace"]["names"],
                                                traced[0]["trace"]["spans"]),
        "problems": problems,
    }
    return summary, problems


def describe(summary, spec_metrics):
    """Human-readable lines: every end-to-end metric with unit and sample count."""
    units = {m["name"]: m["unit"] for m in spec_metrics}
    units["fail_ratio"] = "ratio"
    lines = [f"# {summary['workload']} seed={summary['seed']} trace={summary['trace']} "
             f"jobs/pass={summary['jobs_per_pass']} passes={summary['passes']} "
             f"traced_passes={summary['traced_passes']} mix={summary['family_mix']}"]
    notes = {
        "setup_s": "launches, median",
        "run_s": "passes, median of each pass's summed job latencies",
        "job_p50_s": "jobs, median of each job's median over passes",
        "job_tail_s": f"jobs, p{summary['tail_percentile']} of each job's median over passes",
        "peak_rss_mb": "passes, median",
        "fail_ratio": f"jobs, {summary['failed']} failed",
    }
    for name, value in summary["end_to_end"].items():
        raw = summary["raw"].get(name)
        raw = "" if raw is None else f", raw {raw:.6g}"
        lines.append(f"{name:<12} {value:12.6g} {units[name]:<6} "
                     f"n={summary['samples'][name]} ({notes[name]}{raw})")
    if summary["per_layer"] is not None:
        lines.append(f"trace.overhead_ratio {summary['per_layer']['trace.overhead_ratio']:.4f}")
    return lines


def metrics_block(values, spec_metrics):
    out = {}
    for m in spec_metrics:
        if m["name"] not in values:
            raise KeyError(f"benchmark did not measure {m['name']}")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "inflectionary", "cli.py")):
        print(f"error: no inflectionary sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    summaries = []
    problems = []
    try:
        for workload in workloads:
            summary, found = run_workload(workload, args.seed, args.seconds,
                                          bool(args.trace), workdir)
            summaries.append(summary)
            problems += [f"{workload}: {p}" for p in found]
            path = os.path.join(RESULTS, f"{workload}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as handle:
                json.dump(summary, handle, indent=1)
            print("\n".join(describe(summary, spec["end_to_end"])), flush=True)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for summary in summaries:
        values = summary["per_layer"] if args.trace else summary["end_to_end"]
        block = metrics_block(values, spec_metrics)
        if len(summaries) > 1:
            block = {f"{summary['workload']}.{k}": v for k, v in block.items()}
        metrics.update(block)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
