"""One pass of a workload in a fresh interpreter: the process a CLI user gets.

    python3 perfbench/worker.py --workload census --seed 1 --out pass.json \
        --outdir DIR [--trace] [--setup-only]

It imports ``inflectionary`` from the checkout's ``src``, generates the job
list, and runs the jobs one after another through ``inflectionary.cli.main``
(a closed loop with one client: each job starts when the previous one has
returned).  The memo caches start empty, as they do for a user.  Before each
job and after the last one the pass times fixed reference work, which says
how fast the host ran the code at that moment (see ``run.py``).  The pass
writes one JSON file: when the first job was ready and the reference time
then, each job's timing, exit code, output digests and check result, the
reference times between jobs, the peak RSS and, with ``--trace``, the spans
and counters.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from jobs import check_output, make_jobs  # noqa: E402
from tracing import JOB_SPAN, Tracer  # noqa: E402

# How many times a probe runs the reference work; it keeps the shortest time.
PROBE_REPEATS = 3


def reference_work():
    """About 2 ms of fixed pure-Python work of the kinds the program does:
    small-int arithmetic, ``Fraction`` arithmetic on large integers, and
    dicts keyed by tuples.  It uses nothing from the program, so a change to
    the program never changes it."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i * 12345678901234567, i + 7)
    table = {}
    for i in range(1500):
        key = (i % 50, i % 7)
        table[key] = table.get(key, 0) + i * 1234567891011
    return total, acc, sorted(table.items())


def probe():
    """Shortest of a few timings of the reference work, in seconds."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def import_program():
    """``inflectionary.cli`` from this checkout's sources, never another copy."""
    if not os.path.isfile(os.path.join(SRC, "inflectionary", "cli.py")):
        raise SystemExit(f"error: no inflectionary sources under {SRC}")
    sys.path.insert(0, SRC)
    from inflectionary import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's copy")
    return cli


def run_job(cli, job, outdir):
    """Run one job; return its record (times, exit code, digests, error)."""
    stdout = io.StringIO()
    stderr = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(job["argv"])
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        code = None
        error = f"raised {exc!r}"
    end = time.perf_counter()
    text = stdout.getvalue()
    svg = None
    if job["family"] == "plot":
        path = os.path.join(outdir, f"job{job['id']}.svg")
        if os.path.exists(path):
            with open(path, "rb") as handle:
                svg = handle.read()
            os.remove(path)
    if error is None:
        error = check_output(job, code, text, svg)
    if error is None and threading.active_count() > 1:
        # A thread left running would also slow the reference work, and so
        # hide its own cost from the corrected timings.
        error = f"left {threading.active_count() - 1} thread(s) running"
    if error is not None and stderr.getvalue():
        error += f"; stderr: {stderr.getvalue()[-300:]!r}"
    return {
        "id": job["id"],
        "start": start,
        "end": end,
        "exit_code": code,
        "stdout_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "svg_sha256": None if svg is None else hashlib.sha256(svg).hexdigest(),
        "error": error,
    }


def run_jobs(cli, jobs, outdir, tracer=None):
    """Run the jobs in order through ``cli.main``, looked up at each call so
    that a tracer installed on the module is seen; each job is a ``job``
    span when traced.  Returns the records and the reference times, one
    before each job and one after the last."""
    records = []
    probes = []
    for job in jobs:
        probes.append(probe())
        if tracer is None:
            records.append(run_job(cli, job, outdir))
        else:
            tracer.job = job["id"]
            records.append(tracer.call(JOB_SPAN, run_job, cli, job, outdir))
    probes.append(probe())
    return records, probes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--outdir", required=True, help="where plot jobs write SVG files")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_program()
    jobs = make_jobs(args.workload, args.seed)
    ready = time.monotonic()
    result = {"ready": ready, "ready_probe": probe(), "jobs": len(jobs)}
    if not args.setup_only:
        os.environ["INFLECTIONARY_OUTDIR"] = args.outdir
        tracer = Tracer().install() if args.trace else None
        result["records"], result["probes"] = run_jobs(cli, jobs, args.outdir, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.dump()
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
