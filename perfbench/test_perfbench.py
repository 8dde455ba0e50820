"""Tests of the benchmark itself: job generation, output checks, self time and
tracer coverage.  Run with ``python3 -m pytest perfbench``.
"""

import os
import shutil
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from jobs import REGIMES, WORKLOADS, check_output, make_jobs  # noqa: E402
from tracing import (  # noqa: E402
    EXACT_COUNTS, PACKAGE, TARGETS, Tracer, layer_metrics, package_modules, self_times,
)

cli = worker.import_program()


def _lambdas(job):
    argv = job["argv"]
    out = []
    for flag in ("--lambda", "--lambda-grid"):
        if flag in argv:
            out += argv[argv.index(flag) + 1].split(",")
    return out


# -- generator ------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs_and_other_seed_other_inputs(workload):
    assert make_jobs(workload, 7) == make_jobs(workload, 7)
    assert make_jobs(workload, 7) != make_jobs(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_jobs_are_valid_command_lines(workload, seed):
    jobs = make_jobs(workload, seed)
    assert len(jobs) >= 40
    assert [j["id"] for j in jobs] == list(range(len(jobs)))
    parser = cli.build_parser()
    for job in jobs:
        args = parser.parse_args(cli._merge_value_flags(job["argv"]))
        assert args.command == job["argv"][0]
        if job["family"] == "plot":
            assert job["argv"][-2:] == ["--out", f"job{job['id']}.svg"]


@pytest.mark.parametrize("workload", ("verify", "census"))
def test_lambdas_are_exact_nondegenerate_and_cover_every_regime(workload):
    seen = set()
    for job in make_jobs(workload, 1):
        for text in _lambdas(job):
            p, q = text.split("/")
            value = Fraction(int(p), int(q))
            assert value not in (0, 1) and "." not in text
            seen |= {name for name, pool in REGIMES.items() if value in pool}
    assert seen == set(REGIMES)


def test_regimes_hold_what_their_names_say():
    assert all(v < 0 for v in REGIMES["negative"])
    assert all(0 < v < 1 for v in REGIMES["unit"])
    assert all(v > 1 for v in REGIMES["large"])


# -- output checks ----------------------------------------------------------------

def test_check_output_flags_wrong_results():
    job = {"id": 0, "family": "torsion", "argv": ["verify", "torsion", "--k", "2"]}
    ok = '{"check":"torsion_identity","params":{},"verdict":"PASS"}\n'
    bad = '{"check":"torsion_identity","params":{},"verdict":"FAIL"}\n'
    assert check_output(job, 0, ok, None) is None
    assert "verdicts" in check_output(job, 0, bad, None)
    assert "exit code" in check_output(job, 3, ok, None)
    assert "reports" in check_output(job, 0, ok + ok, None)
    assert "unreadable" in check_output(job, 0, "not json\n", None)
    plot = {"id": 1, "family": "plot", "argv": ["plot", "--nx", "8", "--nlambda", "9"]}
    assert "SVG" in check_output(plot, 0, "", None)
    svg = b'<?xml version="1.0" encoding="UTF-8"?>\n<!-- resolution=8x9 -->'
    assert check_output(plot, 0, "", svg) is None


def test_census_check_uses_the_dichotomy():
    job = {"id": 0, "family": "roots", "argv": ["roots", "--mu", "1", "--k", "4", "--lambda", "-3/1"]}
    census = ('{"mu":1,"k":4,"lambda0":"-3","total_real_roots":1,"roots_f_positive":%d,'
              '"intervals":[{"lo":"0","hi":"1"}]}\n')
    assert check_output(job, 0, census % 2, None) is None    # k - mu odd: 2 mu
    assert "expected 2" in check_output(job, 0, census % 1, None)


def test_digest_mismatch_counts_as_a_failed_job():
    def record(i, digest):
        return {"id": i, "stdout_sha256": digest, "svg_sha256": None, "error": None}
    passes = [{"records": [record(0, "a"), record(1, "b")]},
              {"records": [record(0, "a"), record(1, "c")]}]
    assert run.check_digests(passes, {0: ["a", None], 1: ["b", None]}) == 1
    assert passes[1]["records"][1]["error"] == "output differs between passes"
    passes[1]["records"][1]["error"] = None
    passes[1]["records"][1]["stdout_sha256"] = "b"
    assert run.check_digests(passes, {0: ["x", None], 1: ["b", None]}) == 2


def test_times_are_scaled_to_the_nominal_reference_time():
    result = {"setup_s": 0.3, "peak_rss_mb": 20.0, "ready_probe": 1.5, "probes": [1.0, 2.0, 1.0],
              "records": [{"start": 0.0, "end": 3.0}, {"start": 4.0, "end": 5.0}]}
    factor = (run.NOMINAL_REFERENCE_S / 1.5) ** run.SPEED_EXPONENT
    assert run.setup_time(result) == pytest.approx(0.3 * factor)
    timing = run.pass_timing(result)
    assert timing["raw_latencies"] == [3.0, 1.0]
    # Each job is scaled by the mean of the probes around it, here 1.5 each.
    assert timing["latencies"] == pytest.approx([3.0 * factor, 1.0 * factor])
    assert timing["run_s"] == pytest.approx(4.0 * factor)
    assert timing["raw_run_s"] == 4.0
    assert 0 < run.SPEED_EXPONENT <= 1


def test_a_job_that_leaves_a_thread_running_fails(tmp_path):
    release = threading.Event()

    class Program:
        @staticmethod
        def main(argv):
            threading.Thread(target=release.wait).start()
            print('{"verdict": "PASS"}')
            return 0

    job = {"id": 0, "family": "faces", "argv": ["verify", "faces", "--k", "2"]}
    try:
        record = worker.run_job(Program, job, str(tmp_path))
    finally:
        release.set()
    assert "thread" in record["error"]


def test_tail_percentile_leaves_ten_jobs_beyond_it():
    for n in range(11, 300):
        p = run.tail_percentile(n)
        values = list(range(n))
        assert n - 1 - run.nearest_rank(values, p) >= 10
        assert n - 1 - run.nearest_rank(values, p + 1) < 10


# -- self time --------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        (0, "a", 0.0, 10.0, -1, 0),
        (1, "b", 1.0, 3.0, 0, 0),
        (2, "c", 2.0, 5.0, 0, 0),     # overlaps b
        (3, "d", 8.0, 12.0, 0, 0),    # runs past the end of a
        (4, "e", 9.0, 9.5, 3, 0),     # grandchild of a: only d's child
        (5, "f", 4.0, 4.5, 0, 0),     # inside c, still a child of a
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - (4 + 2))
    assert own[1] == pytest.approx(2)
    assert own[2] == pytest.approx(3)
    assert own[3] == pytest.approx(3.5)
    assert own[4] == pytest.approx(0.5)


# -- tracer -----------------------------------------------------------------------

def _originals():
    out = []
    for module_name, attr, _span in TARGETS:
        obj = sys.modules[f"{PACKAGE}.{module_name}"]
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            obj = getattr(obj, owner_name)
        out.append(vars(obj)[fn_name])
    return out


def _bindings(value):
    """Every (owner, name) in the package's modules and classes bound to value."""
    owners = {id(m): m for m in package_modules()}
    for module in package_modules():
        owners.update((id(v), v) for v in vars(module).values()
                      if isinstance(v, type) and v.__module__.startswith(PACKAGE))
    return sorted(((o.__name__, k) for o in owners.values()
                   for k, v in list(vars(o).items()) if v is value))


def test_tracer_patches_every_binding_and_restores_them():
    originals = _originals()
    before = {id(fn): _bindings(fn) for fn in originals}
    mul = vars(sys.modules[f"{PACKAGE}.poly"].SparsePoly)["__mul__"]
    assert len(before[id(mul)]) == 2          # __mul__ and its __rmul__ alias
    sign_at_root = sys.modules[f"{PACKAGE}.roots"].sign_at_root
    assert len(before[id(sign_at_root)]) >= 3  # roots, conjectures, the package
    with Tracer():
        for fn in originals:
            assert _bindings(fn) == [], fn.__qualname__
    for fn in originals:
        assert _bindings(fn) == before[id(fn)]


def test_repeat_ratio_counts_only_rebuilds():
    inflection = sys.modules[f"{PACKAGE}.inflection"]
    tracer = Tracer()
    with tracer:
        for mu, k in ((1, 4), (1, 4), (2, 3), (2, 3), (2, 4)):
            inflection.general_inflection(mu, k)
    m = layer_metrics(tracer.names, tracer.spans, tracer.counts)
    assert m["inflection.general_inflection.calls"] == 5
    # The repeated mu = 1 call reads the basic-family cache: no rebuild.
    assert tracer.counts["inflection.general_inflection.repeats"] == 1
    assert m["inflection.general_inflection.repeat_ratio"] == pytest.approx(1 / 5)


def _traced(jobs, tmp_path):
    tracer = Tracer()
    with tracer:
        records, probes = worker.run_jobs(cli, jobs, str(tmp_path), tracer)
    assert [r["error"] for r in records] == [None] * len(jobs)
    assert len(probes) == len(jobs) + 1 and min(probes) > 0
    return tracer, layer_metrics(tracer.names, tracer.spans, tracer.counts)


def _pick(workload, keep):
    return [j for j in make_jobs(workload, 1) if keep(j["argv"])]


def test_each_layer_is_loaded_by_its_workload_only(tmp_path, monkeypatch):
    monkeypatch.setenv("INFLECTIONARY_OUTDIR", str(tmp_path))
    verify = _pick("verify", lambda a: a[1] in ("symmetry", "singular", "torsion")
                   and a[3] == "2")
    census = _pick("census", lambda a: a[2] == "1" and int(a[4]) <= 5
                   or a[:5] == ["roots", "--mu", "2", "--k", "3"])
    render = _pick("render", lambda a: a[2:5] in (["1", "--k", "2"], ["2", "--k", "3"])
                   and a[a.index("--nlambda") + 1] == "96")
    assert verify and census and render

    _, v = _traced(verify, tmp_path)
    for name in ("matrices.resultant.calls", "matrices.det_polymatrix.calls",
                 "poly.mul.calls", "poly.divexact.calls", "roots.gcd_univariate.calls",
                 "reports.to_json.calls", "inflection.general_inflection.calls"):
        assert v[name] > 0, name

    _, c = _traced(census, tmp_path)
    for name in ("conjectures.real_root_census.calls", "roots.isolate.calls",
                 "roots.sign_at_root.calls", "roots.variations_at.calls",
                 "roots.RootIsolator.builds", "roots.roots_isolated", "poly.specialize.calls"):
        assert c[name] > 0, name
    assert c["matrices.resultant.calls"] == 0
    assert all(value == 0 for name, value in c.items() if name.startswith("render."))

    tracer, r = _traced(render, tmp_path)
    for name in ("render.nodes", "render.segments", "render.svg_bytes", "poly.evaluate.calls"):
        assert r[name] > 0, name
    assert all(value == 0 for name, value in r.items() if name.startswith("roots."))
    assert r["matrices.resultant.calls"] == 0
    # Plots of mu >= 2 reach matrices only through the tiny q_template determinant.
    by_id = {s[0]: s for s in tracer.spans}
    names = tracer.names
    dets = [s for s in tracer.spans if names[s[1]] == "matrices.det_polymatrix"]
    assert dets and all(names[by_id[s[4]][1]] == "inflection.q_template" for s in dets)
    assert set(EXACT_COUNTS) <= set(r) and all(isinstance(r[n], int) for n in EXACT_COUNTS)


# -- the command ------------------------------------------------------------------

def test_without_program_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
