"""Command-line contract: exit codes, JSON output and file side effects."""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_poly import poly_from_json

from inflectionary import cli
from inflectionary.cli import OUTDIR_ENV, main
from inflectionary.inflection import basic_inflection
from inflectionary.poly import poly_to_json
from inflectionary.reports import FAIL, UNRESOLVED, CheckReport


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


# verify family -> the flags it reads
VERIFY_READS = {
    "symmetry": {"--k", "--k-max"},
    "support": {"--k", "--k-max"},
    "faces": {"--k", "--k-max"},
    "lemma1": {"--mu", "--k"},
    "torsion": {"--k", "--lambda"},
    "singular": {"--k"},
}


def _subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestCompute:
    def test_json_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "compute", "--mu", "1", "--k", "1")
        assert code == 0
        assert out.strip() == poly_to_json(basic_inflection(1))
        assert poly_from_json(out.strip()) == basic_inflection(1)

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "compute", "--mu", "1", "--k", "2",
                           "--format", "text")
        assert code == 0
        assert out.strip() == basic_inflection(2).to_text()

    def test_shape_precondition_is_exit_3(self, capsys):
        code, _, err = run(capsys, "compute", "--mu", "2", "--k", "2")
        assert code == 3
        assert err.startswith("error:")

    def test_malformed_int_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--mu", "one", "--k", "1")
        assert code == 2


class TestVerify:
    def test_symmetry_single_k(self, capsys):
        code, out, _ = run(capsys, "verify", "symmetry", "--k", "2")
        assert code == 0
        reports = json_lines(out)
        assert len(reports) == 2
        assert all(r["verdict"] == "PASS" for r in reports)

    def test_support_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "support", "--k-max", "3")
        assert code == 0
        assert len(json_lines(out)) == 6

    def test_faces(self, capsys):
        code, out, _ = run(capsys, "verify", "faces", "--k", "3")
        assert code == 0
        assert json_lines(out)[0]["check"] == "face_structure"

    def test_lemma1_pair(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma1", "--mu", "2", "--k", "3")
        assert code == 0
        assert json_lines(out)[0]["params"] == {"mu": 2, "k": 3}

    def test_lemma1_half_pair_is_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "lemma1", "--mu", "2")
        assert code == 2
        assert err.startswith("usage error:")

    def test_torsion_negative_lambda_value(self, capsys):
        code, out, _ = run(capsys, "verify", "torsion", "--lambda", "-1/2")
        assert code == 0
        assert json_lines(out)[0]["verdict"] == "PASS"

    def test_torsion_degenerate_lambda_is_exit_3(self, capsys):
        code, _, err = run(capsys, "verify", "torsion", "--lambda", "1")
        assert code == 3
        assert err.startswith("error:")

    def test_singular(self, capsys):
        code, out, _ = run(capsys, "verify", "singular", "--k", "2")
        assert code == 0
        assert json_lines(out)[0]["check"] == "singular_locus"

    @pytest.mark.parametrize("family,k_max", [
        ("symmetry", "0"), ("support", "0"), ("faces", "0"), ("symmetry", "-2"),
        ("faces", "1"),  # the face sweep starts at k = 2: nothing to run
    ])
    def test_empty_k_max_sweep_is_exit_2(self, capsys, family, k_max):
        code, out, err = run(capsys, "verify", family, "--k-max", k_max)
        assert code == 2
        assert out == ""
        assert "--k-max" in err

    @pytest.mark.parametrize("argv,flag", [
        (("singular", "--k-max", "3"), "--k-max"),
        (("torsion", "--k-max", "4"), "--k-max"),
        (("support", "--mu", "3", "--k", "1"), "--mu"),
        (("symmetry", "--lambda", "2"), "--lambda"),
        (("lemma1", "--mu", "2", "--k", "3", "--k-max", "4"), "--k-max"),
        (("singular", "--k", "2", "--mu", "1"), "--mu"),
    ])
    def test_flag_the_family_does_not_read_is_exit_2(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert flag in err

    # the last two give --k-max its family's default, which argparse would let
    # pass its exclusion check if the parsed value were the default object
    @pytest.mark.parametrize("family,k,k_max", [
        ("symmetry", "2", "5"), ("support", "2", "5"), ("faces", "2", "5"),
        ("symmetry", "2", "8"), ("faces", "3", "6"),
    ], ids=["symmetry", "support", "faces", "symmetry-default", "faces-default"])
    def test_k_with_k_max_is_exit_2(self, capsys, family, k, k_max):
        code, out, err = run(capsys, "verify", family, "--k", k, "--k-max", k_max)
        assert code == 2
        assert out == ""
        assert "--k-max" in err

    @pytest.mark.parametrize("family", sorted(VERIFY_READS))
    def test_family_help_lists_exactly_its_flags(self, capsys, family):
        code, out, _ = run(capsys, "verify", family, "--help")
        assert code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == VERIFY_READS[family] | {"--help"}

    # Each family with each subset of the four flags, in any order, at small
    # valid values: the family's reads are the whole usage rule.
    @settings(max_examples=150)
    @given(st.sampled_from(sorted(VERIFY_READS)),
           st.permutations(("--k", "--k-max", "--mu", "--lambda")).flatmap(
               lambda order: st.integers(0, 4).map(lambda n: order[:n])),
           st.sampled_from(("3", "4")), st.sampled_from(("2", "3")),
           st.sampled_from(("1", "2")), st.sampled_from(("2", "-1/2")))
    @example("lemma1", ("--mu",), "3", "2", "2", "2")
    @example("lemma1", ("--k", "--mu"), "3", "2", "2", "2")
    @example("torsion", ("--lambda", "--k"), "3", "2", "2", "-1/2")
    @example("faces", ("--k-max",), "3", "2", "2", "2")
    @example("symmetry", ("--k", "--k-max"), "3", "2", "2", "2")
    def test_the_family_reads_rule_the_usage(self, family, flags, k, k_max, mu, lambda0):
        value = {"--k": k, "--k-max": k_max, "--mu": mu, "--lambda": lambda0}
        argv = ["verify", family] + [token for flag in flags for token in (flag, value[flag])]
        chosen = set(flags)
        misuse = (bool(chosen - VERIFY_READS[family]) or {"--k", "--k-max"} <= chosen
                  or (family == "lemma1" and len(chosen & {"--mu", "--k"}) == 1))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == (2 if misuse else 0)
        if misuse:
            assert out.getvalue() == ""

    def test_every_family_has_checks(self):
        verify = _subcommands(cli.build_parser())["verify"]
        assert set(cli._VERIFY_CHECKS) == set(_subcommands(verify)) == set(VERIFY_READS)

    def test_unknown_family_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "nonsense")
        assert code == 2

    def test_failed_check_is_exit_1(self, capsys, monkeypatch):
        bad = CheckReport("support", {"k": 1}, FAIL, witness={"missing": []})
        monkeypatch.setattr("inflectionary.cli.check_support", lambda k: bad)
        monkeypatch.setattr("inflectionary.cli.check_coeff_symmetry",
                            lambda k: bad)
        code, out, _ = run(capsys, "verify", "support", "--k", "1")
        assert code == 1
        assert json_lines(out)[0]["verdict"] == "FAIL"

    def test_unresolved_check_warns_but_passes(self, capsys, monkeypatch):
        open_report = CheckReport("singular_locus", {"k": 2}, UNRESOLVED)
        monkeypatch.setattr("inflectionary.cli.singular_probe",
                            lambda k: open_report)
        code, _, err = run(capsys, "verify", "singular", "--k", "2")
        assert code == 0
        assert "did not fully resolve" in err


class TestRoots:
    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "roots", "--mu", "1", "--k", "2",
                           "--lambda", "2")
        assert code == 0
        census = json.loads(out)
        assert census["total_real_roots"] == 4
        assert census["roots_f_positive"] == 2
        assert census["lambda0"] == "2"

    def test_degenerate_lambda_is_exit_3(self, capsys):
        code, _, _ = run(capsys, "roots", "--mu", "1", "--k", "2",
                         "--lambda", "1")
        assert code == 3

    def test_decimal_lambda_is_exit_2(self, capsys):
        code, _, _ = run(capsys, "roots", "--mu", "1", "--k", "2",
                         "--lambda", "0.5")
        assert code == 2


class TestScan:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run(capsys, "scan", "--mu", "1", "--k", "2",
                           "--lambda-grid", "-2,-1/2,1/3,3")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "PASS"
        assert report["data"]["counts"] == [2, 2, 2, 2]

    def test_all_degenerate_grid_is_exit_3(self, capsys):
        code, _, _ = run(capsys, "scan", "--mu", "1", "--k", "2",
                         "--lambda-grid", "0,1")
        assert code == 3

    def test_failed_scan_is_exit_1(self, capsys, monkeypatch):
        bad = CheckReport("real_root_dichotomy", {}, FAIL,
                          witness={"lambda0": "2"})
        monkeypatch.setattr("inflectionary.cli.conjecture4_scan",
                            lambda mu, k, grid: bad)
        code, _, _ = run(capsys, "scan", "--mu", "1", "--k", "2")
        assert code == 1

    def test_out_of_range_scan_warns_but_passes(self, capsys):
        code, out, err = run(capsys, "scan", "--mu", "1", "--k", "0",
                             "--lambda-grid", "2")
        assert code == 0
        assert json.loads(out)["verdict"] == "OUT_OF_RANGE"
        assert "did not fully resolve" in err


class TestPlot:
    def test_writes_deterministic_svg(self, capsys, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for target in (a, b):
            code, _, _ = run(capsys, "plot", "--mu", "1", "--k", "1",
                             "--out", str(target), "--nx", "8", "--nlambda", "8")
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"<?xml")

    def test_negative_window_values(self, capsys, tmp_path):
        target = tmp_path / "w.svg"
        code, _, _ = run(capsys, "plot", "--mu", "1", "--k", "1",
                         "--out", str(target),
                         "--window", "-2,2,-1/2,1/2", "--nx", "4", "--nlambda", "4")
        assert code == 0
        assert b"window=x=[-2,2] lambda=[-1/2,1/2]" in target.read_bytes()

    def test_default_window_and_resolution(self):
        # the parser declares the plot's defaults; render holds none
        args = cli.build_parser().parse_args(["plot", "--mu", "1", "--k", "1", "--out", "x.svg"])
        assert (args.window, args.nx, args.nlambda) == ((-1, 3, -1, 3), 512, 512)

    def test_empty_window_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "plot", "--mu", "1", "--k", "1",
                           "--out", str(tmp_path / "x.svg"),
                           "--window", "0,0,0,1")
        assert code == 2
        assert err.startswith("usage error:")

    def test_resolution_above_cap_is_exit_2(self, capsys, tmp_path):
        target = tmp_path / "x.svg"
        code, _, err = run(capsys, "plot", "--mu", "1", "--k", "1",
                           "--out", str(target), "--nx", "4097")
        assert code == 2
        assert err.startswith("usage error: resolution too large")
        assert not target.exists()

    def test_outdir_env_redirects_relative_paths(self, capsys, tmp_path,
                                                 monkeypatch):
        outdir = tmp_path / "renders"
        monkeypatch.setenv(OUTDIR_ENV, str(outdir))
        code, _, _ = run(capsys, "plot", "--mu", "1", "--k", "1",
                         "--out", "r.svg", "--nx", "4", "--nlambda", "4")
        assert code == 0
        assert (outdir / "r.svg").exists()

    def test_unwritable_target_is_exit_4(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTDIR_ENV, raising=False)
        target = tmp_path / "missing" / "deep" / "x.svg"
        code, _, err = run(capsys, "plot", "--mu", "1", "--k", "1",
                           "--out", str(target), "--nx", "4", "--nlambda", "4")
        assert code == 4
        assert err.startswith("error:")

    # Edge values for every plot argument.  A run that would sample is capped
    # at about 10^4 nodes; mu = 2 stops at k = 3, P(2, 3), to stay fast.
    @settings(max_examples=100)
    @given(mu=st.sampled_from((0, 1, 2)), k=st.sampled_from((0, 1, 2, 3)),
           nx=st.sampled_from((0, 1, 2, 4096, 4097)),
           nlambda=st.sampled_from((0, 1, 2, 4096, 4097)),
           window=st.sampled_from((None, "-1,3,-1,3", "-1/2,1/3,0,7/4", "1,1,0,1",
                                   "0,1,2,-2", "0,1/0,0,1", "0.5,1,0,1", "0,1,0", "")),
           missing_dir=st.booleans())
    @example(mu=1, k=2, nx=4096, nlambda=2, window=None, missing_dir=False)
    @example(mu=2, k=3, nx=2, nlambda=4096, window="-1/2,1/3,0,7/4", missing_dir=False)
    @example(mu=1, k=0, nx=2, nlambda=2, window="-1,3,-1,3", missing_dir=True)
    @example(mu=2, k=2, nx=4096, nlambda=2, window=None, missing_dir=False)
    @example(mu=0, k=3, nx=2, nlambda=2, window=None, missing_dir=True)
    def test_exit_code_contract(self, mu, k, nx, nlambda, window, missing_dir):
        assume(min(nx, nlambda) < 2 or max(nx, nlambda) > 4096
               or (nx + 1) * (nlambda + 1) <= 13_000)
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "missing", "p.svg") if missing_dir \
                else os.path.join(tmp, "p.svg")
            argv = ["plot", "--mu", str(mu), "--k", str(k), "--out", target,
                    "--nx", str(nx), "--nlambda", str(nlambda)]
            if window is not None:
                argv += ["--window", window]
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 4)
            # a nonzero exit leaves no file at --out; a zero one wrote it
            assert os.path.exists(target) == (code == 0)


class TestGenus:
    def test_positive_genus_row(self, capsys):
        code, out, err = run(capsys, "genus", "--k", "3")
        assert code == 0
        assert out.strip() == "delta=7 genus=0"
        assert err == ""

    def test_negative_genus_reported_verbatim(self, capsys):
        code, out, err = run(capsys, "genus", "--k", "2")
        assert code == 0
        assert out.strip() == "delta=4 genus=-2"
        assert "negative" in err


# Argv for every subcommand but plot, which has its own property.  k stays in
# -1..4 and mu in -1..2, where every census takes milliseconds.
_FLAG_VALUES = {
    "--mu": tuple(map(str, range(-1, 3))),
    "--k": tuple(map(str, range(-1, 5))),
    "--k-max": tuple(map(str, range(-1, 5))),
    "--lambda": ("0", "1", "-1", "1/2", "0.5", "1/0", ""),
    "--lambda-grid": ("0", "1", "0,1", "1,0,1", "-1,0,1/2"),
    "--format": ("json", "text"),
}
# subcommand -> (flags it requires, flags it may take)
_FAMILY = {
    "compute": (("--mu", "--k"), ("--format",)),
    "verify": ((), ("--k", "--k-max", "--mu", "--lambda")),
    "roots": (("--mu", "--k", "--lambda"), ()),
    "scan": (("--mu", "--k"), ("--lambda-grid",)),
    "genus": (("--k",), ()),
}
_OUTSIDE = (("--nx", "4"), ("--format", "text"), ("--lambda", "1/2"), ("--bogus",))


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(_FAMILY)))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(
            ("symmetry", "support", "faces", "lemma1", "torsion", "singular"))))
    required, optional = _FAMILY[command]
    for flag in required + optional:
        # a required flag is left out one time in six, an optional one is
        # given one time in three
        if draw(st.integers(0, 5)) < (5 if flag in required else 2):
            argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    if not draw(st.integers(0, 5)):
        argv += draw(st.sampled_from(_OUTSIDE))
    return argv


class TestTopLevel:
    @settings(max_examples=200)
    @given(cli_argvs())
    @example(["verify", "faces", "--k", "2", "--k-max", "3"])
    @example(["verify", "faces", "--k", "-1"])
    @example(["verify", "torsion", "--lambda", "1/0"])
    @example(["verify", "lemma1", "--mu", "2", "--k", "4", "--lambda", "1/2"])
    @example(["roots", "--mu", "1", "--k", "2", "--lambda", "0.5"])
    @example(["scan", "--mu", "2", "--k", "4", "--lambda-grid", "1,0,1"])
    @example(["compute", "--mu", "-1", "--k", "4", "--format", "text"])
    @example(["genus", "--k", "0", "--bogus"])
    def test_exit_code_contract(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4)
        # a usage error or a violated precondition prints no result
        if code in (2, 3):
            assert out.getvalue() == ""

    def test_no_subcommand_is_exit_2(self, capsys):
        code, _, err = run(capsys)
        assert code == 2
        assert "usage" in err

    def test_internal_fault_is_exit_5(self, capsys, monkeypatch):
        def fault(k, lambda0):
            raise RuntimeError("simulated internal fault")

        monkeypatch.setattr("inflectionary.cli.torsion_check", fault)
        code, out, err = run(capsys, "verify", "torsion")
        assert code == 5
        assert out == ""
        assert "Traceback" in err
        assert "RuntimeError: simulated internal fault" in err

    @pytest.mark.parametrize("argv", [
        ("compute", "--mu", "0", "--k", "3"),
        ("compute", "--mu", "2", "--k", "2"),
        ("roots", "--mu", "1", "--k", "3", "--lambda", "0"),
        ("verify", "symmetry", "--k", "0"),
        ("verify", "faces", "--k", "1"),
        ("verify", "torsion", "--k", "1"),
        ("verify", "torsion", "--k", "2", "--lambda", "1"),
        ("verify", "lemma1", "--mu", "2", "--k", "2"),
        ("genus", "--k", "0"),
        ("scan", "--mu", "1", "--k", "2", "--lambda-grid", "0,1"),
        # the Wronskian route's own preconditions: mu >= 1, and k >= 1 at mu = 1
        ("verify", "lemma1", "--mu", "1", "--k", "0"),
        ("verify", "lemma1", "--mu", "0", "--k", "3"),
    ])
    def test_precondition_is_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_internal_value_error_is_exit_5(self, capsys, monkeypatch):
        # the remainder sequence under every resultant of the singular probe
        def inexact(a, b):
            raise ValueError("not an exact polynomial division")

        monkeypatch.setattr("inflectionary.matrices._subresultant", inexact)
        code, out, err = run(capsys, "verify", "singular", "--k", "2")
        assert code == 5
        assert out == ""
        assert "Traceback" in err
        assert "ValueError: not an exact polynomial division" in err

    def test_coefficient_check_is_an_unknown_flag(self, capsys):
        # the recurrence coefficient's calibration is acceptance criterion 02
        code, out, err = run(capsys, "--coefficient-check")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --coefficient-check" in err

    def test_emitted_json_is_parseable_everywhere(self, capsys):
        commands = (
            ("verify", "symmetry", "--k", "1"),
            ("verify", "support", "--k", "1"),
            ("verify", "faces", "--k", "2"),
            ("verify", "torsion"),
            ("scan", "--mu", "1", "--k", "3", "--lambda-grid", "2"),
        )
        for argv in commands:
            _, out, _ = run(capsys, *argv)
            assert json_lines(out)

    def test_the_parser_is_built_once_per_process(self, capsys, monkeypatch):
        builds = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            builds.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(capsys, "genus", "--k", "3")[0] == 0
        first = len(builds)
        assert builds[0] == "inflectionary" and first > 1  # the parser and its subparsers
        assert run(capsys, "genus", "--k", "4")[0] == 0
        assert len(builds) == first

    def test_errors_leave_the_parser_as_a_fresh_process_has_it(self, capsys):
        # scan reads a list default, which a shared parser must not let drift
        valid = ("scan", "--mu", "1", "--k", "3")
        fresh = subprocess.run([sys.executable, "-m", "inflectionary.cli", *valid],
                               capture_output=True, env={**os.environ, "PYTHONPATH": SRC},
                               timeout=60)
        assert fresh.returncode == 0 and fresh.stdout
        for argv, code in ((("scan", "--mu", "1", "--k", "3", "--lambda-grid", "0.5"), 2),
                           (("verify", "symmetry", "--lambda", "1/2"), 2),
                           (("scan", "--mu", "1", "--k", "2", "--lambda-grid", "0,1"), 3),
                           (("verify", "symmetry", "--k", "0"), 3)):
            assert run(capsys, *argv)[0] == code, argv
        code, out, _ = run(capsys, *valid)
        assert code == 0
        assert out.encode() == fresh.stdout

    def test_installed_script(self):
        exe = shutil.which("inflectionary")
        base = [exe] if exe else [sys.executable, "-m", "inflectionary.cli"]
        result = subprocess.run([*base, "genus", "--k", "3"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == "delta=7 genus=0"

    def test_a_launch_loads_no_dataclasses_inspect_or_traceback(self):
        # every command is a fresh interpreter; only the modules the import
        # adds count, not those site loaded before it
        probe = ("import sys\n"
                 "before = set(sys.modules)\n"
                 "import inflectionary.cli\n"
                 "print(*sorted(set(sys.modules) - before))\n")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        assert "inflectionary.cli" in loaded
        assert loaded & {"dataclasses", "inspect", "traceback"} == set()
        # render and its hashlib load inside the plot command only
        assert loaded & {"inflectionary.render", "hashlib"} == set()
