"""Command-line contract: exit codes, JSON output and file side effects."""

import json
import shutil
import subprocess
import sys

import pytest

from inflectionary.cli import OUTDIR_ENV, main
from inflectionary.inflection import basic_inflection
from inflectionary.poly import poly_from_json, poly_to_json
from inflectionary.reports import FAIL, UNRESOLVED, CheckReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestCompute:
    def test_json_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "compute", "--mu", "1", "--k", "1")
        assert code == 0
        assert out.strip() == poly_to_json(basic_inflection(1).poly)
        assert poly_from_json(out.strip()) == basic_inflection(1).poly

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "compute", "--mu", "1", "--k", "2",
                           "--format", "text")
        assert code == 0
        assert out.strip() == basic_inflection(2).poly.to_text()

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

    @pytest.mark.parametrize("family", ["symmetry", "support", "faces"])
    def test_k_with_k_max_is_exit_2(self, capsys, family):
        code, out, err = run(capsys, "verify", family, "--k", "2", "--k-max", "5")
        assert code == 2
        assert out == ""
        assert "--k-max" in err

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

    def test_empty_window_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "plot", "--mu", "1", "--k", "1",
                           "--out", str(tmp_path / "x.svg"),
                           "--window", "0,0,0,1")
        assert code == 2
        assert err.startswith("usage error:")

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


class TestTopLevel:
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

    def test_coefficient_check(self, capsys):
        code, out, _ = run(capsys, "--coefficient-check")
        assert code == 0
        calibration = json.loads(out)
        assert calibration["selected"] == "-(k+1/2)"
        assert calibration["results"][calibration["selected"]] is True

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

    def test_installed_script(self):
        exe = shutil.which("inflectionary")
        base = [exe] if exe else [sys.executable, "-m", "inflectionary.cli"]
        result = subprocess.run([*base, "genus", "--k", "3"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == "delta=7 genus=0"
