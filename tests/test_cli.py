import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bqrelax
from bqrelax.cli import main
from bqrelax.fixtures import fixture_path


TIGHT = fixture_path("bqp_n2_tight.json")
GAP = fixture_path("bqp_n5_gap.json")
TRIANGLE = fixture_path("triangle.graph")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, stdout, _ = run(capsys, "gen", "--kind", "rdbqp", "--n", "12", "--m", "5",
                          "--seed", "1", "--out", str(out))
    assert code == 0
    assert out.exists()
    code, stdout, _ = run(capsys, "solve", str(out), "--relax", "sdr1")
    assert code == 0
    assert json.loads(stdout)["status"] == "Optimal"


def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "--kind", "rdnbqp", "--n", "6", "--m", "2", "--seed", "3", "--out", str(a))
    run(capsys, "gen", "--kind", "rdnbqp", "--n", "6", "--m", "2", "--seed", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_bad_size_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--kind", "rdbqp", "--n", "0", "--m", "0",
                       "--seed", "1", "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_solve_tight_sdr1(capsys):
    code, stdout, _ = run(capsys, "solve", TIGHT, "--relax", "sdr1")
    assert code == 0
    rep = json.loads(stdout)
    assert rep["status"] == "Optimal"
    assert rep["bound"] == pytest.approx(-28.0, abs=1e-5)


def test_solve_report_has_solve_counts(capsys):
    _, stdout, _ = run(capsys, "solve", TIGHT, "--relax", "sdr1")
    rep = json.loads(stdout)
    stats = rep["stats"]
    assert set(stats) == {"kkt_factorizations", "kkt_solves", "psd_step_solves"}
    assert stats["kkt_factorizations"] == rep["iters"] - 1
    _, stdout, _ = run(capsys, "solve", TIGHT, "--relax", "sdr")
    assert set(json.loads(stdout)["stats"].values()) == {0}


def test_solve_report_has_stop_reason(capsys):
    for relax_name, reason in (("sdr1", "optimal"), ("sdr", "presolve_unbounded")):
        _, stdout, _ = run(capsys, "solve", TIGHT, "--relax", relax_name)
        assert json.loads(stdout)["stop_reason"] == reason


def test_solve_tight_sdr_unbounded_exit_3(capsys):
    code, stdout, _ = run(capsys, "solve", TIGHT, "--relax", "sdr")
    assert code == 3
    rep = json.loads(stdout)
    assert rep["status"] == "Unbounded"
    assert rep["certificate"]["verified"] is True


def test_solve_gap_instance(capsys):
    code, stdout, _ = run(capsys, "solve", GAP, "--relax", "sdr1")
    assert code == 0
    rep = json.loads(stdout)
    # exact unique-point optimum of this instance (rational-arithmetic oracle
    # in test_solver); the value printed in the source write-up, -307.548,
    # is not attainable by any solver
    assert rep["bound"] == pytest.approx(-302.5826415936926, abs=1e-3)


def test_solve_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", str(bad), "--relax", "sdr1")
    assert code == 2


@pytest.mark.parametrize("command, data", [("solve", TIGHT), ("maxcut", TRIANGLE)],
                         ids=["solve", "maxcut"])
def test_solve_unknown_relax_exit_2(capsys, command, data):
    code, _, err = run(capsys, command, data, "--relax", "huh")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", TIGHT, "--relax", "sdr1", "--frobnicate"])
    assert exc.value.code == 2


def test_compare_table(capsys):
    code, stdout, _ = run(capsys, "compare", TIGHT, "--relax", "sdr1,sdr2,dnnp")
    assert code == 0
    assert "sdr1" in stdout and "sdr2" in stdout and "dnnp" in stdout
    assert "bound ordering checks: ok" in stdout
    bounds = [float(ln.split()[2]) for ln in stdout.splitlines()
              if ln.startswith(("sdr1", "sdr2", "dnnp"))]
    np.testing.assert_allclose(bounds, -28.0, atol=1e-5)


def test_compare_unknown_tag_exit_2(capsys):
    code, _, _ = run(capsys, "compare", TIGHT, "--relax", "sdr1,bogus")
    assert code == 2


def test_verify_thm3_pass(capsys):
    code, stdout, _ = run(capsys, "verify", "--mode", "thm3", TIGHT)
    assert code == 0
    assert json.loads(stdout)["verdict"] == "pass"


def test_verify_thm4_triangle(capsys):
    code, stdout, _ = run(capsys, "verify", "--mode", "thm4", TRIANGLE)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["verdict"] == "pass"
    assert rep["opt_a"] == pytest.approx(2.25, abs=1e-5)


def test_verify_not_applicable_exit_6(tmp_path, capsys):
    # relaxation-infeasible instance: both solves certify Infeasible
    obj = {"name": "na", "n": 2, "m": 1, "Q": [0.0, 0.0, 0.0, 0.0],
           "c": [0.0, 0.0], "A": [1.0, 1.0], "b": [3.0]}
    path = tmp_path / "na.json"
    path.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", "--mode", "thm3", str(path))
    assert code == 6
    assert json.loads(stdout)["verdict"] == "not_applicable"


def test_oracle(capsys):
    code, stdout, _ = run(capsys, "oracle", TIGHT)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["opt"] == pytest.approx(-28.0)
    assert rep["argmin"] == [-1.0, -1.0]


def test_maxcut_sdr(capsys):
    code, stdout, _ = run(capsys, "maxcut", TRIANGLE, "--relax", "sdr")
    assert code == 0
    assert json.loads(stdout)["bound"] == pytest.approx(2.25, abs=1e-5)


def test_maxcut_dnnp(capsys):
    code, stdout, _ = run(capsys, "maxcut", TRIANGLE, "--relax", "dnnp")
    assert code == 0
    assert json.loads(stdout)["bound"] == pytest.approx(2.25, abs=1e-5)


def test_profile_writes_monotone_csv(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    code, stdout, _ = run(capsys, "profile", "--suite", "rdbqp", "--count", "4",
                          "--n", "6", "--m", "2", "--metric", "bound",
                          "--out", str(out), "--tol", "1e-7")
    assert code == 0
    assert "area-under-curve" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "method,tau,rho"
    by_method = {}
    for ln in lines[1:]:
        meth, tau, rho = ln.split(",")
        by_method.setdefault(meth, []).append((float(tau), float(rho)))
    for pts in by_method.values():
        rhos = [r for _, r in pts]
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] <= 1.0


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BQRELAX_TOL", "1e-6")
    code, stdout, _ = run(capsys, "solve", TIGHT, "--relax", "sdr1")
    assert code == 0
    assert json.loads(stdout)["bound"] == pytest.approx(-28.0, abs=1e-3)


MAXCUT_SDR = ["maxcut", TRIANGLE, "--relax", "sdr"]
VERIFY_THM4 = ["verify", "--mode", "thm4", TRIANGLE]


@pytest.mark.parametrize("flags, env", [
    (MAXCUT_SDR + ["--max-iters", "0"], {}),
    (MAXCUT_SDR + ["--tol", "-1"], {}),
    (MAXCUT_SDR + ["--tol", "nan"], {}),
    (MAXCUT_SDR, {"BQRELAX_TOL": "abc"}),
    (VERIFY_THM4 + ["--tol", "-1"], {}),
    (VERIFY_THM4 + ["--tol", "nan"], {}),
])
def test_bad_solver_settings_exit_2(flags, env):
    # as a process, so that an escaping exception shows as a traceback
    src = str(Path(bqrelax.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "bqrelax", *flags]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_gen_unwritable_path_exit_4(capsys):
    code, _, err = run(capsys, "gen", "--kind", "rdbqp", "--n", "4", "--m", "1",
                       "--seed", "1", "--out", "/nonexistent-dir/x.json")
    assert code == 4
