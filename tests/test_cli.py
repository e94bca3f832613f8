import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bqrelax
from bqrelax import bench, equivalence
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
    assert set(stats) == {"kkt_factorizations", "kkt_solves", "refinements", "min_step"}
    assert stats["kkt_factorizations"] == rep["iters"] - 1
    assert stats["kkt_solves"] == 3 * stats["kkt_factorizations"] + stats["refinements"]
    assert 0 < stats["min_step"] <= 1
    # a presolve short-circuit takes no step: zero counts and a null min_step
    _, stdout, _ = run(capsys, "solve", TIGHT, "--relax", "sdr")
    assert json.loads(stdout)["stats"] == {"kkt_factorizations": 0, "kkt_solves": 0,
                                           "refinements": 0, "min_step": None}


def test_solve_report_has_stop_reason(tmp_path, capsys):
    for relax_name, reason in (("sdr1", "optimal"), ("sdr", "presolve_unbounded")):
        _, stdout, _ = run(capsys, "solve", TIGHT, "--relax", relax_name)
        assert json.loads(stdout)["stop_reason"] == reason
    # a stall of the bqp-desk benchmark: the iterate leaves the PSD cone
    inst = tmp_path / "rdi.json"
    run(capsys, "gen", "--kind", "rdibqp", "--n", "12", "--m", "5", "--seed", "35",
        "--out", str(inst))
    code, stdout, _ = run(capsys, "solve", str(inst), "--relax", "dnnp")
    assert code == 5
    rep = json.loads(stdout)
    assert rep["stop_reason"] == "left_cone"
    # its best iterate is a point: certify checks it (it passes at 1e-6),
    # and the report gives its residuals; the exit code still follows the status
    assert rep["certified"] is True
    assert set(rep["residuals"]) == {"primal", "dual", "gap"}
    assert "certificate" not in rep


def test_solve_badly_scaled_instance_ends_in_breakdown(tmp_path, capsys):
    # Q and c at 1e130: the loop meets non-finite values, which end the
    # solve as a numerical stop (exit 5) instead of escaping as an exception
    inst = bqrelax.generate_instance("RdBQP", 6, 2, seed=3)
    path = tmp_path / "scaled.json"
    bqrelax.save_instance(dataclasses.replace(inst, Q=inst.Q * 1e130, c=inst.c * 1e130), path)
    with np.errstate(all="ignore"):
        code, stdout, _ = run(capsys, "solve", str(path), "--relax", "sdr1")
    rep = json.loads(stdout)
    assert (code, rep["status"], rep["stop_reason"]) == (5, "NumericalTrouble", "breakdown")
    assert rep["certified"] is False


def test_solve_report_states_its_verdict(capsys):
    code, stdout, _ = run(capsys, "solve", TIGHT, "--relax", "sdr1")
    rep = json.loads(stdout)
    assert (code, rep["status"], rep["certified"]) == (0, "Optimal", True)
    assert set(rep["residuals"]) == {"primal", "dual", "gap"}
    assert max(rep["residuals"].values()) <= 1e-8
    assert "certificate" not in rep
    # the iteration limit keeps its exit code and reports an uncertified iterate
    code, stdout, _ = run(capsys, "solve", TIGHT, "--relax", "sdr1", "--max-iters", "2")
    rep = json.loads(stdout)
    assert (code, rep["status"], rep["certified"]) == (5, "IterationLimit", False)
    assert max(rep["residuals"].values()) > 1e-8
    # a ray status: the verdict is the certificate's
    code, stdout, _ = run(capsys, "solve", TIGHT, "--relax", "sdr")
    rep = json.loads(stdout)
    assert (code, rep["status"], rep["certified"]) == (3, "Unbounded", True)
    assert rep["certificate"] == {"kind": "primal", "verified": True}
    assert "residuals" not in rep


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


def test_compare_keeps_only_certified_bounds(capsys):
    # two iterations certify nothing: every bound is nan, whatever the
    # primal objective, and so cannot break the ordering checks
    code, stdout, _ = run(capsys, "compare", TIGHT, "--relax", "sdr1,sdr2,dnnp",
                          "--max-iters", "2")
    rows = [ln.split() for ln in stdout.splitlines() if ln.startswith(("sdr1", "sdr2", "dnnp"))]
    assert [(r[1], r[2]) for r in rows] == [("IterationLimit", "nan")] * 3
    assert code == 5 and "bound ordering checks: ok" in stdout


def test_compare_exit_code_follows_the_solve_rule(capsys):
    # each solve's code as `solve` gives it (0 Optimal, 3 a ray, 5 any other
    # status); compare exits with the largest
    for methods, max_iters, want in (("sdr1", "200", 0), ("sdr", "200", 3),
                                     ("sdr1,sdr", "200", 3), ("sdr1", "2", 5),
                                     ("sdr,sdr1", "2", 5)):
        code, _, _ = run(capsys, "compare", TIGHT, "--relax", methods, "--max-iters", max_iters)
        assert code == want, (methods, max_iters)


def test_compare_prints_each_violation(capsys, monkeypatch):
    monkeypatch.setattr(bench, "bound_order_report", lambda records, tol: bench.BoundOrderReport(
        total=1, order_violations=[("i", 0.5)], equality_violations=[("i", 0.25)]))
    code, stdout, _ = run(capsys, "compare", TIGHT)
    lines = stdout.splitlines()
    assert "order violation: bound(sdr1) exceeds bound(sdr2) by 5.000e-01" in lines
    assert "equality violation: |bound(sdr2) - bound(dnnp)| = 2.500e-01" in lines
    # the exit code follows the solves, which are Optimal
    assert code == 0 and "bound ordering checks: ok" not in stdout


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


def test_verify_fail_exit_1(capsys, monkeypatch):
    # cmd_verify looks the check up at call time, so a fail verdict reaches it
    real = equivalence.verify_theorem3
    monkeypatch.setattr(equivalence, "verify_theorem3",
                        lambda inst, tol: dataclasses.replace(real(inst, tol), verdict="fail"))
    code, stdout, _ = run(capsys, "verify", "--mode", "thm3", TIGHT)
    assert code == 1
    assert json.loads(stdout)["verdict"] == "fail"


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


@pytest.mark.parametrize("flag", ["--out", "--records-out"])
def test_profile_unwritable_output_exit_4(tmp_path, capsys, flag):
    outs = {"--out": str(tmp_path / "prof.csv"), flag: str(tmp_path / "missing" / "x.csv")}
    code, _, err = run(capsys, "profile", "--suite", "rdbqp", "--count", "1", "--n", "4",
                       "--m", "1", *(a for kv in outs.items() for a in kv))
    assert code == 4
    assert err.startswith("error: cannot write output")


def test_broken_pipe_exit_4(capsys, monkeypatch):
    # a reader that closes stdout early (bqrelax ... | head) ends the command with EXIT_IO
    def closed(args):
        raise BrokenPipeError
    monkeypatch.setattr(bqrelax.cli, "cmd_oracle", closed)
    code, _, _ = run(capsys, "oracle", TIGHT)
    assert code == 4


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


def nonfinite_files(tmp_path):
    """One instance file per non-finite entry of Q, c, A and b, and a graph
    file with a NaN and one with an infinite weight."""
    base = json.loads(Path(TIGHT).read_text())
    files = []
    for key, bad in [("Q", float("nan")), ("c", float("nan")), ("A", float("inf")),
                     ("b", float("-inf"))]:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({**base, key: [bad] + base[key][1:]}))
        files.append(("instance", path))
    for w in ("nan", "inf"):
        path = tmp_path / f"{w}.graph"
        path.write_text(f"3\n1 2 1.0\n2 3 {w}\n")
        files.append(("graph", path))
    return files


@pytest.mark.parametrize("command", [
    ["solve", "--relax", "sdr1"], ["compare"], ["verify", "--mode", "thm3"], ["oracle"],
    ["maxcut", "--relax", "sdr"], ["verify", "--mode", "thm4"],
], ids=["solve", "compare", "thm3", "oracle", "maxcut", "thm4"])
def test_nonfinite_input_is_usage_error(tmp_path, capsys, command):
    kind = "graph" if command[0] == "maxcut" or "thm4" in command else "instance"
    for what, path in nonfinite_files(tmp_path):
        if what == kind:
            code, stdout, err = run(capsys, *command, str(path))
            assert (code, stdout) == (2, "")
            assert err.startswith(f"error: cannot read {kind}") and "finite" in err


MALFORMED_INSTANCES = {
    "list": "[1, 2]",
    "n-null": json.dumps({**json.loads(Path(TIGHT).read_text()), "n": None}),
}


@pytest.mark.parametrize("command", [
    ["solve", "--relax", "sdr1"], ["compare"], ["verify", "--mode", "thm3"], ["oracle"],
], ids=["solve", "compare", "thm3", "oracle"])
@pytest.mark.parametrize("name", sorted(MALFORMED_INSTANCES))
def test_malformed_instance_is_usage_error(tmp_path, capsys, command, name):
    # the loader rejects these with a ValueError that names the field
    path = tmp_path / f"{name}.json"
    path.write_text(MALFORMED_INSTANCES[name])
    code, stdout, err = run(capsys, *command, str(path))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot read instance {path}")


def test_gen_unwritable_path_exit_4(capsys):
    code, _, err = run(capsys, "gen", "--kind", "rdbqp", "--n", "4", "--m", "1",
                       "--seed", "1", "--out", "/nonexistent-dir/x.json")
    assert code == 4
