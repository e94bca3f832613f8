import numpy as np
import pytest

from bqrelax.bench import (
    ProfileCurve,
    RunRecord,
    bound_order_report,
    emit_csv,
    performance_profile,
    render_csv,
    run_suite,
)
from bqrelax.solver import SolverSettings


def rec(inst, method, bound=0.0, iters=1, time_=1.0, status="Optimal"):
    """A record; a solve that did not certify carries bound NaN."""
    return RunRecord(instance_id=inst, method=method, status=status,
                     bound=bound, iters=iters, wall_time=time_, seed=0)


# ------------------------------------------------------------ profiles

def test_profile_single_problem():
    records = [rec("p1", "A", iters=1), rec("p1", "B", iters=2)]
    curves = {c.method: c for c in performance_profile(records, metric="iters")}
    assert curves["A"].rho_at(1.0) == 1.0
    assert curves["B"].rho_at(1.0) == 0.0
    assert curves["B"].rho_at(2.0) == 1.0


def test_profile_two_problems_hand_computed():
    # costs A: (1, 4), B: (2, 2); per-problem minima (1, 2);
    # ratio table: r_A = (1, 2), r_B = (2, 1) -- hand evaluation of the
    # standard definition rho_s(tau) = |{p: r_{p,s} <= tau}| / |P|
    records = [rec("p1", "A", iters=1), rec("p1", "B", iters=2),
               rec("p2", "A", iters=4), rec("p2", "B", iters=2)]
    curves = {c.method: c for c in performance_profile(records, metric="iters")}
    assert curves["A"].rho_at(1.0) == 0.5
    assert curves["B"].rho_at(1.0) == 0.5
    assert curves["A"].rho_at(2.0) == 1.0
    assert curves["B"].rho_at(2.0) == 1.0
    assert curves["A"].rho_at(4.0) == 1.0


def test_profile_best_everywhere_constant_one():
    records = [rec("p1", "A", iters=1), rec("p1", "B", iters=3),
               rec("p2", "A", iters=2), rec("p2", "B", iters=9)]
    curves = {c.method: c for c in performance_profile(records, metric="iters")}
    assert all(rho == 1.0 for _, rho in curves["A"].points)


def test_profile_monotone_bounded():
    rng = np.random.default_rng(0)
    records = []
    for p in range(6):
        for m in ("A", "B", "C"):
            records.append(rec(f"p{p}", m, time_=float(rng.uniform(0.1, 5.0))))
    for curve in performance_profile(records, metric="time"):
        rhos = [rho for _, rho in curve.points]
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))
        assert rhos[-1] <= 1.0


def test_profile_relabeling_invariance():
    recs = [rec("p1", "A", iters=1), rec("p1", "B", iters=2),
            rec("p2", "A", iters=5), rec("p2", "B", iters=3)]
    relabeled = [rec({"p1": "zz", "p2": "aa"}[r.instance_id], r.method, iters=r.iters)
                 for r in recs]
    a = {c.method: c.points for c in performance_profile(recs, metric="iters")}
    b = {c.method: c.points for c in performance_profile(relabeled, metric="iters")}
    assert a == b


def test_profile_common_rescaling_invariance():
    # scaling all costs of one problem by a positive factor leaves ratios alone
    recs = [rec("p1", "A", time_=1.0), rec("p1", "B", time_=2.0),
            rec("p2", "A", time_=5.0), rec("p2", "B", time_=3.0)]
    scaled = [rec(r.instance_id, r.method,
                  time_=r.wall_time * (7.0 if r.instance_id == "p1" else 1.0))
              for r in recs]
    a = {c.method: c.points for c in performance_profile(recs, metric="time")}
    b = {c.method: c.points for c in performance_profile(scaled, metric="time")}
    assert a == b


def test_profile_bound_metric_transform():
    # best bound costs exactly eps; gaps are absolute; failures cost +inf
    records = [rec("p1", "A", bound=10.0), rec("p1", "B", bound=9.0),
               rec("p2", "A", bound=0.0), rec("p2", "B", bound=np.nan, status="IterationLimit")]
    curves = {c.method: c for c in performance_profile(records, metric="bound")}
    assert curves["A"].rho_at(1.0) == 1.0          # A best on both
    assert curves["B"].points[-1][1] == 0.5        # B failed p2: curve capped below 1
    # B's p1 ratio is (gap + eps)/eps = 1 + 1/(1e-9 * 10)
    expected = 1.0 + 1.0 / (1e-9 * 10.0)
    assert curves["B"].rho_at(expected * 1.01) == 0.5


def test_profile_tied_ratios_match_the_recount():
    # ties within and across methods, a failure (+inf) and a ratio of
    # exactly 1 everywhere: each breakpoint's share is the plain recount
    costs = {"p1": (1, 2, 2), "p2": (3, 3, 6), "p3": (2, 4, 4), "p4": (1, 1, 1),
             "p5": (2, 4, None)}
    records = [rec(p, m, iters=c, bound=0.0 if c else np.nan,
                   status="Optimal" if c else "NumericalTrouble")
               for p, row in costs.items() for m, c in zip("ABC", row)]
    curves = performance_profile(records, metric="iters")
    for curve in curves:
        ratios = []
        for row in costs.values():
            c = row["ABC".index(curve.method)]
            ratios.append(c / min(x for x in row if x) if c else np.inf)
        finite = sorted(r for r in ratios if np.isfinite(r))
        want = [(tau, sum(1 for r in finite if r <= tau) / len(costs))
                for tau in sorted(set([1.0] + finite))]
        assert curve.points == want
    assert {c.method: c.points[-1][1] for c in curves} == {"A": 1.0, "B": 1.0, "C": 0.8}


def test_profile_missing_pair_rejected():
    records = [rec("p1", "A", iters=1), rec("p1", "B", iters=2), rec("p2", "A", iters=1)]
    with pytest.raises(ValueError, match="missing"):
        performance_profile(records, metric="iters")


def test_profile_unknown_metric():
    with pytest.raises(ValueError):
        performance_profile([rec("p1", "A", iters=1)], metric="nope")


# ------------------------------------------------------------ suites

def test_run_suite_shapes_and_determinism():
    settings = SolverSettings(tol_feas=1e-6, tol_gap=1e-6, max_iters=100)
    a = run_suite("RdnBQP", 3, 6, 2, ["sdr1", "sdr2"], base_seed=10, settings=settings)
    b = run_suite("RdnBQP", 3, 6, 2, ["sdr1", "sdr2"], base_seed=10, settings=settings)
    assert len(a) == 6
    assert [r.instance_id for r in a] == [r.instance_id for r in b]
    assert [r.status for r in a] == [r.status for r in b]
    np.testing.assert_array_equal([r.bound for r in a], [r.bound for r in b])
    assert all(r.wall_time >= 0 for r in a)


def test_run_suite_keeps_a_bound_when_the_solve_certifies():
    # the status does not decide: a stall (the RdiBQP s35 dnnp solve leaves
    # the PSD cone) whose best iterate certifies at 1e-6 keeps its bound, and
    # an iteration-limit stop whose iterate does not certify gets NaN
    (stall,) = run_suite("RdiBQP", 1, 12, 5, ["dnnp"], base_seed=34)
    assert stall.status == "NumericalTrouble" and np.isfinite(stall.bound)
    (cut,) = run_suite("RdiBQP", 1, 12, 5, ["dnnp"], base_seed=34,
                       settings=SolverSettings(max_iters=2))
    assert cut.status == "IterationLimit" and np.isnan(cut.bound)


def test_run_suite_validates_methods():
    with pytest.raises(ValueError, match="unknown methods"):
        run_suite("RdnBQP", 1, 4, 1, ["nope"])
    with pytest.raises(ValueError):
        run_suite("RdnBQP", 0, 4, 1, ["sdr1"])


# ------------------------------------------------------------ csv

def test_emit_csv_curves(tmp_path):
    curves = [ProfileCurve(method="A", points=[(1.0, 0.5), (2.0, 1.0)])]
    path = tmp_path / "c.csv"
    emit_csv(curves, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,tau,rho"
    assert lines[1] == "A,1.0,0.5"


def test_emit_csv_empty_curves_header_only(tmp_path):
    path = tmp_path / "e.csv"
    emit_csv([], path)
    assert path.read_text() == ("instance_id,method,status,bound,iters,wall_time,seed\n")


def test_emit_csv_records_schema():
    text = render_csv([rec("p1", "A", bound=1.5, iters=3, time_=0.25)])
    lines = text.splitlines()
    assert lines[0] == "instance_id,method,status,bound,iters,wall_time,seed"
    assert lines[1] == "p1,A,Optimal,1.5,3,0.25,0"


def test_emit_csv_deterministic(tmp_path):
    curves = [ProfileCurve(method="A", points=[(1.0, 1.0)])]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(curves, p1)
    emit_csv(curves, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_gnuplot_spaces():
    text = render_csv([ProfileCurve(method="A", points=[(1.0, 1.0)])], gnuplot=True)
    assert text.splitlines()[1] == "A 1.0 1.0"


# ------------------------------------------------------------ ordering report

def test_bound_order_report_clean():
    records = [rec("p1", "sdr1", bound=-28.0), rec("p1", "sdr2", bound=-28.0),
               rec("p1", "dnnp", bound=-28.0)]
    rep = bound_order_report(records, tol=1e-5)
    assert rep.ok and rep.total == 1


def test_bound_order_report_flags_violations():
    records = [rec("p1", "sdr1", bound=5.0), rec("p1", "sdr2", bound=4.0),
               rec("p1", "dnnp", bound=4.1)]
    rep = bound_order_report(records, tol=1e-5)
    assert len(rep.order_violations) == 1      # sdr1 above sdr2
    assert len(rep.equality_violations) == 1   # sdr2 != dnnp


def test_bound_order_report_ignores_bounds_of_unsolved_records():
    # a solve that does not certify is recorded with bound NaN, whatever its
    # primal objective: it is no bound, so it cannot violate the order
    records = [rec("p1", "sdr1", bound=np.nan, status="NumericalTrouble"),
               rec("p1", "sdr2", bound=4.0), rec("p1", "dnnp", bound=4.0)]
    rep = bound_order_report(records, tol=1e-5)
    assert rep.ok and rep.order_violations == []


def test_bound_order_report_missing_method():
    with pytest.raises(ValueError, match="missing"):
        bound_order_report([rec("p1", "sdr1", bound=0.0)])
