"""Acceptance suite: the nine top-level criteria, one test each, printing one
PASS/FAIL line per criterion (run with ``pytest tests/test_acceptance.py -s``
to see the lines live).

Criterion 2's headline value (-307.548 for the 5-variable instance) is
asserted faithfully and expected to fail: the feasible set of that lifted
relaxation is a single point whose objective is exactly
-60168139164914/198848614871 = -302.5826415936926 (rational-arithmetic
oracle in test_solver.py), so the published value cannot be produced by a
correct solver; see the strict xfail below.
"""

import time

import numpy as np
import pytest

from bqrelax import bench, model
from bqrelax.equivalence import (
    PointXX,
    dnnp_objective,
    dnnp_to_sdr2_point,
    bqp_relaxation_objective,
    mc_dnnp_objective,
    mc_dnnp_to_sdr_point,
    mc_sdr_objective,
    mc_sdr_to_dnnp_point,
    rank_one_certificate,
    sdr2_to_dnnp_point,
    verify_theorem3,
    verify_theorem4,
)
from bqrelax.model import brute_force_bqp, brute_force_maxcut, generate_instance, random_graph
from bqrelax.relax import build_dnnp, build_mc_sdr, build_sdr, build_sdr1, build_sdr2
from bqrelax.solver import STATUS_OPTIMAL, STATUS_UNBOUNDED, certify, solve

FAMILIES = model.GENERATOR_KINDS
SUITE_N, SUITE_M, SUITE_COUNT = 10, 4, 20

# every Optimal solve issued by criteria 1-6 lands here for criterion 8
CERTIFY_POOL = []


def _pool(label, prog, sol):
    CERTIFY_POOL.append((label, prog, sol))
    return sol


def _report(num, ok, msg):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {msg}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def thm3_instances():
    return [(kind, seed, generate_instance(kind, SUITE_N, SUITE_M, seed=seed))
            for kind in FAMILIES for seed in range(1, SUITE_COUNT + 1)]


@pytest.fixture(scope="module")
def chain_solves(thm3_instances):
    """sdr/sdr1/sdr2/dnnp bounds at the solver defaults (NaN for a solve that
    does not certify at 1e-6) plus the brute-force optimum per instance."""
    out = []
    for kind, seed, inst in thm3_instances:
        bounds = {}
        for name, builder in (("sdr", build_sdr), ("sdr1", build_sdr1),
                              ("sdr2", build_sdr2), ("dnnp", build_dnnp)):
            prog, _ = builder(inst)
            sol = _pool(f"{inst.name}:{name}", prog, solve(prog))
            bounds[name] = bench.certified_bound(prog, sol)
        exact = brute_force_bqp(inst)
        out.append((kind, seed, inst, bounds, exact))
    return out


@pytest.fixture(scope="module")
def cut_graphs():
    # twenty random graphs, n cycling through 5..10, uniform [0,1] weights
    return [(seed, random_graph(5 + (seed - 1) % 6, seed=seed)) for seed in range(1, 21)]


# ---------------------------------------------------------------- criteria

def test_criterion_1_tight_instance_regression(ex_tight):
    t0 = time.perf_counter()
    prog1, vm1 = build_sdr1(ex_tight)
    sol1 = _pool("c1:sdr1", prog1, solve(prog1))
    ok = sol1.status == STATUS_OPTIMAL and abs(sol1.primal_obj + 28.0) <= 1e-5
    x, X = vm1.extract(sol1.primal_psd, sol1.primal_nonneg, sol1.primal_free)
    cert = rank_one_certificate(PointXX(x=x, X=X), tol=1e-6)
    ok = ok and cert["exact"] and np.array_equal(cert["recovered"], [-1.0, -1.0])
    prog0, _ = build_sdr(ex_tight)
    sol0 = solve(prog0)
    ray_ok = sol0.status == STATUS_UNBOUNDED and certify(prog0, sol0, 1e-6).ok
    elapsed = time.perf_counter() - t0
    ok = ok and ray_ok and elapsed < 1.0
    _report(1, ok, f"lifted SDR = {sol1.primal_obj:.8f} (want -28), rank-one exact, "
                   f"recovered (-1,-1), plain SDR {sol0.status} with verified ray, "
                   f"{elapsed:.2f}s")


def test_criterion_2_gap_instance_attainable_parts(ex_gap):
    t0 = time.perf_counter()
    prog1, vm1 = build_sdr1(ex_gap)
    sol1 = _pool("c2:sdr1", prog1, solve(prog1))
    x, X = vm1.extract(sol1.primal_psd, sol1.primal_nonneg, sol1.primal_free)
    cert = rank_one_certificate(PointXX(x=x, X=X), tol=1e-4)
    prog0, _ = build_sdr(ex_gap)
    sol0 = solve(prog0)
    elapsed = time.perf_counter() - t0
    ok = (sol1.status == STATUS_OPTIMAL
          and abs(sol1.primal_obj + 302.5826415936926) <= 1e-3
          and not cert["exact"]
          and sol0.status == STATUS_UNBOUNDED
          and elapsed < 5.0)
    _report(2, ok, f"lifted SDR = {sol1.primal_obj:.6f} (exact unique-point optimum "
                   f"-302.58264...), rank-one NOT exact (gap {cert['gap']:.3f}), "
                   f"plain SDR {sol0.status}, {elapsed:.2f}s "
                   f"[published value -307.548 is unattainable; see criterion 2b]")


@pytest.mark.xfail(strict=True,
                   reason="published optimum -307.548 for the 5-variable instance is wrong: "
                          "the relaxation's feasible set is a single point with objective "
                          "exactly -302.5826415936926 (rational-arithmetic oracle); no "
                          "correct solver can reproduce -307.548")
def test_criterion_2b_published_value(ex_gap):
    prog1, _ = build_sdr1(ex_gap)
    sol1 = solve(prog1)
    ok = abs(sol1.primal_obj + 307.548) <= 1e-2
    _report("2b", ok, f"lifted SDR = {sol1.primal_obj:.6f} vs published -307.548 +/- 1e-2")


def test_criterion_3_equivalence_suite(thm3_instances):
    t0 = time.perf_counter()
    fails = []
    for kind, seed, inst in thm3_instances:
        rep = verify_theorem3(inst, 1e-5)
        if rep.verdict != "pass" or rep.detail:
            fails.append((kind, seed, rep.verdict, rep.detail, rep.max_violation))
        elif not (rep.mapped_feasible_ab and rep.mapped_feasible_ba):
            fails.append((kind, seed, "mapped-feasibility", "", rep.max_violation))
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed < 600.0
    _report(3, ok, f"{len(thm3_instances)} planted instances x 4 families at tol 1e-5, "
                   f"{len(fails)} failures {fails[:3]}, {elapsed:.0f}s")


def test_criterion_4_maxcut_equivalence(cut_graphs, tri_graph):
    fails = []
    for seed, G in cut_graphs:
        rep = verify_theorem4(G, 1e-5)
        if rep.verdict != "pass" or rep.detail:
            fails.append((seed, rep.verdict, rep.detail))
    tri = verify_theorem4(tri_graph, 1e-6)
    tri_ok = (tri.verdict == "pass"
              and abs(tri.opt_a - 2.25) <= 1e-6 and abs(tri.opt_b - 2.25) <= 1e-6)
    ok = not fails and tri_ok
    _report(4, ok, f"20 random graphs pass at 1e-5 ({len(fails)} failures); "
                   f"triangle: {tri.opt_a:.8f} / {tri.opt_b:.8f} (want 2.25)")


def test_criterion_5_bound_chain(chain_solves):
    # a certified Unbounded plain SDR has bound -inf
    fails = []
    for kind, seed, inst, bounds, exact in chain_solves:
        chain = [bounds["sdr"], bounds["sdr1"], bounds["sdr2"], exact.opt]
        if any(np.isnan(v) for v in chain if v is not None):
            fails.append((kind, seed, "solver failure"))
            continue
        for lo, hi, name in ((chain[0], chain[1], "sdr<=sdr1"),
                             (chain[1], chain[2], "sdr1<=sdr2"),
                             (chain[2], chain[3], "sdr2<=exact")):
            if lo > hi + 1e-5 * (1.0 + abs(hi)):
                fails.append((kind, seed, name, lo - hi))
    _report(5, not fails, f"bound chain over {len(chain_solves)} instances "
                          f"(unbounded plain SDR counted as -inf), failures: {fails[:4]}")


def test_criterion_6_maxcut_oracle_bounds(cut_graphs):
    fails = []
    for seed, G in cut_graphs:
        prog, _ = build_mc_sdr(G)
        sol = _pool(f"c6:mc_sdr:{seed}", prog, solve(prog))  # default 1e-8 settings
        if sol.status != STATUS_OPTIMAL:
            fails.append((seed, "solver", sol.status))
            continue
        exact, _ = brute_force_maxcut(G)
        if exact > sol.primal_obj + 1e-6:
            fails.append((seed, "upper-bound", exact - sol.primal_obj))
        # weights are nonnegative here, so the approximation-ratio bound applies
        if sol.primal_obj > exact / 0.878 + 1e-6:
            fails.append((seed, "gw-ratio", sol.primal_obj - exact / 0.878))
    _report(6, not fails, f"20 graphs (n <= 12): exact cut <= relaxation bound and "
                          f"bound <= cut/0.878; failures: {fails[:4]}")


def test_criterion_7_algebraic_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal(n) * 2.0
        M = rng.standard_normal((n, n))
        p = PointXX(x=x, X=M + M.T)
        inst = generate_instance("RdnBQP", n, 0, seed=int(rng.integers(1 << 30)))

        # objective transport, x-space -> z-space
        fa = bqp_relaxation_objective(inst, p)
        fb = dnnp_objective(inst, sdr2_to_dnnp_point(p))
        worst = max(worst, abs(fa - fb) / (1.0 + abs(fa)))

        # map round trips
        q = dnnp_to_sdr2_point(sdr2_to_dnnp_point(p))
        worst = max(worst, np.abs(q.x - p.x).max(), np.abs(q.X - p.X).max())

        # max-cut transport and the rank-one decomposition identity
        G = random_graph(n, seed=int(rng.integers(1 << 30))) if n > 1 else None
        U = mc_dnnp_to_sdr_point(p)
        if G is not None:
            ga = mc_sdr_objective(G, U)
            gb = mc_dnnp_objective(G, p)
            worst = max(worst, abs(ga - gb) / (1.0 + abs(ga)))
        e = np.ones(n)
        decomp = 4.0 * (p.X - np.outer(p.x, p.x)) + np.outer(2 * p.x - e, 2 * p.x - e)
        worst = max(worst, np.abs(U - decomp).max() / (1.0 + np.abs(U).max()))
        back = mc_sdr_to_dnnp_point(U)
        worst = max(worst, np.abs(mc_dnnp_to_sdr_point(back) - U).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(7, ok, f"1000 random points: transport/round-trip identities hold to "
                   f"{worst:.2e} (budget 1e-10), {elapsed:.1f}s")


def test_criterion_8_certificates_and_weak_duality():
    assert CERTIFY_POOL, "criteria 1-6 must run first"
    cert_fails, duality_fails = [], []
    n_opt = 0
    for label, prog, sol in CERTIFY_POOL:
        if sol.status == STATUS_OPTIMAL:
            n_opt += 1
            rep = certify(prog, sol, 1e-6)
            if not rep.ok:
                cert_fails.append((label, [(c.name, c.value) for c in rep.failed()]))
        for rec in sol.history:
            if rec.dual_obj > rec.primal_obj + 1e-9 * (1.0 + abs(rec.primal_obj)):
                duality_fails.append((label, rec.iter))
    ok = not cert_fails and not duality_fails
    _report(8, ok, f"{n_opt} Optimal solves certify at 1e-6 "
                   f"({len(cert_fails)} failures {cert_fails[:2]}); weak duality holds at "
                   f"every logged iterate ({len(duality_fails)} violations)")


def test_criterion_9_profile_methodology():
    # (a) the hand-computed two-problem example, frozen from the ratio table
    #     r_A = (1, 2), r_B = (2, 1) of the standard definition
    def rr(inst, meth, iters):
        return bench.RunRecord(instance_id=inst, method=meth, status="Optimal",
                               bound=0.0, iters=iters, wall_time=1.0, seed=0)

    records = [rr("p1", "A", 1), rr("p1", "B", 2), rr("p2", "A", 4), rr("p2", "B", 2)]
    curves = {c.method: c for c in bench.performance_profile(records, metric="iters")}
    hand_ok = (curves["A"].rho_at(1.0) == 0.5 and curves["B"].rho_at(1.0) == 0.5
               and curves["A"].rho_at(2.0) == 1.0 and curves["B"].rho_at(2.0) == 1.0
               and curves["A"].rho_at(4.0) == 1.0)
    single = [rr("p1", "A", 1), rr("p1", "B", 2)]
    sc = {c.method: c for c in bench.performance_profile(single, metric="iters")}
    hand_ok = hand_ok and sc["A"].rho_at(1.0) == 1.0 and sc["B"].rho_at(1.0) == 0.0 \
        and sc["B"].rho_at(2.0) == 1.0

    # (b) desk-scale suite: curves monotone and bounded; SDR2 and DNNP curves
    #     coincide beyond the eps-floor noise zone and dominate SDR1 there
    records = bench.run_suite("RdBQP", 20, 12, 5, ["sdr1", "sdr2", "dnnp"], base_seed=100)
    curves = {c.method: c for c in bench.performance_profile(records, metric="bound")}
    mono_ok = True
    for c in curves.values():
        rhos = [r for _, r in c.points]
        mono_ok = mono_ok and all(b >= a for a, b in zip(rhos, rhos[1:])) and rhos[-1] <= 1.0

    taus = sorted({t for c in curves.values() for t, _ in c.points if t >= 1e5})
    assert taus, "no breakpoints at or beyond tau = 1e5"
    coincide = max(abs(curves["sdr2"].rho_at(t) - curves["dnnp"].rho_at(t)) for t in taus)
    both_done = min(curves["sdr2"].rho_at(1e5), curves["dnnp"].rho_at(1e5))
    dominate = max(curves["sdr1"].rho_at(t) - curves["sdr2"].rho_at(t) for t in taus)
    separation = max(curves["sdr2"].rho_at(t) - curves["sdr1"].rho_at(t) for t in taus)

    ok = (hand_ok and mono_ok and coincide <= 0.05 and both_done == 1.0
          and dominate <= 0.05 and separation >= 0.4)
    _report(9, ok, f"hand-computed curves exact; all curves monotone <= 1; on tau >= 1e5: "
                   f"max |rho_sdr2 - rho_dnnp| = {coincide:.3f} (<= 0.05), both reach 1.0, "
                   f"sdr1 never above sdr2 + 0.05 (max excess {dominate:.3f}), "
                   f"sdr2 exceeds sdr1 by up to {separation:.2f} (>= 0.4)")
