import json

import numpy as np
import pytest

from bqrelax import equivalence
from bqrelax.equivalence import (
    PointXX,
    PointZZ,
    bqp_relaxation_objective,
    check_feasibility,
    dnnp_objective,
    dnnp_to_sdr2_point,
    mc_dnnp_to_sdr_point,
    mc_sdr_objective,
    mc_dnnp_objective,
    mc_sdr_to_dnnp_point,
    rank_one_certificate,
    sdr2_to_dnnp_point,
    verify_theorem3,
    verify_theorem4,
)
from bqrelax.model import BqpInstance, MaxCutGraph, generate_instance, random_graph
from bqrelax.relax import build_dnnp, build_sdr2
from bqrelax.solver import solve


def rand_pointxx(rng, n, scale=1.0):
    x = rng.standard_normal(n) * scale
    X = rng.standard_normal((n, n)) * scale
    return PointXX(x=x, X=X + X.T)


# ------------------------------------------------------------ maps

def test_sdr2_to_dnnp_examples():
    e = np.ones(2)
    E = np.ones((2, 2))
    p = sdr2_to_dnnp_point(PointXX(x=-e, X=E))
    np.testing.assert_allclose(p.z, e, atol=1e-14)
    np.testing.assert_allclose(p.Z, E, atol=1e-14)
    p = sdr2_to_dnnp_point(PointXX(x=e, X=E))
    np.testing.assert_allclose(p.z, 0.0, atol=1e-14)
    np.testing.assert_allclose(p.Z, 0.0, atol=1e-14)


def test_dnnp_to_sdr2_examples():
    e = np.ones(2)
    E = np.ones((2, 2))
    p = dnnp_to_sdr2_point(PointZZ(z=np.zeros(2), Z=np.zeros((2, 2))))
    np.testing.assert_allclose(p.x, e, atol=1e-14)
    np.testing.assert_allclose(p.X, E, atol=1e-14)
    p = dnnp_to_sdr2_point(PointZZ(z=e, Z=E))
    np.testing.assert_allclose(p.x, -e, atol=1e-14)
    np.testing.assert_allclose(p.X, E, atol=1e-14)


def test_affine_round_trips_machine_precision():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = rand_pointxx(rng, n, scale=3.0)
        q = dnnp_to_sdr2_point(sdr2_to_dnnp_point(p))
        np.testing.assert_allclose(q.x, p.x, atol=1e-12)
        np.testing.assert_allclose(q.X, p.X, atol=1e-12)


def test_mc_map_examples():
    n = 2
    E = np.ones((n, n))
    p = mc_sdr_to_dnnp_point(E)
    np.testing.assert_allclose(p.X, E / 2.0, atol=1e-14)
    np.testing.assert_allclose(p.x, [0.5, 0.5], atol=1e-14)
    p = mc_sdr_to_dnnp_point(np.eye(2))
    np.testing.assert_allclose(p.X, [[0.5, 0.25], [0.25, 0.5]], atol=1e-14)

    U = mc_dnnp_to_sdr_point(PointXX(x=np.zeros(2), X=np.zeros((2, 2))))
    np.testing.assert_allclose(U, E, atol=1e-14)


def test_mc_round_trip_on_half_slice():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        A = rng.standard_normal((n, n))
        U0 = A + A.T
        p = mc_sdr_to_dnnp_point(U0)
        np.testing.assert_allclose(mc_dnnp_to_sdr_point(p), U0, atol=1e-12)


def test_mc_decomposition_identity():
    # U = 4(X - xx^T) + (2x - e)(2x - e)^T
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = rand_pointxx(rng, n)
        U = mc_dnnp_to_sdr_point(p)
        e = np.ones(n)
        rhs = 4.0 * (p.X - np.outer(p.x, p.x)) + np.outer(2 * p.x - e, 2 * p.x - e)
        assert np.abs(U - rhs).max() <= 1e-12 * (1.0 + np.abs(U).max())


def test_objective_transport_identities():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        inst = generate_instance("RdnBQP", n, 0, seed=int(rng.integers(1 << 30)))
        p = rand_pointxx(rng, n, scale=2.0)
        fa = bqp_relaxation_objective(inst, p)
        fb = dnnp_objective(inst, sdr2_to_dnnp_point(p))
        assert abs(fa - fb) <= 1e-10 * (1.0 + abs(fa))

        G = random_graph(n, seed=int(rng.integers(1 << 30))) if n > 1 else MaxCutGraph(W=np.zeros((1, 1)))
        U = mc_dnnp_to_sdr_point(p)
        ga = mc_sdr_objective(G, U)
        gb = mc_dnnp_objective(G, p)
        assert abs(ga - gb) <= 1e-10 * (1.0 + abs(ga))


def test_schur_step_consistency():
    # Z - zz^T == (X - xx^T)/4 under the forward map
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = rand_pointxx(rng, n)
        q = sdr2_to_dnnp_point(p)
        lhs = q.Z - np.outer(q.z, q.z)
        rhs = (p.X - np.outer(p.x, p.x)) / 4.0
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1.0 + np.abs(rhs).max())


def test_offdiag_bound_transport():
    # unit-diagonal PSD U maps to X with entries in [0, 1/2]
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n))
        M = A @ A.T
        dd = np.sqrt(np.diag(M))
        U = M / np.outer(dd, dd)
        p = mc_sdr_to_dnnp_point(U)
        assert p.X.min() >= -1e-12
        assert p.X.max() <= 0.5 + 1e-12


# ------------------------------------------------------------ feasibility checks

def test_check_feasibility_known_point(ex_tight):
    p = PointXX(x=-np.ones(2), X=np.ones((2, 2)))
    assert check_feasibility("sdr2", p, ex_tight, 1e-6) == []
    z = sdr2_to_dnnp_point(p)
    assert check_feasibility("dnnp", z, ex_tight, 1e-6) == []


def test_check_feasibility_flags_perturbation(ex_tight):
    p = PointXX(x=-np.ones(2), X=np.ones((2, 2)))
    p.X = p.X.copy()
    p.X[0, 1] = p.X[1, 0] = p.X[0, 1] + 0.1
    viols = check_feasibility("sdr2", p, ex_tight, 1e-6)
    names = [name for name, _ in viols]
    assert any(name.startswith("quad") for name in names)
    assert "lifted_psd" in names


def test_check_feasibility_unknown_tag(ex_tight):
    with pytest.raises(ValueError):
        check_feasibility("nope", None, ex_tight, 1e-6)


def test_mapped_solver_optimum_feasible(ex_tight):
    prog, vm = build_dnnp(ex_tight)
    sol = solve(prog)
    z, Z = vm.extract(sol.primal_psd, sol.primal_nonneg, sol.primal_free)
    mapped = dnnp_to_sdr2_point(PointZZ(z=z, Z=Z))
    assert check_feasibility("sdr2", mapped, ex_tight, 1e-6) == []


# ------------------------------------------------------------ theorem verifiers

def test_verify_theorem3_tight(ex_tight):
    rep = verify_theorem3(ex_tight, 1e-6)
    assert rep.verdict == "pass"
    assert rep.opt_a == pytest.approx(-28.0, abs=1e-5)
    assert rep.opt_b == pytest.approx(-28.0, abs=1e-5)


def test_verify_theorem3_planted():
    inst = generate_instance("RdBQP", 8, 3, seed=7)
    rep = verify_theorem3(inst, 1e-5)
    assert rep.verdict == "pass", rep.to_json()


def test_verify_theorem3_at_paper_scale():
    # the paper's n=50/m=25: both solves certify at tol/10 and the optima agree
    rep = verify_theorem3(generate_instance("RdBQP", 50, 25, seed=1))
    assert rep.verdict == "pass", rep.to_json()


def test_verify_theorem3_infeasible_relaxation_not_applicable():
    # x1 + x2 = 3 is unreachable for the relaxations too (|x_i| <= 1 under the
    # lift), so both solves are Infeasible and the theorem does not apply
    inst = BqpInstance(Q=np.diag([0.0, 0.0]) - np.eye(2) * 0, c=np.zeros(2),
                       A=np.array([[1.0, 1.0]]), b=np.array([3.0]))
    rep = verify_theorem3(inst, 1e-6)
    assert rep.verdict == "not_applicable"
    assert "Infeasible: a ray" in rep.detail


# desk instances (n=12, m=5) whose verdict read fail when both solves stopped
# at 3e-7/1e-7, looser than the 1e-6 check; at the solver defaults, with each
# solve used only if it certifies at tol/10, none of them fails
DESK_FALSE_FAILS = [("RdiBQP", 3), ("RdiBQP", 13), ("RdBQP", 2), ("RdBQP", 5),
                    ("RdBQP", 7), ("RdBQP", 13), ("RdsBQP", 13)]


@pytest.mark.parametrize("kind, seed", DESK_FALSE_FAILS)
def test_verify_theorem3_desk_instance_does_not_fail(kind, seed):
    rep = verify_theorem3(generate_instance(kind, 12, 5, seed=seed))
    assert rep.verdict != "fail", rep.to_json()
    if rep.verdict == "pass":
        assert rep.detail == ""
    else:  # a solve that does not certify at 1e-7 is named with its failing check
        assert "certify" in rep.detail and "> 1e-07" in rep.detail
    if (kind, seed) == ("RdBQP", 2):
        assert rep.verdict == "pass"


def test_verify_theorem3_empty_binary_nonempty_relaxation():
    # x1 + x2 + x3 = 0 has no sign-vector solution (parity) but the
    # relaxations are feasible; the equivalence must still hold
    Q = np.array([[0.0, 1, -2], [1, 0, 3], [-2, 3, 0]])
    inst = BqpInstance(Q=Q, c=np.array([1.0, -1.0, 0.5]),
                       A=np.array([[1.0, 1.0, 1.0]]), b=np.array([0.0]))
    from bqrelax.model import brute_force_bqp
    assert brute_force_bqp(inst).status == "infeasible"
    rep = verify_theorem3(inst, 1e-5)
    assert rep.verdict == "pass", rep.to_json()


def test_verify_theorem4_triangle(tri_graph):
    rep = verify_theorem4(tri_graph, 1e-6)
    assert rep.verdict == "pass"
    assert rep.opt_a == pytest.approx(2.25, abs=1e-6)
    assert rep.opt_b == pytest.approx(2.25, abs=1e-6)


def test_theorem_checks_look_up_builders_and_solve_at_call_time(monkeypatch, ex_tight,
                                                                tri_graph):
    # a tracer wraps these module attributes; a copy bound at import would miss it
    calls = []
    for name in ("build_mc_sdr", "build_sdr2", "solve"):
        def counted(*args, _fn=getattr(equivalence, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(equivalence, name, counted)
    assert verify_theorem4(tri_graph).verdict == "pass"
    assert calls == ["build_mc_sdr", "solve", "solve"]
    calls.clear()
    assert verify_theorem3(ex_tight).verdict == "pass"
    assert calls == ["build_sdr2", "solve", "solve"]


def test_verify_theorem4_empty_graph():
    rep = verify_theorem4(MaxCutGraph(W=np.zeros((3, 3))), 1e-6)
    assert rep.verdict == "pass"
    assert rep.opt_a == pytest.approx(0.0, abs=1e-6)
    assert rep.opt_b == pytest.approx(0.0, abs=1e-6)


def test_verify_theorem4_random_graph():
    rep = verify_theorem4(random_graph(8, seed=3), 1e-5)
    assert rep.verdict == "pass", rep.to_json()


def test_report_json_schema(ex_tight):
    rep = verify_theorem3(ex_tight, 1e-6)
    obj = json.loads(rep.to_json())
    assert set(obj) == {"opt_a", "opt_b", "gap", "violations", "verdict", "detail"}


# ------------------------------------------------------------ certificates

def test_rank_one_certificate_tight(ex_tight):
    from bqrelax.relax import build_sdr1
    prog, vm = build_sdr1(ex_tight)
    sol = solve(prog)
    x, X = vm.extract(sol.primal_psd, sol.primal_nonneg, sol.primal_free)
    cert = rank_one_certificate(PointXX(x=x, X=X), tol=1e-4)
    assert cert["exact"]
    np.testing.assert_array_equal(cert["recovered"], [-1.0, -1.0])


def test_rank_one_certificate_gap(ex_gap):
    from bqrelax.relax import build_sdr1
    prog, vm = build_sdr1(ex_gap)
    sol = solve(prog)
    x, X = vm.extract(sol.primal_psd, sol.primal_nonneg, sol.primal_free)
    cert = rank_one_certificate(PointXX(x=x, X=X), tol=1e-4)
    assert not cert["exact"]
    assert cert["recovered"] is None


def test_rank_one_certificate_identity():
    cert = rank_one_certificate(PointXX(x=np.zeros(3), X=np.eye(3)), tol=1e-6)
    assert not cert["exact"]


def test_feasibility_transport_solved_instances():
    # solver-feasible SDR2 optimum maps to a DNNP-feasible point and back,
    # at 10x the solver tolerance
    for seed in (2, 9):
        inst = generate_instance("RdnBQP", 8, 3, seed=seed)
        prog_a, vm_a = build_sdr2(inst)
        sol_a = solve(prog_a)
        x, X = vm_a.extract(sol_a.primal_psd, sol_a.primal_nonneg, sol_a.primal_free)
        mapped = sdr2_to_dnnp_point(PointXX(x=x, X=X))
        assert check_feasibility("dnnp", mapped, inst, 1e-6) == []

        prog_b, vm_b = build_dnnp(inst)
        sol_b = solve(prog_b)
        z, Z = vm_b.extract(sol_b.primal_psd, sol_b.primal_nonneg, sol_b.primal_free)
        back = dnnp_to_sdr2_point(PointZZ(z=z, Z=Z))
        assert check_feasibility("sdr2", back, inst, 1e-6) == []
