import contextlib
import dataclasses
import logging
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from bqrelax import equivalence, kernels, solver
from bqrelax.model import BqpInstance, MaxCutGraph, generate_instance, random_graph
from bqrelax.relax import (
    ConicProgram,
    build_dnnp,
    build_mc_dnnp,
    build_mc_sdr,
    build_sdr,
    build_sdr1,
    build_sdr2,
)
from bqrelax.symcone import smat, svec
from bqrelax.solver import (
    RANK_PIVOT_REL,
    STATUS_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_NUMERICAL_TROUBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    SolverSettings,
    _NewtonSystem,
    _Workspace,
    certify,
    presolve_rank_check,
    solve,
)


def lp(obj, rows, rhs, sense="min", free_cols=0):
    """Small LP/free-block program helper (no PSD block)."""
    rows = np.asarray(rows, dtype=float).reshape(len(rhs), -1)
    obj = np.asarray(obj, dtype=float)
    p = obj.shape[0] - free_cols
    return ConicProgram(
        sense=sense, psd_order=0, nonneg_count=p, free_count=free_cols,
        obj_psd=np.zeros(0), obj_nonneg=obj[:p], obj_free=obj[p:],
        offset=0.0, G_psd=np.zeros((len(rhs), 0)),
        G_nonneg=rows[:, :p], G_free=rows[:, p:],
        rhs=np.asarray(rhs, dtype=float), label="test-lp",
    )


# min x1 + 2 x2 + 3 x3, x1 + x2 = 1, x1 + x3 = 1, x >= 0 (optimum 1 at x1 = 1):
# column x1 sits in both rows, so its Schur term is a dense product, not a
# diagonal one
SHARED_COLUMN_LP = lp([1.0, 2.0, 3.0], [[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]], [1.0, 1.0])


def one_by_one_psd(rhs_val):
    return ConicProgram(
        sense="min", psd_order=1, nonneg_count=0, free_count=0,
        obj_psd=np.array([1.0]), obj_nonneg=np.zeros(0), obj_free=np.zeros(0),
        offset=0.0, G_psd=np.array([[1.0]]), G_nonneg=np.zeros((1, 0)),
        G_free=np.zeros((1, 0)), rhs=np.array([float(rhs_val)]), label="1x1",
    )


# ------------------------------------------------------------ basics

def test_min_psd_scalar():
    sol = solve(one_by_one_psd(5.0))
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_obj == pytest.approx(5.0, abs=1e-6)


def test_small_lp():
    prog = lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(sol.primal_nonneg, [1.0, 0.0], atol=1e-6)


def test_free_variable_pinned():
    prog = lp([1.0], [[1.0]], [3.0], free_cols=1)
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_obj == pytest.approx(3.0, abs=1e-6)
    assert sol.primal_free[0] == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("name", ["sdr_c0", "pinned"])
def test_free_block_is_decided_before_the_loop(monkeypatch, name):
    # presolve decides the free block by linear algebra: the loop's workspace
    # never holds it, and x_f, y meet the free rows and columns exactly
    prog = (sdr_without_linear_term("RdnBQP", 8, 3, 1) if name == "sdr_c0"
            else lp([1.0], [[1.0]], [3.0], free_cols=1))
    built = []
    real = solver._Workspace
    monkeypatch.setattr(solver, "_Workspace", lambda p, *a: built.append(p.free_count) or real(p, *a))
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert certify(prog, sol, 1e-6).ok
    assert built == [0]
    free = prog.G_free.any(axis=1)
    assert np.abs(prog.G_free[free] @ sol.primal_free - prog.rhs[free]).max() <= 1e-12
    assert np.abs(prog.G_free.T @ sol.dual_y - prog.obj_free).max() <= 1e-12


@pytest.mark.parametrize("status, prog, dropped", [
    # min -x1, x1 - 2 x2 = 0 over the orthant (a ray only after some steps),
    # and the free row x3 = 3
    (STATUS_UNBOUNDED, lp([-1.0, 0.0, 1.0], [[1.0, -2.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 3.0],
                          free_cols=1), []),
    # x1 = -1 over the orthant, and the free row x2 = 3
    (STATUS_INFEASIBLE, lp([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [-1.0, 3.0], free_cols=1), []),
    # the same with the duplicate 3 x1 = -3, one of the two dropped by presolve
    (STATUS_INFEASIBLE, lp([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0], [3.0, 0.0]], [-1.0, 3.0, -3.0],
                           free_cols=1), [0]),
], ids=["unbounded", "infeasible", "infeasible_dropped"])
def test_loop_certificate_beside_a_free_row(status, prog, dropped):
    # the loop finds the ray on the other rows; lifted back once, a primal ray
    # has a zero free part and a dual ray is exactly zero on the free row and
    # the dropped rows
    sol = solve(prog)
    assert (sol.status, sol.stats["stop_reason"], sol.dropped_rows) == (status, "certificate", dropped)
    if status == STATUS_UNBOUNDED:
        np.testing.assert_array_equal(sol.ray.free, np.zeros(1))
    else:
        assert sol.ray.y[1] == 0.0 and not sol.ray.y[dropped].any()
    rep = certify(prog, sol, 1e-6)
    assert rep.ok, rep.failed()


def test_a_dual_ray_is_its_y_and_certify_checks_its_free_part():
    # certify forms the ray's slacks -G^T y itself; farkas_residual is
    # G_free^T y, which a ray off the free columns fails alone
    assert [f.name for f in dataclasses.fields(solver.RayCertificate)] == [
        "kind", "psd", "nonneg", "free", "y"]
    prog = lp([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]], [-1.0, 3.0], free_cols=1)
    sol = solve(prog)
    assert certify(prog, sol, 1e-6).ok
    off = dataclasses.replace(sol, ray=solver.RayCertificate(kind="dual", y=np.array([-1.0, 1e-3])))
    assert [c.name for c in certify(prog, off, 1e-6).failed()] == ["farkas_residual"]


def test_infeasible_lp_certificate():
    prog = lp([0.0], [[1.0]], [-1.0])  # x = -1 over the orthant
    sol = solve(prog)
    assert sol.status == STATUS_INFEASIBLE
    rep = certify(prog, sol, 1e-6)
    assert rep.ok, rep.failed()


def test_cone_unbounded_inloop():
    # min -x1 with x1 - x2 = 0 over the orthant: ray (1,1) improves forever;
    # no free block, so this exercises the in-iteration certificate scan
    prog = lp([-1.0, 0.0], [[1.0, -1.0]], [0.0])
    sol = solve(prog)
    assert sol.status == STATUS_UNBOUNDED
    rep = certify(prog, sol, 1e-6)
    assert rep.ok, rep.failed()


def test_iteration_limit_status():
    inst = generate_instance("RdnBQP", 6, 2, seed=1)
    prog, _ = build_sdr2(inst)
    sol = solve(prog, SolverSettings(max_iters=2))
    assert sol.status == STATUS_ITERATION_LIMIT
    assert sol.iters == 2


def trace_over_psd_2x2():
    """min tr X over 2 x 2 PSD X, with no rows."""
    return ConicProgram(
        sense="min", psd_order=2, nonneg_count=0, free_count=0,
        obj_psd=svec(np.eye(2)), obj_nonneg=np.zeros(0), obj_free=np.zeros(0),
        offset=0.0, G_psd=np.zeros((0, 3)), G_nonneg=np.zeros((0, 0)),
        G_free=np.zeros((0, 0)), rhs=np.zeros(0), label="trace",
    )


def test_stop_reason_names_the_exit(ex_tight):
    prog, _ = build_sdr1(ex_tight)
    cases = [
        (prog, SolverSettings(), STATUS_OPTIMAL, "optimal"),
        (prog, SolverSettings(max_iters=1), STATUS_ITERATION_LIMIT, "iteration_limit"),
        (lp([0.0], [[1.0]], [-1.0]), SolverSettings(), STATUS_INFEASIBLE, "certificate"),
        (lp([1.0], [[1.0], [1.0]], [1.0, 2.0]), SolverSettings(), STATUS_INFEASIBLE,
         "presolve_infeasible"),
        (build_sdr(ex_tight)[0], SolverSettings(), STATUS_UNBOUNDED, "presolve_unbounded"),
        (lp([1.0, 2.0], [[1.0, 1.0]], [1.0]), SolverSettings(), STATUS_OPTIMAL, "optimal"),
        (SHARED_COLUMN_LP, SolverSettings(), STATUS_OPTIMAL, "optimal"),
        # presolve's two early returns: a program without rows, and one whose
        # only row is 0 x = 0 (dropped, so no row is left)
        (trace_over_psd_2x2(), SolverSettings(), STATUS_OPTIMAL, "optimal"),
        (lp([1.0, 2.0], [[0.0, 0.0]], [0.0]), SolverSettings(), STATUS_OPTIMAL, "optimal"),
        # badly scaled but well posed: objective entries of 1e50 and 1e130
        # converge, and so does one of 1e150, whose mu_aff / mu passes 1e102
        # (sigma cubes it only after the cap at 1); one of 1e145 gives a
        # non-finite direction and one of 1e200 a non-finite KKT denominator
        (lp([1e50, 1.0], [[1.0, 1.0]], [1.0]), SolverSettings(), STATUS_OPTIMAL, "optimal"),
        (lp([1e130, 1.0], [[1.0, 1.0]], [1.0]), SolverSettings(), STATUS_OPTIMAL, "optimal"),
        (lp([1e150, 1.0], [[1.0, 1.0]], [1.0]), SolverSettings(), STATUS_OPTIMAL, "optimal"),
        (lp([1e145, 1.0], [[1.0, 1.0]], [1.0]), SolverSettings(), STATUS_NUMERICAL_TROUBLE,
         "breakdown"),
        (lp([1e200, 1.0], [[1.0, 1.0]], [1.0]), SolverSettings(), STATUS_NUMERICAL_TROUBLE,
         "breakdown"),
    ]
    for prog, settings, status, reason in cases:
        # a breakdown overflows by design; every other solve stays warning-free
        with np.errstate(all="ignore") if reason == "breakdown" else contextlib.nullcontext():
            sol = solve(prog, settings)
        assert (sol.status, sol.stats["stop_reason"]) == (status, reason)
        # every exit returns blocks shaped as the program's, empty ones (d = 0) included
        d, p, f = prog.psd_order, prog.nonneg_count, prog.free_count
        blocks = (sol.primal_psd, sol.primal_nonneg, sol.primal_free, sol.dual_y,
                  sol.dual_slack_psd, sol.dual_slack_nonneg)
        assert [b.shape for b in blocks] == [(d, d), (p,), (f,), (prog.n_rows,), (d, d), (p,)]
        # certify checks whatever each exit returns: the one-iteration point and
        # the breakdowns' points fail it, every other exit passes
        rep = certify(prog, sol, 1e-6)
        assert rep.ok == (status not in (STATUS_ITERATION_LIMIT, STATUS_NUMERICAL_TROUBLE)), \
            (reason, rep.failed())


@pytest.mark.xfail(strict=True,
                   reason="the stopping test bounds the residual of the normalized rows "
                          "only: x1 + 1e10 x2 = 1 ends Optimal with primal_rows 0.74, "
                          "and 1e160 to 1e300 with primal_rows above 1e149")
@pytest.mark.parametrize("big", [1e10, 1e160, 1e200, 1e300])
def test_optimal_bounds_the_original_row_residual(big):
    prog = lp([1.0, 2.0], [[1.0, big]], [1.0])
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert certify(prog, sol, 1e-6).ok, certify(prog, sol, 1e-6).failed()


def test_stop_reason_of_a_desk_stall():
    # a NumericalTrouble solve of the bqp-desk benchmark workload (seed 2)
    prog = build_dnnp(generate_instance("RdiBQP", 12, 5, seed=35))[0]
    sol = solve(prog)
    assert sol.status == STATUS_NUMERICAL_TROUBLE
    # Cholesky rejects an iterate that has left the PSD cone, which ends the solve
    assert sol.stats["stop_reason"] == "left_cone"
    # the best iterate is a point that certify checks, and it passes at 1e-6
    assert certify(prog, sol, 1e-6).ok
    # the best iterate comes back untouched by the steps taken after it
    best = (sol.residuals[0], sol.residuals[1])
    logged = [(h.pres, h.dres) for h in sol.history]
    assert best in logged and best != logged[-1]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at n=50/m=25, RdsBQP seed 1 sdr2 leaves the PSD cone after 30 "
                          "iterations (NumericalTrouble, stop_reason left_cone)")
def test_paper_scale_sdr2_stall_ends_optimal():
    prog = build_sdr2(generate_instance("RdsBQP", 50, 25, seed=1))[0]
    sol = solve(prog, SolverSettings(tol_gap=1e-8, tol_feas=1e-8, tol_infeas=1e-8))
    assert (sol.status, sol.stats["stop_reason"]) == (STATUS_OPTIMAL, "optimal"), sol.iters


@pytest.mark.parametrize("kind, seed, relax", [("RdiBQP", 33, build_dnnp),
                                                ("RdnBQP", 64, build_sdr2)])
def test_desk_solves_that_stalled_without_refinement_to_accuracy(kind, seed, relax):
    # bqp-desk ops (seeds 2 and 4): s33 dnnp left the PSD cone under two fixed
    # refinement passes, and s64 sdr2 left it without the passes' inner solves;
    # refining each direction until it is accurate ends both Optimal
    prog = relax(generate_instance(kind, 12, 5, seed=seed))[0]
    sol = solve(prog)
    assert (sol.status, sol.stats["stop_reason"]) == (STATUS_OPTIMAL, "optimal")
    assert sol.stats["refinements"] > 0
    assert certify(prog, sol, 1e-6).ok, certify(prog, sol, 1e-6).failed()


@pytest.mark.parametrize("relax", [build_sdr1, build_sdr2, build_dnnp])
def test_scaled_objective_is_not_certified_unbounded(relax):
    # a ray normalized to c^T d = -1 shrinks like 1/||c||, so a residual test
    # blind to ||c|| accepted one for these bounded relaxations at Q, c x 1e8
    inst = generate_instance("RdBQP", 6, 2, seed=3)
    base = solve(relax(inst)[0])
    prog, _ = relax(dataclasses.replace(inst, Q=inst.Q * 1e8, c=inst.c * 1e8))
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert certify(prog, sol, 1e-6).ok, certify(prog, sol, 1e-6).failed()
    assert sol.primal_obj == pytest.approx(1e8 * base.primal_obj, rel=1e-6)


def test_certify_weighs_a_ray_by_the_data():
    # bounded and feasible LPs; each ray passes its cone and row checks only
    # because it is small (1e-10), as normalizing it to the data makes it
    unb = solver.ConicSolution(
        status=STATUS_UNBOUNDED, primal_psd=np.zeros((0, 0)), primal_nonneg=np.zeros(2),
        primal_free=np.zeros(0), dual_y=np.zeros(1), dual_slack_psd=np.zeros((0, 0)),
        dual_slack_nonneg=np.zeros(2), primal_obj=-np.inf, dual_obj=np.nan, iters=0,
        residuals=(np.nan,) * 3,
        ray=solver.RayCertificate(kind="primal", psd=np.zeros((0, 0)),
                                  nonneg=np.array([1e-10, 0.0]), free=np.zeros(0)))
    rep = certify(lp([-1e10, 1.0], [[1.0, 1.0]], [1.0]), unb, 1e-6)
    assert [c.name for c in rep.failed()] == ["ray_rows"]
    inf = dataclasses.replace(unb, status=STATUS_INFEASIBLE, primal_obj=np.nan,
                              ray=solver.RayCertificate(kind="dual", y=np.array([1e-10])))
    rep = certify(lp([1.0, 2.0], [[1.0, 1.0]], [1e10]), inf, 1e-6)
    assert [c.name for c in rep.failed()] == ["farkas_nonneg_cone"]


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(tol_gap=0.0)
    with pytest.raises(ValueError):
        SolverSettings(tol_feas=float("nan"))
    for key in ("tol_gap", "tol_feas", "tol_infeas"):
        with pytest.raises(ValueError):  # inf > 0 made every iterate Optimal
            SolverSettings(**{key: float("inf")})
    with pytest.raises(ValueError):
        SolverSettings(max_iters=0)


# ------------------------------------------------------------ bundled instances

def test_tight_instance_sdr1(ex_tight):
    prog, vm = build_sdr1(ex_tight)
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_obj == pytest.approx(-28.0, abs=1e-6)
    x, X = vm.extract(sol.primal_psd, sol.primal_nonneg, sol.primal_free)
    np.testing.assert_allclose(x, [-1.0, -1.0], atol=1e-5)
    np.testing.assert_allclose(X, np.ones((2, 2)), atol=1e-5)
    assert certify(prog, sol, 1e-6).ok


def test_tight_instance_sdr_unbounded(ex_tight):
    prog, _ = build_sdr(ex_tight)
    sol = solve(prog)
    assert sol.status == STATUS_UNBOUNDED
    rep = certify(prog, sol, 1e-6)
    assert rep.ok, rep.failed()
    # the improving ray lives in the free block and has objective exactly -1
    ray = sol.ray
    assert np.abs(ray.psd).max() == 0.0
    assert (2.0 * ex_tight.c) @ ray.free == pytest.approx(-1.0, abs=1e-9)


def test_tight_instance_all_lifted_agree(ex_tight):
    values = []
    for builder in (build_sdr1, build_sdr2, build_dnnp):
        prog, _ = builder(ex_tight)
        sol = solve(prog)
        assert sol.status == STATUS_OPTIMAL
        values.append(sol.primal_obj)
    np.testing.assert_allclose(values, -28.0, atol=1e-6)


def exact_pinned_lifted_value(inst):
    """Independent oracle for instances whose lifted feasible set is a single
    point: every feasible Y satisfies Y u_i = 0 for u_i = (b_i, -a_i) (forced
    by the Y00/linear/quadratic rows), so feasibility reduces to the linear
    system {Y u_i = 0, Y00 = 1, diag X = 1}.  When that system has full rank,
    the optimum is its unique solution; solved here in exact rational
    arithmetic (instance data must be integral)."""
    n, m = inst.n, inst.m
    d = n + 1
    iu = [(i, j) for i in range(d) for j in range(i, d)]
    pos = {ij: k for k, ij in enumerate(iu)}

    def sym_idx(i, j):
        return pos[(i, j)] if i <= j else pos[(j, i)]

    rows, rhs = [], []
    for i in range(m):
        u = [Fraction(int(inst.b[i]))] + [Fraction(-int(a)) for a in inst.A[i]]
        for r in range(d):
            row = [Fraction(0)] * len(iu)
            for cidx in range(d):
                row[sym_idx(r, cidx)] += u[cidx]
            rows.append(row)
            rhs.append(Fraction(0))
    for r in range(d):
        row = [Fraction(0)] * len(iu)
        row[sym_idx(r, r)] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(1))

    aug = [row[:] + [rhs[k]] for k, row in enumerate(rows)]
    ncols = len(iu)
    r = 0
    piv_cols = []
    for col in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(col)
        r += 1
    assert r == ncols, "feasible set is not a single point; oracle inapplicable"
    for i in range(r, len(aug)):
        assert all(v == 0 for v in aug[i][:ncols]) and aug[i][ncols] == 0

    sol = [Fraction(0)] * ncols
    for k, col in enumerate(piv_cols):
        sol[col] = aug[k][ncols]
    Y = [[Fraction(0)] * d for _ in range(d)]
    for (i, j), k in pos.items():
        Y[i][j] = sol[k]
        Y[j][i] = sol[k]
    obj = Fraction(0)
    for i in range(n):
        for j in range(n):
            obj += Fraction(int(inst.Q[i, j])) * Y[1 + i][1 + j]
    for i in range(n):
        obj += 2 * Fraction(int(inst.c[i])) * Y[0][1 + i]
    Yf = np.array([[float(v) for v in row] for row in Y])
    assert np.linalg.eigvalsh(Yf).min() >= -1e-12
    return float(obj)


def test_gap_instance_exact_value(ex_gap):
    # the lifted feasible set of this instance is one (PSD) point; the solver
    # must land on its exactly-computed objective
    exact = exact_pinned_lifted_value(ex_gap)
    assert exact == pytest.approx(-302.5826415936926, abs=1e-10)
    for builder in (build_sdr1, build_sdr2, build_dnnp):
        prog, _ = builder(ex_gap)
        sol = solve(prog)
        assert sol.status == STATUS_OPTIMAL
        assert sol.primal_obj == pytest.approx(exact, abs=1e-4)


def test_gap_instance_sdr_unbounded(ex_gap):
    prog, _ = build_sdr(ex_gap)
    sol = solve(prog)
    assert sol.status == STATUS_UNBOUNDED
    assert certify(prog, sol, 1e-6).ok


# ------------------------------------------------------------ presolve

def append_row(prog, psd_row, nn_row, free_row, rhs):
    return ConicProgram(
        sense=prog.sense, psd_order=prog.psd_order, nonneg_count=prog.nonneg_count,
        free_count=prog.free_count, obj_psd=prog.obj_psd, obj_nonneg=prog.obj_nonneg,
        obj_free=prog.obj_free, offset=prog.offset,
        G_psd=np.vstack([prog.G_psd, psd_row]),
        G_nonneg=np.vstack([prog.G_nonneg, nn_row]),
        G_free=np.vstack([prog.G_free, free_row]),
        rhs=np.concatenate([prog.rhs, [rhs]]),
        label=prog.label, face=prog.face,
    )


def duplicated_rows(ex_tight):
    """(program, row): a row of sdr1, and the free row a^T x = b of sdr with c = 0."""
    inst = BqpInstance(ex_tight.Q, np.zeros(ex_tight.n), ex_tight.A, ex_tight.b)
    return [(build_sdr1(ex_tight)[0], 1), (build_sdr(inst)[0], 0)]


def test_presolve_duplicate_row_dropped(ex_tight):
    for prog, r in duplicated_rows(ex_tight):
        dup = append_row(prog, prog.G_psd[r], prog.G_nonneg[r], prog.G_free[r], prog.rhs[r])
        pre = presolve_rank_check(dup)
        assert not pre.infeasible
        assert len(pre.dropped_rows) == 1
        base = solve(prog)
        again = solve(dup)
        assert again.status == STATUS_OPTIMAL
        assert again.primal_obj == pytest.approx(base.primal_obj, abs=1e-6)
        assert certify(dup, again, 1e-6).ok


def test_presolve_conflicting_duplicate_infeasible(ex_tight):
    for prog, r in duplicated_rows(ex_tight):
        bad = append_row(prog, prog.G_psd[r], prog.G_nonneg[r], prog.G_free[r], prog.rhs[r] + 1.0)
        pre = presolve_rank_check(bad)
        assert pre.infeasible
        sol = solve(bad)
        assert sol.status == STATUS_INFEASIBLE
        assert certify(bad, sol, 1e-6).ok


def test_presolve_two_dependent_rows_one_conflicting(ex_tight):
    # both appended rows are dependent; the batched consistency check must
    # still single out the conflicting one and return its Farkas certificate
    prog, _ = build_sdr1(ex_tight)
    ok = append_row(prog, prog.G_psd[1], prog.G_nonneg[1], prog.G_free[1], prog.rhs[1])
    bad = append_row(ok, 2.0 * prog.G_psd[2], 2.0 * prog.G_nonneg[2], 2.0 * prog.G_free[2],
                     2.0 * prog.rhs[2] + 1.0)
    pre = presolve_rank_check(bad)
    assert pre.infeasible
    assert len(pre.dropped_rows) >= 2
    sol = solve(bad)
    assert sol.status == STATUS_INFEASIBLE
    rep = certify(bad, sol, 1e-6)
    assert rep.ok, rep.failed()


def test_presolve_full_rank_untouched(ex_tight):
    prog, _ = build_sdr1(ex_tight)
    pre = presolve_rank_check(prog)
    assert pre.dropped_rows == []
    assert pre.program.n_rows == prog.n_rows


# ------------------------------------------------------------ certify

def test_certify_flags_corruption(ex_tight):
    prog, _ = build_sdr1(ex_tight)
    sol = solve(prog)
    sol.primal_psd = sol.primal_psd.copy()
    sol.primal_psd[1, 1] += 1.0  # corrupt X11
    rep = certify(prog, sol, 1e-6)
    assert not rep.ok
    names = [c.name for c in rep.failed()]
    assert any(name.startswith("primal_row") for name in names)


def test_certify_passes_on_planted(ex_tight):
    for kind, seed in (("RdnBQP", 3), ("RdBQP", 5)):
        inst = generate_instance(kind, 8, 3, seed=seed)
        for builder in (build_sdr1, build_sdr2, build_dnnp):
            prog, _ = builder(inst)
            sol = solve(prog)
            assert sol.status == STATUS_OPTIMAL
            rep = certify(prog, sol, 1e-6)
            assert rep.ok, (kind, seed, prog.label, rep.failed())


# ------------------------------------------------------------ invariants

def test_weak_duality_every_iterate(ex_tight):
    for builder in (build_sdr1, build_sdr2, build_dnnp):
        prog, _ = builder(ex_tight)
        sol = solve(prog)
        for rec in sol.history:
            assert rec.dual_obj <= rec.primal_obj + 1e-9 * (1.0 + abs(rec.primal_obj))


def test_determinism_identical_runs():
    inst = generate_instance("RdsBQP", 7, 2, seed=4)
    prog, _ = build_sdr2(inst)
    a = solve(prog)
    b = solve(prog)
    assert a.status == b.status
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra.primal_obj == rb.primal_obj
        assert ra.gap == rb.gap
        assert ra.pres == rb.pres


def test_scale_robustness(ex_tight):
    prog, _ = build_sdr1(ex_tight)
    scaled = ConicProgram(
        sense=prog.sense, psd_order=prog.psd_order, nonneg_count=prog.nonneg_count,
        free_count=prog.free_count, obj_psd=1e3 * prog.obj_psd,
        obj_nonneg=1e3 * prog.obj_nonneg, obj_free=1e3 * prog.obj_free,
        offset=prog.offset, G_psd=prog.G_psd, G_nonneg=prog.G_nonneg,
        G_free=prog.G_free, rhs=prog.rhs, label=prog.label, face=prog.face,
    )
    a = solve(prog)
    b = solve(scaled)
    assert a.status == b.status == STATUS_OPTIMAL
    assert b.primal_obj == pytest.approx(1e3 * a.primal_obj, rel=1e-6)


def test_max_sense(ex_tight):
    G = MaxCutGraph(W=np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    prog, _ = build_mc_sdr(G)
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert sol.primal_obj == pytest.approx(2.25, abs=1e-6)
    # for a max problem the dual value is an upper bound
    assert sol.dual_obj >= sol.primal_obj - 1e-6


def test_optimal_cone_margins(ex_tight):
    prog, _ = build_sdr2(ex_tight)
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert np.linalg.eigvalsh(sol.primal_psd).min() >= -1e-6
    assert sol.primal_nonneg.min() >= -1e-6


def test_per_iteration_log_lines(ex_tight, caplog):
    prog, _ = build_sdr1(ex_tight)
    with caplog.at_level(logging.DEBUG, logger="bqrelax.solver"):
        solve(prog)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("iter")]
    assert len(lines) >= 3
    # stable column order: iter, pobj, dobj, gap, pres, dres
    assert lines[0].split()[0] == "iter"
    assert "pobj" in lines[0] and "gap" in lines[0] and "pres" in lines[0]


# ------------------------------------------------------------ Schur assembly

def sdr_without_linear_term(kind, n, m, seed):
    """Standard SDR with c = 0: the free block does not make it unbounded, so
    it iterates, with sparse unit-diagonal rows and dense a a^T rows."""
    inst = generate_instance(kind, n, m, seed=seed)
    return build_sdr(BqpInstance(inst.Q, np.zeros(n), inst.A, inst.b))[0]


def without_free_block(prog):
    """prog's rows that hold no free coefficient, without the free block: the
    rows the loop solves once presolve has decided the free block (its
    constant aside)."""
    rows = ~prog.G_free.any(axis=1)
    return dataclasses.replace(
        prog, free_count=0, obj_free=np.zeros(0), G_psd=prog.G_psd[rows],
        G_nonneg=prog.G_nonneg[rows], G_free=np.zeros((int(rows.sum()), 0)), rhs=prog.rhs[rows],
        face=None)


SCHUR_PROGRAMS = {
    "mc_sdr": lambda: build_mc_sdr(random_graph(9, seed=2, density=0.5))[0],
    "mc_dnnp": lambda: build_mc_dnnp(random_graph(7, seed=2, density=0.5))[0],
    "sdr_c0": lambda: without_free_block(sdr_without_linear_term("RdnBQP", 8, 3, 1)),
    "sdr1": lambda: build_sdr1(generate_instance("RdBQP", 6, 3, seed=1))[0],
    "sdr2": lambda: build_sdr2(generate_instance("RdBQP", 6, 3, seed=1))[0],
    "dnnp": lambda: build_dnnp(generate_instance("RdBQP", 6, 3, seed=1))[0],
    "lp_shared": lambda: SHARED_COLUMN_LP,
}


def normalized_blocks(prog, ws):
    """The program's (G_psd, G_nonneg) over the workspace's row scales: the
    reference for what the workspace keeps of them."""
    return tuple(G / ws.row_scale[:, None] for G in (prog.G_psd, prog.G_nonneg))


@pytest.mark.parametrize("name", sorted(SCHUR_PROGRAMS))
def test_schur_block_matches_congruence_reference(name):
    prog = SCHUR_PROGRAMS[name]()
    ws = _Workspace(prog, SolverSettings())
    Gp, Gn = normalized_blocks(prog, ws)
    rows = ws.schur
    if name.startswith("mc_"):
        assert rows.dense.size == 0
    elif name == "lp_shared":  # an orthant column in two rows: a dense product
        assert rows.Gn_dense_cols.size
    else:  # sparse and dense rows both present: the cross block is exercised
        assert rows.sparse.size and rows.dense.size
    rng = np.random.default_rng(7)
    for _ in range(3):  # one KKT buffer per solve: nothing may carry over
        R = rng.standard_normal((ws.d, ws.d))
        w2 = rng.uniform(0.1, 2.0, ws.p)
        K, Vz = _NewtonSystem.assemble(ws, R, w2)
        V = kernels.scaled_congruence_rows(Gp, R)
        M = V @ V.T + (Gn * w2) @ Gn.T
        ref = M + solver.KKT_REGULARIZATION * max(1.0, np.abs(M).max()) * np.eye(ws.rows)
        assert np.abs(K - ref).max() <= 1e-12 * np.abs(ref).max()
        # LU factors K through its transpose: K is symmetric, bit for bit on
        # mc_sdr, sdr_c0 and lp_shared, and to rounding where a slot's rows
        # carry unlike scales
        if name in ("mc_sdr", "sdr_c0", "lp_shared"):
            np.testing.assert_array_equal(K, K.T)
        else:
            assert np.abs(K - K.T).max() <= 8 * np.finfo(float).eps * np.abs(K).max()
        z = rng.standard_normal(V.shape[1])
        assert np.abs(Vz(z) - V @ z).max() <= 1e-12 * np.abs(V @ z).max()


def with_a_dense_row_shuffled_in(prog, seed):
    """prog with one more row, dense in the PSD block, and its rows in a
    random order: the rows of every slot become an index array."""
    perm = np.random.default_rng(seed).permutation(prog.n_rows + 1)

    def grown(G, value):
        return np.vstack([G, np.full((1, G.shape[1]), value)])[perm]

    return dataclasses.replace(prog, G_psd=grown(prog.G_psd, 1.0), G_nonneg=grown(prog.G_nonneg, 0.0),
                               G_free=grown(prog.G_free, 0.0), rhs=np.append(prog.rhs, 1.0)[perm])


@pytest.mark.parametrize("shuffled", [False, True])
def test_schur_chunks_match_the_whole_block(monkeypatch, shuffled):
    # mc_dnnp at n=40 (902 rows): slot 0 spans several chunks at the default
    # size; one row per chunk and one chunk per block give the same bits
    prog = build_mc_dnnp(random_graph(40, seed=24, density=0.6))[0]
    ws = _Workspace(with_a_dense_row_shuffled_in(prog, 3) if shuffled else prog, SolverSettings())
    assert ws.rows > solver._CHUNK // ws.rows and len(ws.schur.slots) == 2
    assert all(isinstance(s.rows, slice) != shuffled for s in ws.schur.slots)
    rng = np.random.default_rng(11)
    R = rng.standard_normal((ws.d, ws.d))
    w2 = rng.uniform(0.1, 2.0, ws.p)
    K = _NewtonSystem.assemble(ws, R, w2)[0].copy()
    for chunk in (1, 1 << 30):
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        np.testing.assert_array_equal(_NewtonSystem.assemble(ws, R, w2)[0], K)


def newton_system_at(ws, R, x_nn):
    """The seam at scaling R (lam = 1) and at the start point with x_nn for
    its orthant block (so w2 = x_nn, to rounding, and kappa / tau = 1):
    (it, K as assembled before it factored K, and its tau column's g, q and
    theta, formed as the seam forms them)."""
    pt = ws.pt._replace(x_nn=x_nn)
    w_nn = np.sqrt(pt.x_nn / pt.s_nn)
    K = _NewtonSystem.assemble(ws, R, w_nn**2)[0].copy()
    kkt = _NewtonSystem(ws, pt, R, np.ones(ws.d))
    c_ps = svec(R.T @ smat(ws.c_psd) @ R)
    theta = float(c_ps @ c_ps + (w_nn * ws.c_nn) @ (w_nn * ws.c_nn)) + 1.0
    u = kkt.Vz(c_ps) + ws.matvec(w_nn**2 * ws.c_nn)
    return kkt, K, u + ws.b, ws.b - u, theta


def bordered_solve(kkt, r, r3):
    """(dy, dtau) for the bordered right-hand side (r; r3): newton() with
    t2p = t2n = 0 and no complementarity terms, whose Schur right-hand side
    is then (r; r3) to the bit."""
    dirn = kkt.newton(r, np.zeros(kkt.c_ps.size), np.zeros(kkt.w2.size), r3)[0]
    return dirn.y, dirn.tau


@pytest.mark.parametrize("name", ["sdr_c0", "mc_dnnp", "sdr2-face"])
def test_newton_system_solves_the_bordered_system(name):
    # (dy, dtau) solves [[K, -g], [q^T, theta]] with K = M + reg I: the tau
    # column's elimination against a dense solve of the whole bordered matrix
    prog = {**SCHUR_PROGRAMS, **FACE_PROGRAMS}[name]()
    ws = _Workspace(presolve_rank_check(prog, quiet=True).program, SolverSettings())
    rng = np.random.default_rng(6)
    for _ in range(3):
        R = rng.standard_normal((ws.d, ws.d))
        kkt, K, g, q, theta = newton_system_at(ws, R, rng.uniform(0.1, 2.0, ws.p))
        # K is factored in place, in the workspace's KKT buffer
        assert np.shares_memory(kkt.lu[0], ws.K)
        B = np.block([[K, -g[:, None]], [q, theta]])
        rhs = rng.standard_normal(B.shape[0])
        want = np.linalg.solve(B, rhs)
        got = np.r_[bordered_solve(kkt, rhs[:-1], rhs[-1])]
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
        # the next assembly rewrites every entry the factorization overwrote
        np.testing.assert_array_equal(_NewtonSystem.assemble(ws, R, kkt.w2)[0], K)


@pytest.mark.parametrize("name", ["dnnp-face", "mc_dnnp", "mc_sdr"])
def test_newton_maps_a_linearized_hsd_right_hand_side_to_its_direction(name):
    # at the start point of a solve: the direction reproduces the right-hand
    # side through the HSD map, its NT-scaled pair meets the PSD
    # complementarity row, and each call takes one back-solve
    pre = presolve_rank_check({**ROW_PROGRAMS, **FACE_PROGRAMS}[name](), quiet=True)
    ws = _Workspace(pre.program, SolverSettings(), pre.scan)
    pt = ws.pt
    R, lam = solver._nt_scaling(smat(pt.x_psd), smat(pt.s_psd))
    kkt = _NewtonSystem(ws, pt, R, lam)
    assert kkt.ok and ws.stats["kkt_solves"] == 1
    mu = pt.compl() / (ws.nu + 1)
    t = [-r for r in ws.hsd(pt)[:4]]
    Em = 0.5 * mu * np.eye(ws.d) - np.diag(lam**2)
    En, Et = 0.5 * mu - pt.x_nn * pt.s_nn, 0.5 * mu - pt.tau * pt.kappa
    for calls, comp in enumerate([(Em, En, Et), ()], start=2):
        dirn, dXt, dSt = kkt.newton(*t, *comp)
        assert ws.stats["kkt_solves"] == calls
        err = max(np.abs(np.subtract(a, b)).max(initial=0.0) for a, b in zip(ws.hsd(dirn), t))
        assert err <= 1e-10 * max(np.abs(b).max(initial=0.0) for b in t)
        Hm = Em * (2.0 / np.add.outer(lam, lam)) if comp else 0.0
        np.testing.assert_array_equal(dXt, -dSt + Hm)


def test_maxcut_thm4_graph_keeps_verdict_and_iterations(monkeypatch):
    # one graph of the maxcut-thm4 benchmark workload, solved at the solver
    # defaults; the iteration counts are those of the assembly that built M
    # apart and copied it into K
    iters = []
    real = equivalence.solve

    def counted(prog, settings=None):
        sol = real(prog, settings)
        iters.append(sol.iters)
        return sol

    monkeypatch.setattr(equivalence, "solve", counted)
    rep = equivalence.verify_theorem4(random_graph(40, seed=24, density=0.6))
    assert rep.verdict == "pass"
    assert iters == [14, 16]


def test_maxcut_sdr_graph_keeps_status_and_counts():
    # one graph of the maxcut-sdr benchmark workload (order 150), solved at
    # the solver defaults; the counts are those of the NT scaling by SVD and
    # the step lengths from the whole spectrum
    prog = build_mc_sdr(random_graph(150, seed=1, density=0.5))[0]
    sol = solve(prog)
    assert (sol.status, certify(prog, sol).ok, sol.iters) == (STATUS_OPTIMAL, True, 13)
    assert (sol.stats["kkt_factorizations"], sol.stats["refinements"]) == (12, 0)


def count_congruence_calls(monkeypatch):
    calls = []
    original = kernels.scaled_congruence_rows

    def counted(rows, R):
        calls.append(rows.shape)
        return original(rows, R)

    monkeypatch.setattr(kernels, "scaled_congruence_rows", counted)
    return calls


def test_maxcut_sdr_solve_skips_congruence(monkeypatch):
    calls = count_congruence_calls(monkeypatch)
    prog, _ = build_mc_sdr(random_graph(12, seed=3, density=0.5))
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert certify(prog, sol, 1e-6).ok
    assert calls == []


def test_face_reduced_solve_keeps_congruence(monkeypatch, ex_tight):
    calls = count_congruence_calls(monkeypatch)
    prog, _ = build_sdr1(ex_tight)
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    # one call maps the rows onto the face, then one per step taken (the
    # last iterate only passes the termination test)
    assert len(calls) == sol.iters


def test_mixed_sparse_dense_rows_certified():
    prog = sdr_without_linear_term("RdnBQP", 20, 10, 1)
    assert prog.face is None
    ws = _Workspace(without_free_block(prog), SolverSettings())
    assert ws.schur.sparse.size and ws.schur.dense.size
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    rep = certify(prog, sol, 1e-6)
    assert rep.ok, rep.failed()


def test_maxcut_solve_copies_no_dense_rows():
    # presolve, the workspace and the Schur setup take the rows as triples
    # and stack them a bounded block at a time: the solve allocates less
    # than one copy of G_psd above the program (three when the rows were
    # stacked, squared and normalized whole)
    prog, _ = build_mc_sdr(random_graph(150, seed=1, density=0.5))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol = solve(prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == STATUS_OPTIMAL
    assert peak - base < prog.G_psd.nbytes


# ------------------------------------------------------------ sparse rows

def full_qr_dropped(prog):
    """Reference for presolve: one pivoted QR over every nonzero row, as
    before rows owning a column were set aside; returns the dropped rows."""
    G = np.hstack([prog.G_psd, prog.G_nonneg, prog.G_free])
    norms = np.linalg.norm(G, axis=1)
    floor = 1e-12 * max(1.0, norms.max())
    live = [i for i in range(prog.n_rows) if norms[i] > floor]
    _, R, piv = scipy.linalg.qr(G[live].T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = 0
    while rank < min(len(live), R.shape[0]) and \
            diag[rank] > RANK_PIVOT_REL * max(norms[live[piv[rank]]], floor):
        rank += 1
    zero = [i for i in range(prog.n_rows) if norms[i] <= floor]
    return sorted([live[i] for i in piv[rank:]] + zero)


def face_reduced(prog):
    """The program presolve receives inside solve(): the face-reduced one
    when the builder supplies a face."""
    seen = []
    real = solver.presolve_rank_check
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "presolve_rank_check",
                   lambda p, quiet=False: seen.append(p) or real(p, quiet))
        solve(prog, SolverSettings(max_iters=1))
    return seen[0]


def desk(builder):
    return lambda: builder(generate_instance("RdBQP", 12, 5, seed=1))[0]


ROW_PROGRAMS = {
    "mc_sdr": lambda: build_mc_sdr(random_graph(20, seed=1, density=0.5))[0],
    "mc_dnnp": lambda: build_mc_dnnp(random_graph(10, seed=1, density=0.5))[0],
    "sdr": desk(build_sdr),
    "sdr1": desk(build_sdr1),
    "sdr2": desk(build_sdr2),
    "dnnp": desk(build_dnnp),
}
FACE_PROGRAMS = {
    f"{name}-face": (lambda name=name: face_reduced(ROW_PROGRAMS[name]()))
    for name in ("sdr1", "sdr2", "dnnp")
}


@pytest.mark.parametrize("name", sorted(ROW_PROGRAMS) + sorted(FACE_PROGRAMS))
def test_presolve_matches_full_qr(name):
    prog = {**ROW_PROGRAMS, **FACE_PROGRAMS}[name]()
    pre = presolve_rank_check(prog, quiet=True)
    assert not pre.infeasible
    assert pre.dropped_rows == full_qr_dropped(prog)
    assert pre.program.n_rows == prog.n_rows - len(pre.dropped_rows)
    if name.endswith("-face"):  # the builder already dropped the rows the face implies
        assert pre.dropped_rows == []


@pytest.mark.parametrize("name", sorted(ROW_PROGRAMS))
def test_row_blocks_match_the_whole_stack(monkeypatch, name):
    # one row per stacked block: the norms, and the normalized triples the
    # workspace keeps, are bit-for-bit those of the whole stack
    prog = ROW_PROGRAMS[name]()
    monkeypatch.setattr(solver, "_CHUNK", 1)
    norms, _ = solver._row_scan(prog)
    G = np.hstack([prog.G_psd, prog.G_nonneg, prog.G_free])
    np.testing.assert_array_equal(norms, np.linalg.norm(G, axis=1))
    # the loop's rows (sdr's without its free block)
    loop = without_free_block(prog)
    G = np.hstack([loop.G_psd, loop.G_nonneg])
    whole = np.linalg.norm(G, axis=1)
    ws = _Workspace(loop, SolverSettings())
    for got, want in zip(ws.triples, solver._coo(G / np.maximum(whole, 1e-12)[:, None])):
        np.testing.assert_array_equal(got, want)
    # presolve keeps every row, so the solve scans them once, and a workspace
    # built from presolve's scan is the one that scans for itself
    pre = presolve_rank_check(loop, quiet=True)
    given = _Workspace(pre.program, SolverSettings(), pre.scan)
    for a, b in ((ws.row_scale, given.row_scale), (ws.b, given.b),
                 *zip(ws.triples, given.triples)):
        np.testing.assert_array_equal(a, b)
    scans = []
    monkeypatch.setattr(solver, "_row_scan", lambda p, _scan=solver._row_scan: scans.append(p) or _scan(p))
    solve(prog, SolverSettings(max_iters=1))
    assert len(scans) == 1


@pytest.mark.parametrize("big", [1e160, 1e200, 1e300])
def test_presolve_keeps_a_row_whose_squares_overflow(big):
    # the sum of squares of x1 + big x2 = 1 overflows; the row's norm stays
    # finite, so presolve keeps the feasible row instead of calling it a zero
    # row with rhs 1 (Infeasible)
    prog = lp([1.0, 2.0], [[1.0, big]], [1.0])
    norms, _ = solver._row_scan(prog)
    assert norms.tolist() == [big]
    pre = presolve_rank_check(prog)
    assert (pre.infeasible, pre.dropped_rows, pre.program) == (False, [], prog)


def copied_kkt(ws, R, w2):
    """The KKT matrix built the earlier way: M assembled on its own, then
    K = M + reg I, the regularization taken from np.abs(M)."""
    rows, sch = ws.rows, ws.schur
    V = kernels.scaled_congruence_rows(ws.Gp, R)
    M = V @ V.T
    if sch.Gn_dense_cols.size:
        M += (sch.Gn_dense * w2[sch.Gn_dense_cols]) @ sch.Gn_dense.T
    if sch.nn_rows.size:
        np.add.at(M, (sch.nn_rows, sch.nn_rows), (sch.nn_vals * w2[sch.nn_cols]) * sch.nn_vals)
    M[np.arange(rows), np.arange(rows)] += solver.KKT_REGULARIZATION * max(
        1.0, np.abs(M).max() if rows else 1.0)
    return M


@pytest.mark.parametrize("name", sorted(FACE_PROGRAMS))
def test_dense_rows_kkt_is_bit_identical_to_the_copied_assembly(name):
    ws = _Workspace(presolve_rank_check(FACE_PROGRAMS[name](), quiet=True).program,
                    SolverSettings())
    assert ws.schur.slots == [] and ws.schur.dense.size == ws.rows
    rng = np.random.default_rng(5)
    for _ in range(3):
        R = rng.standard_normal((ws.d, ws.d))
        w2 = rng.uniform(0.1, 2.0, ws.p)
        K = _NewtonSystem.assemble(ws, R, w2)[0]
        np.testing.assert_array_equal(K, copied_kkt(ws, R, w2))
        np.testing.assert_array_equal(K, K.T)


def with_A(inst, A, b):
    return BqpInstance(inst.Q, inst.c, np.asarray(A, dtype=float), np.asarray(b, dtype=float))


def desk_inst():
    return generate_instance("RdBQP", 12, 5, seed=1)


def duplicated_row_inst():
    inst = desk_inst()
    return with_A(inst, np.vstack([inst.A, inst.A[1]]), np.append(inst.b, inst.b[1]))


def zero_rhs_inst():
    inst = desk_inst()
    b = inst.b.copy()
    b[2] = 0.0
    return with_A(inst, inst.A, b)


DECLARED_FACE_PROGRAMS = {
    **{f"{b.__name__[6:]}": (lambda b=b: b(desk_inst())[0])
       for b in (build_sdr1, build_sdr2, build_dnnp)},
    **{f"{b.__name__[6:]}-dup-row": (lambda b=b: b(duplicated_row_inst())[0])
       for b in (build_sdr1, build_sdr2, build_dnnp)},
    **{f"{b.__name__[6:]}-m10": (lambda b=b: b(generate_instance("RdBQP", 12, 10, seed=1))[0])
       for b in (build_sdr1, build_sdr2, build_dnnp)},
    **{f"{b.__name__[6:]}-b0": (lambda b=b: b(zero_rhs_inst())[0])
       for b in (build_sdr, build_sdr1, build_sdr2, build_dnnp)},
}


def onto_face(prog, rows):
    """The given rows of prog mapped onto its face, as the solver maps them."""
    Q, R = np.linalg.qr(prog.face.kernel, mode="complete")
    diag = np.abs(np.diag(R))
    V = Q[:, int(np.sum(diag > 1e-12 * max(1.0, diag.max()))):]
    return ConicProgram(
        sense=prog.sense, psd_order=V.shape[1], nonneg_count=prog.nonneg_count,
        free_count=prog.free_count, obj_psd=svec(V.T @ smat(prog.obj_psd) @ V),
        obj_nonneg=prog.obj_nonneg, obj_free=prog.obj_free, offset=prog.offset,
        G_psd=kernels.scaled_congruence_rows(prog.G_psd[rows], V),
        G_nonneg=prog.G_nonneg[rows], G_free=prog.G_free[rows], rhs=prog.rhs[rows],
        label=prog.label)


@pytest.mark.parametrize("name", sorted(DECLARED_FACE_PROGRAMS))
def test_declared_rows_match_full_qr_on_the_face(name):
    prog = DECLARED_FACE_PROGRAMS[name]()
    implied = prog.face.implied
    rest = np.setdiff1d(np.arange(prog.n_rows), implied)
    # a full pivoted QR over every row mapped onto the face finds as many
    # dependent rows as the builder declares plus what presolve drops of the rest
    full = full_qr_dropped(onto_face(prog, np.arange(prog.n_rows)))
    reduced = onto_face(prog, rest)
    pre = presolve_rank_check(reduced, quiet=True)
    assert not pre.infeasible
    assert pre.dropped_rows == full_qr_dropped(reduced)
    assert len(implied) + len(pre.dropped_rows) == len(full)
    # and on the face every declared row, rhs included, is a combination of the kept rows
    kept = pre.program
    G = np.hstack([kept.G_psd, kept.G_nonneg, kept.G_free, kept.rhs[:, None]])
    on_face = onto_face(prog, implied)
    D = np.hstack([on_face.G_psd, on_face.G_nonneg, on_face.G_free, on_face.rhs[:, None]])
    combos, *_ = np.linalg.lstsq(G.T, D.T, rcond=None)
    assert np.abs(G.T @ combos - D.T).max() <= 1e-9 * max(1.0, np.abs(D).max())


def test_declared_rows_leave_presolve_work_at_large_m():
    prog = DECLARED_FACE_PROGRAMS["sdr2-m10"]()
    pre = presolve_rank_check(face_reduced(prog), quiet=True)
    assert pre.dropped_rows  # diagonal rows depend on each other on a small face
    sol = solve(prog)
    assert set(prog.face.implied) <= set(sol.dropped_rows)
    assert len(sol.dropped_rows) == len(prog.face.implied) + len(pre.dropped_rows)


@pytest.mark.parametrize("builder", [build_sdr1, build_sdr2, build_dnnp])
def test_face_reduced_solve_makes_no_lstsq_call(monkeypatch, builder):
    calls = []
    original = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: calls.append(a[0].shape) or original(*a, **k))
    prog, _ = builder(desk_inst())
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert certify(prog, sol, 1e-6).ok
    assert calls == []
    assert sol.dropped_rows == prog.face.implied.tolist()


@pytest.mark.parametrize("builder", [build_sdr1, build_sdr2, build_dnnp])
@pytest.mark.parametrize("n, m, seed, face_order", [(3, 5, 1, 0), (5, 3, 4, 3)])
def test_infeasible_face_certificate_lifts_to_the_original_rows(builder, n, m, seed, face_order):
    # unplanted data: no sign vector meets A x = b.  With m > n the kernel
    # spans the whole lifted block (presolve finds Y00 = 1 impossible on a
    # zero-order face); with m < n the loop finds the dual ray
    prog, _ = builder(generate_instance("RdiBQP", n, m, seed=seed, planted=False))
    assert n + 1 - np.linalg.matrix_rank(prog.face.kernel) == face_order
    sol = solve(prog)
    assert sol.status == STATUS_INFEASIBLE
    assert sol.ray.y.shape == (prog.n_rows,)
    rep = certify(prog, sol, 1e-6)
    assert rep.ok, rep.failed()


def corrupt_coefficient(face):
    coeffs = face.coeffs.copy()
    coeffs[0, 1] *= 1.0 + 1e-6
    return dataclasses.replace(face, coeffs=coeffs)


def corrupt_row(face):
    rows = face.rows.copy()
    rows[0, 2] = rows[1, 2]  # the quadratic row of another constraint
    return dataclasses.replace(face, rows=rows)


@pytest.mark.parametrize("corrupt", [corrupt_coefficient, corrupt_row])
def test_face_failing_its_check_is_not_used(monkeypatch, caplog, corrupt):
    prog, _ = build_sdr1(generate_instance("RdBQP", 6, 2, seed=3))
    assert solver._face_holds(prog)
    prog.face = corrupt(prog.face)
    assert not solver._face_holds(prog)
    seen = []
    real = solver.presolve_rank_check
    monkeypatch.setattr(solver, "presolve_rank_check",
                        lambda p, quiet=False: seen.append(p) or real(p, quiet))
    with caplog.at_level(logging.WARNING, logger="bqrelax.solver"):
        sol = solve(prog, SolverSettings(max_iters=5))
    # solved unreduced: presolve saw every row on the whole PSD block
    assert [(p.psd_order, p.n_rows) for p in seen] == [(prog.psd_order, prog.n_rows)]
    assert sol.primal_psd.shape == (prog.psd_order, prog.psd_order)
    assert "row combination does not hold" in caplog.text


@pytest.mark.parametrize("builder", [build_sdr1, build_sdr2, build_dnnp])
def test_certify_trusts_a_face_only_after_checking_it(builder):
    prog, _ = builder(generate_instance("RdBQP", 6, 2, seed=3))
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert certify(prog, sol, 1e-6).ok
    # the returned slack is PSD on the face only; with a face that fails its
    # check, certify tests the whole slack and rejects it
    corrupted = dataclasses.replace(prog, face=corrupt_coefficient(prog.face))
    assert [c.name for c in certify(corrupted, sol, 1e-6).failed()] == ["dual_psd_cone"]
    # on a face that holds, a slack with a negative direction on the face is rejected
    V = solver._face_basis(prog.face.kernel)
    w, U = np.linalg.eigh(V.T @ sol.dual_slack_psd @ V)
    eps = w[0] + 1e-3
    shifted = dataclasses.replace(
        sol, dual_slack_psd=sol.dual_slack_psd - eps * V @ np.outer(U[:, 0], U[:, 0]) @ V.T)
    assert "dual_psd_cone" in [c.name for c in certify(prog, shifted, 1e-6).failed()]


def test_face_reduced_sdr2_of_a_desk_instance_certifies():
    # RdBQP-n12-m5-s36-p sdr2 of the bqp-desk benchmark: a dual slack shifted
    # along the face's row combination fails complementarity here (2.3e-6)
    prog, _ = build_sdr2(generate_instance("RdBQP", 12, 5, seed=36))
    sol = solve(prog, SolverSettings(tol_gap=1e-8, tol_feas=1e-8, tol_infeas=1e-8))
    assert sol.status == STATUS_OPTIMAL
    rep = certify(prog, sol, 1e-6)
    assert rep.ok, rep.failed()


def test_presolve_duplicated_slack_free_rows_match_full_qr():
    prog = ROW_PROGRAMS["sdr2"]()
    diag = [r for r in range(prog.n_rows) if not prog.G_nonneg[r].any()][-3:]
    for r in diag:  # consistent copies, scaled by 2
        prog = append_row(prog, 2.0 * prog.G_psd[r], 2.0 * prog.G_nonneg[r],
                          2.0 * prog.G_free[r], 2.0 * prog.rhs[r])
    pre = presolve_rank_check(prog, quiet=True)
    assert not pre.infeasible
    assert len(pre.dropped_rows) == 3
    assert pre.dropped_rows == full_qr_dropped(prog)

    r = diag[0]
    bad = append_row(prog, prog.G_psd[r], prog.G_nonneg[r], prog.G_free[r], prog.rhs[r] + 1.0)
    pre = presolve_rank_check(bad, quiet=True)
    assert pre.infeasible
    assert pre.dropped_rows == full_qr_dropped(bad)
    sol = solve(bad)
    assert sol.status == STATUS_INFEASIBLE
    rep = certify(bad, sol, 1e-6)
    assert rep.ok, rep.failed()


def count_qr_calls(monkeypatch):
    shapes = []
    original = scipy.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counted)
    return shapes


@pytest.mark.parametrize("coeff, qr_shapes, dropped", [(1e-12, [(3, 2)], [1]), (1e-6, [], [])])
def test_presolve_private_coefficient_threshold(monkeypatch, coeff, qr_shapes, dropped):
    # column 2 belongs to row 0 alone.  Below 1e-10 * its norm it does not
    # count, so both rows go through the QR, which finds them dependent.
    # Above, row 0 is set aside, and row 1 then owns columns 0 and 1.
    prog = lp([1.0, 1.0, 1.0], [[1.0, 1.0, coeff], [1.0, 1.0, 0.0]], [1.0, 1.0])
    shapes = count_qr_calls(monkeypatch)
    pre = presolve_rank_check(prog, quiet=True)
    assert shapes == qr_shapes
    assert pre.dropped_rows == dropped
    assert pre.dropped_rows == full_qr_dropped(prog)


@pytest.mark.parametrize("name, calls", [("mc_sdr", 0), ("mc_dnnp", 0), ("sdr1", 1)])
def test_presolve_qr_calls(monkeypatch, name, calls):
    prog = ROW_PROGRAMS[name]()
    shapes = count_qr_calls(monkeypatch)
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    assert certify(prog, sol, 1e-6).ok
    assert len(shapes) == calls


def blocks_program():
    """d = 2, p = 2 with an all-zero row, rows of one, two and three
    nonzeros, and an unused orthant column."""
    G_psd = np.array([[1.0, 0, 0], [0, 0, 0], [0, 2.0, 0], [0, 0, 0], [0.5, 0, -1.0]])
    G_nn = np.array([[0.0, 0], [0, 0], [-1.0, 0], [3.0, 0], [1.0, 0]])
    return ConicProgram(
        sense="min", psd_order=2, nonneg_count=2, free_count=0,
        obj_psd=np.zeros(3), obj_nonneg=np.zeros(2), obj_free=np.zeros(0), offset=0.0,
        G_psd=G_psd, G_nonneg=G_nn, G_free=np.zeros((5, 0)), rhs=np.ones(5), label="blocks")


def no_rows_program():
    return ConicProgram(
        sense="min", psd_order=2, nonneg_count=1, free_count=0,
        obj_psd=np.ones(3), obj_nonneg=np.ones(1), obj_free=np.zeros(0), offset=0.0,
        G_psd=np.zeros((0, 3)), G_nonneg=np.zeros((0, 1)), G_free=np.zeros((0, 0)),
        rhs=np.zeros(0), label="no-rows")


MATVEC_PROGRAMS = {
    "mc_sdr": ROW_PROGRAMS["mc_sdr"],
    "mc_dnnp": ROW_PROGRAMS["mc_dnnp"],
    "blocks": blocks_program,
    "lp_only": lambda: lp([1.0, 1.0, 1.0], [[1.0, 0.0, 0.0], [0.0, -1.0, 2.0]], [1.0, 2.0]),
    "no_rows": no_rows_program,
}


@pytest.mark.parametrize("name", sorted(MATVEC_PROGRAMS))
def test_index_matvecs_match_dense(name):
    prog = MATVEC_PROGRAMS[name]()
    ws = _Workspace(prog, SolverSettings())
    assert ws.coo is not None
    blocks = normalized_blocks(prog, ws)
    rng = np.random.default_rng(3)
    xs = [rng.standard_normal(G.shape[1]) for G in blocks]
    y = rng.standard_normal(ws.rows)

    def check(got, G, v):
        ref = G @ v
        scale = np.abs(G) @ np.abs(v)
        one = np.count_nonzero(G, axis=1) <= 1
        assert got.shape == ref.shape
        assert np.array_equal(got[one], ref[one])
        assert np.all(np.abs(got - ref)[~one] <= 1e-15 * scale[~one])

    check(ws.matvec(xs[1], xs[0]), np.hstack(blocks), np.concatenate(xs))
    check(ws.matvec(xs[1]), blocks[1], xs[1])
    for G, g in zip(blocks, ws.rmatvec(y)):
        check(g, G.T, y)


@pytest.mark.parametrize("name", sorted(FACE_PROGRAMS) + ["mc_dnnp", "mc_sdr"])
def test_row_storage_choice(name):
    prog = {**ROW_PROGRAMS, **FACE_PROGRAMS}[name]()
    ws = _Workspace(presolve_rank_check(prog, quiet=True).program, SolverSettings())
    assert (ws.coo is not None) == name.startswith("mc_")


# ------------------------------------------------------------ back-solves and their counts

def max_step_psd_recomputed(x_svec, dx_svec):
    """Step bound that refactors X and solves through scipy: the reference."""
    L = np.linalg.cholesky(smat(x_svec))
    T = scipy.linalg.solve_triangular(L, smat(dx_svec), lower=True)
    T = scipy.linalg.solve_triangular(L, T.T, lower=True)
    lam_min = np.linalg.eigvalsh(0.5 * (T + T.T))[0]
    return np.inf if lam_min >= 0 else 1.0 / (-lam_min)


def zero_stats():
    return dict.fromkeys(solver.SOLVE_COUNTS, 0)


def random_psd_svec(rng, d, rank=None):
    A = rng.standard_normal((d, d if rank is None else rank))
    return svec(A @ A.T + (1e-3 * np.eye(d) if rank is None else 0.0))


@pytest.mark.parametrize("d", [1, 2, 5, 8, 13, 41, 150])
def test_max_step_scaled_matches_the_cholesky_step(d):
    # the step in NT-scaled form, X~ = S~ = diag(lam), against the step that
    # refactors X (or S) and solves through it
    rng = np.random.default_rng(d)
    # the one smallest eigenvalue the step reads, against the whole spectrum
    A = rng.standard_normal((d, d))
    T = A + A.T
    assert abs(solver._lambda_min(T) - np.linalg.eigvalsh(T)[0]) <= 1e-13 * max(
        1.0, np.linalg.norm(T, 2))
    x, s = random_psd_svec(rng, d), random_psd_svec(rng, d)
    R, lam = solver._nt_scaling(smat(x), smat(s))
    np.testing.assert_allclose(np.linalg.solve(R, np.linalg.solve(R, smat(x)).T), np.diag(lam),
                               atol=1e-9 * lam.max())
    np.testing.assert_allclose(R.T @ smat(s) @ R, np.diag(lam), atol=1e-9 * lam.max())
    for ascent in (False, False, False, True):
        # dX from its scaled form, as newton builds it, and dS~ from dS; an
        # ascent direction meets no boundary
        At = rng.standard_normal((d, d))
        dXt = At @ At.T if ascent else At + At.T
        ds = random_psd_svec(rng, d) if ascent else rng.standard_normal(x.size)
        for step, v, dv in ((solver._max_step_scaled(lam, dXt), x, svec(R @ dXt @ R.T)),
                            (solver._max_step_scaled(lam, R.T @ smat(ds) @ R), s, ds)):
            ref = max_step_psd_recomputed(v, dv)
            if ascent:
                assert step == ref == np.inf
            else:
                assert step == pytest.approx(ref, rel=1e-9)
    assert solver._max_step_scaled(lam, np.diag(lam)) == np.inf
    # an X with a zero row and column is on the cone's boundary (its last
    # Cholesky pivot is exactly 0): the NT scaling refuses it, as it does S
    X = smat(x)
    X[-1], X[:, -1] = 0.0, 0.0
    for args in ((X, smat(s)), (smat(s), X)):
        with pytest.raises(np.linalg.LinAlgError):
            solver._nt_scaling(*args)


def nt_scaling_by_svd(X, S):
    """The NT scaling from the SVD of Ls^T Lx = U diag(lam) V^T: the reference."""
    Lx = np.linalg.cholesky(X)
    _, sig, Vt = np.linalg.svd(np.linalg.cholesky(S).T @ Lx)
    sig = np.maximum(sig, 1e-150)
    return Lx @ Vt.T * (1.0 / np.sqrt(sig)), sig


def test_nt_scaling_is_as_accurate_as_the_svd_route():
    # X at cond 1e8 and S = Lx^{-T} M Lx^{-1}, so that eig(XS) = eig(M)
    # spreads over 1e4: both identities hold to within 10x of the SVD route's error
    rng = np.random.default_rng(8)
    d = 30
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    X = (Q * np.logspace(0, -8, d)) @ Q.T
    X = 0.5 * (X + X.T)
    U = np.linalg.qr(rng.standard_normal((d, d)))[0]
    Li = np.linalg.inv(np.linalg.cholesky(X))
    S = Li.T @ ((U * np.logspace(0, 4, d)) @ U.T) @ Li
    S = 0.5 * (S + S.T)
    assert np.linalg.cond(X) == pytest.approx(1e8, rel=1e-3)

    def errors(R, lam):
        D = np.diag(lam)
        return (np.abs(np.linalg.solve(R, np.linalg.solve(R, X).T) - D).max() / lam.max(),
                np.abs(R.T @ S @ R - D).max() / lam.max())

    R, lam = solver._nt_scaling(X, S)
    R_ref, lam_ref = nt_scaling_by_svd(X, S)
    np.testing.assert_allclose(lam, np.sort(lam_ref), rtol=1e-6)
    for err, ref in zip(errors(R, lam), errors(R_ref, lam_ref)):
        assert err <= 10 * ref


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scaling_ends_in_breakdown(monkeypatch, bad):
    # a non-finite lam at the third iteration makes the scaled direction
    # non-finite: the loop stops there instead of raising
    calls = []

    def scaling(X, S, _nt=solver._nt_scaling):
        R, lam = _nt(X, S)
        calls.append(1)
        if len(calls) == 3:
            lam = np.r_[bad, lam[1:]]
        return R, lam

    monkeypatch.setattr(solver, "_nt_scaling", scaling)
    with np.errstate(all="ignore"):
        sol = solve(build_mc_sdr(random_graph(12, seed=2, density=0.5))[0])
    assert (sol.status, sol.stats["stop_reason"], len(calls)) == (
        STATUS_NUMERICAL_TROUBLE, "breakdown", 3)
    # the two steps before it were taken
    assert 0 < sol.stats["min_step"] <= 1


def test_solve_counts_on_a_face_reduced_solve():
    prog, _ = build_sdr1(generate_instance("RdBQP", 12, 5, seed=1))
    assert prog.face is not None
    sol = solve(prog)
    assert sol.status == STATUS_OPTIMAL
    factorizations = sol.stats["kkt_factorizations"]
    assert factorizations == sol.iters - 1
    # one solve for the tau column and one per direction, two directions, and
    # one per refinement pass
    assert sol.stats["kkt_solves"] == 3 * factorizations + sol.stats["refinements"]
    # one step per iteration that computes a direction, each at most 1
    assert 0 < sol.stats["min_step"] <= 1


def test_solve_counts_on_a_direct_solve_and_a_short_circuit(ex_tight):
    sol = solve(build_mc_sdr(random_graph(12, seed=2, density=0.5))[0])
    assert sol.status == STATUS_OPTIMAL
    refinements = sol.stats["refinements"]
    assert sol.stats == {"kkt_factorizations": sol.iters - 1,
                         "kkt_solves": 3 * (sol.iters - 1) + refinements,
                         "refinements": refinements,
                         "min_step": sol.stats["min_step"],
                         "stop_reason": "optimal"}
    assert 0 < sol.stats["min_step"] <= 1
    sol = solve(build_sdr(ex_tight)[0])
    assert sol.status == STATUS_UNBOUNDED and sol.iters == 0
    assert sol.stats == {**zero_stats(), "min_step": None, "stop_reason": "presolve_unbounded"}


def test_solve_counts_are_the_scipy_linalg_calls(monkeypatch):
    """Every counted factorization and solve is a call of the scipy.linalg
    function, so wrappers installed there (as a tracer does) see them all.
    The step lengths are taken in scaled form: no triangular solve, and the
    factorization overwrites the workspace's KKT buffer instead of a copy."""
    calls = dict.fromkeys(("lu_factor", "lu_solve", "solve_triangular"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(scipy.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, name, counted)
    buffers, in_place = [], []

    def factor(*args, _factor=scipy.linalg.lu_factor, **kwargs):
        lu, piv = _factor(*args, **kwargs)
        in_place.append(np.shares_memory(lu, buffers[-1]))
        return lu, piv

    monkeypatch.setattr(scipy.linalg, "lu_factor", factor)
    monkeypatch.setattr(solver._NewtonSystem, "assemble", staticmethod(
        lambda ws, R, w2, _assemble=solver._NewtonSystem.assemble:
        buffers.append(ws.K) or _assemble(ws, R, w2)))
    prog, _ = build_sdr1(generate_instance("RdBQP", 12, 5, seed=1))
    sol = solve(prog)
    assert sol.stats["kkt_solves"] > 0
    assert in_place == [True] * sol.stats["kkt_factorizations"]
    assert calls == {"lu_factor": sol.stats["kkt_factorizations"],
                     "lu_solve": sol.stats["kkt_solves"],
                     "solve_triangular": 0}
