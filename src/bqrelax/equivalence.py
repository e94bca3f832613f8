"""Solution maps between relaxation spaces and executable equivalence checks.

The x-space lifted relaxations (pairwise-cut SDR) and the z-space doubly
nonnegative relaxation are linked by the affine bijection

    z = (e - x)/2,            Z = (ee^T - e x^T - x e^T + X)/4,
    x = e - 2z,               X_ij = 1 - 2 z_i - 2 z_j + 4 Z_ij,

and the max-cut pair by

    X = (U + ee^T)/4, x = e/2,        U = 4X - 2 x e^T - 2 e x^T + ee^T.

Both pairs are exact affine inverses on their natural slices, transport
objectives identically (algebraic identities, tested to 1e-10 on random
points), and map feasible points to feasible points; verify_theorem3 /
verify_theorem4 run both solves, at the solver defaults, and check all of it
numerically.  A solve is used only if it returns a point that certify passes
at tol/10, so a fail verdict comes from the maps, not from solver error.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .model import BqpInstance, MaxCutGraph, laplacian
from .relax import ConicProgram, build_dnnp, build_mc_dnnp, build_mc_sdr, build_sdr2, build_zspace
from .solver import ConicSolution, certify, solve
from .symcone import DimensionError, lifted_matrix, psd_margin

DEFAULT_EQUIV_TOL = 1e-6


@dataclass
class PointXX:
    """x-space point (x, X)."""

    x: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.X.shape != (self.x.shape[0], self.x.shape[0]):
            raise DimensionError("X order must match x length")


@dataclass
class PointZZ:
    """z-space point (z, Z)."""

    z: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.Z = np.asarray(self.Z, dtype=float)
        if self.Z.shape != (self.z.shape[0], self.z.shape[0]):
            raise DimensionError("Z order must match z length")


@dataclass
class EquivalenceReport:
    opt_a: float
    opt_b: float
    mapped_feasible_ab: bool
    mapped_feasible_ba: bool
    objective_match_ab: bool
    objective_match_ba: bool
    max_violation: float
    verdict: str  # "pass" | "fail" | "not_applicable"
    detail: str = ""
    violations: list = field(default_factory=list)

    @property
    def gap(self) -> float:
        return abs(self.opt_a - self.opt_b)

    def to_json(self) -> str:
        return json.dumps(
            {
                "opt_a": self.opt_a,
                "opt_b": self.opt_b,
                "gap": self.gap if np.isfinite(self.opt_a) and np.isfinite(self.opt_b) else None,
                "violations": [[name, float(v)] for name, v in self.violations],
                "verdict": self.verdict,
                "detail": self.detail,
            },
            sort_keys=True,
        )


def sdr2_to_dnnp_point(p: PointXX) -> PointZZ:
    """z = (e - x)/2,  Z = (ee^T - e x^T - x e^T + X)/4."""
    n = p.x.shape[0]
    e = np.ones(n)
    E = np.ones((n, n))
    return PointZZ(
        z=(e - p.x) / 2.0,
        Z=(E - np.outer(e, p.x) - np.outer(p.x, e) + p.X) / 4.0,
    )


def dnnp_to_sdr2_point(p: PointZZ) -> PointXX:
    """x = e - 2z,  X_ij = 1 - 2 z_i - 2 z_j + 4 Z_ij."""
    n = p.z.shape[0]
    e = np.ones(n)
    E = np.ones((n, n))
    return PointXX(
        x=e - 2.0 * p.z,
        X=E - 2.0 * np.outer(e, p.z) - 2.0 * np.outer(p.z, e) + 4.0 * p.Z,
    )


def mc_sdr_to_dnnp_point(U: np.ndarray) -> PointXX:
    """X = (U + ee^T)/4,  x = e/2."""
    U = np.asarray(U, dtype=float)
    n = U.shape[0]
    return PointXX(x=np.full(n, 0.5), X=(U + np.ones((n, n))) / 4.0)


def mc_dnnp_to_sdr_point(p: PointXX) -> np.ndarray:
    """U = 4X - 2 x e^T - 2 e x^T + ee^T."""
    n = p.x.shape[0]
    e = np.ones(n)
    return 4.0 * p.X - 2.0 * np.outer(p.x, e) - 2.0 * np.outer(e, p.x) + np.ones((n, n))


def bqp_relaxation_objective(inst: BqpInstance, p: PointXX) -> float:
    """Q . X + 2 c^T x."""
    return float(np.sum(inst.Q * p.X) + 2.0 * inst.c @ p.x)


def dnnp_objective(inst: BqpInstance, p: PointZZ) -> float:
    """4 Q . Z - 4 z^T (Qe + c) + e^T Q e + 2 c^T e."""
    zs = build_zspace(inst)
    return float(4.0 * np.sum(inst.Q * p.Z) + zs.qz @ p.z + zs.constz)


def mc_sdr_objective(G: MaxCutGraph, U: np.ndarray) -> float:
    return float(np.sum(laplacian(G) * U)) / 4.0


def mc_dnnp_objective(G: MaxCutGraph, p: PointXX) -> float:
    L = laplacian(G)
    e = np.ones(G.n)
    return float(np.sum(L * p.X) - p.x @ (L @ e) + e @ L @ e / 4.0)


def check_feasibility(kind: str, point, data, tol: float = DEFAULT_EQUIV_TOL) -> list:
    """Evaluate every constraint of the named relaxation at a model-space point.

    Returns [(name, violation)] for entries exceeding tol relative to
    1 + |rhs|; empty list means feasible at that tolerance.
    """
    viols = []

    def eq(name, val, rhs):
        v = abs(val - rhs) / (1.0 + abs(rhs))
        if v > tol:
            viols.append((name, v))

    def ge(name, margin):
        if margin < -tol:
            viols.append((name, -margin))

    if kind in ("sdr1", "sdr2"):
        inst, p = data, point
        n = inst.n
        for i in range(inst.m):
            eq(f"lin[{i}]", float(inst.A[i] @ p.x), float(inst.b[i]))
            eq(f"quad[{i}]", float(inst.A[i] @ p.X @ inst.A[i]), float(inst.b[i] ** 2))
        for i in range(n):
            eq(f"diag[{i}]", float(p.X[i, i]), 1.0)
        if kind == "sdr2":
            for i in range(n):
                for j in range(i, n):
                    ge(f"cut[{i},{j}]", (1.0 - p.x[i] - p.x[j] + p.X[i, j]) / (1.0 + 1.0))
        ge("lifted_psd", psd_margin(lifted_matrix(1.0, p.x, p.X)))
    elif kind == "dnnp":
        inst, p = data, point
        zs = build_zspace(inst)
        n = inst.n
        for i in range(n):
            eq(f"diag[{i}]", float(p.Z[i, i]), float(p.z[i]))
        for i in range(inst.m):
            eq(f"lin[{i}]", float(zs.Az[i] @ p.z), float(zs.bz[i]))
            eq(f"quad[{i}]", float(4.0 * inst.A[i] @ p.Z @ inst.A[i]), float(zs.bz[i] ** 2))
        Y = lifted_matrix(1.0, p.z, p.Z)
        ge("entrywise", float(Y.min()))
        ge("lifted_psd", psd_margin(Y))
    elif kind == "mc_sdr":
        G, U = data, point
        for i in range(G.n):
            eq(f"diag[{i}]", float(U[i, i]), 1.0)
        ge("psd", psd_margin(U))
    elif kind == "mc_dnnp":
        G, p = data, point
        for i in range(G.n):
            eq(f"diag[{i}]", float(p.X[i, i]), float(p.x[i]))
        Y = lifted_matrix(1.0, p.x, p.X)
        ge("entrywise", float(Y.min()))
        ge("lifted_psd", psd_margin(Y))
    else:
        raise ValueError(f"unknown relaxation tag {kind!r}")
    return viols


def _usable(prog: ConicProgram, sol: ConicSolution, tol: float) -> str:
    """Why the solve cannot be used for verification: it returns a ray, not a
    point, or its point fails certify at tol/10; "" when it can."""
    if sol.ray is not None:
        return f"{prog.label} {sol.status}: a ray, not an optimum"
    failed = certify(prog, sol, tol / 10).failed()
    return "; ".join(f"{prog.label} {sol.status}: certify {c.name} {c.value:.2e} > {c.threshold:.0e}"
                     for c in failed)


def _verify(built_a, built_b, transport, tol: float) -> EquivalenceReport:
    """The body of both theorem checks.  Solve relaxations A and B, given as
    their builders' (program, variable map); unless both solves are usable,
    the verdict is not_applicable and detail says why.  transport(a, b) takes
    the extracted optima and returns the violations of A's optimum mapped into
    B's space, B's objective there, and the same the other way round."""
    (prog_a, vm_a), (prog_b, vm_b) = built_a, built_b
    sol_a, sol_b = solve(prog_a), solve(prog_b)
    detail = "; ".join(filter(None, [_usable(prog_a, sol_a, tol), _usable(prog_b, sol_b, tol)]))
    opt_a, opt_b = sol_a.primal_obj, sol_b.primal_obj
    if detail:
        return EquivalenceReport(
            opt_a=opt_a, opt_b=opt_b, mapped_feasible_ab=False, mapped_feasible_ba=False,
            objective_match_ab=False, objective_match_ba=False,
            max_violation=np.nan, verdict="not_applicable", detail=detail,
        )

    viol_ab, obj_ab_val, viol_ba, obj_ba_val = transport(
        vm_a.extract(sol_a.primal_psd, sol_a.primal_nonneg, sol_a.primal_free),
        vm_b.extract(sol_b.primal_psd, sol_b.primal_nonneg, sol_b.primal_free))

    scale = 1.0 + abs(opt_a)
    obj_ab = abs(obj_ab_val - opt_a) <= tol * scale
    obj_ba = abs(obj_ba_val - opt_b) <= tol * (1.0 + abs(opt_b))
    opt_match = abs(opt_a - opt_b) <= tol * scale

    viols = viol_ab + viol_ba
    max_v = max((v for _, v in viols), default=0.0)
    verdict = "pass" if (not viols and obj_ab and obj_ba and opt_match) else "fail"
    return EquivalenceReport(
        opt_a=opt_a, opt_b=opt_b,
        mapped_feasible_ab=not viol_ab, mapped_feasible_ba=not viol_ba,
        objective_match_ab=obj_ab, objective_match_ba=obj_ba,
        max_violation=max_v, verdict=verdict, violations=viols,
    )


def verify_theorem3(inst: BqpInstance, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceReport:
    """Solve the cut-strengthened SDR and the DNN relaxation, map each optimum
    into the other space, and check feasibility plus objective transport both
    ways; pass iff everything holds at tol and the optima agree."""

    def transport(a, b):
        mapped_b = sdr2_to_dnnp_point(PointXX(*a))       # optimal of A pushed into B's space
        mapped_a = dnnp_to_sdr2_point(PointZZ(*b))
        return (check_feasibility("dnnp", mapped_b, inst, tol), dnnp_objective(inst, mapped_b),
                check_feasibility("sdr2", mapped_a, inst, tol),
                bqp_relaxation_objective(inst, mapped_a))

    # builders and solve are looked up at call time, so wrapping the module
    # attributes (as a tracer does) sees every call
    return _verify(build_sdr2(inst), build_dnnp(inst), transport, tol)


def verify_theorem4(G: MaxCutGraph, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceReport:
    """Max-cut analogue of verify_theorem3 (both feasible sets are always
    nonempty: the identity matrix and the zero point)."""

    def transport(a, b):
        mapped_b = mc_sdr_to_dnnp_point(a[1])
        mapped_a = mc_dnnp_to_sdr_point(PointXX(*b))
        return (check_feasibility("mc_dnnp", mapped_b, G, tol), mc_dnnp_objective(G, mapped_b),
                check_feasibility("mc_sdr", mapped_a, G, tol), mc_sdr_objective(G, mapped_a))

    return _verify(build_mc_sdr(G), build_mc_dnnp(G), transport, tol)


def rank_one_certificate(p: PointXX, tol: float = 1e-6) -> dict:
    """Exact iff max|X - xx^T| <= tol; if additionally every |x_i| is within
    tol of 1, sign(x) is reported as an optimal binary solution candidate."""
    gap = float(np.abs(p.X - np.outer(p.x, p.x)).max())
    exact = gap <= tol
    recovered = None
    if exact and np.all(np.abs(np.abs(p.x) - 1.0) <= tol):
        recovered = np.sign(p.x)
    return {"exact": exact, "gap": gap, "recovered": recovered}
