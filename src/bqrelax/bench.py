"""Experiment harness: relaxation suites over generated instances and
Dolan-More performance profiles for bound quality, iterations and time.

Profile semantics: per problem p and method s, a cost t_{p,s} > 0; the
performance ratio is r_{p,s} = t_{p,s} / min_s t_{p,s} and the curve is
rho_s(tau) = |{p : r_{p,s} <= tau}| / |P|.  For iterations and time the cost
is the recorded value.  For the bound metric (lower bounds, larger is
better) the cost is (f_best - f_{p,s}) + eps with f_best the per-problem max
and eps = 1e-9 * max(1, |f_best|), so the best method costs exactly eps and
gaps are measured absolutely; this transform is this harness's construction
(the profiles are "based on optimal values" but need a positive cost).
Failed solves cost +inf, so curves need not reach 1.  A solve fails unless
its bound is finite: run_suite records NaN unless the solve certifies at 1e-6
(certified_bound), whatever its status, and bound_order_report reads the same.
"""

import bisect
import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .model import generate_instance
from .relax import RELAXATION_BUILDERS
from .solver import SolverSettings, certify, solve

BOUND_EPS_FLOOR = 1e-9
CERTIFY_TOL = 1e-6


@dataclass
class RunRecord:
    instance_id: str
    method: str
    status: str
    bound: float  # model-space primal objective (offset included); NaN unless certified
    iters: int
    wall_time: float
    seed: int


@dataclass
class ProfileCurve:
    method: str
    points: list  # [(tau, rho)] with tau >= 1, rho nondecreasing

    def rho_at(self, tau: float) -> float:
        """Step-function evaluation: fraction of problems with ratio <= tau."""
        r = 0.0
        for t, rho in self.points:
            if t <= tau:
                r = rho
            else:
                break
        return r


def run_suite(kind: str, count: int, n: int, m: int, methods, base_seed: int = 0,
              settings: SolverSettings | None = None) -> list:
    """Solve each method on ``count`` planted instances (seeds base_seed+1..base_seed+count).

    Failures are recorded, not raised.  Records come back sorted by
    (instance_id, method).
    """
    methods = list(methods)
    unknown = [m_ for m_ in methods if m_ not in RELAXATION_BUILDERS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {sorted(RELAXATION_BUILDERS)}")
    if count < 1:
        raise ValueError("count must be >= 1")
    settings = settings or SolverSettings()

    records = []
    for i in range(1, count + 1):
        seed = base_seed + i
        inst = generate_instance(kind, n, m, seed=seed)
        for method in methods:
            prog, _ = RELAXATION_BUILDERS[method](inst)
            t0 = time.perf_counter()
            sol = solve(prog, settings)
            wall = time.perf_counter() - t0
            records.append(RunRecord(
                instance_id=inst.name,
                method=method,
                status=sol.status,
                bound=certified_bound(prog, sol),
                iters=sol.iters,
                wall_time=wall,
                seed=seed,
            ))
    records.sort(key=lambda r: (r.instance_id, r.method))
    return records


def certified_bound(prog, sol) -> float:
    """The solve's primal objective if it certifies at CERTIFY_TOL, else NaN."""
    return sol.primal_obj if certify(prog, sol, CERTIFY_TOL).ok else float("nan")


def _cost_table(records, metric):
    by_inst = {}
    methods = sorted({r.method for r in records})
    for r in records:
        by_inst.setdefault(r.instance_id, {})[r.method] = r
    for inst_id, row in by_inst.items():
        missing = [m_ for m_ in methods if m_ not in row]
        if missing:
            raise ValueError(f"instance {inst_id} missing records for {missing}")

    costs = {}
    for inst_id, row in by_inst.items():
        if metric == "bound":
            finite = [row[m_].bound for m_ in methods if np.isfinite(row[m_].bound)]
            f_best = max(finite) if finite else np.nan
            eps = BOUND_EPS_FLOOR * max(1.0, abs(f_best)) if finite else np.nan
            costs[inst_id] = {
                m_: (f_best - row[m_].bound) + eps
                if np.isfinite(row[m_].bound) else np.inf
                for m_ in methods
            }
        elif metric in ("iters", "time"):
            attr = "iters" if metric == "iters" else "wall_time"
            costs[inst_id] = {
                m_: float(getattr(row[m_], attr))
                if np.isfinite(row[m_].bound) else np.inf
                for m_ in methods
            }
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return methods, costs


def performance_profile(records, metric: str = "bound") -> list:
    """Dolan-More curves, one per method, over the records' instances."""
    methods, costs = _cost_table(records, metric)
    n_prob = len(costs)
    ratios = {m_: [] for m_ in methods}
    for inst_id, row in costs.items():
        best = min(row.values())
        for m_ in methods:
            if np.isfinite(row[m_]) and np.isfinite(best) and best > 0:
                ratios[m_].append(row[m_] / best)
            else:
                ratios[m_].append(np.inf)

    curves = []
    for m_ in methods:
        finite = sorted(r for r in ratios[m_] if np.isfinite(r))
        # the count of ratios <= tau is tau's position in the sorted list
        points = [(tau, bisect.bisect_right(finite, tau) / n_prob)
                  for tau in sorted(set([1.0] + finite))]
        curves.append(ProfileCurve(method=m_, points=points))
    return curves


def emit_csv(data, path, gnuplot: bool = False) -> None:
    """Write curves or records with a stable header and deterministic rows."""
    text = render_csv(data, gnuplot=gnuplot)
    with open(path, "w") as fh:
        fh.write(text)


def render_csv(data, gnuplot: bool = False) -> str:
    sep = " " if gnuplot else ","
    out = io.StringIO()
    if data and isinstance(data[0], ProfileCurve):
        out.write(sep.join(["method", "tau", "rho"]) + "\n")
        for curve in data:
            for tau, rho in curve.points:
                out.write(sep.join([curve.method, repr(float(tau)), repr(float(rho))]) + "\n")
    else:
        out.write(sep.join(["instance_id", "method", "status", "bound",
                            "iters", "wall_time", "seed"]) + "\n")
        for r in data:
            out.write(sep.join([r.instance_id, r.method, r.status, repr(float(r.bound)),
                                str(r.iters), repr(float(r.wall_time)), str(r.seed)]) + "\n")
    return out.getvalue()


@dataclass
class BoundOrderReport:
    """Per-instance ordering checks: bound(sdr1) <= bound(sdr2) and
    bound(sdr2) == bound(dnnp), both at a relative tolerance, over the finite
    bounds only."""

    total: int
    order_violations: list = field(default_factory=list)
    equality_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.order_violations and not self.equality_violations


def bound_order_report(records, tol: float = 1e-5) -> BoundOrderReport:
    by_inst = {}
    for r in records:
        by_inst.setdefault(r.instance_id, {})[r.method] = r
    order_v, eq_v = [], []
    for inst_id, row in sorted(by_inst.items()):
        missing = [m_ for m_ in ("sdr1", "sdr2", "dnnp") if m_ not in row]
        if missing:
            raise ValueError(f"instance {inst_id} missing methods {missing}")
        b1, b2, bd = (row[m_].bound for m_ in ("sdr1", "sdr2", "dnnp"))
        if np.isfinite(b1) and np.isfinite(b2) and b1 > b2 + tol * (1.0 + abs(b2)):
            order_v.append((inst_id, b1 - b2))
        if np.isfinite(b2) and np.isfinite(bd) and abs(b2 - bd) > tol * (1.0 + max(abs(b2), abs(bd))):
            eq_v.append((inst_id, abs(b2 - bd)))
    return BoundOrderReport(total=len(by_inst), order_violations=order_v,
                            equality_violations=eq_v)
