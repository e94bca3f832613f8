"""Layer boundaries the traced pass wraps, and the per-layer metrics made from its spans.

Layers are the library's modules: ``relax`` (builders), ``solver`` (solve,
presolve, facial reduction, certify), ``kernels``, ``symcone``,
``equivalence``, and the numpy/scipy linear-algebra entry points ``solver``
calls.  Input generation (``model``/``rng``) and the oracles are not timed.
"""

import numpy as np
import scipy.linalg

from bqrelax import equivalence, kernels, relax, solver, symcone

from tracing import Span, Target, children, self_time

SOLVE, PRESOLVE, CERTIFY = "solver.solve", "solver.presolve", "solver.certify"
BUILD, THM4 = "relax.build", "equivalence.verify_theorem4"
LSTSQ, MARGIN = "linalg.lstsq", "symcone.psd_margin"
CONGRUENCE = "kernels.congruence"
LINALG = {"kkt.factor": "lu_factor", "kkt.solve": "lu_solve", "step.trsm": "solve_triangular"}


def _program_shape(result) -> dict:
    prog = result[0]
    G = np.hstack([prog.G_psd, prog.G_nonneg, prog.G_free])
    return {"rows": prog.n_rows, "nnz": int(np.count_nonzero(G)), "entries": int(G.size)}


def _history_best(history) -> int:
    """1 + index of the iterate with the smallest worst relative residual."""
    if not history:
        return 0
    worst = [max(h.pres, h.dres, h.gap / (1.0 + abs(h.primal_obj) + abs(h.dual_obj)))
             for h in history]
    return int(np.argmin(worst)) + 1


def _solution_counts(sol) -> dict:
    return {"iters": sol.iters, "status": sol.status, "dropped": len(sol.dropped_rows),
            "useful": _history_best(sol.history)}


def _congruence_shapes(args, kwargs) -> dict:
    """Work of the numpy path, computed from the array shapes (not measured):
    two batched products R^T F and (R^T F) R over m order-d matrices, and the
    bytes of the rows, the dense F and T stacks, and the output."""
    rows, R = args[0], args[1]
    m, sd = rows.shape
    d, d2 = R.shape
    sd2 = d2 * (d2 + 1) // 2
    flops = 2 * m * d * d2 * (d + d2)
    nbytes = 8 * m * (sd + 2 * d * d + 2 * d * d2 + d2 * d2 + sd2)
    return {"flops": flops, "bytes": nbytes}


def targets() -> list[Target]:
    out = [Target(BUILD, relax, name, after=_program_shape)
           for name in ("build_sdr1", "build_sdr2", "build_dnnp", "build_mc_sdr", "build_mc_dnnp")]
    out += [
        Target(SOLVE, solver, "solve", after=_solution_counts),
        Target(PRESOLVE, solver, "presolve_rank_check"),
        Target(CERTIFY, solver, "certify",
               after=lambda rep: {"ok": rep.ok, "status": rep.status}),
        Target(THM4, equivalence, "verify_theorem4"),
        Target(CONGRUENCE, kernels, "scaled_congruence_rows", before=_congruence_shapes),
        Target(MARGIN, symcone, "psd_margin"),
        Target(LSTSQ, np.linalg, "lstsq"),
        Target("nt.svd", np.linalg, "svd"),
    ]
    out += [Target(name, scipy.linalg, attr) for name, attr in LINALG.items()]
    return out


# name -> unit, in the order they are printed; BENCHMARK.json lists the same names
UNITS = {
    "fail_frac": "ratio",
    "relax.build_s": "s",
    "relax.rows": "count",
    "relax.nnz_frac": "ratio",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.presolve_s": "s",
    "solver.dropped_rows": "count",
    "solver.face_s": "s",
    "solver.certify_s": "s",
    "solver.iters": "count",
    "solver.useful_iter_frac": "ratio",
    "solver.status.optimal": "count",
    "solver.status.numerical_trouble": "count",
    "solver.status.iteration_limit": "count",
    "solver.uncertified_optimal": "count",
    "linalg.lstsq_calls": "count",
    "linalg.lstsq_s": "s",
    "linalg.lstsq_calls.presolve": "count",
    "linalg.lstsq_s.presolve": "s",
    "linalg.lstsq_calls.face": "count",
    "linalg.lstsq_s.face": "s",
    "kkt.factor_calls": "count",
    "kkt.factor_s": "s",
    "kkt.solve_calls": "count",
    "kkt.solve_s": "s",
    "kkt.solves_per_iter": "ratio",
    "nt.svd_calls": "count",
    "nt.svd_s": "s",
    "step.trsm_calls": "count",
    "step.trsm_s": "s",
    "kernels.congruence_calls": "count",
    "kernels.congruence_s": "s",
    "kernels.congruence_flops": "flop-computed",
    "kernels.congruence_bytes": "byte-computed",
    "symcone.psd_margin_calls.face": "count",
    "symcone.psd_margin_calls.certify": "count",
    "symcone.psd_margin_calls.equivalence": "count",
    "equivalence.check_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# counts that must repeat exactly between two traced passes at one seed
EXACT_COUNTS = [name for name, unit in UNITS.items() if unit in ("count", "flop-computed", "byte-computed")]


def per_layer(spans: list[Span], records, untraced_pass_s: float, traced_pass_s: float) -> dict:
    """Per-layer values of one traced pass, keyed like ``UNITS``."""
    kids = children(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    parent_name = {s.sid: s.name for s in spans}

    def named(name):
        return by_name.get(name, [])

    def total(name, parent=None):
        sel = [s for s in named(name) if parent is None or parent_name.get(s.parent) == parent]
        return len(sel), sum(s.dur for s in sel)

    solves, certs, builds = named(SOLVE), named(CERTIFY), named(BUILD)
    iters = sum(s.extra["iters"] for s in solves)
    statuses = [s.extra["status"] for s in solves]
    lstsq_n, lstsq_s = total(LSTSQ)
    lstsq_pre_n, lstsq_pre_s = total(LSTSQ, PRESOLVE)
    lstsq_face_n, lstsq_face_s = total(LSTSQ, SOLVE)
    kkt_solve_n = total("kkt.solve")[0]
    cong = named(CONGRUENCE)
    entries = sum(s.extra["entries"] for s in builds)
    v = {
        "fail_frac": sum(r.failed for r in records) / len(records),
        "relax.build_s": total(BUILD)[1],
        "relax.rows": sum(s.extra["rows"] for s in builds),
        "relax.nnz_frac": sum(s.extra["nnz"] for s in builds) / entries if entries else 0.0,
        "solver.solve_s": total(SOLVE)[1],
        "solver.self_s": sum(self_time(s, kids) for s in solves),
        "solver.presolve_s": total(PRESOLVE)[1],
        "solver.dropped_rows": sum(s.extra["dropped"] for s in solves),
        "solver.face_s": lstsq_face_s + total(MARGIN, SOLVE)[1],
        "solver.certify_s": total(CERTIFY)[1],
        "solver.iters": iters,
        "solver.useful_iter_frac": sum(s.extra["useful"] for s in solves) / iters if iters else 0.0,
        "solver.status.optimal": statuses.count(solver.STATUS_OPTIMAL),
        "solver.status.numerical_trouble": statuses.count(solver.STATUS_NUMERICAL_TROUBLE),
        "solver.status.iteration_limit": statuses.count(solver.STATUS_ITERATION_LIMIT),
        "solver.uncertified_optimal": sum(1 for s in certs if s.extra["status"] == solver.STATUS_OPTIMAL
                                          and not s.extra["ok"]),
        "linalg.lstsq_calls": lstsq_n,
        "linalg.lstsq_s": lstsq_s,
        "linalg.lstsq_calls.presolve": lstsq_pre_n,
        "linalg.lstsq_s.presolve": lstsq_pre_s,
        "linalg.lstsq_calls.face": lstsq_face_n,
        "linalg.lstsq_s.face": lstsq_face_s,
        "kkt.solves_per_iter": kkt_solve_n / iters if iters else 0.0,
        "kernels.congruence_calls": len(cong),
        "kernels.congruence_s": sum(s.dur for s in cong),
        "kernels.congruence_flops": sum(s.extra["flops"] for s in cong),
        "kernels.congruence_bytes": sum(s.extra["bytes"] for s in cong),
        "symcone.psd_margin_calls.face": total(MARGIN, SOLVE)[0],
        "symcone.psd_margin_calls.certify": total(MARGIN, CERTIFY)[0],
        "symcone.psd_margin_calls.equivalence": total(MARGIN, THM4)[0],
        "equivalence.check_s": sum(s.dur - sum(c.dur for c in kids.get(s.sid, [])
                                               if c.name in (SOLVE, BUILD))
                                   for s in named(THM4)),
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
        "trace.overhead_frac": (traced_pass_s - untraced_pass_s) / untraced_pass_s,
    }
    for name in ("kkt.factor", "kkt.solve", "nt.svd", "step.trsm"):
        v[name + "_calls"], v[name + "_s"] = total(name)
    return v
