"""Workload definitions: the ops each workload runs and the checks on their outputs.

An op is one relaxation build + ``solver.solve`` + ``solver.certify(prog, sol,
1e-6)``; on ``maxcut-thm4`` it is one ``verify_theorem4``.  Every instance
seed is derived from the workload seed, so one seed always gives the same
inputs.  The library is reached only through module attributes at call time,
so the tracer's wrappers see every call.
"""

from dataclasses import dataclass, field

import numpy as np

from bqrelax import bench, equivalence, model, relax, solver

FAMILIES = ("RdnBQP", "RdiBQP", "RdBQP", "RdsBQP")
BQP_RELAXATIONS = ("sdr1", "sdr2", "dnnp")
CERTIFY_TOL = 1e-6
ORDER_TOL = 1e-5
ORACLE_TOL = 1e-6
REPEAT_TOL = 1e-9
# the CLI default: tol 1e-8 for gap, feasibility and infeasibility
CLI_SETTINGS = solver.SolverSettings(tol_gap=1e-8, tol_feas=1e-8, tol_infeas=1e-8)


@dataclass(frozen=True)
class Spec:
    kind: str                 # "bqp" | "maxcut-sdr" | "maxcut-thm4"
    n: int
    m: int = 0
    per_group: int = 1        # instances per family (bqp) or per density (graphs)
    densities: tuple = ()
    oracle: bool = False      # brute-force check of certified bounds (bqp only)


# full size, and the reduced size the self-test runs
SPECS = {
    "bqp-desk": (
        Spec("bqp", n=12, m=5, per_group=15, oracle=True),
        Spec("bqp", n=6, m=2, per_group=1, oracle=True),
    ),
    "maxcut-sdr": (
        Spec("maxcut-sdr", n=150, per_group=2, densities=(0.25, 0.5, 0.75, 1.0)),
        Spec("maxcut-sdr", n=12, per_group=1, densities=(0.5, 1.0)),
    ),
    "maxcut-thm4": (
        Spec("maxcut-thm4", n=40, per_group=3, densities=(0.3, 0.6, 1.0)),
        Spec("maxcut-thm4", n=6, per_group=1, densities=(0.6, 1.0)),
    ),
    "bqp-mid": (
        Spec("bqp", n=30, m=15, per_group=1),
        Spec("bqp", n=8, m=3, per_group=1),
    ),
}


def spec_for(workload: str, small: bool) -> Spec:
    return SPECS[workload][1 if small else 0]


@dataclass
class Op:
    index: int
    instance: str
    relaxation: str
    data: object              # BqpInstance or MaxCutGraph


@dataclass
class OpRecord:
    workload: str
    instance: str
    relaxation: str
    status: str
    iters: int | None
    bound: float
    certified: bool | None
    dropped_rows: int | None
    latency_s: float
    reasons: list = field(default_factory=list)
    wrong: bool = False       # a certified output contradicted by a check

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


def derive_seed(seed: int, group: int, k: int) -> int:
    """Instance seed k of ``group`` instances per family or density."""
    return group * seed + k + 1


def make_ops(spec: Spec, seed: int) -> list[Op]:
    ops: list[Op] = []
    if spec.kind == "bqp":
        for family in FAMILIES:
            for k in range(spec.per_group):
                inst = model.generate_instance(family, spec.n, spec.m,
                                               seed=derive_seed(seed, spec.per_group, k))
                for r in BQP_RELAXATIONS:
                    ops.append(Op(len(ops), inst.name, r, inst))
    else:
        for j, density in enumerate(spec.densities):
            for k in range(spec.per_group):
                gseed = derive_seed(seed, len(spec.densities) * spec.per_group,
                                    j * spec.per_group + k)
                G = model.random_graph(spec.n, seed=gseed, density=density)
                label = "sdr" if spec.kind == "maxcut-sdr" else "thm4"
                ops.append(Op(len(ops), f"G-n{spec.n}-d{density}-s{gseed}", label, G))
    return ops


_BUILDERS = {"sdr1": "build_sdr1", "sdr2": "build_sdr2", "dnnp": "build_dnnp",
             "sdr": "build_mc_sdr"}


def run_op(workload: str, op: Op, clock) -> OpRecord:
    """Run one op; the latency covers build, solve and certify only."""
    if op.relaxation == "thm4":
        t0 = clock()
        rep = equivalence.verify_theorem4(op.data)
        latency = clock() - t0
        rec = OpRecord(workload, op.instance, "thm4", rep.verdict, None, rep.opt_a,
                       None, None, latency)
        if rep.verdict != "pass":
            rec.reasons.append(f"verdict {rep.verdict}: {rep.detail or 'maps or optima disagree'}")
            rec.wrong = rep.verdict == "fail"
        return rec
    t0 = clock()
    prog, _ = getattr(relax, _BUILDERS[op.relaxation])(op.data)
    sol = solver.solve(prog, CLI_SETTINGS)
    cert = solver.certify(prog, sol, CERTIFY_TOL)
    latency = clock() - t0
    rec = OpRecord(workload, op.instance, op.relaxation, sol.status, sol.iters,
                   float(sol.primal_obj), cert.ok, len(sol.dropped_rows), latency)
    if sol.status != solver.STATUS_OPTIMAL:
        rec.reasons.append(f"status {sol.status}")
    elif not cert.ok:
        worst = max(cert.failed(), key=lambda c: c.value - c.threshold)
        rec.reasons.append(f"certify {worst.name} {worst.value:.2e} > {worst.threshold:.0e}")
    return rec


def _certified(rec: OpRecord) -> bool:
    return rec.status == solver.STATUS_OPTIMAL and bool(rec.certified)


def check_pass(spec: Spec, ops: list[Op], records: list[OpRecord]) -> None:
    """Cross-op checks on one pass; adds reasons to the records in place."""
    if spec.kind == "bqp":
        _check_bound_order(records)
        if spec.oracle:
            _check_oracle(ops, records)
    elif spec.kind == "maxcut-sdr":
        for op, rec in zip(ops, records):
            # any max cut lies in [total weight / 2, total weight], and the
            # SDR value is an upper bound on it that is at most the total weight
            total = float(np.triu(op.data.W, 1).sum())
            if _certified(rec) and not (0.5 * total - ORACLE_TOL * (1 + total)
                                        <= rec.bound <= total * (1 + ORACLE_TOL)):
                rec.reasons.append(f"bound {rec.bound:.9g} outside [{0.5 * total:.9g}, {total:.9g}]")
                rec.wrong = True


def _check_bound_order(records: list[OpRecord]) -> None:
    by_key = {(r.instance, r.relaxation): r for r in records}
    runs = [bench.RunRecord(instance_id=r.instance, method=r.relaxation, status=r.status,
                            bound=r.bound if r.status == solver.STATUS_OPTIMAL else float("nan"),
                            iters=r.iters or 0, wall_time=r.latency_s, seed=0)
            for r in records]
    rep = bench.bound_order_report(runs, tol=ORDER_TOL)
    for inst, gap in rep.order_violations:
        _mark_pair(by_key[inst, "sdr1"], by_key[inst, "sdr2"], f"order sdr1 > sdr2 by {gap:.2e}")
    for inst, gap in rep.equality_violations:
        _mark_pair(by_key[inst, "sdr2"], by_key[inst, "dnnp"], f"|sdr2 - dnnp| = {gap:.2e}")


def _mark_pair(a: OpRecord, b: OpRecord, reason: str) -> None:
    wrong = _certified(a) and _certified(b)
    for rec in (a, b):
        rec.reasons.append(reason)
        rec.wrong = rec.wrong or wrong


def _check_oracle(ops: list[Op], records: list[OpRecord]) -> None:
    optimum = {}
    for op, rec in zip(ops, records):
        if op.instance not in optimum:
            optimum[op.instance] = model.brute_force_bqp(op.data)
        best = optimum[op.instance]
        if best.status != "feasible":
            rec.reasons.append("oracle: planted instance reported infeasible")
            rec.wrong = True
        elif _certified(rec) and rec.bound > best.opt + ORACLE_TOL * (1.0 + abs(best.opt)):
            rec.reasons.append(f"certified bound {rec.bound:.9g} above optimum {best.opt:.9g}")
            rec.wrong = True


def check_repeat(first: list[OpRecord], again: list[OpRecord]) -> None:
    """A later pass over the same inputs must reproduce status and bound."""
    for a, b in zip(first, again):
        same_bound = (a.bound == b.bound or (np.isnan(a.bound) and np.isnan(b.bound))
                      or abs(a.bound - b.bound) <= REPEAT_TOL * (1.0 + abs(a.bound)))
        if a.status != b.status or not same_bound:
            b.reasons.append(f"not reproducible: {a.status} {a.bound!r} then {b.status} {b.bound!r}")
            b.wrong = True
        else:
            b.reasons += [r for r in a.reasons if r not in b.reasons]
            b.wrong = b.wrong or a.wrong
