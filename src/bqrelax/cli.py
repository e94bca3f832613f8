"""Command-line front end.

Subcommands: gen, solve, compare, verify, oracle, maxcut, profile.

Exit codes: 0 success; 1 verification failed; 2 usage or malformed input;
3 solve ended Unbounded/Infeasible (certificate summary still printed);
4 output I/O failure; 5 numerical failure; 6 verification not applicable.
The default solver tolerance can be overridden with the BQRELAX_TOL
environment variable or the --tol flag.  verify's --tol is the equivalence
tolerance (default 1e-6), not the solver's; one that is not positive exits 2.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import bench, equivalence, model, relax, solver

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CERTIFICATE = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5
EXIT_NOT_APPLICABLE = 6


def _settings(args) -> solver.SolverSettings:
    """Solver settings from --tol (else BQRELAX_TOL) and --max-iters; a value
    the settings reject is a usage error."""
    tol = args.tol
    try:
        if tol is None:
            tol = float(os.environ.get("BQRELAX_TOL", "1e-8"))
        return solver.SolverSettings(
            tol_gap=tol, tol_feas=tol, tol_infeas=min(tol, 1e-8),
            max_iters=args.max_iters,
        )
    except ValueError as exc:
        print(f"error: bad solver settings: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(load, path, what):
    """load(path); an unreadable or malformed file is a usage error."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: cannot read {what} {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_gen(args) -> int:
    try:
        inst = model.generate_instance(args.kind, args.n, args.m, args.seed,
                                       planted=args.planted)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        model.save_instance(inst, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{inst.name}: n={inst.n} m={inst.m} -> {args.out}")
    return EXIT_OK


def _solve_one(args, data, builders, what) -> int:
    """Build relaxation args.relax of data from builders, solve it and print
    the JSON report; the exit code follows the status."""
    if args.relax not in builders:
        print(f"error: unknown {what} {args.relax!r}", file=sys.stderr)
        return EXIT_USAGE
    prog, _ = builders[args.relax](data)
    sol = solver.solve(prog, _settings(args))
    report = {
        "relax": prog.label,
        "status": sol.status,
        "bound": None if not np.isfinite(sol.primal_obj) else sol.primal_obj,
        "iters": sol.iters,
        "time": sol.solve_time,
        "stop_reason": sol.stats["stop_reason"],
        "stats": {k: sol.stats[k] for k in solver.SOLVE_COUNTS},
    }
    if sol.status in (solver.STATUS_UNBOUNDED, solver.STATUS_INFEASIBLE) and sol.ray is not None:
        cert = solver.certify(prog, sol, 1e-6)
        report["certificate"] = {"kind": sol.ray.kind, "verified": cert.ok}
    print(json.dumps(report, sort_keys=True))
    if sol.status == solver.STATUS_OPTIMAL:
        return EXIT_OK
    if sol.status in (solver.STATUS_UNBOUNDED, solver.STATUS_INFEASIBLE):
        return EXIT_CERTIFICATE
    return EXIT_NUMERICAL


def cmd_solve(args) -> int:
    inst = _load(model.load_instance, args.instance, "instance")
    return _solve_one(args, inst, relax.RELAXATION_BUILDERS, "relaxation")


def cmd_compare(args) -> int:
    inst = _load(model.load_instance, args.instance, "instance")
    methods = [m.strip() for m in args.relax.split(",") if m.strip()]
    unknown = [m for m in methods if m not in relax.RELAXATION_BUILDERS]
    if unknown:
        print(f"error: unknown relaxation(s) {unknown}", file=sys.stderr)
        return EXIT_USAGE
    settings = _settings(args)
    rows = []
    records = []
    worst = EXIT_OK
    for m in methods:
        prog, _ = relax.RELAXATION_BUILDERS[m](inst)
        sol = solver.solve(prog, settings)
        bound = sol.primal_obj
        rows.append((m, sol.status, bound, sol.iters, sol.solve_time))
        records.append(bench.RunRecord(
            instance_id=inst.name, method=m, status=sol.status,
            bound=bound if sol.status == solver.STATUS_OPTIMAL else float("nan"),
            iters=sol.iters, wall_time=sol.solve_time, seed=0))
        if sol.status == solver.STATUS_NUMERICAL_TROUBLE:
            worst = EXIT_NUMERICAL
    print(f"{'method':8s} {'status':16s} {'bound':>18s} {'iters':>6s} {'time':>9s}")
    for m, status, bound, iters, t in rows:
        bstr = f"{bound:18.8f}" if np.isfinite(bound) else f"{str(bound):>18s}"
        print(f"{m:8s} {status:16s} {bstr} {iters:6d} {t:9.3f}")
    if all(m in [r[0] for r in rows] for m in ("sdr1", "sdr2", "dnnp")):
        rep = bench.bound_order_report(records, tol=1e-5)
        for inst_id, v in rep.order_violations:
            print(f"order violation: bound(sdr1) exceeds bound(sdr2) by {v:.3e}")
        for inst_id, v in rep.equality_violations:
            print(f"equality violation: |bound(sdr2) - bound(dnnp)| = {v:.3e}")
        if rep.ok:
            print("bound ordering checks: ok")
    return worst


def cmd_verify(args) -> int:
    if not args.tol > 0:  # rejects NaN too
        print(f"error: --tol must be positive, got {args.tol}", file=sys.stderr)
        return EXIT_USAGE
    if args.mode == "thm3":
        inst = _load(model.load_instance, args.input, "instance")
        rep = equivalence.verify_theorem3(inst, args.tol)
    else:
        G = _load(model.load_graph, args.input, "graph")
        rep = equivalence.verify_theorem4(G, args.tol)
    print(rep.to_json())
    if rep.verdict == "pass":
        return EXIT_OK
    if rep.verdict == "not_applicable":
        return EXIT_NOT_APPLICABLE
    return EXIT_VERIFY_FAIL


def cmd_oracle(args) -> int:
    inst = _load(model.load_instance, args.instance, "instance")
    try:
        res = model.brute_force_bqp(inst)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = {"status": res.status, "opt": res.opt,
           "argmin": None if res.argmin is None else res.argmin.tolist()}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_maxcut(args) -> int:
    G = _load(model.load_graph, args.graph, "graph")
    return _solve_one(args, G, relax.MAXCUT_BUILDERS, "max-cut relaxation")


def cmd_profile(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        records = bench.run_suite(args.suite, args.count, args.n, args.m,
                                  methods, base_seed=args.seed,
                                  settings=_settings(args))
        curves = bench.performance_profile(records, metric=args.metric)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        bench.emit_csv(curves, args.out, gnuplot=args.gnuplot)
        if args.records_out:
            bench.emit_csv(records, args.records_out, gnuplot=args.gnuplot)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    taus = sorted({t for c in curves for t, _ in c.points})
    for c in curves:
        auc = float(np.mean([c.rho_at(t) for t in taus])) if taus else 0.0
        print(f"{c.method}: area-under-curve {auc:.3f} over {len(taus)} breakpoints")
    print(f"profile ({args.metric}) -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bqrelax",
                                 description="SDP/DNN relaxations of binary quadratic programs")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=None,
                       help="solver tolerance (default: BQRELAX_TOL or 1e-8)")
        p.add_argument("--max-iters", type=int, default=200)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--kind", required=True,
                   choices=[k.lower() for k in model.GENERATOR_KINDS])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--planted", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve one relaxation of an instance")
    p.add_argument("instance")
    p.add_argument("--relax", required=True, help="sdr|sdr1|sdr2|dnnp")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="solve several relaxations and tabulate bounds")
    p.add_argument("instance")
    p.add_argument("--relax", default="sdr1,sdr2,dnnp", help="comma-separated list")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="check a relaxation-equivalence theorem numerically")
    p.add_argument("--mode", required=True, choices=["thm3", "thm4"])
    p.add_argument("input", help="instance JSON (thm3) or graph file (thm4)")
    p.add_argument("--tol", type=float, default=equivalence.DEFAULT_EQUIV_TOL,
                   help="equivalence tolerance, not the solver's (default: %(default)s)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force exact optimum (desk scale)")
    p.add_argument("instance")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("maxcut", help="solve a max-cut relaxation of a graph file")
    p.add_argument("graph")
    p.add_argument("--relax", required=True, help="sdr|dnnp")
    add_common(p)
    p.set_defaults(func=cmd_maxcut)

    p = sub.add_parser("profile", help="run a suite and emit performance-profile CSV")
    p.add_argument("--suite", required=True,
                   choices=[k.lower() for k in model.GENERATOR_KINDS])
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--methods", default="sdr1,sdr2,dnnp")
    p.add_argument("--metric", choices=["bound", "iters", "time"], default="bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--records-out", default=None)
    p.add_argument("--gnuplot", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_profile)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
