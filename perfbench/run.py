"""bqrelax benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload bqp-desk --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout, never from an installed copy.  BLAS is pinned to
one thread before numpy loads.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs one more pass under span tracing and prints the per-layer
metrics and the tracing overhead instead.  Both print a human-readable
summary, list every failed op by (workload, instance, relaxation, reason),
write the per-op records to ``perfbench/out/`` and end with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``correct`` is false when an output is wrong: a certified bound contradicted
by the brute-force oracle, by another certified bound or by the max-cut
weight bounds, a Theorem 4 ``fail`` verdict, or a pass over the same inputs
that does not reproduce the first.  Ops that end without a certified result
(a status other than Optimal, a failed ``certify``, an order check on an
uncertified bound) count as failed but leave ``correct`` true.

``--small`` runs the reduced sizes of the self-test.  Exit codes: 0 ok,
1 the run could not complete, 2 usage or a checkout without ``src/bqrelax``.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("bqp-desk", "maxcut-sdr", "maxcut-thm4", "bqp-mid")
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--small", action="store_true", help="reduced sizes (self-test)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    return args


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(result, trace: bool) -> dict:
    """Print the summary and return the final JSON object."""
    import harness
    import layers

    env = result.env
    print(f"# workload {result.workload}  seed {result.seed}  trace {int(trace)}")
    print(f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"blas {env['blas']}  blas threads {env['blas_threads']}  nproc {env['nproc']}  "
          f"affinity {env['affinity_cpus']}")
    print(f"# closed loop, 1 caller: {len(result.records)} ops in {result.passes} pass(es) "
          f"over {result.wall_s:.3f} s")
    if trace:
        units, values = layers.UNITS, result.per_layer
    else:
        units = {**harness.END_TO_END_UNITS, **harness.SUMMARY_UNITS}
        values = {**result.end_to_end, **result.summary}
        print(f"# setup_s is the median of {len(result.setup_samples)} cold starts: "
              + " ".join(f"{t:.4f}" for t in result.setup_samples))
    for name, unit in units.items():
        print(f"{name:40s} {_fmt(values[name]):>14s} {unit}")
    print(f"# {len(result.failures)} failure(s)")
    for workload, instance, relaxation, reason in result.failures:
        print(f"FAIL {workload} {instance} {relaxation}: {reason}")

    metrics_units = layers.UNITS if trace else harness.END_TO_END_UNITS
    return {
        "correct": result.correct,
        "attempted": len(result.records),
        "failed": sum(r.failed for r in result.records),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metrics_units.items()},
    }


def write_records(result, trace: bool, final: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = f"{result.workload}-seed{result.seed}-trace{int(trace)}"
    n = len(result.records) // result.passes
    doc = {
        "workload": result.workload, "seed": result.seed, "passes": result.passes,
        "env": result.env, "result": final,
        # one pass: later passes repeat the same inputs and are checked against it
        "ops": [asdict(r) for r in result.records[:n]],
        "traced_ops": [asdict(r) for r in result.traced_records],
    }
    path = OUT / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1, default=repr))
    if trace:
        spans = [[s.sid, s.name, s.start, s.end, s.parent, s.op, s.extra] for s in result.spans]
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans))
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bqrelax" / "__init__.py").is_file():
        print(f"error: no bqrelax sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # numpy reads these when it loads, so every numpy import comes after them
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    import bqrelax

    if Path(bqrelax.__file__).resolve().parent != (SRC / "bqrelax").resolve():
        print(f"error: imported bqrelax from {bqrelax.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  str(SRC), small=args.small,
                                  probes=2 if args.small else SETUP_PROBES)
    final = report(result, bool(args.trace))
    path = write_records(result, bool(args.trace), final)
    print(f"# per-op records: {path.relative_to(ROOT)}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
