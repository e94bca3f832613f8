"""Runs one workload as a closed loop with one caller and computes its metrics.

The timed phase runs whole passes over the workload's ops, back to back,
until ``seconds`` have elapsed (at least one pass).  With tracing on, one more
pass runs under the tracer's wrappers after the timed phase; the wrappers are
removed before the function returns.
"""

import ctypes
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from bqrelax import fixtures, relax, solver

import layers
import workloads
from tracing import Span, Tracer

PROBE = Path(__file__).with_name("setup_probe.py")
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB"}
# printed by the untraced run too, but not gated: both can be 0 or undefined
SUMMARY_UNITS = {"fail_frac": "ratio", "op_s.p90": "s"}


@dataclass
class Result:
    workload: str
    seed: int
    passes: int
    wall_s: float
    records: list                  # every op of the timed phase, pass after pass
    end_to_end: dict               # name -> value
    summary: dict                  # name -> value (fail_frac, op_s.p90 where it has the samples)
    setup_samples: list
    env: dict
    traced_records: list = field(default_factory=list)
    per_layer: dict = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)

    @property
    def all_records(self) -> list:
        return self.records + self.traced_records

    @property
    def correct(self) -> bool:
        return not any(r.wrong for r in self.all_records)

    @property
    def failures(self) -> list:
        seen, out = set(), []
        for r in self.all_records:
            for reason in r.reasons:
                key = (r.workload, r.instance, r.relaxation, reason)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out


def measure_setup(src: str, probes: int) -> list[float]:
    """Seconds from spawn to ready for ``probes`` cold starts in turn.

    The probe reports the monotonic clock at ready; that clock is shared by
    all processes, so interpreter teardown stays out of the sample."""
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(PROBE), src], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}): "
                               f"{proc.stdout!r} {proc.stderr[-500:]!r}")
        times.append(float(words[1]) - t0)
    return times


def warm_up() -> None:
    """The same solve each cold start makes, untimed, so lazy library loading
    is done before the timed phase."""
    prog, _ = relax.build_sdr1(fixtures.tight_n2())
    if solver.solve(prog).status != solver.STATUS_OPTIMAL:
        raise RuntimeError("warm-up solve of tight_n2 did not end Optimal")


def _blas_threads(pkg) -> int | None:
    """Threads of the OpenBLAS copy a wheel bundles, asked from the library."""
    libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {"numpy": _blas_threads(np), "scipy": _blas_threads(scipy)},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def closed_loop(workload: str, ops, seconds: float, clock=time.perf_counter):
    """Whole passes back to back until ``seconds`` elapsed; (passes, wall)."""
    passes = []
    t0 = clock()
    while True:
        passes.append([workloads.run_op(workload, op, clock) for op in ops])
        if clock() - t0 >= seconds:
            break
    return passes, clock() - t0


def traced_pass(workload: str, ops, clock=time.perf_counter):
    """One pass under the tracer; the wrappers are gone when this returns."""
    tracer = Tracer(clock)
    records = []
    with tracer.installed(layers.targets()):
        t0 = clock()
        for op in ops:
            tracer.op = op.index
            with tracer.span("op", relaxation=op.relaxation):
                records.append(workloads.run_op(workload, op, clock))
        wall = clock() - t0
    return records, tracer.spans, wall


def _p90(latencies: list) -> float | None:
    """p90 only where at least ten samples lie beyond it."""
    if len(latencies) < 100:
        return None
    return statistics.quantiles(latencies, n=10)[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, src: str,
                 small: bool, probes: int) -> Result:
    """Untraced: ``probes`` cold starts, warm-up, timed phase, checks.
    Traced: warm-up, timed phase, one traced pass, checks."""
    spec = workloads.spec_for(workload, small)
    setup = [] if trace else measure_setup(src, probes)
    warm_up()
    ops = workloads.make_ops(spec, seed)

    passes, wall = closed_loop(workload, ops, seconds)
    workloads.check_pass(spec, ops, passes[0])
    for again in passes[1:]:
        workloads.check_repeat(passes[0], again)
    records = [r for p in passes for r in p]
    latencies = [r.latency_s for r in records]
    result = Result(
        workload=workload, seed=seed, passes=len(passes), wall_s=wall, records=records,
        end_to_end={
            "setup_s": statistics.median(setup) if setup else None,
            "ops_per_s": len(records) / wall,
            "op_s.p50": statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        summary={"fail_frac": sum(r.failed for r in records) / len(records),
                 "op_s.p90": _p90(latencies)},
        setup_samples=setup,
        env=environment(),
    )
    if trace:
        traced, spans, traced_wall = traced_pass(workload, ops)
        workloads.check_repeat(passes[0], traced)
        result.traced_records, result.spans = traced, spans
        result.per_layer = layers.per_layer(spans, traced, wall / len(passes), traced_wall)
    return result
