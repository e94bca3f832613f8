"""Fast self-test of the benchmark at reduced sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bqrelax import equivalence, kernels, relax, solver, symcone  # noqa: E402
from tracing import children, self_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]
ALL = list(workloads.SPECS)
SEED = 3


@pytest.fixture(scope="module")
def traced_twice():
    def once(w):
        return harness.run_workload(w, SEED, 0, True, str(SRC), small=True, probes=0)

    return {w: [once(w), once(w)] for w in ALL}


def test_benchmark_json_matches_the_code():
    assert set(GATED) <= set(ALL) == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_same_seed_same_inputs():
    for w in ALL:
        spec = workloads.spec_for(w, small=True)
        a, b = workloads.make_ops(spec, SEED), workloads.make_ops(spec, SEED)
        assert [(o.instance, o.relaxation) for o in a] == [(o.instance, o.relaxation) for o in b]
        other = workloads.make_ops(spec, SEED + 1)
        assert {o.instance for o in a}.isdisjoint({o.instance for o in other})


@pytest.mark.parametrize("workload", ALL)
def test_counts_repeat_exactly(traced_twice, workload):
    first, second = (r.per_layer for r in traced_twice[workload])
    for name in layers.EXACT_COUNTS + ["fail_frac", "solver.useful_iter_frac",
                                       "kkt.solves_per_iter", "relax.nnz_frac"]:
        assert first[name] == second[name], name
    assert first["solver.iters"] > 0 and first["kkt.solve_calls"] > 0


@pytest.mark.parametrize("workload", ALL)
def test_spans_nest_and_self_time_is_nonnegative(traced_twice, workload):
    spans = traced_twice[workload][0].spans
    by_id = {s.sid: s for s in spans}
    kids = children(spans)
    assert spans
    for s in spans:
        assert s.start <= s.end
        assert s.op is not None
        if s.parent is None:
            assert s.name == "op"
            continue
        parent = by_id[s.parent]
        assert parent.start <= s.start and s.end <= parent.end, (s.name, parent.name)
        assert s.op == parent.op
    for s in spans:
        assert self_time(s, kids) >= -1e-12, s.name


def test_per_layer_values_are_finite(traced_twice):
    for w in ALL:
        values = traced_twice[w][0].per_layer
        assert set(values) == set(layers.UNITS)
        assert all(math.isfinite(v) for v in values.values()), w


def test_wrappers_are_restored_after_a_traced_run(traced_twice):
    originals = [(np.linalg, "lstsq"), (np.linalg, "svd"), (scipy.linalg, "lu_factor"),
                 (scipy.linalg, "lu_solve"), (scipy.linalg, "solve_triangular"),
                 (solver, "solve"), (solver, "certify"), (solver, "presolve_rank_check"),
                 (solver, "psd_margin"), (equivalence, "solve"), (equivalence, "psd_margin"),
                 (equivalence, "build_mc_sdr"), (kernels, "scaled_congruence_rows"),
                 (relax, "build_sdr1")]
    for owner, attr in originals:
        fn = getattr(owner, attr)
        assert "traced" not in getattr(fn, "__qualname__", ""), (owner.__name__, attr)
    assert solver.psd_margin is symcone.psd_margin
    assert equivalence.solve is solver.solve


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", GATED)
def test_command_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace), "--small"], ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["attempted"] >= 1 and 0 <= final["failed"] <= final["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith(("#", "FAIL"))}
    if trace:
        assert printed == layers.UNITS
    else:
        assert printed == {**harness.END_TO_END_UNITS, **harness.SUMMARY_UNITS}


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run(["--workload", GATED[0], "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
