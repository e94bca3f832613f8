import json

import numpy as np
import pytest

from bqrelax import model
from bqrelax.model import (
    BqpInstance,
    MaxCutGraph,
    bqp_objective,
    brute_force_bqp,
    brute_force_maxcut,
    cut_value,
    generate_instance,
    laplacian,
    load_graph,
    load_instance,
    mc_to_bqp,
    random_graph,
    save_graph,
    save_instance,
)
from bqrelax.rng import SplitMix64
from bqrelax.symcone import DimensionError, NumericError


def unit_triangle():
    return MaxCutGraph(W=np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]]))


# ---------------------------------------------------------------- objectives

def test_bqp_objective_examples(ex_tight):
    assert bqp_objective(ex_tight, np.array([-1.0, -1.0])) == pytest.approx(-28.0)
    assert bqp_objective(ex_tight, np.array([1.0, 1.0])) == pytest.approx(-24.0)
    zero = BqpInstance(Q=np.zeros((3, 3)), c=np.zeros(3), A=np.zeros((0, 3)), b=np.zeros(0))
    assert bqp_objective(zero, np.array([1.0, -1.0, 1.0])) == 0.0


def test_bqp_objective_dim_mismatch(ex_tight):
    with pytest.raises(DimensionError):
        bqp_objective(ex_tight, np.ones(3))


# ---------------------------------------------------------------- brute force

def test_brute_force_example(ex_tight):
    res = brute_force_bqp(ex_tight)
    assert res.status == "feasible"
    assert res.opt == pytest.approx(-28.0)
    np.testing.assert_array_equal(res.argmin, [-1.0, -1.0])


def test_brute_force_one_var():
    inst = BqpInstance(Q=np.zeros((1, 1)), c=np.array([1.0]), A=np.zeros((0, 1)), b=np.zeros(0))
    res = brute_force_bqp(inst)
    assert res.opt == pytest.approx(-2.0)
    np.testing.assert_array_equal(res.argmin, [-1.0])


def test_brute_force_infeasible():
    inst = BqpInstance(Q=np.zeros((2, 2)), c=np.zeros(2),
                       A=np.array([[1.0, 1.0]]), b=np.array([3.0]))
    res = brute_force_bqp(inst)
    assert res.status == "infeasible"
    assert res.opt is None


def test_brute_force_limit_refusal():
    inst = BqpInstance(Q=np.zeros((5, 5)), c=np.zeros(5), A=np.zeros((0, 5)), b=np.zeros(0))
    with pytest.raises(ValueError):
        brute_force_bqp(inst, limit=4)


# ---------------------------------------------------------------- laplacian

def test_laplacian_triangle():
    L = laplacian(unit_triangle())
    np.testing.assert_array_equal(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_laplacian_single_edge():
    G = MaxCutGraph(W=np.array([[0.0, 3.0], [3.0, 0.0]]))
    np.testing.assert_array_equal(laplacian(G), [[3, -3], [-3, 3]])


def test_laplacian_empty():
    G = MaxCutGraph(W=np.zeros((3, 3)))
    np.testing.assert_array_equal(laplacian(G), np.zeros((3, 3)))


def test_laplacian_null_vector_exact_on_representable_weights():
    # integer and 1/1024-quantized weights: row sums are exactly representable
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(2, 15))
        W = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        if trial % 2 == 0:
            vals = rng.integers(0, 10, len(iu[0])).astype(float)
        else:
            vals = np.round(rng.random(len(iu[0])) * 1024) / 1024.0
        W[iu] = vals
        W = W + W.T
        L = laplacian(MaxCutGraph(W=W))
        assert np.all(L @ np.ones(n) == 0.0)


def test_laplacian_null_vector_general_weights():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        W = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        W[iu] = rng.random(len(iu[0]))
        W = W + W.T
        L = laplacian(MaxCutGraph(W=W))
        assert np.abs(L @ np.ones(n)).max() <= 1e-13 * max(1.0, np.abs(L).max())


# ---------------------------------------------------------------- cuts

def test_cut_value_triangle():
    assert cut_value(unit_triangle(), np.array([1.0, 1.0, -1.0])) == pytest.approx(2.0)


def test_cut_value_uniform_is_zero():
    G = unit_triangle()
    assert cut_value(G, np.ones(3)) == pytest.approx(0.0)


def test_cut_value_single_edge():
    G = MaxCutGraph(W=np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert cut_value(G, np.array([1.0, -1.0])) == pytest.approx(3.0)


def test_cut_value_rejects_non_sign():
    with pytest.raises(ValueError):
        cut_value(unit_triangle(), np.array([1.0, 0.5, -1.0]))


def test_cut_identity_quadratic_form():
    # (1/4) u^T L u  ==  sum_{i<j} w_ij (u_i - u_j)^2 / 4
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        G = random_graph(n, seed=int(rng.integers(0, 1000)))
        u = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        direct = sum(G.W[i, j] * (u[i] - u[j]) ** 2 / 4.0
                     for i in range(n) for j in range(i + 1, n))
        assert cut_value(G, u) == pytest.approx(direct, abs=1e-10)


def test_brute_force_maxcut_examples():
    opt, arg = brute_force_maxcut(unit_triangle())
    assert opt == pytest.approx(2.0)
    assert arg[0] == 1.0
    assert cut_value(unit_triangle(), arg) == pytest.approx(2.0)

    G = MaxCutGraph(W=np.array([[0.0, 3.0], [3.0, 0.0]]))
    opt, arg = brute_force_maxcut(G)
    assert opt == pytest.approx(3.0)

    empty = MaxCutGraph(W=np.zeros((3, 3)))
    assert brute_force_maxcut(empty)[0] == pytest.approx(0.0)


def test_brute_force_maxcut_limit():
    with pytest.raises(ValueError):
        brute_force_maxcut(MaxCutGraph(W=np.zeros((5, 5))), limit=4)


def test_mc_to_bqp_negates_cut():
    G = unit_triangle()
    inst = mc_to_bqp(G)
    u = np.array([1.0, 1.0, -1.0])
    assert bqp_objective(inst, u) == pytest.approx(-cut_value(G, u))
    empty = mc_to_bqp(MaxCutGraph(W=np.zeros((3, 3))))
    assert bqp_objective(empty, u) == 0.0
    G2 = MaxCutGraph(W=np.array([[0.0, 3.0], [3.0, 0.0]]))
    assert bqp_objective(mc_to_bqp(G2), np.array([1.0, -1.0])) == pytest.approx(-3.0)


def test_oracle_consistency_maxcut_vs_bqp():
    for seed in (1, 2, 3, 4, 5):
        G = random_graph(8, seed=seed)
        opt_cut, _ = brute_force_maxcut(G)
        res = brute_force_bqp(mc_to_bqp(G))
        assert opt_cut == pytest.approx(-res.opt, abs=1e-9)


# ---------------------------------------------------------------- generators

def test_generator_determinism(tmp_path):
    a = generate_instance("RdnBQP", 8, 3, seed=42)
    b = generate_instance("RdnBQP", 8, 3, seed=42)
    save_instance(a, tmp_path / "a.json")
    save_instance(b, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("kind", model.GENERATOR_KINDS)
def test_planted_instances_feasible(kind):
    inst = generate_instance(kind, 10, 3, seed=5, planted=True)
    res = brute_force_bqp(inst)
    assert res.status == "feasible"


def test_rdibqp_integer_ranges():
    inst = generate_instance("RdiBQP", 12, 4, seed=9, planted=False)
    for arr, lo, hi in ((inst.A, -10, 10), (inst.b, -10, 10), (inst.c, -10, 10),
                        (inst.Q, -20, 20)):
        assert np.all(arr == np.round(arr))
        assert arr.min() >= lo and arr.max() <= hi


def test_generator_kind_case_insensitive():
    a = generate_instance("rdbqp", 5, 2, seed=1)
    b = generate_instance("RdBQP", 5, 2, seed=1)
    np.testing.assert_array_equal(a.Q, b.Q)


def test_generator_rejects_bad_sizes():
    with pytest.raises(ValueError):
        generate_instance("RdnBQP", 0, 0, seed=1)
    with pytest.raises(ValueError):
        generate_instance("nope", 5, 2, seed=1)


def test_q_is_symmetrized_sum():
    inst = generate_instance("RdsBQP", 6, 0, seed=3)
    np.testing.assert_array_equal(inst.Q, inst.Q.T)
    assert np.abs(inst.Q).max() <= 2.0  # G + G^T with entries in [-1, 1]


# ---------------------------------------------------------------- files

def test_instance_json_roundtrip(tmp_path, ex_gap):
    path = tmp_path / "inst.json"
    save_instance(ex_gap, path)
    back = load_instance(path)
    np.testing.assert_array_equal(back.Q, ex_gap.Q)
    np.testing.assert_array_equal(back.A, ex_gap.A)
    np.testing.assert_array_equal(back.b, ex_gap.b)
    np.testing.assert_array_equal(back.c, ex_gap.c)
    assert back.name == ex_gap.name


def test_instance_json_rejects_asymmetric(tmp_path):
    obj = {"name": "bad", "n": 2, "m": 0,
           "Q": [0.0, 1.0, 2.0, 0.0], "c": [0.0, 0.0], "A": [], "b": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        load_instance(path)


@pytest.mark.parametrize("change, field", [
    (lambda obj: [1, 2], None),
    (lambda obj: {**obj, "n": None}, "n"),
    (lambda obj: {**obj, "Q": {"a": 1}}, "Q"),
    (lambda obj: {k: v for k, v in obj.items() if k != "m"}, "m"),
], ids=["list", "n-null", "Q-object", "m-missing"])
def test_instance_from_dict_rejects_malformed_input_with_value_error(ex_gap, change, field):
    obj = change(model.instance_to_dict(ex_gap))
    with pytest.raises(ValueError, match="instance rejected") as exc:
        model.instance_from_dict(obj)
    assert type(exc.value) is ValueError
    if field is not None:
        assert repr(field) in str(exc.value)


def test_graph_roundtrip(tmp_path):
    G = random_graph(6, seed=11)
    path = tmp_path / "g.graph"
    save_graph(G, path)
    back = load_graph(path)
    np.testing.assert_array_equal(back.W, G.W)


def test_graph_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.graph"
    path.write_text("3\n1 2 1.0\n2 1 0.5\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_graph(path)


def test_graph_rejects_self_loop(tmp_path):
    path = tmp_path / "loop.graph"
    path.write_text("3\n2 2 1.0\n")
    with pytest.raises(ValueError, match="self-loop"):
        load_graph(path)


def test_graph_rejects_bad_index(tmp_path):
    path = tmp_path / "oob.graph"
    path.write_text("3\n1 4 1.0\n")
    with pytest.raises(ValueError, match="out of range"):
        load_graph(path)


def test_instance_validation():
    with pytest.raises(DimensionError):
        BqpInstance(Q=np.array([[0.0, 1.0], [2.0, 0.0]]), c=np.zeros(2),
                    A=np.zeros((0, 2)), b=np.zeros(0))
    with pytest.raises(DimensionError):
        MaxCutGraph(W=np.array([[1.0, 0.0], [0.0, 0.0]]))  # nonzero diagonal
    # non-finite data is refused as such, ahead of the symmetry check
    data = dict(Q=np.eye(2), c=np.zeros(2), A=np.ones((1, 2)), b=np.zeros(1))
    for key, bad in [("Q", np.array([[0.0, np.nan], [1.0, 0.0]])),
                     ("Q", np.diag([np.inf, 1.0])),
                     ("c", np.array([np.nan, 0.0])),
                     ("A", np.array([[1.0, -np.inf]])),
                     ("b", np.array([np.nan]))]:
        with pytest.raises(NumericError):
            BqpInstance(**{**data, key: bad})
    for w in (np.nan, np.inf):
        with pytest.raises(NumericError):
            MaxCutGraph(W=np.array([[0.0, w], [1.0, 0.0]]))


def random_graph_by_pairs(n, seed, density=1.0):
    """The pair-at-a-time draw that ``random_graph`` does in one call."""
    stream = SplitMix64(seed)
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w = stream.uniforms(1)[0]
            keep = True if density >= 1.0 else bool(stream.uniforms(1)[0] < density)
            if keep:
                W[i, j] = W[j, i] = w
    return W


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
@pytest.mark.parametrize("density", [0.0, 0.25, 0.999, 1.0, 1.5])
def test_random_graph_matches_pair_by_pair_draws(n, density):
    for seed in (0, 5, 2**64 - 1):
        W = random_graph(n, seed, density).W
        assert W.tobytes() == random_graph_by_pairs(n, seed, density).tobytes()
