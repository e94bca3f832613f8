import dataclasses
import tracemalloc

import numpy as np
import pytest

from bqrelax.model import (
    GENERATOR_KINDS,
    BqpInstance,
    MaxCutGraph,
    bqp_objective,
    generate_instance,
    laplacian,
    random_graph,
)
from bqrelax.relax import (
    VariableMap,
    build_dnnp,
    build_mc_dnnp,
    build_mc_sdr,
    build_sdr,
    build_sdr1,
    build_sdr2,
    build_zspace,
    MAXCUT_BUILDERS,
    RELAXATION_BUILDERS,
)
from bqrelax.symcone import DimensionError, lifted_matrix, svec


def eval_row(prog, i, psd_mat, nonneg=None, free=None):
    val = prog.G_psd[i] @ svec(psd_mat) if prog.psd_order else 0.0
    if prog.nonneg_count and nonneg is not None:
        val += prog.G_nonneg[i] @ nonneg
    if prog.free_count and free is not None:
        val += prog.G_free[i] @ free
    return val, float(prog.rhs[i])


# ------------------------------------------------------------ block shapes

def test_sdr_shapes(ex_tight):
    prog, vm = build_sdr(ex_tight)
    assert (prog.psd_order, prog.free_count, prog.nonneg_count) == (2, 2, 0)
    assert prog.n_rows == 4
    assert prog.sense == "min"
    assert vm.kind == "split"


def test_sdr_no_constraints_only_diag_rows():
    inst = BqpInstance(Q=np.eye(3) * -1, c=np.ones(3), A=np.zeros((0, 3)), b=np.zeros(0))
    prog, _ = build_sdr(inst)
    assert prog.n_rows == 3


def test_sdr1_shapes(ex_tight):
    prog, vm = build_sdr1(ex_tight)
    assert (prog.psd_order, prog.nonneg_count, prog.free_count) == (3, 0, 0)
    assert prog.n_rows == 5
    assert vm.kind == "lifted"


def test_sdr2_shapes(ex_tight):
    prog, _ = build_sdr2(ex_tight)
    assert (prog.psd_order, prog.nonneg_count) == (3, 3)
    assert prog.n_rows == 8


def test_dnnp_shapes(ex_tight):
    prog, vm = build_dnnp(ex_tight)
    assert (prog.psd_order, prog.nonneg_count) == (3, 6)
    assert prog.n_rows == 11  # 1 + n + m + m + (n+1)(n+2)/2
    assert vm.space == "z"


@pytest.mark.parametrize("n,m", [(3, 0), (5, 2), (8, 4)])
def test_row_count_formulas(n, m):
    inst = generate_instance("RdnBQP", n, m, seed=1)
    assert build_sdr(inst)[0].n_rows == 2 * m + n
    assert build_sdr1(inst)[0].n_rows == 1 + 2 * m + n
    assert build_sdr2(inst)[0].n_rows == 1 + 2 * m + n + n * (n + 1) // 2
    assert build_dnnp(inst)[0].n_rows == 1 + n + 2 * m + (n + 1) * (n + 2) // 2


# ------------------------------------------------------------ row content

def test_sdr1_rows_vanish_at_known_optimum(ex_tight):
    # x = (-1,-1), X = ee^T is feasible: every row holds exactly
    prog, _ = build_sdr1(ex_tight)
    Y = lifted_matrix(1.0, -np.ones(2), np.ones((2, 2)))
    for i in range(prog.n_rows):
        val, rhs = eval_row(prog, i, Y)
        assert val == pytest.approx(rhs, abs=1e-9)


def test_sdr2_rows_with_slacks(ex_tight):
    prog, _ = build_sdr2(ex_tight)
    x = -np.ones(2)
    X = np.ones((2, 2))
    Y = lifted_matrix(1.0, x, X)
    # slack values are the cut margins 1 - x_i - x_j + X_ij, in (i<=j) order
    slacks = np.array([1 - x[i] - x[j] + X[i, j] for i in range(2) for j in range(i, 2)])
    for i in range(prog.n_rows):
        val, rhs = eval_row(prog, i, Y, nonneg=slacks)
        assert val == pytest.approx(rhs, abs=1e-9)


def test_dnnp_rows_at_mapped_optimum(ex_tight):
    # z = (1,1), Z = ee^T is the image of the binary optimum
    prog, _ = build_dnnp(ex_tight)
    z = np.ones(2)
    Z = np.ones((2, 2))
    Y = lifted_matrix(1.0, z, Z)
    slacks = np.array([Y[i, j] for i in range(3) for j in range(i, 3)])
    for i in range(prog.n_rows):
        val, rhs = eval_row(prog, i, Y, nonneg=slacks)
        assert val == pytest.approx(rhs, abs=1e-9)
    # objective at the mapped binary optimum equals the BQP value
    obj = prog.obj_psd @ svec(Y) + prog.offset
    assert obj == pytest.approx(-28.0, abs=1e-9)


def test_sdr_objective_at_point(ex_tight):
    prog, _ = build_sdr(ex_tight)
    x = -np.ones(2)
    X = np.ones((2, 2))
    val = prog.obj_psd @ svec(X) + prog.obj_free @ x + prog.offset
    assert val == pytest.approx(bqp_objective(ex_tight, x))


# ------------------------------------------------------------ z-space

def test_zspace_example_values(ex_tight):
    zs = build_zspace(ex_tight)
    assert zs.objective(np.ones(2)) == pytest.approx(-28.0)      # x = (-1,-1)
    assert zs.objective(np.zeros(2)) == pytest.approx(zs.constz)  # x = e
    assert zs.constz == pytest.approx(-24.0)
    np.testing.assert_allclose(zs.Az, [[20.0, -20.0]])
    np.testing.assert_allclose(zs.bz, [0.0])


def test_zspace_invariance_all_sign_vectors():
    for seed in (1, 2):
        inst = generate_instance("RdsBQP", 10, 2, seed=seed)
        zs = build_zspace(inst)
        for code in range(1 << inst.n):
            x = 2.0 * ((code >> np.arange(inst.n)) & 1) - 1.0
            fx = bqp_objective(inst, x)
            fz = zs.objective((1.0 - x) / 2.0)
            assert abs(fz - fx) <= 1e-9 * (1.0 + abs(fx))


# ------------------------------------------------------------ max-cut

def test_mc_sdr_shapes_and_objective():
    G = MaxCutGraph(W=np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    prog, vm = build_mc_sdr(G)
    assert prog.sense == "max"
    assert (prog.psd_order, prog.n_rows) == (3, 3)
    assert vm.kind == "psd"
    # objective at the analytic optimum U (off-diagonals -1/2)
    U = np.full((3, 3), -0.5)
    np.fill_diagonal(U, 1.0)
    assert prog.obj_psd @ svec(U) + prog.offset == pytest.approx(2.25)


def test_mc_dnnp_laplacian_kills_linear_term():
    G = MaxCutGraph(W=np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    prog, _ = build_mc_dnnp(G)
    assert prog.offset == pytest.approx(0.0)
    # linear (first row/column) part of the lifted objective vanishes since Le = 0
    C = prog.obj_psd
    d = prog.psd_order
    from bqrelax.symcone import smat
    Cm = smat(C)
    assert np.abs(Cm[0, :]).max() == pytest.approx(0.0, abs=1e-14)


def test_mc_dnnp_shapes():
    G = MaxCutGraph(W=np.array([[0.0, 0.5], [0.5, 0.0]]))
    prog, vm = build_mc_dnnp(G)
    assert (prog.psd_order, prog.nonneg_count) == (3, 6)
    assert prog.n_rows == 1 + 2 + 6
    assert vm.kind == "lifted"


# ------------------------------------------------------------ variable maps

def test_variable_map_roundtrips():
    # each kind reads back the vector and matrix from its own block layout
    rng = np.random.default_rng(5)
    n = 4
    x = rng.standard_normal(n)
    X = rng.standard_normal((n, n)); X = X + X.T

    vm = VariableMap(kind="lifted", n=n)
    x2, X2 = vm.extract(lifted_matrix(1.0, x, X), np.zeros(0), np.zeros(0))
    np.testing.assert_array_equal(x2, x)
    np.testing.assert_array_equal(X2, X)

    vm = VariableMap(kind="split", n=n)
    x2, X2 = vm.extract(X, np.zeros(0), x)
    np.testing.assert_array_equal(x2, x)
    np.testing.assert_array_equal(X2, X)

    vm = VariableMap(kind="psd", n=n)
    none_vec, X2 = vm.extract(X, np.zeros(0), np.zeros(0))
    assert none_vec is None
    np.testing.assert_array_equal(X2, X)


# ------------------------------------------------------------ kernel hints

def test_lifted_kernel_is_row_combination():
    # each kernel column u = (b_i, -a_i) satisfies
    # svec(u u^T) = b_i^2 * row(Y00) - 2 b_i * row(lin_i) + row(quad_i), rhs-combination 0
    inst = generate_instance("RdnBQP", 6, 3, seed=2)
    prog, _ = build_sdr1(inst)
    K = prog.face.kernel
    assert K is not None and K.shape == (7, 3)
    for i in range(inst.m):
        u = K[:, i]
        np.testing.assert_allclose(u, np.concatenate(([inst.b[i]], -inst.A[i])))
        combo = (inst.b[i] ** 2 * prog.G_psd[0]
                 - 2.0 * inst.b[i] * prog.G_psd[1 + i]
                 + prog.G_psd[1 + inst.m + i])
        np.testing.assert_allclose(combo, svec(np.outer(u, u)), atol=1e-9)
        rhs_combo = (inst.b[i] ** 2 * prog.rhs[0]
                     - 2.0 * inst.b[i] * prog.rhs[1 + i]
                     + prog.rhs[1 + inst.m + i])
        assert rhs_combo == pytest.approx(0.0, abs=1e-9)


def zero_rhs_row(inst, i):
    b = inst.b.copy()
    b[i] = 0.0
    return BqpInstance(inst.Q, inst.c, inst.A, b)


@pytest.mark.parametrize("builder", [build_sdr1, build_sdr2, build_dnnp])
def test_lifted_face_declares_its_combination_and_rows(builder):
    # dnnp has the same structure as sdr1/sdr2 in z-space, with (2A, Ae - b)
    inst = generate_instance("RdBQP", 7, 3, seed=4)
    prog, _ = builder(inst)
    face = prog.face
    m, lin = inst.m, 1 + (inst.n if builder is build_dnnp else 0)
    assert face.kernel.shape == (inst.n + 1, m)
    np.testing.assert_array_equal(face.rows, [[0, lin + i, lin + m + i] for i in range(m)])
    for k, r, c in zip(face.kernel.T, face.rows, face.coeffs):
        np.testing.assert_allclose(c @ prog.G_psd[r], svec(np.outer(k, k)), rtol=0, atol=1e-12)
        assert not (c @ prog.G_nonneg[r]).any()
        assert c @ prog.rhs[r] == pytest.approx(0.0, abs=1e-12 * (np.abs(c) @ np.abs(prog.rhs[r])))
    # the linear and quadratic rows of every constraint; never Y00
    np.testing.assert_array_equal(face.implied, np.arange(lin, lin + 2 * m))


def test_sdr_face_only_for_zero_rhs_rows():
    inst = generate_instance("RdBQP", 7, 3, seed=4)
    assert build_sdr(inst)[0].face is None
    prog, _ = build_sdr(zero_rhs_row(inst, 1))
    np.testing.assert_array_equal(prog.face.kernel, inst.A[1][:, None])
    np.testing.assert_array_equal(prog.face.rows, [[inst.m + 1]])
    np.testing.assert_array_equal(prog.face.implied, [inst.m + 1])
    np.testing.assert_array_equal(prog.G_psd[inst.m + 1], svec(np.outer(inst.A[1], inst.A[1])))
    assert prog.rhs[inst.m + 1] == 0.0


def test_face_shapes_validated():
    prog, _ = build_sdr1(generate_instance("RdBQP", 5, 2, seed=1))
    face = prog.face
    bad = [
        dataclasses.replace(face, kernel=face.kernel[1:]),
        dataclasses.replace(face, kernel=face.kernel[:, :0]),
        dataclasses.replace(face, rows=face.rows[:1]),
        dataclasses.replace(face, coeffs=face.coeffs[:, :2]),
    ]
    for f in bad:
        with pytest.raises(DimensionError):
            dataclasses.replace(prog, face=f)


def test_a_row_mixing_free_and_cone_coefficients_is_rejected():
    # the solver decides the free block apart from the loop: a row that ties
    # a free variable to the PSD block or to the orthant has no place
    prog, _ = build_sdr(generate_instance("RdBQP", 5, 2, seed=1))
    assert prog.G_free[0].any()  # a_1^T x = b_1
    G_psd = prog.G_psd.copy()
    G_psd[0, 0] = 1.0
    slack = np.zeros((prog.n_rows, 1))
    slack[0] = -1.0
    for bad in ({"G_psd": G_psd},
                {"nonneg_count": 1, "obj_nonneg": np.zeros(1), "G_nonneg": slack}):
        with pytest.raises(DimensionError, match="free coefficient"):
            dataclasses.replace(prog, **bad)
    # the same coefficients on a row without a free one are accepted
    G_psd[0, 0], slack[0] = 0.0, 0.0
    G_psd[-1, 0], slack[-1] = 1.0, -1.0
    dataclasses.replace(prog, G_psd=G_psd, nonneg_count=1, obj_nonneg=np.zeros(1), G_nonneg=slack)


# ------------------------------------------------------------ rows against their dense matrices

def sym(d, i, j, v):
    """d x d F with F_ij = F_ji = v, zero elsewhere."""
    F = np.zeros((d, d))
    F[i, j] = F[j, i] = v
    return F


def lin(d, a):
    """F with tr(F Y) = a^T Y[1:, 0]."""
    F = np.zeros((d, d))
    F[0, 1:] = F[1:, 0] = a / 2.0
    return F


def quad(d, a, scale=1.0):
    """F with tr(F Y) = scale * a^T Y[-n:, -n:] a."""
    F = np.zeros((d, d))
    F[d - a.size:, d - a.size:] = scale * np.outer(a, a)
    return F


def lifted_dnn_rows(d):
    """Y00 = 1, Y_ii - Y_0i = 0, then Y_ij - s_k = 0 over i <= j, row by row."""
    rows = [(sym(d, 0, 0, 1.0), None, 1.0)]
    rows += [(sym(d, i, i, 1.0) + sym(d, i, 0, -0.5), None, 0.0) for i in range(1, d)]
    return rows, [(sym(d, i, j, 1.0 if i == j else 0.5), 0.0) for i in range(d) for j in range(i, d)]


def dense_rows(name, data):
    """Each row of a builder's program from its explicit F_i: rows (F, free
    coefficients or None, rhs), then the rows (F, rhs) that own slack k."""
    if name == "mc_sdr":
        return [(sym(data.n, i, i, 1.0), None, 1.0) for i in range(data.n)], []
    if name == "mc_dnnp":
        return lifted_dnn_rows(1 + data.n)
    A, b, n = data.A, data.b, data.n
    if name == "sdr":
        rows = [(np.zeros((n, n)), a, bi) for a, bi in zip(A, b)]
        rows += [(quad(n, a), None, bi ** 2) for a, bi in zip(A, b)]
        return rows + [(sym(n, i, i, 1.0), None, 1.0) for i in range(n)], []
    d = 1 + n
    if name == "dnnp":
        zs = build_zspace(data)
        rows, owned = lifted_dnn_rows(d)
        rows += [(lin(d, a), None, bi) for a, bi in zip(zs.Az, zs.bz)]
        rows += [(quad(d, a, 4.0), None, bi ** 2) for a, bi in zip(A, zs.bz)]
        return rows, owned
    rows = [(sym(d, 0, 0, 1.0), None, 1.0)]
    rows += [(lin(d, a), None, bi) for a, bi in zip(A, b)]
    rows += [(quad(d, a), None, bi ** 2) for a, bi in zip(A, b)]
    rows += [(sym(d, i, i, 1.0), None, 1.0) for i in range(1, d)]
    cuts = [(sym(d, 1 + i, 1 + j, 1.0 if i == j else 0.5) + sym(d, 0, 1 + i, -0.5)
             + sym(d, 0, 1 + j, -0.5), -1.0) for i in range(n) for j in range(i, n)]
    return rows, cuts if name == "sdr2" else []


def assert_rows_are_dense_svecs(prog, name, data):
    rows, owned = dense_rows(name, data)
    free = [np.zeros(prog.free_count) if g is None else g for _, g, _ in rows]
    G_nonneg = np.zeros((len(rows) + len(owned), len(owned)))
    np.fill_diagonal(G_nonneg[len(rows):], -1.0)
    want = {
        "G_psd": np.array([svec(F) for F, *_ in rows] + [svec(F) for F, _ in owned]),
        "G_nonneg": G_nonneg,
        "G_free": np.array(free + [np.zeros(prog.free_count)] * len(owned)),
        "rhs": np.array([float(r) for *_, r in rows] + [float(r) for _, r in owned]),
    }
    for field, a in want.items():
        got = getattr(prog, field)
        assert got.shape == a.shape and got.tobytes() == a.tobytes(), field


# (kind, n, m, seed, planted); in the last two, some b_i^2 resp. (Ae - b)_i^2
# computed as an array's ``b ** 2`` differs in the last bit from the scalar's
BQP_GRID = [(kind, n, m, 2, planted) for kind in GENERATOR_KINDS
            for n, m in [(5, 0), (6, 2), (12, 5)] for planted in (True, False)]
BQP_GRID += [("RdnBQP", 6, 2, 17, True), ("RdnBQP", 12, 5, 24, True)]


@pytest.mark.parametrize("name", sorted(RELAXATION_BUILDERS))
def test_bqp_rows_are_the_svecs_of_their_dense_matrices(name):
    for args in BQP_GRID:
        inst = generate_instance(*args)
        assert_rows_are_dense_svecs(RELAXATION_BUILDERS[name](inst)[0], name, inst)


@pytest.mark.parametrize("name", sorted(MAXCUT_BUILDERS))
@pytest.mark.parametrize("n", [1, 2, 6, 40])
def test_maxcut_rows_are_the_svecs_of_their_dense_matrices(name, n):
    G = random_graph(n, seed=3, density=0.5)
    assert_rows_are_dense_svecs(MAXCUT_BUILDERS[name](G)[0], "mc_" + name, G)


def test_mc_sdr_build_allocates_little_beyond_its_program():
    # the rows are written into the program's own arrays, not stacked from copies
    G = random_graph(150, seed=1, density=0.5)
    tracemalloc.start()
    try:
        prog, _ = build_mc_sdr(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (prog.obj_psd, prog.obj_nonneg, prog.obj_free, prog.G_psd, prog.G_nonneg,
              prog.G_free, prog.rhs)
    assert peak < 1.25 * sum(a.nbytes for a in arrays)
