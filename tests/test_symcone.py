import numpy as np
import pytest

from bqrelax.symcone import (
    DimensionError,
    NumericError,
    eigvals_sym,
    lifted_matrix,
    psd_margin,
    smat,
    svec,
    svec_index,
)

SQRT2 = np.sqrt(2.0)


def test_svec_identity():
    np.testing.assert_array_equal(svec(np.eye(2)), [1.0, 0.0, 1.0])


def test_svec_offdiag_scaling():
    v = svec(np.array([[1.0, 2.0], [2.0, 3.0]]))
    np.testing.assert_allclose(v, [1.0, 2.0 * SQRT2, 3.0], rtol=0, atol=0)


def test_svec_isometry_simple():
    A = np.ones((2, 2))
    B = 2.0 * np.eye(2)
    assert svec(A) @ svec(B) == pytest.approx(np.trace(A @ B))
    assert svec(A) @ svec(B) == pytest.approx(4.0)


def test_smat_identity():
    np.testing.assert_array_equal(smat(np.array([1.0, 0.0, 1.0])), np.eye(2))


def test_smat_scalar():
    np.testing.assert_array_equal(smat(np.array([4.0])), [[4.0]])


def test_smat_bad_length():
    with pytest.raises(DimensionError):
        smat(np.array([1.0, 2.0]))


def svec_fancy(M):
    """svec by fancy indexing on (row, column) pairs: the reference."""
    M = np.asarray(M, dtype=float)
    ii, jj, scale = svec_index(M.shape[0])
    return M[ii, jj] * scale


def smat_fancy(v):
    """smat by fancy-index assignment of both triangles: the reference."""
    d = int(round((np.sqrt(8 * v.shape[0] + 1) - 1) / 2))
    ii, jj, scale = svec_index(d)
    M = np.zeros((d, d))
    vals = v / scale
    M[ii, jj] = vals
    M[jj, ii] = vals
    return M


@pytest.mark.parametrize("d", [0, 1, 2, 13, 41, 150])
def test_svec_smat_match_fancy_index_reference(d):
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d))
    for M in (A, A + A.T, A.T, np.asfortranarray(A), A[::-1, ::-1]):
        np.testing.assert_array_equal(svec(M), svec_fancy(M))
    v = rng.standard_normal(d * (d + 1) // 2)
    np.testing.assert_array_equal(smat(v), smat_fancy(v))
    np.testing.assert_array_equal(smat(svec(A + A.T)), smat_fancy(svec_fancy(A + A.T)))


def test_smat_bad_length_after_a_good_one():
    smat(np.zeros(6))
    for _ in range(2):
        with pytest.raises(DimensionError):
            smat(np.zeros(5))
    assert smat(np.zeros(6)).shape == (3, 3)


def test_svec_rejects_non_square():
    with pytest.raises(DimensionError):
        svec(np.zeros((2, 3)))


def test_svec_smat_roundtrip():
    # diagonals are untouched (exact); off-diagonals are scaled by sqrt(2)
    # and back, which costs at most one ulp per entry
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        A = rng.standard_normal((n, n))
        M = A + A.T
        back = smat(svec(M))
        np.testing.assert_array_equal(np.diag(back), np.diag(M))
        np.testing.assert_allclose(back, M, rtol=5e-16, atol=0)


def test_isometry_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        A = rng.standard_normal((n, n)); A = A + A.T
        B = rng.standard_normal((n, n)); B = B + B.T
        tr = np.trace(A @ B)
        assert abs(svec(A) @ svec(B) - tr) <= 1e-12 * (1.0 + abs(tr))


def test_min_eigenvalue_examples():
    # the smallest eigenvalue is eigvals_sym(M)[0]; psd_margin divides it
    # by max(1, spectral radius)
    assert eigvals_sym(np.eye(3))[0] == pytest.approx(1.0)
    assert eigvals_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))[0] == pytest.approx(-1.0)
    assert eigvals_sym(np.diag([2.0, 5.0]))[0] == pytest.approx(2.0)
    assert psd_margin(np.eye(3)) == pytest.approx(1.0)
    assert psd_margin(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)
    assert psd_margin(np.diag([2.0, 5.0])) == pytest.approx(2.0 / 5.0)


def test_min_eigenvalue_nonfinite():
    M = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericError):
        eigvals_sym(M)
    with pytest.raises(NumericError):
        psd_margin(M)


def test_is_psd_examples():
    # M is PSD to tol when psd_margin(M) >= -tol
    assert psd_margin(np.eye(2)) >= -1e-8
    assert not psd_margin(np.array([[1.0, 2.0], [2.0, 1.0]])) >= -1e-8
    assert psd_margin(np.zeros((3, 3))) >= -1e-8


def test_is_psd_scale_invariant():
    # relative margin: a matrix scaled by 1e6 keeps its verdict
    M = np.array([[1.0, 0.999], [0.999, 1.0]])
    assert (psd_margin(M) >= -1e-8) == (psd_margin(1e6 * M) >= -1e-8)


def test_lifted_psd_check_examples():
    # [[1, x^T], [x, X]] >= 0 is checked as psd_margin(lifted_matrix(1, x, X)) >= -tol
    e = np.ones(2)
    assert psd_margin(lifted_matrix(1.0, -e, np.outer(e, e))) >= -1e-8
    assert psd_margin(lifted_matrix(1.0, np.zeros(2), np.eye(2))) >= -1e-8
    assert not psd_margin(lifted_matrix(1.0, np.array([2.0, 0.0]), np.eye(2))) >= -1e-8


def test_lifted_psd_check_dim_mismatch():
    with pytest.raises(DimensionError):
        lifted_matrix(1.0, np.zeros(3), np.eye(2))


def test_schur_equivalence_property():
    # [[1, x^T], [x, X]] >= 0 agrees with the direct check on X - xx^T
    # (Schur complement) whenever both margins are clearly signed
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(1, 11))
        x = rng.standard_normal(n)
        X = rng.standard_normal((n, n))
        X = X + X.T + np.eye(n) * rng.uniform(-1, 3)
        direct = psd_margin(X - np.outer(x, x))
        if abs(direct) <= 1e-6:
            continue
        checked += 1
        assert ((psd_margin(lifted_matrix(1.0, x, X)) >= -1e-8)
                == (psd_margin(X - np.outer(x, x)) >= -1e-8))
    assert checked > 100


def test_psd_implication_direction():
    # X - xx^T >= 0 always implies X >= 0
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal(n)
        B = rng.standard_normal((n, n))
        X = np.outer(x, x) + B @ B.T  # X - xx^T = BB^T >= 0 by construction
        assert psd_margin(X - np.outer(x, x)) >= -1e-8
        assert psd_margin(X) >= -1e-8
