import numpy as np
import pytest

from bqrelax import kernels
from bqrelax.symcone import smat, svec

def test_code_to_signs_convention():
    # bit i of the code is coordinate i; set bit = +1
    np.testing.assert_array_equal(kernels.code_to_signs(0, 3), [-1, -1, -1])
    np.testing.assert_array_equal(kernels.code_to_signs(1, 3), [1, -1, -1])
    np.testing.assert_array_equal(kernels.code_to_signs(6, 3), [-1, 1, 1])


def _random_rows(rng, m, d):
    rows = np.empty((m, d * (d + 1) // 2))
    for i in range(m):
        A = rng.standard_normal((d, d))
        rows[i] = svec(A + A.T)
    return rows


def test_congruence_numpy_matches_direct():
    rng = np.random.default_rng(0)
    for d in (1, 3, 7):
        rows = _random_rows(rng, 5, d)
        R = rng.standard_normal((d, d))
        out = kernels.scaled_congruence_rows(rows, R)
        for i in range(5):
            np.testing.assert_allclose(out[i], svec(R.T @ smat(rows[i]) @ R), atol=1e-12)


def test_congruence_rectangular():
    rng = np.random.default_rng(1)
    d, d2 = 6, 4
    rows = _random_rows(rng, 4, d)
    R = rng.standard_normal((d, d2))
    out = kernels.scaled_congruence_rows(rows, R)
    assert out.shape == (4, d2 * (d2 + 1) // 2)
    for i in range(4):
        np.testing.assert_allclose(out[i], svec(R.T @ smat(rows[i]) @ R), atol=1e-12)


def test_bqp_enumerate_numpy_matches_direct():
    rng = np.random.default_rng(3)
    n = 8
    A = rng.standard_normal((2, n))
    xhat = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    b = A @ xhat
    Q = rng.standard_normal((n, n)); Q = Q + Q.T
    c = rng.standard_normal(n)
    found, val, code = kernels.bqp_enumerate(Q, c, A, b)
    assert found
    # independent direct scan
    best = None
    for k in range(1 << n):
        x = kernels.code_to_signs(k, n)
        if np.abs(A @ x - b).max() <= 1e-9:
            v = x @ Q @ x + 2 * c @ x
            if best is None or v < best[0]:
                best = (v, k)
    assert best is not None
    assert val == pytest.approx(best[0], abs=1e-10)
    assert code == best[1]


def test_bqp_enumerate_infeasible():
    n = 2
    A = np.array([[1.0, 1.0]])
    b = np.array([3.0])
    found, _, _ = kernels.bqp_enumerate(np.zeros((n, n)), np.zeros(n), A, b)
    assert not found


def test_bqp_enumerate_tie_break_smaller_code():
    # symmetric objective: f(x) = f(-x); the smaller code must win
    Q = np.zeros((2, 2))
    c = np.zeros(2)
    found, val, code = kernels.bqp_enumerate(Q, c, np.zeros((0, 2)), np.zeros(0))
    assert found and val == 0.0 and code == 0
