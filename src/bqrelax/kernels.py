"""Numeric kernels with a numba fast path and a pure-numpy fallback.

* ``scaled_congruence_rows`` — svec(R^T F_i R) for a batch of rows svec(F_i).
  Facial reduction maps every row onto the face with it once per solve.
  Inside the interior-point loop it runs only for the *dense* rows (more
  nonzeros than the PSD order) of the Schur assembly; sparse rows are
  assembled from the scaling matrix W = R R^T instead (``solver._SchurRows``),
  and the tests use this kernel as the reference for that assembly.
* ``bqp_enumerate`` — brute-force enumeration of all sign vectors for the
  desk-scale oracles (gray-code incremental updates under numba, chunked
  vectorized scan under numpy).

Backend selection: environment variable ``BQRELAX_BACKEND`` set to ``numba``,
``numpy`` or ``auto`` (default).  ``auto`` uses numba when importable.  Both
backends enumerate in binary-counting index order (bit i of the code is
coordinate i, set bit = +1) and break objective ties toward the smaller
index, so results are backend-independent on exactly-representable data.

``benchmarks/kernel_bench.py`` compares the two paths.
"""

import os

import numpy as np

from .symcone import svec_index

_ENV_FLAG = "BQRELAX_BACKEND"
_RESCAN_PERIOD = 4096  # bound incremental float drift well below the 1e-9 feasibility tol


def _requested_backend() -> str:
    val = os.environ.get(_ENV_FLAG, "auto").strip().lower()
    if val not in ("auto", "numba", "numpy"):
        raise ValueError(f"{_ENV_FLAG} must be auto|numba|numpy, got {val!r}")
    return val


_HAVE_NUMBA = False
if _requested_backend() in ("auto", "numba"):
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        if _requested_backend() == "numba":
            raise ImportError(f"{_ENV_FLAG}=numba but numba is not installed")

_ACTIVE = "numba" if (_HAVE_NUMBA and _requested_backend() != "numpy") else "numpy"


def active_backend() -> str:
    return _ACTIVE


# ----------------------------------------------------------------------
# scaled congruence of svec'd rows
# ----------------------------------------------------------------------

def scaled_congruence_rows_numpy(rows: np.ndarray, R: np.ndarray) -> np.ndarray:
    """rows[i] = svec(F_i)  ->  out[i] = svec(R^T F_i R), batched.

    R may be rectangular (d x d2), mapping order-d inputs to order-d2 outputs.
    """
    m, sd = rows.shape
    d, d2 = R.shape
    ii, jj, scale = svec_index(d)
    oi, oj, oscale = svec_index(d2)
    vals = rows / scale
    F = np.zeros((m, d, d))
    F[:, ii, jj] = vals
    F[:, jj, ii] = vals
    T = np.matmul(np.matmul(R.T, F), R)
    return T[:, oi, oj] * oscale


if _HAVE_NUMBA:

    @njit(cache=True)
    def _scaled_congruence_rows_nb(rows, R, ii, jj, scale, oi, oj, oscale):  # pragma: no cover - jitted
        m = rows.shape[0]
        sd = rows.shape[1]
        d = R.shape[0]
        sd2 = oi.shape[0]
        out = np.empty((m, sd2))
        F = np.zeros((d, d))
        for r in range(m):
            for k in range(sd):
                v = rows[r, k] / scale[k]
                F[ii[k], jj[k]] = v
                F[jj[k], ii[k]] = v
            T = R.T @ (F @ R)
            for k in range(sd2):
                out[r, k] = T[oi[k], oj[k]] * oscale[k]
        return out

    def scaled_congruence_rows_numba(rows: np.ndarray, R: np.ndarray) -> np.ndarray:
        d, d2 = R.shape
        ii, jj, scale = svec_index(d)
        oi, oj, oscale = svec_index(d2)
        return _scaled_congruence_rows_nb(
            np.ascontiguousarray(rows), np.ascontiguousarray(R), ii, jj, scale, oi, oj, oscale
        )


def scaled_congruence_rows(rows: np.ndarray, R: np.ndarray) -> np.ndarray:
    if _ACTIVE == "numba":
        return scaled_congruence_rows_numba(rows, R)
    return scaled_congruence_rows_numpy(rows, R)


# ----------------------------------------------------------------------
# brute-force sign-vector enumeration
# ----------------------------------------------------------------------

def code_to_signs(code: int, n: int) -> np.ndarray:
    bits = (code >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def bqp_enumerate_numpy(Q, c, A, b, feas_tol=1e-9, chunk=1 << 14):
    """Scan all 2^n sign vectors in counting order; returns (found, best_val, best_code)."""
    n = Q.shape[0]
    m = A.shape[0]
    total = 1 << n
    shifts = np.arange(n)
    best_val = np.inf
    best_code = -1
    found = False
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        X = 2.0 * ((codes[:, None] >> shifts[None, :]) & 1) - 1.0
        if m:
            res = np.abs(X @ A.T - b).max(axis=1)
            mask = res <= feas_tol
            if not mask.any():
                continue
            codes = codes[mask]
            X = X[mask]
        vals = np.einsum("ij,ij->i", X @ Q, X) + 2.0 * (X @ c)
        j = int(np.argmin(vals))  # first occurrence = smallest code
        if (not found) or (vals[j] < best_val) or (vals[j] == best_val and codes[j] < best_code):
            found = True
            best_val = float(vals[j])
            best_code = int(codes[j])
    return found, best_val, best_code


if _HAVE_NUMBA:

    @njit(cache=True)
    def _bqp_enumerate_nb(Q, c, A, b, feas_tol):  # pragma: no cover - jitted
        n = Q.shape[0]
        m = A.shape[0]
        x = -np.ones(n)
        g = Q @ x
        r = A @ x - b
        val = x @ g + 2.0 * (c @ x)
        best_val = np.inf
        best_code = np.int64(-1)
        found = False

        feas = True
        for i in range(m):
            if abs(r[i]) > feas_tol:
                feas = False
                break
        if feas:
            found = True
            best_val = val
            best_code = np.int64(0)

        total = np.int64(1) << np.int64(n)
        for t in range(1, total):
            # flipped coordinate = count of trailing zeros of t
            j = 0
            tt = t
            while tt & 1 == 0:
                tt >>= 1
                j += 1
            xj = x[j]
            val += -4.0 * xj * (g[j] + c[j]) + 4.0 * Q[j, j]
            for i in range(n):
                g[i] -= 2.0 * xj * Q[i, j]
            for i in range(m):
                r[i] -= 2.0 * xj * A[i, j]
            x[j] = -xj

            if t % _RESCAN_PERIOD == 0:  # refresh running sums
                g = Q @ x
                val = x @ g + 2.0 * (c @ x)
                r = A @ x - b

            feas = True
            for i in range(m):
                if abs(r[i]) > feas_tol:
                    feas = False
                    break
            if feas:
                code = np.int64(t ^ (t >> 1))
                if (not found) or (val < best_val) or (val == best_val and code < best_code):
                    found = True
                    best_val = val
                    best_code = code
        return found, best_val, best_code

    def bqp_enumerate_numba(Q, c, A, b, feas_tol=1e-9):
        found, val, code = _bqp_enumerate_nb(
            np.ascontiguousarray(Q, dtype=np.float64),
            np.ascontiguousarray(c, dtype=np.float64),
            np.ascontiguousarray(A, dtype=np.float64),
            np.ascontiguousarray(b, dtype=np.float64),
            feas_tol,
        )
        if found:  # re-evaluate the winner exactly (no incremental drift)
            x = code_to_signs(int(code), Q.shape[0])
            val = float(x @ Q @ x + 2.0 * (c @ x))
        return bool(found), float(val), int(code)


def bqp_enumerate(Q, c, A, b, feas_tol=1e-9):
    if _ACTIVE == "numba":
        return bqp_enumerate_numba(Q, c, A, b, feas_tol)
    return bqp_enumerate_numpy(Q, c, A, b, feas_tol)


def warmup():
    """Trigger JIT compilation on tiny inputs (no-op for the numpy backend)."""
    if _ACTIVE != "numba":
        return
    scaled_congruence_rows(np.array([[1.0, 0.0, 1.0]]), np.eye(2))
    bqp_enumerate(np.zeros((2, 2)), np.zeros(2), np.zeros((1, 2)), np.zeros(1))
