"""Numeric kernels (numpy).

* ``scaled_congruence_rows`` — svec(R^T F_i R) for a batch of rows svec(F_i).
  Facial reduction maps the rows it keeps onto the face with it once per solve.
  Inside the interior-point loop it runs only for the *dense* rows (more
  nonzeros than the PSD order, or none) of the Schur assembly; sparse rows are
  assembled from the scaling matrix W = R R^T instead (``solver._SchurRows``),
  and the tests use this kernel as the reference for that assembly.
* ``bqp_enumerate`` — brute-force enumeration of all sign vectors for the
  desk-scale oracles, as a chunked vectorized scan in binary-counting index
  order (bit i of the code is coordinate i, set bit = +1) that breaks
  objective ties toward the smaller index.
"""

import numpy as np

from .symcone import svec_index


# ----------------------------------------------------------------------
# scaled congruence of svec'd rows
# ----------------------------------------------------------------------

def scaled_congruence_rows(rows: np.ndarray, R: np.ndarray) -> np.ndarray:
    """rows[i] = svec(F_i)  ->  out[i] = svec(R^T F_i R), batched.

    R may be rectangular (d x d2), mapping order-d inputs to order-d2 outputs.
    """
    m = rows.shape[0]
    d, d2 = R.shape
    ii, jj, scale = svec_index(d)
    oi, oj, oscale = svec_index(d2)
    vals = rows / scale
    F = np.zeros((m, d, d))
    F[:, ii, jj] = vals
    F[:, jj, ii] = vals
    T = np.matmul(np.matmul(R.T, F), R)
    return T[:, oi, oj] * oscale


# ----------------------------------------------------------------------
# brute-force sign-vector enumeration
# ----------------------------------------------------------------------

def code_to_signs(code: int, n: int) -> np.ndarray:
    bits = (code >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def bqp_enumerate(Q, c, A, b, feas_tol=1e-9, chunk=1 << 14):
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
