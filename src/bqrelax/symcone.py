"""Symmetric-matrix primitives: svec/smat and eigenvalue cone checks.

Conventions
-----------
svec scans the lower triangle row by row and scales off-diagonal entries by
sqrt(2), so that dot(svec(A), svec(B)) == trace(A @ B) for symmetric A, B.
All checks that involve "is this PSD" are relative to max(1, spectral radius)
to stay scale-invariant.
"""

import functools

import numpy as np

SQRT2 = np.sqrt(2.0)


class DimensionError(ValueError):
    """Shape or length inconsistency."""


class NumericError(ValueError):
    """Non-finite data where finite values are required."""


def svec_len(d: int) -> int:
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=64)
def svec_index(d: int):
    """(ii, jj, scale) of the svec scan for order d: entry k of svec is
    scale[k] * M[ii[k], jj[k]].  Cached per order, read-only."""
    ii, jj = np.tril_indices(d)
    scale = np.where(ii == jj, 1.0, SQRT2)
    for a in (ii, jj, scale):
        a.setflags(write=False)
    return ii, jj, scale


@functools.lru_cache(maxsize=64)
def _svec_flat(d: int):
    """(lo, up, scale): flat positions in a C-ordered d x d matrix of entry k
    of svec (lower triangle) and of its mirror (upper triangle)."""
    ii, jj, scale = svec_index(d)
    lo, up = ii * d + jj, jj * d + ii
    for a in (lo, up):
        a.setflags(write=False)
    return lo, up, scale


@functools.lru_cache(maxsize=64)
def _smat_order(ln: int) -> int:
    """Order d with d(d+1)/2 == ln; a length that is not triangular raises
    (and, raising, is never cached)."""
    d = int(round((np.sqrt(8 * ln + 1) - 1) / 2))
    if svec_len(d) != ln:
        raise DimensionError(f"length {ln} is not d(d+1)/2 for any integer d")
    return d


def svec(M: np.ndarray) -> np.ndarray:
    """Symmetric matrix -> packed vector of length d(d+1)/2."""
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    if M.shape != (d, d):
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    lo, _, scale = _svec_flat(d)
    return M.ravel().take(lo) * scale


def smat(v: np.ndarray) -> np.ndarray:
    """Inverse of svec.  Raises DimensionError on an invalid length.

    Roundtrips are exact on the diagonal; off-diagonal entries go through the
    sqrt(2) scaling twice and can move by one ulp.
    """
    v = np.asarray(v, dtype=float)
    d = _smat_order(v.shape[0])
    lo, up, scale = _svec_flat(d)
    M = np.zeros(d * d)
    M[lo] = M[up] = v / scale
    return M.reshape(d, d)


def eigvals_sym(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NumericError("matrix has non-finite entries")
    return np.linalg.eigvalsh(0.5 * (M + M.T))


def psd_margin(M: np.ndarray) -> float:
    """Smallest eigenvalue relative to max(1, spectral radius); >= 0 means PSD."""
    w = eigvals_sym(M)
    if w.size == 0:
        return 0.0
    rad = max(abs(w[0]), abs(w[-1]))
    return float(w[0] / max(1.0, rad))


def lifted_matrix(alpha: float, x: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Assemble [[alpha, x^T], [x, X]]."""
    x = np.asarray(x, dtype=float)
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if x.shape != (n,):
        raise DimensionError(f"vector length {x.shape} does not match matrix order {n}")
    Y = np.empty((n + 1, n + 1))
    Y[0, 0] = alpha
    Y[0, 1:] = x
    Y[1:, 0] = x
    Y[1:, 1:] = X
    return Y
