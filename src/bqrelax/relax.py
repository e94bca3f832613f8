"""Compile BQP/max-cut relaxations into standard-form conic programs.

Standard form: one PSD block (svec'd), one nonnegative slack block, one free
block; equality rows only; linear objective plus a constant offset.  Max
sense is carried as a flag and negated inside the solver; the offset never
enters the solver.

The BQP builders attach the face that holds every feasible PSD block
(``Face``; always for the lifted ones, for ``sdr`` when some b_i = 0), its
proof as a row combination and the rows it makes redundant; the solver
reduces onto it instead of searching for it.

Builders:
  build_sdr     - X PSD, x free, no coupling between them
  build_sdr1    - single lifted (1+n) PSD block [[1, x^T], [x, X]]
  build_sdr2    - SDR1 plus the n(n+1)/2 pairwise cuts 1 - x_i - x_j + X_ij >= 0
  build_dnnp    - z-space lifted block with elementwise nonnegativity
  build_mc_sdr  - max-cut: U PSD, unit diagonal
  build_mc_dnnp - max-cut: lifted (x, X) block, X_ii = x_i, entrywise >= 0
"""

import json
from dataclasses import dataclass

import numpy as np

from .model import BqpInstance, MaxCutGraph, laplacian
from .symcone import DimensionError, lifted_matrix, svec, svec_len


@dataclass(eq=False)
class Face:
    """A face of the PSD cone holding every feasible PSD block Y, as the
    builder knows it.

    Column k_i of ``kernel`` (psd_order x k) comes with its proof: rows
    ``rows[i]`` weighted by ``coeffs[i]`` combine to PSD part svec(k_i k_i^T),
    zero orthant and free parts and rhs 0, so k_i^T Y k_i = 0 and, Y being
    PSD, Y k_i = 0.  On the face each row in ``implied`` is a multiple of a
    row that stays, rhs included.  Indices are program rows, so appended
    rows keep the face valid.  The solver checks the combinations and drops
    the implied rows as declared.
    """

    kernel: np.ndarray
    rows: np.ndarray
    coeffs: np.ndarray
    implied: np.ndarray


@dataclass(eq=False)
class ConicProgram:
    """Standard-form conic program.

    ``face`` is optional solver metadata from the builder (see ``Face``): a
    face of the PSD cone that holds every feasible PSD block, the row
    combinations that prove it, and the rows it makes redundant.
    """

    sense: str
    psd_order: int
    nonneg_count: int
    free_count: int
    obj_psd: np.ndarray
    obj_nonneg: np.ndarray
    obj_free: np.ndarray
    offset: float
    G_psd: np.ndarray
    G_nonneg: np.ndarray
    G_free: np.ndarray
    rhs: np.ndarray
    label: str = "conic"
    face: Face | None = None

    def __post_init__(self):
        sd = svec_len(self.psd_order)
        rows = self.rhs.shape[0]
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if self.obj_psd.shape != (sd,) or self.G_psd.shape != (rows, sd):
            raise DimensionError("PSD block shapes inconsistent")
        if self.obj_nonneg.shape != (self.nonneg_count,) or self.G_nonneg.shape != (rows, self.nonneg_count):
            raise DimensionError("nonneg block shapes inconsistent")
        if self.obj_free.shape != (self.free_count,) or self.G_free.shape != (rows, self.free_count):
            raise DimensionError("free block shapes inconsistent")
        if not np.isfinite(self.offset):
            raise ValueError("offset must be finite")
        face = self.face
        if face is not None and (face.kernel.ndim != 2 or face.kernel.shape[0] != self.psd_order
                                 or face.kernel.shape[1] == 0 or face.rows.ndim != 2
                                 or face.rows.shape != face.coeffs.shape
                                 or face.rows.shape[0] != face.kernel.shape[1]):
            raise DimensionError("face kernel must be (psd_order x k), k >= 1, "
                                 "its rows and coeffs (k x t)")

    @property
    def n_rows(self) -> int:
        return self.rhs.shape[0]

    def row(self, i: int):
        """(svec over PSD, nonneg coefficients, free coefficients, rhs)."""
        return self.G_psd[i], self.G_nonneg[i], self.G_free[i], float(self.rhs[i])

    def objective_value(self, psd_mat: np.ndarray, nonneg: np.ndarray, free: np.ndarray) -> float:
        """Model-space objective (offset included) at the given blocks."""
        val = float(self.obj_psd @ svec(psd_mat))
        val += float(self.obj_nonneg @ nonneg)
        val += float(self.obj_free @ free)
        return val + self.offset

    def to_debug_json(self) -> str:
        """Internal, versioned dump for inspection; not a public contract."""
        return json.dumps(
            {
                "version": 1,
                "label": self.label,
                "sense": self.sense,
                "psd_order": self.psd_order,
                "nonneg_count": self.nonneg_count,
                "free_count": self.free_count,
                "offset": self.offset,
                "objective": {
                    "psd_svec": self.obj_psd.tolist(),
                    "nonneg": self.obj_nonneg.tolist(),
                    "free": self.obj_free.tolist(),
                },
                "rows": [
                    {
                        "psd_svec": self.G_psd[i].tolist(),
                        "nonneg": self.G_nonneg[i].tolist(),
                        "free": self.G_free[i].tolist(),
                        "rhs": float(self.rhs[i]),
                    }
                    for i in range(self.n_rows)
                ],
            },
            sort_keys=True,
        )


@dataclass(eq=False)
class VariableMap:
    """Where the model variables live inside the solver blocks.

    kind "lifted": vector = Y[0, 1:], matrix = Y[1:, 1:] of the PSD block;
    kind "split":  vector = free block, matrix = PSD block;
    kind "psd":    matrix = PSD block, no vector.
    ``space`` names the model variables ("x", "z" or "u") for reporting.
    """

    kind: str
    n: int
    space: str = "x"

    def extract(self, psd_mat: np.ndarray, nonneg: np.ndarray, free: np.ndarray):
        if self.kind == "lifted":
            return psd_mat[0, 1:].copy(), psd_mat[1:, 1:].copy()
        if self.kind == "split":
            return free.copy(), psd_mat.copy()
        if self.kind == "psd":
            return None, psd_mat.copy()
        raise ValueError(self.kind)

    def embed(self, vec, mat):
        """Back-embedding; returns (psd_mat, free_vec)."""
        if self.kind == "lifted":
            return lifted_matrix(1.0, vec, mat), np.zeros(0)
        if self.kind == "split":
            return np.array(mat, dtype=float), np.array(vec, dtype=float)
        if self.kind == "psd":
            return np.array(mat, dtype=float), np.zeros(0)
        raise ValueError(self.kind)


class _Builder:
    def __init__(self, sense, d, p, f, label):
        self.sense, self.d, self.p, self.f, self.label = sense, d, p, f, label
        self.rows_psd, self.rows_nn, self.rows_free, self.rhs = [], [], [], []

    def add_row(self, psd_mat=None, nn=None, free=None, rhs=0.0):
        sd = svec_len(self.d)
        self.rows_psd.append(svec(psd_mat) if psd_mat is not None else np.zeros(sd))
        self.rows_nn.append(np.asarray(nn, dtype=float) if nn is not None else np.zeros(self.p))
        self.rows_free.append(np.asarray(free, dtype=float) if free is not None else np.zeros(self.f))
        self.rhs.append(float(rhs))

    def finish(self, obj_psd_mat, obj_nn, obj_free, offset, face=None) -> ConicProgram:
        sd = svec_len(self.d)
        rows = len(self.rhs)
        return ConicProgram(
            sense=self.sense,
            psd_order=self.d,
            nonneg_count=self.p,
            free_count=self.f,
            obj_psd=svec(obj_psd_mat) if obj_psd_mat is not None else np.zeros(sd),
            obj_nonneg=np.asarray(obj_nn, dtype=float) if obj_nn is not None else np.zeros(self.p),
            obj_free=np.asarray(obj_free, dtype=float) if obj_free is not None else np.zeros(self.f),
            offset=float(offset),
            G_psd=np.array(self.rows_psd).reshape(rows, sd),
            G_nonneg=np.array(self.rows_nn).reshape(rows, self.p),
            G_free=np.array(self.rows_free).reshape(rows, self.f),
            rhs=np.array(self.rhs),
            label=self.label,
            face=face,
        )


def _e_diag(d, i):
    M = np.zeros((d, d))
    M[i, i] = 1.0
    return M


def _sym_pair(d, k, l, val=1.0):
    """Symmetric matrix F with tr(F Y) = val * Y_kl (k != l) or val * Y_kk."""
    M = np.zeros((d, d))
    if k == l:
        M[k, k] = val
    else:
        M[k, l] = M[l, k] = val / 2.0
    return M


def _vec_coupling(d, a, at=0):
    """F with tr(F Y) = a^T Y[at, at+1:] for the lifted block."""
    M = np.zeros((d, d))
    M[at, at + 1:] = np.asarray(a, dtype=float) / 2.0
    M[at + 1:, at] = np.asarray(a, dtype=float) / 2.0
    return M


def _quad_block(d, a):
    """F with tr(F Y) = a^T X a where X = Y[1:, 1:]."""
    M = np.zeros((d, d))
    M[1:, 1:] = np.outer(a, a)
    return M


def build_sdr(inst: BqpInstance):
    """Standard SDR: X PSD with unit diagonal, x free; x and X are uncoupled."""
    n, m = inst.n, inst.m
    bld = _Builder("min", n, 0, n, "sdr")
    for i in range(m):
        bld.add_row(free=inst.A[i], rhs=inst.b[i])
    for i in range(m):
        bld.add_row(psd_mat=np.outer(inst.A[i], inst.A[i]), rhs=inst.b[i] ** 2)
    for i in range(n):
        bld.add_row(psd_mat=_e_diag(n, i), rhs=1.0)
    # a^T X a = 0 forces X a = 0; on that face the quadratic row reads 0 = 0
    quad = [m + i for i in range(m) if inst.b[i] == 0.0 and np.any(inst.A[i])]
    face = Face(kernel=np.column_stack([inst.A[r - m] for r in quad]),
                rows=np.array(quad)[:, None], coeffs=np.ones((len(quad), 1)),
                implied=np.array(quad)) if quad else None
    return bld.finish(inst.Q, None, 2.0 * inst.c, 0.0, face), VariableMap(kind="split", n=n, space="x")


def _lifted_common(bld, inst):
    n, m = inst.n, inst.m
    d = 1 + n
    bld.add_row(psd_mat=_e_diag(d, 0), rhs=1.0)
    for i in range(m):
        bld.add_row(psd_mat=_vec_coupling(d, inst.A[i]), rhs=inst.b[i])
    for i in range(m):
        bld.add_row(psd_mat=_quad_block(d, inst.A[i]), rhs=inst.b[i] ** 2)
    for i in range(n):
        bld.add_row(psd_mat=_e_diag(d, 1 + i), rhs=1.0)


def _lifted_face(A, b, lin):
    """Face of a lifted block with the Y00 row first and the rows
    a_i^T x = b_i, a_i^T X a_i = b_i^2 from rows lin and lin + m on:
    k_i = (b_i, -a_i), svec(k_i k_i^T) = b_i^2 [Y00] - 2 b_i [lin i] + [quad i]
    with rhs 0.  Y k_i = 0 reads a_i^T x = b_i Y00 and a_i^T X a_i = b_i^2 Y00,
    so with Y00 = 1 both rows of each a_i != 0 are implied."""
    m = A.shape[0]
    cols = [i for i in range(m) if np.any(A[i]) or b[i]]
    if not cols:
        return None
    return Face(
        kernel=np.column_stack([np.concatenate(([b[i]], -A[i])) for i in cols]),
        rows=np.array([[0, lin + i, lin + m + i] for i in cols]),
        coeffs=np.array([[b[i] ** 2, -2.0 * b[i], 1.0] for i in cols]),
        implied=np.array([lin + j * m + i for j in (0, 1) for i in range(m) if np.any(A[i])],
                         dtype=int),
    )


def _lifted_objective(Q, c):
    n = Q.shape[0]
    C = np.zeros((1 + n, 1 + n))
    C[1:, 1:] = Q
    C[0, 1:] = c
    C[1:, 0] = c
    return C


def build_sdr1(inst: BqpInstance):
    """Lifted SDR: one (1+n) PSD block with Y00 = 1 pinning the lift."""
    n = inst.n
    bld = _Builder("min", 1 + n, 0, 0, "sdr1")
    _lifted_common(bld, inst)
    prog = bld.finish(_lifted_objective(inst.Q, inst.c), None, None, 0.0, _lifted_face(inst.A, inst.b, 1))
    return prog, VariableMap(kind="lifted", n=n, space="x")


def build_sdr2(inst: BqpInstance):
    """SDR1 plus pairwise cuts 1 - x_i - x_j + X_ij >= 0 (1 <= i <= j <= n) via slacks."""
    n = inst.n
    d = 1 + n
    p = n * (n + 1) // 2
    bld = _Builder("min", d, p, 0, "sdr2")
    _lifted_common(bld, inst)
    k = 0
    for i in range(n):
        for j in range(i, n):
            # -x_i - x_j + X_ij - s = -1
            F = _sym_pair(d, 1 + i, 1 + j)
            F += _vec_coupling_entry(d, 1 + i, -1.0)
            F += _vec_coupling_entry(d, 1 + j, -1.0)
            slack = np.zeros(p)
            slack[k] = -1.0
            bld.add_row(psd_mat=F, nn=slack, rhs=-1.0)
            k += 1
    prog = bld.finish(_lifted_objective(inst.Q, inst.c), None, None, 0.0, _lifted_face(inst.A, inst.b, 1))
    return prog, VariableMap(kind="lifted", n=n, space="x")


def _vec_coupling_entry(d, i, val):
    """F with tr(F Y) = val * Y_{0,i}."""
    return _sym_pair(d, 0, i, val)


@dataclass
class ZSpaceData:
    """z-space transform of an instance under x = e - 2z."""

    Qz: np.ndarray
    qz: np.ndarray
    constz: float
    Az: np.ndarray
    bz: np.ndarray

    def objective(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.Qz @ z + self.qz @ z + self.constz)


def build_zspace(inst: BqpInstance) -> ZSpaceData:
    """Transformed data: for z = (e - x)/2 the z-objective equals the x-objective."""
    e = np.ones(inst.n)
    return ZSpaceData(
        Qz=4.0 * inst.Q,
        qz=-4.0 * (inst.Q @ e + inst.c),
        constz=float(e @ inst.Q @ e + 2.0 * inst.c @ e),
        Az=2.0 * inst.A,
        bz=inst.A @ e - inst.b,
    )


def _dnn_link_rows(bld, d):
    """Y00 = 1 and Y_ii = Y_0i (i >= 1) of a lifted DNN block of order d."""
    bld.add_row(psd_mat=_e_diag(d, 0), rhs=1.0)
    for i in range(1, d):
        bld.add_row(psd_mat=_e_diag(d, i) + _vec_coupling_entry(d, i, -1.0), rhs=0.0)


def _entrywise_rows(bld, d):
    """Y_ij - s_k = 0 for every upper-triangular entry, with its own slack s_k >= 0."""
    k = 0
    for i in range(d):
        for j in range(i, d):
            slack = np.zeros(bld.p)
            slack[k] = -1.0
            bld.add_row(psd_mat=_sym_pair(d, i, j), nn=slack, rhs=0.0)
            k += 1


def build_dnnp(inst: BqpInstance):
    """Doubly nonnegative relaxation in z-space.

    Lifted block Y holds (z, Z); every upper-triangular entry of Y is linked
    to a nonnegative slack, which is how entrywise nonnegativity is encoded
    (one PSD cone plus one orthant, nothing else).
    """
    n, m = inst.n, inst.m
    d = 1 + n
    p = (n + 1) * (n + 2) // 2
    zs = build_zspace(inst)
    bld = _Builder("min", d, p, 0, "dnnp")
    _dnn_link_rows(bld, d)
    for i in range(m):
        bld.add_row(psd_mat=_vec_coupling(d, zs.Az[i]), rhs=zs.bz[i])
    for i in range(m):
        F = np.zeros((d, d))
        F[1:, 1:] = 4.0 * np.outer(inst.A[i], inst.A[i])
        bld.add_row(psd_mat=F, rhs=zs.bz[i] ** 2)
    _entrywise_rows(bld, d)
    C = _lifted_objective(4.0 * inst.Q, zs.qz / 2.0)
    prog = bld.finish(C, None, None, zs.constz, _lifted_face(zs.Az, zs.bz, 1 + n))
    return prog, VariableMap(kind="lifted", n=n, space="z")


def build_mc_sdr(G: MaxCutGraph):
    """Max-cut SDR: max (1/4) L . U over unit-diagonal PSD U."""
    n = G.n
    L = laplacian(G)
    bld = _Builder("max", n, 0, 0, "mc_sdr")
    for i in range(n):
        bld.add_row(psd_mat=_e_diag(n, i), rhs=1.0)
    prog = bld.finish(L / 4.0, None, None, 0.0)
    return prog, VariableMap(kind="psd", n=n, space="u")


def build_mc_dnnp(G: MaxCutGraph):
    """Max-cut DNN relaxation: lifted (x, X), X_ii = x_i, Y entrywise nonnegative.

    Objective L . X - (Le)^T x with offset e^T L e / 4; for a true Laplacian
    the linear term and offset vanish identically (Le = 0).
    """
    n = G.n
    d = 1 + n
    p = (n + 1) * (n + 2) // 2
    L = laplacian(G)
    Le = L @ np.ones(n)
    bld = _Builder("max", d, p, 0, "mc_dnnp")
    _dnn_link_rows(bld, d)
    _entrywise_rows(bld, d)
    offset = float(np.ones(n) @ L @ np.ones(n)) / 4.0
    prog = bld.finish(_lifted_objective(L, -Le / 2.0), None, None, offset)
    return prog, VariableMap(kind="lifted", n=n, space="x")


RELAXATION_BUILDERS = {
    "sdr": build_sdr,
    "sdr1": build_sdr1,
    "sdr2": build_sdr2,
    "dnnp": build_dnnp,
}

MAXCUT_BUILDERS = {
    "sdr": build_mc_sdr,
    "dnnp": build_mc_dnnp,
}
