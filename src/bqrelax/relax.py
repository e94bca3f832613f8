"""Compile BQP/max-cut relaxations into standard-form conic programs.

Standard form: one PSD block (svec'd), one nonnegative slack block, one free
block, whose rows hold no other coefficient; equality rows only; linear
objective plus a constant offset.  Max sense is carried as a flag and
negated inside the solver; the offset never enters the solver's loop.

The BQP builders attach the face that holds every feasible PSD block
(``Face``; always for the lifted ones, for ``sdr`` when some b_i = 0), its
proof as a row combination and the rows it makes redundant; the solver
reduces onto it instead of searching for it.

Rows are written in place into arrays of the program's final size, one
vectorized write per block of rows (diagonal, coupling, quadratic, cut,
link, entrywise), each PSD coefficient F_ij (i >= j) at its svec position
i(i+1)/2 + j times the svec scale; no row is formed as a d x d matrix.

Builders:
  build_sdr     - X PSD, x free, no coupling between them
  build_sdr1    - single lifted (1+n) PSD block [[1, x^T], [x, X]]
  build_sdr2    - SDR1 plus the n(n+1)/2 pairwise cuts 1 - x_i - x_j + X_ij >= 0
  build_dnnp    - z-space lifted block with elementwise nonnegativity
  build_mc_sdr  - max-cut: U PSD, unit diagonal
  build_mc_dnnp - max-cut: lifted (x, X) block, X_ii = x_i, entrywise >= 0
"""

from dataclasses import dataclass

import numpy as np

from .model import BqpInstance, MaxCutGraph, laplacian
from .symcone import SQRT2, DimensionError, svec, svec_len


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
        if self.free_count and np.any(self.G_free.any(axis=1)
                                      & (self.G_psd.any(axis=1) | self.G_nonneg.any(axis=1))):
            raise DimensionError("a row with a free coefficient may hold no PSD or orthant one")
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


class _Builder:
    """A program's row blocks, allocated at their final size and filled in
    place a block of rows at a time.

    ``rows`` claims the next rows and sets their rhs.  ``psd`` writes one
    entry F_ij = F_ji (i >= j) of each row's tr(F Y) at its svec position
    i(i+1)/2 + j, times the svec scale (sqrt(2) off the diagonal), so a row
    is written as its nonzeros only.
    """

    def __init__(self, sense, d, p, f, label, n_rows):
        self.sense, self.d, self.p, self.f, self.label = sense, d, p, f, label
        self.G_psd = np.zeros((n_rows, svec_len(d)))
        self.G_nonneg = np.zeros((n_rows, p))
        self.G_free = np.zeros((n_rows, f))
        self.rhs = np.zeros(n_rows)
        self.top = 0

    def rows(self, rhs):
        """Indices of the next len(rhs) rows, their rhs set."""
        r = np.arange(self.top, self.top + len(rhs))
        self.rhs[r] = rhs
        self.top += len(rhs)
        return r

    def psd(self, r, i, j, f):
        """F_ij = F_ji = f in rows r; r, i >= j and f broadcast together."""
        self.G_psd[r, i * (i + 1) // 2 + j] = np.where(i == j, f, f * SQRT2)

    def own_slacks(self, r):
        """-s_k in row r[k]: each row of the block gets its own slack s_k >= 0."""
        self.G_nonneg[r, np.arange(len(r))] = -1.0

    def finish(self, C, offset, face=None, obj_free=None) -> ConicProgram:
        return ConicProgram(
            sense=self.sense,
            psd_order=self.d,
            nonneg_count=self.p,
            free_count=self.f,
            obj_psd=svec(C),
            obj_nonneg=np.zeros(self.p),
            obj_free=np.zeros(self.f) if obj_free is None else obj_free,
            offset=float(offset),
            G_psd=self.G_psd,
            G_nonneg=self.G_nonneg,
            G_free=self.G_free,
            rhs=self.rhs,
            label=self.label,
            face=face,
        )


def _diag_rows(bld, lo, hi):
    """Y_ii = 1 for lo <= i < hi."""
    i = np.arange(lo, hi)
    bld.psd(bld.rows(np.ones(i.size)), i, i, 1.0)


def _coupling_rows(bld, A, b):
    """a_i^T x = b_i with x = Y[1:, 0] of a lifted block."""
    bld.psd(bld.rows(b)[:, None], np.arange(1, A.shape[1] + 1), 0, A / 2.0)


def _quad_rows(bld, A, b, at, scale=1.0):
    """scale * a_i^T X a_i = b_i^2 with X = Y[at:, at:].  Each b_i^2 is a
    scalar square: an array's ``b ** 2`` can differ in the last bit."""
    k, l = np.tril_indices(A.shape[1])
    r = bld.rows([v ** 2 for v in b])
    bld.psd(r[:, None], at + k, at + l, scale * (A[:, k] * A[:, l]))


def build_sdr(inst: BqpInstance):
    """Standard SDR: X PSD with unit diagonal, x free; x and X are uncoupled."""
    n, m = inst.n, inst.m
    bld = _Builder("min", n, 0, n, "sdr", 2 * m + n)
    bld.G_free[bld.rows(inst.b)] = inst.A
    _quad_rows(bld, inst.A, inst.b, 0)
    _diag_rows(bld, 0, n)
    # a^T X a = 0 forces X a = 0; on that face the quadratic row reads 0 = 0
    quad = [m + i for i in range(m) if inst.b[i] == 0.0 and np.any(inst.A[i])]
    face = Face(kernel=np.column_stack([inst.A[r - m] for r in quad]),
                rows=np.array(quad)[:, None], coeffs=np.ones((len(quad), 1)),
                implied=np.array(quad)) if quad else None
    return bld.finish(inst.Q, 0.0, face, obj_free=2.0 * inst.c), VariableMap(kind="split", n=n, space="x")


def _lifted_rows(bld, inst):
    """Y00 = 1, a_i^T x = b_i, a_i^T X a_i = b_i^2 and X_ii = 1, in this order."""
    _diag_rows(bld, 0, 1)
    _coupling_rows(bld, inst.A, inst.b)
    _quad_rows(bld, inst.A, inst.b, 1)
    _diag_rows(bld, 1, 1 + inst.n)


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
    n, m = inst.n, inst.m
    bld = _Builder("min", 1 + n, 0, 0, "sdr1", 1 + 2 * m + n)
    _lifted_rows(bld, inst)
    prog = bld.finish(_lifted_objective(inst.Q, inst.c), 0.0, _lifted_face(inst.A, inst.b, 1))
    return prog, VariableMap(kind="lifted", n=n, space="x")


def build_sdr2(inst: BqpInstance):
    """SDR1 plus pairwise cuts 1 - x_i - x_j + X_ij >= 0 (1 <= i <= j <= n) via slacks."""
    n, m = inst.n, inst.m
    p = n * (n + 1) // 2
    bld = _Builder("min", 1 + n, p, 0, "sdr2", 1 + 2 * m + n + p)
    _lifted_rows(bld, inst)
    # X_ij - x_i - x_j - s = -1, row by row over i <= j; x_i + x_j = 2 x_i when i = j
    i, j = np.triu_indices(n)
    r = bld.rows(np.full(p, -1.0))
    bld.psd(r, 1 + j, 1 + i, np.where(i == j, 1.0, 0.5))
    bld.psd(r, 1 + i, 0, -0.5)
    bld.psd(r, 1 + j, 0, np.where(i == j, -1.0, -0.5))
    bld.own_slacks(r)
    prog = bld.finish(_lifted_objective(inst.Q, inst.c), 0.0, _lifted_face(inst.A, inst.b, 1))
    return prog, VariableMap(kind="lifted", n=n, space="x")


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
    """Y00 = 1 and Y_ii - Y_0i = 0 (i >= 1) of a lifted DNN block of order d."""
    _diag_rows(bld, 0, 1)
    i = np.arange(1, d)
    r = bld.rows(np.zeros(d - 1))
    bld.psd(r, i, i, 1.0)
    bld.psd(r, i, 0, -0.5)


def _entrywise_rows(bld, d):
    """Y_ij - s_k = 0 for every upper-triangular entry (i <= j, row by row),
    with its own slack s_k >= 0."""
    i, j = np.triu_indices(d)
    r = bld.rows(np.zeros(i.size))
    bld.psd(r, j, i, np.where(i == j, 1.0, 0.5))
    bld.own_slacks(r)


def build_dnnp(inst: BqpInstance):
    """Doubly nonnegative relaxation in z-space.

    Lifted block Y holds (z, Z); every upper-triangular entry of Y is linked
    to a nonnegative slack, which is how entrywise nonnegativity is encoded
    (one PSD cone plus one orthant, nothing else).
    """
    n, m = inst.n, inst.m
    d = 1 + n
    p = d * (d + 1) // 2
    zs = build_zspace(inst)
    bld = _Builder("min", d, p, 0, "dnnp", d + 2 * m + p)
    _dnn_link_rows(bld, d)
    _coupling_rows(bld, zs.Az, zs.bz)
    _quad_rows(bld, inst.A, zs.bz, 1, scale=4.0)
    _entrywise_rows(bld, d)
    C = _lifted_objective(4.0 * inst.Q, zs.qz / 2.0)
    prog = bld.finish(C, zs.constz, _lifted_face(zs.Az, zs.bz, 1 + n))
    return prog, VariableMap(kind="lifted", n=n, space="z")


def build_mc_sdr(G: MaxCutGraph):
    """Max-cut SDR: max (1/4) L . U over unit-diagonal PSD U."""
    n = G.n
    bld = _Builder("max", n, 0, 0, "mc_sdr", n)
    _diag_rows(bld, 0, n)
    prog = bld.finish(laplacian(G) / 4.0, 0.0)
    return prog, VariableMap(kind="psd", n=n, space="u")


def build_mc_dnnp(G: MaxCutGraph):
    """Max-cut DNN relaxation: lifted (x, X), X_ii = x_i, Y entrywise nonnegative.

    Objective L . X - (Le)^T x with offset e^T L e / 4; for a true Laplacian
    the linear term and offset vanish identically (Le = 0).
    """
    n = G.n
    d = 1 + n
    p = d * (d + 1) // 2
    L = laplacian(G)
    Le = L @ np.ones(n)
    bld = _Builder("max", d, p, 0, "mc_dnnp", d + p)
    _dnn_link_rows(bld, d)
    _entrywise_rows(bld, d)
    offset = float(np.ones(n) @ L @ np.ones(n)) / 4.0
    prog = bld.finish(_lifted_objective(L, -Le / 2.0), offset)
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
