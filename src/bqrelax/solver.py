"""Primal-dual interior-point solver over (PSD block x nonneg orthant x free block).

Algorithm: homogeneous self-dual embedding with Nesterov-Todd scaling for the
PSD block and a Mehrotra predictor-corrector step.  Free variables are kept
in the KKT system natively (saddle block), never split.  Certificates:
Unbounded returns a primal improving ray normalized to objective -1 (min
sense); Infeasible returns a dual ray (y, s = -G^T y) normalized to b^T y = 1.

Internal orientation is always min sense (max-sense programs are negated on
the way in and un-negated in reported objective values; offsets stay outside
the iteration).  The per-iteration log goes to the ``bqrelax.solver`` logger
at DEBUG; its values are internal min-sense:
``dual_obj`` there is the complementarity-based estimate
``primal_obj - (x.s + tau*kappa)/tau^2``, which is a lower bound by
construction at every iterate (the naive b^T y / tau is not, for
infeasible-start embeddings); the final reported dual objective is the
genuine b^T y / tau, sense/offset adjusted.

Presolve: equality rows are checked for linear dependence.  A row that is
the only nonzero of some column (coefficient above 1e-10 * row norm) is
independent and kept without a rank test; the rule repeats on the rows left,
and only the rest go through QR (pivot threshold 1e-10 * row norm).
Dependent-but-consistent rows are pruned with a logged warning and their
multipliers reported as zero; an inconsistent dependent row short-circuits
to Infeasible with an exact Farkas combination.  A free-block least-squares
check detects objective components outside range(A_f^T) and short-circuits
to Unbounded with an exact improving ray.  Rows are normalized to unit
coefficient norm for conditioning.

Facial reduction: a program whose builder declares a face (relax.Face) and
whose declared row combinations check out is solved on it, without the rows
the face implies; the solution is lifted back to the original rows.

Row storage: the products G x and G^T y in the loop come from
(row, column, value) index arrays when the normalized rows hold at most
rows + columns nonzeros (the max-cut programs), and from the dense blocks
otherwise (face-reduced programs); the choice is made once per solve.

The loop's iterate and its Newton directions are one type (_Point); one HSD
map (_Workspace.hsd) gives the residuals of both.  A numerical stop or the
iteration limit returns the best iterate seen, untouched (kept by reference).

Linear algebra per iteration: the KKT matrix is assembled in place in one
buffer per solve, rows in the program's own order (see _SchurRows), and
factored once by LU; 21 refined back-solves use the factors, and the
step-length search uses the Cholesky factors of X and S that the NT scaling
computed.  Inputs already known to be finite skip scipy's finiteness checks.
ConicSolution.stats counts the factorizations and both kinds of solves, and
its stop_reason names the exit the solve took.  An empty block (no PSD block
in an LP, no orthant, no free part) takes the same path as any other, as
0 x 0 and length-0 arrays; only the PSD step length and the cone checks ask
whether there is a PSD block.
"""

import dataclasses
import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import kernels
from .relax import ConicProgram
from .symcone import psd_margin, smat, svec, svec_index

log = logging.getLogger(__name__)

STATUS_OPTIMAL = "Optimal"
STATUS_UNBOUNDED = "Unbounded"
STATUS_INFEASIBLE = "Infeasible"
STATUS_ITERATION_LIMIT = "IterationLimit"
STATUS_NUMERICAL_TROUBLE = "NumericalTrouble"

RANK_PIVOT_REL = 1e-10
RANK_RHS_MISMATCH = 1e-8
FREE_DUAL_RESIDUAL_REL = 1e-7
FRACTION_TO_BOUNDARY = 0.99
KKT_REGULARIZATION = 1e-12


@dataclass
class SolverSettings:
    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    tol_infeas: float = 1e-8
    max_iters: int = 200

    def __post_init__(self):
        if not all(t > 0 for t in (self.tol_gap, self.tol_feas, self.tol_infeas)):  # rejects NaN too
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class IterateRecord:
    """One logged iterate (internal min-sense values)."""

    iter: int
    primal_obj: float
    dual_obj: float
    gap: float
    pres: float
    dres: float


@dataclass
class RayCertificate:
    """Unboundedness (primal) or infeasibility (dual) certificate blocks."""

    kind: str  # "primal" | "dual"
    psd: np.ndarray | None = None
    nonneg: np.ndarray | None = None
    free: np.ndarray | None = None
    y: np.ndarray | None = None
    slack_psd: np.ndarray | None = None
    slack_nonneg: np.ndarray | None = None


# counts kept in ConicSolution.stats: LU factorizations of the KKT matrix,
# back-solves with those factors, and triangular solves of the PSD step length
SOLVE_COUNTS = ("kkt_factorizations", "kkt_solves", "psd_step_solves")


def _zero_stats(stop_reason: str | None = None) -> dict:
    """ConicSolution.stats before any work: zero counts and why the solve
    ended (one value per exit of _iterate, or presolve_infeasible /
    presolve_unbounded)."""
    return {**dict.fromkeys(SOLVE_COUNTS, 0), "stop_reason": stop_reason}


@dataclass
class ConicSolution:
    status: str
    primal_psd: np.ndarray
    primal_nonneg: np.ndarray
    primal_free: np.ndarray
    dual_y: np.ndarray
    dual_slack_psd: np.ndarray
    dual_slack_nonneg: np.ndarray
    primal_obj: float
    dual_obj: float
    iters: int
    residuals: tuple  # (primal, dual, gap) relative
    ray: RayCertificate | None = None
    history: list = field(default_factory=list)
    dropped_rows: list = field(default_factory=list)
    solve_time: float = 0.0
    stats: dict = field(default_factory=_zero_stats)


@dataclass
class PresolveResult:
    program: ConicProgram
    dropped_rows: list
    infeasible: bool = False
    farkas_y: np.ndarray | None = None


def _stack_rows(prog: ConicProgram) -> np.ndarray:
    return np.hstack([prog.G_psd, prog.G_nonneg, prog.G_free])


def _coo(G: np.ndarray) -> tuple:
    """(rows, cols, values) of the nonzeros of G, in row-major order."""
    r, c = np.nonzero(G)
    return r, c, G[r, c]


def presolve_rank_check(prog: ConicProgram, quiet: bool = False) -> PresolveResult:
    """Prune numerically dependent equality rows; flag inconsistent dependents.

    Dependence test: rows that own a column (see ``_private_rows``) are
    independent of all others and kept outright.  The remaining rows go
    through QR with column pivoting on the stacked row matrix, row k
    declared dependent when its pivot magnitude falls below
    1e-10 * ||row k||.  A dependent row whose rhs disagrees with the implied
    combination of kept rows by more than 1e-8 (relative) makes the program
    Infeasible; the combination is returned as an exact Farkas certificate.
    """
    rows = prog.n_rows
    if rows == 0:
        return PresolveResult(program=prog, dropped_rows=[])
    G = _stack_rows(prog)
    norms = np.linalg.norm(G, axis=1)
    # rows with (numerically) zero coefficients are pure noise: 0 = rhs is
    # consistent, anything else is an exact Farkas certificate
    floor = 1e-12 * max(1.0, norms.max())
    zero_rows = [int(i) for i in np.nonzero(norms <= floor)[0]]
    for r in zero_rows:
        if abs(prog.rhs[r]) > RANK_RHS_MISMATCH * (1.0 + abs(prog.rhs[r])):
            y = np.zeros(rows)
            y[r] = np.sign(prog.rhs[r])
            y /= prog.rhs @ y
            log.log(logging.DEBUG if quiet else logging.WARNING,
                    "presolve: zero row %d has rhs %.3e; program infeasible",
                    r, prog.rhs[r])
            return PresolveResult(program=prog, dropped_rows=zero_rows,
                                  infeasible=True, farkas_y=y)
    live = np.flatnonzero(norms > floor)
    if not live.size:
        pruned = _keep_rows(prog, [])
        return PresolveResult(program=pruned, dropped_rows=zero_rows)
    own = _private_rows(G[live], norms[live])
    kept, rest = live[own].tolist(), live[~own]
    dependent = []
    if rest.size:
        _, R, piv = scipy.linalg.qr(G[rest].T, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        rank = 0
        for k in range(min(rest.size, R.shape[0])):
            if diag[k] > RANK_PIVOT_REL * max(norms[rest[piv[k]]], floor):
                rank += 1
            else:
                break
        kept += rest[piv[:rank]].tolist()
        dependent = sorted(rest[piv[rank:]].tolist())
    kept.sort()
    dropped = sorted(dependent + zero_rows)
    if not dropped:
        return PresolveResult(program=prog, dropped_rows=[])

    Gk = G[kept]
    bk = prog.rhs[kept]
    # zero rows were consistency-checked above
    if dependent:
        combos, *_ = np.linalg.lstsq(Gk.T, G[dependent].T, rcond=None)
    for j, r in enumerate(dependent):
        coeffs = combos[:, j]
        mismatch = abs(prog.rhs[r] - coeffs @ bk)
        if mismatch > RANK_RHS_MISMATCH * (1.0 + abs(prog.rhs[r])):
            y = np.zeros(rows)
            y[kept] = coeffs
            y[r] = -1.0
            if prog.rhs @ y < 0:
                y = -y
            y /= prog.rhs @ y
            log.log(logging.DEBUG if quiet else logging.WARNING,
                    "presolve: row %d conflicts with a dependent combination "
                    "(rhs mismatch %.3e); program infeasible", r, mismatch)
            return PresolveResult(program=prog, dropped_rows=dropped,
                                  infeasible=True, farkas_y=y)
    log.log(logging.DEBUG if quiet else logging.WARNING,
            "presolve: dropped %d dependent equality row(s): %s", len(dropped), dropped)
    return PresolveResult(program=_keep_rows(prog, kept), dropped_rows=dropped)


def _private_rows(G: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Mask of the rows that own a column: the singleton-column rule of
    Andersen & Andersen (Presolving in linear programming, 1995), repeated.

    A row that is the only nonzero of some column, with that coefficient
    above 1e-10 * its norm, lies outside the span of the other rows.  Setting
    it aside can leave another column with one nonzero among the rows left,
    whose row is then independent of those rows and, through the columns
    already owned, of the rows set aside.  Each column's count only falls,
    so it is examined once after reaching one.
    """
    nz = G != 0
    counts = nz.sum(axis=0)
    own = np.zeros(G.shape[0], dtype=bool)
    cols = np.flatnonzero(counts == 1)
    while cols.size:
        r = np.argmax(nz[:, cols] & ~own[:, None], axis=0)
        big = np.abs(G[r, cols]) > RANK_PIVOT_REL * norms[r]
        new = np.unique(r[big])
        if not new.size:
            break
        own[new] = True
        removed = nz[new].sum(axis=0)
        counts -= removed
        cols = np.flatnonzero((counts == 1) & (removed > 0))
    return own


def _keep_rows(prog: ConicProgram, kept: list) -> ConicProgram:
    return dataclasses.replace(prog, G_psd=prog.G_psd[kept], G_nonneg=prog.G_nonneg[kept],
                               G_free=prog.G_free[kept], rhs=prog.rhs[kept], face=None)


def _nt_scaling(X: np.ndarray, S: np.ndarray):
    """Nesterov-Todd scaling point: returns (R, R^{-T}, lam, Lx, Ls) with
    R^{-1} X R^{-T} = R^T S R = diag(lam) and the Cholesky factors
    X = Lx Lx^T, S = Ls Ls^T it is built from."""
    Lx = _chol_with_repair(X)
    Ls = _chol_with_repair(S)
    U, sig, Vt = np.linalg.svd(Ls.T @ Lx)
    sig = np.maximum(sig, 1e-150)
    inv_sqrt = 1.0 / np.sqrt(sig)
    R = Lx @ Vt.T * inv_sqrt
    RinvT = Ls @ U * inv_sqrt
    return R, RinvT, sig, Lx, Ls


def _chol_with_repair(M: np.ndarray) -> np.ndarray:
    M = 0.5 * (M + M.T)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(M)
        floor = 1e-14 * max(1.0, abs(w).max())
        w = np.maximum(w, floor)
        return np.linalg.cholesky((V * w) @ V.T + floor * np.eye(M.shape[0]))


def _max_step_psd(L: np.ndarray, dx_svec: np.ndarray) -> float:
    """Largest alpha with X + alpha dX >= 0 for X = L L^T (Cholesky-transformed
    eigen bound).  L is the iterate's factor from _nt_scaling, and dx_svec is
    finite because non-finite directions are rejected before the step, so the
    solves skip the finiteness check."""
    dX = smat(dx_svec)
    T = scipy.linalg.solve_triangular(L, dX, lower=True, check_finite=False)
    T = scipy.linalg.solve_triangular(L, T.T, lower=True, check_finite=False)
    lam_min = np.linalg.eigvalsh(0.5 * (T + T.T))[0]
    return np.inf if lam_min >= 0 else 1.0 / (-lam_min)


def _max_step_vec(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    if not neg.any():
        return np.inf
    return float((-x[neg] / dx[neg]).min())


def _max_step_scalar(x: float, dx: float) -> float:
    return np.inf if dx >= 0 else -x / dx


class _Slot(NamedTuple):
    """Gather plan of the t-th nonzero of every sparse row that has one:
    those rows (a slice when consecutive), the nonzero's svec index
    k = (a, b), its value v, c = v * sigma_k (sigma = 1/sqrt(2) on the
    diagonal, 1 off it) and vs = v * svec scale."""

    rows: slice | np.ndarray
    k: np.ndarray
    a: np.ndarray
    b: np.ndarray
    v: np.ndarray
    c: np.ndarray
    vs: np.ndarray


def _span(idx: np.ndarray):
    """Sorted distinct row indices as a slice when consecutive, else as they are."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _block(r, c):
    """Index of the block rows r x columns c of a matrix (a view when both
    are slices)."""
    if isinstance(r, slice) or isinstance(c, slice):
        return r, c
    return np.ix_(r, c)


def _pair(W: np.ndarray, s: _Slot, q: _Slot, out=None) -> np.ndarray:
    """Block s x q of V V^T from W = R R^T by the sparse-row rule:
    c_s c_q^T o (W[a_s, a_q] o W[b_s, b_q] + W[a_s, b_q] o W[b_s, a_q]),
    gathered as whole rows of the column slices W[:, a_q], W[:, b_q]."""
    Wa, Wb = W[:, q.a], W[:, q.b]
    B = np.take(Wa, s.a, axis=0, out=out, mode="clip")
    B *= Wb[s.b]
    Z = Wb[s.a]
    Z *= Wa[s.b]
    B += Z
    B *= s.c[:, None]
    B *= q.c
    return B


class _SchurRows:
    """How the equality rows enter the Schur block of the normal equations,
    fixed once per solve from their sparsity.

    With V = [svec(R^T F_i R)]_i the block is M = V V^T + (Gn w2) Gn^T.
    assemble() overwrites it in place in the KKT buffer, rows in the
    program's own order; nothing is copied or reordered afterwards.

    * Rows with 1 to d nonzeros in svec(F_i) are *sparse*: their part of M
      comes straight from the NT scaling matrix W = R R^T by the sparse-row
      rule of Fujisawa-Kojima-Nakata (SDPA) and SDPT3,
      ``<R^T B_k R, R^T B_l R> = s_k s_l (W_ac W_bd + W_ad W_bc)`` for svec
      basis matrices B_k, k = (a, b), l = (c, d), with s = 1/sqrt(2) on the
      diagonal and 1 off it (for unit-diagonal rows, M = W o W).  Their
      products V_i z are F_i . (R smat(z) R^T).
    * Other rows (denser, or without a PSD part) keep the batched congruence
      V_D; their arithmetic is the same as without sparse rows.  The sparse
      x dense block is G_S . svec(W F_j W).
    * Orthant columns with at most one nonzero (slacks) add a diagonal term
      only; other columns stay a dense product.

    Sparse rows are held per slot t (the t-th nonzero of each row that has
    one) as a gather plan built once per solve.  Slot 0 covers every sparse
    row; its block X o Y + Z o Z^T (X = W[a][:, a], Y = W[b][:, b],
    Z = W[a][:, b], scaled by c c^T) is gathered as whole rows of the
    column slices W[:, a], W[:, b] and written in place when the rows are
    consecutive.  Each later slot adds its terms with the slots up to it as
    row and column strips, so no block is larger than M.
    """

    def __init__(self, Gp: np.ndarray, Gn: np.ndarray, Gn_coo: tuple, d: int):
        self.rows = Gp.shape[0]
        counts = np.count_nonzero(Gp, axis=1)
        sparse = (counts > 0) & (counts <= d)
        self.sparse = np.flatnonzero(sparse)
        self.dense = np.flatnonzero(~sparse)
        self.dense_idx = _span(self.dense)
        self.Gd = Gp[self.dense_idx]
        self.d = d

        ii, jj, scale = svec_index(d)
        r, k = np.nonzero(Gp[self.sparse])
        r = self.sparse[r]
        slot = np.arange(r.size) - np.searchsorted(r, r)
        self.slots = []
        for t in range(int(slot.max()) + 1 if slot.size else 0):
            on = slot == t
            rt, kt = r[on], k[on]
            v = Gp[rt, kt]
            self.slots.append(_Slot(_span(rt), kt, ii[kt], jj[kt], v,
                                    v * scale[kt] / np.sqrt(2.0), v * scale[kt]))

        nr, nc, nv = Gn_coo
        col_counts = np.bincount(nc, minlength=Gn.shape[1])
        self.Gn_dense_cols = np.flatnonzero(col_counts > 1)
        self.Gn_dense = Gn[:, self.Gn_dense_cols]
        single = col_counts[nc] == 1
        self.nn_rows, self.nn_cols, self.nn_vals = nr[single], nc[single], nv[single]

    def assemble(self, M: np.ndarray, R: np.ndarray, w2: np.ndarray):
        """Write the Schur block at scaling R and orthant weights w2 into M
        (rows x rows, every entry overwritten); return the map z -> V z."""
        D, slots = self.dense_idx, self.slots
        VD = kernels.scaled_congruence_rows(self.Gd, R) if self.Gd.shape[0] and self.d else None
        if VD is not None:
            M[_block(D, D)] = VD @ VD.T
        elif not slots:
            M[...] = 0.0
        if slots:
            W = R @ R.T
            s0 = slots[0]
            if isinstance(s0.rows, slice):
                _pair(W, s0, s0, out=M[s0.rows, s0.rows])
            else:
                M[np.ix_(s0.rows, s0.rows)] = _pair(W, s0, s0)
            # each later slot's terms with the slots up to it: row and column strips
            for u, q in enumerate(slots[1:], 1):
                for s in slots[:u + 1]:
                    B = _pair(W, s, q)
                    M[_block(s.rows, q.rows)] += B
                    if s is not q:
                        M[_block(q.rows, s.rows)] += B.T
            if VD is not None:
                Y = kernels.scaled_congruence_rows(self.Gd, W)
                M[_block(D, s0.rows)] = Y[:, s0.k] * s0.v
                for s in slots[1:]:
                    M[_block(D, s.rows)] += Y[:, s.k] * s.v
                M[_block(s0.rows, D)] = M[_block(D, s0.rows)].T
        if self.Gn_dense_cols.size:
            M += (self.Gn_dense * w2[self.Gn_dense_cols]) @ self.Gn_dense.T
        if self.nn_rows.size:
            np.add.at(M, (self.nn_rows, self.nn_rows),
                      (self.nn_vals * w2[self.nn_cols]) * self.nn_vals)

        def Vz(z: np.ndarray) -> np.ndarray:
            if not slots:
                return VD @ z if VD is not None else np.zeros(self.rows)
            out = np.zeros(self.rows)
            if VD is not None:
                out[D] = VD @ z
            RZ = R @ smat(z)
            for s in slots:
                out[s.rows] += s.vs * np.einsum("ij,ij->i", RZ[s.a], R[s.b])
            return out

        return Vz


class _Point(NamedTuple):
    """An HSD iterate (x, y, s, tau, kappa), or a Newton direction in the same
    blocks.  Its arrays are never written in place: step() builds new ones."""

    x_psd: np.ndarray
    x_nn: np.ndarray
    x_f: np.ndarray
    y: np.ndarray
    s_psd: np.ndarray
    s_nn: np.ndarray
    tau: float
    kappa: float

    def step(self, alpha: float, d: "_Point") -> "_Point":
        return _Point(*(a + alpha * b for a, b in zip(self, d)))

    def compl(self) -> float:
        """x.s + tau kappa."""
        return float(self.x_psd @ self.s_psd + self.x_nn @ self.s_nn) + self.tau * self.kappa


class _Workspace:
    """One solve's state; the iterate is the _Point pt (single-threaded).

    The best iterate (by worst relative residual) is kept and restored on
    stalls: problems without a Slater point (the norm for the lifted BQP
    relaxations, whose feasible lifted matrices are forced singular) have
    unattained duals, and iterates can degrade after the achievable floor is
    reached.
    """

    def __init__(self, prog: ConicProgram, settings: SolverSettings):
        self.settings = settings
        self.sense_sign = 1.0 if prog.sense == "min" else -1.0
        self.offset = prog.offset
        self.d = prog.psd_order
        self.p = prog.nonneg_count
        self.f = prog.free_count
        self.c_psd = self.sense_sign * prog.obj_psd
        self.c_nn = self.sense_sign * prog.obj_nonneg
        self.c_f = self.sense_sign * prog.obj_free
        # row normalization for conditioning; duals are rescaled on report
        G = _stack_rows(prog)
        self.row_scale = np.maximum(np.linalg.norm(G, axis=1), 1e-12)
        self.Gp = prog.G_psd / self.row_scale[:, None]
        self.Gn = prog.G_nonneg / self.row_scale[:, None]
        self.Gf = prog.G_free / self.row_scale[:, None]
        self.b = prog.rhs / self.row_scale
        self.rows = prog.n_rows
        self.nu = self.d + self.p
        self.cnorm = _inf_norm(self.c_psd, self.c_nn, self.c_f)
        self.bnorm = _inf_norm(self.b)
        # G x and G^T y: from (row, col, value) triples when the rows hold no
        # more nonzeros than rows + columns (the max-cut programs, with one to
        # three per row), else the dense blocks (face-reduced programs)
        Gn_coo = _coo(self.Gn)
        cols = self.Gp.shape[1] + self.p + self.f
        nnz = np.count_nonzero(self.Gp) + Gn_coo[0].size + np.count_nonzero(self.Gf)
        self.coo = ((_coo(self.Gp), Gn_coo, _coo(self.Gf))
                    if nnz <= self.rows + cols else None)
        self.schur = _SchurRows(self.Gp, self.Gn, Gn_coo, self.d)
        # the KKT matrix [[M + reg I, Gf], [-Gf^T, reg I]], rows in the
        # program's order; only M and the regularization change per iteration
        self.K = np.zeros((self.rows + self.f, self.rows + self.f))
        self.K[:self.rows, self.rows:] = self.Gf
        self.K[self.rows:, :self.rows] = -self.Gf.T

        self.pt = _Point(svec(np.eye(self.d)), np.ones(self.p), np.zeros(self.f),
                         np.zeros(self.rows), svec(np.eye(self.d)), np.ones(self.p), 1.0, 1.0)
        self.history = []
        self.stats = _zero_stats()
        self._best = None
        self._best_metric = np.inf

    def snapshot_if_best(self, metric: float):
        if metric < self._best_metric:
            self._best_metric = metric
            self._best = self.pt

    def restore_best(self):
        if self._best is not None:
            self.pt = self._best

    def kkt(self, R: np.ndarray, w2: np.ndarray):
        """(K, Vz): the KKT matrix at scaling R and orthant weights w2,
        assembled in place in self.K, and the map z -> V z."""
        K, rows = self.K, self.rows
        M = K[:rows, :rows]
        Vz = self.schur.assemble(M, R, w2)
        reg = KKT_REGULARIZATION * max(1.0, max(M.max(), -M.min()) if rows else 1.0)
        diag = K.reshape(-1)[::K.shape[0] + 1]
        diag[:rows] += reg
        diag[rows:] = reg
        return K, Vz

    # -- products with the normalized rows -----------------------------

    def matvec(self, nn, psd=None, free=None) -> np.ndarray:
        """G x for the orthant block nn of x and, when given, its PSD and
        free blocks (a block left out counts as zero)."""
        if self.coo is None:
            out = self.Gn @ nn
            if psd is not None:
                out = self.Gp @ psd + out
            if free is not None:
                out = out + self.Gf @ free
            return out
        out = 0.0
        for (r, c, v), x in zip(self.coo, (psd, nn, free)):
            if x is not None:
                out = out + np.bincount(r, v * x[c], self.rows)
        return out

    def rmatvec(self, y: np.ndarray, free: bool = True):
        """(Gp^T y, Gn^T y, Gf^T y), the last None unless free is set."""
        if self.coo is None:
            return self.Gp.T @ y, self.Gn.T @ y, self.Gf.T @ y if free else None
        (rp, cp, vp), (rn, cn, vn), (rf, cf, vf) = self.coo
        return (np.bincount(cp, vp * y[rp], self.Gp.shape[1]),
                np.bincount(cn, vn * y[rn], self.p),
                np.bincount(cf, vf * y[rf], self.f) if free else None)

    # -- the HSD map and the stopping measures -------------------------

    def hsd(self, v: _Point):
        """(G x - tau b, tau c - G^T y - s per block (free: no s),
        b^T y - c^T x - kappa, c^T x, b^T y) at an iterate or a direction v."""
        rp = self.matvec(v.x_nn, v.x_psd, v.x_f) - v.tau * self.b
        gp, gn, gf = self.rmatvec(v.y)
        rd_psd = v.tau * self.c_psd - gp - v.s_psd
        rd_nn = v.tau * self.c_nn - gn - v.s_nn
        rd_f = v.tau * self.c_f - gf
        cx = float(self.c_psd @ v.x_psd + self.c_nn @ v.x_nn + self.c_f @ v.x_f)
        by = float(self.b @ v.y)
        return rp, rd_psd, rd_nn, rd_f, by - cx - v.kappa, cx, by

    def measures(self, res: tuple, tau: float):
        """(pobj, dobj, pres, dres, gap_rel) of hsd() at an iterate, over tau."""
        rp, rd_psd, rd_nn, rd_f, _, cx, by = res
        pobj = cx / tau
        dobj = by / tau
        pres = _inf_norm(rp) / (tau * (1.0 + self.bnorm))
        dres = _inf_norm(rd_psd, rd_nn, rd_f) / (tau * (1.0 + self.cnorm))
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return pobj, dobj, pres, dres, gap_rel


def _inf_norm(*arrays):
    vals = [np.abs(a).max() for a in arrays if a.size]
    return max(vals) if vals else 0.0


def _solve_refined(K: np.ndarray, lu, rhs: np.ndarray, stats: dict, rounds: int = 2) -> np.ndarray:
    """LU solve with iterative refinement; keeps direction accuracy near the
    boundary where the scaled KKT matrix is severely ill-conditioned.  A
    non-finite rhs raises ValueError; the residuals are checked here, so their
    solves skip scipy's check."""
    z = scipy.linalg.lu_solve(lu, rhs)
    stats["kkt_solves"] += 1
    for _ in range(rounds):
        err = rhs - K @ z
        if not np.isfinite(err).all():
            break
        z = z + scipy.linalg.lu_solve(lu, err, check_finite=False)
        stats["kkt_solves"] += 1
    return z


def solve(prog: ConicProgram, settings: SolverSettings | None = None) -> ConicSolution:
    """Solve a standard-form conic program; see module docstring for semantics."""
    settings = settings or SolverSettings()
    t0 = time.perf_counter()
    sol = _solve_direct(prog, settings) if prog.face is None else _solve_facial(prog, settings)
    sol.solve_time = time.perf_counter() - t0
    return sol


def _solve_direct(prog: ConicProgram, settings: SolverSettings,
                  quiet_presolve: bool = False) -> ConicSolution:
    pre = presolve_rank_check(prog, quiet=quiet_presolve)
    if pre.infeasible:
        return _short_circuit(prog, STATUS_INFEASIBLE, _dual_ray(prog, pre.farkas_y),
                              "presolve_infeasible", np.nan, pre.dropped_rows)
    work_prog = pre.program

    ray = _free_block_unbounded_ray(work_prog)
    if ray is not None:
        d = prog.psd_order
        ray = RayCertificate(kind="primal", psd=np.zeros((d, d)),
                             nonneg=np.zeros(prog.nonneg_count), free=ray)
        return _short_circuit(prog, STATUS_UNBOUNDED, ray, "presolve_unbounded",
                              -np.inf if prog.sense == "min" else np.inf, pre.dropped_rows)

    ws = _Workspace(work_prog, settings)
    status, ray_cert = _iterate(ws)
    return _assemble(prog, pre, ws, status, ray_cert)


def _solve_facial(prog: ConicProgram, settings: SolverSettings) -> ConicSolution:
    """Facial reduction onto the builder's face (relax.Face): restrict the
    PSD block to the orthogonal complement V of the kernel and drop the rows
    the face implies, solve the (Slater-restored) reduced program, lift the
    primal back, and repair the dual slack by adding the face's own row
    combination, which changes neither the dual objective nor the
    complementarity (the combination has zero rhs inner product and
    annihilates the face).  A face whose row combinations do not check out
    is not used: the program is solved unreduced."""
    face = prog.face
    lam_face = _face_multipliers(prog)
    if lam_face is None:
        log.warning("facial reduction: the face's row combination does not hold; "
                    "solving the program unreduced")
        return _solve_direct(prog, settings)
    Qf, Rf = np.linalg.qr(face.kernel, mode="complete")
    diag = np.abs(np.diag(Rf))
    rank = int(np.sum(diag > 1e-12 * max(1.0, diag.max())))
    V = Qf[:, rank:]
    keep = np.setdiff1d(np.arange(prog.n_rows), face.implied)

    reduced = dataclasses.replace(
        prog, psd_order=V.shape[1], obj_psd=svec(V.T @ smat(prog.obj_psd) @ V),
        G_psd=kernels.scaled_congruence_rows(prog.G_psd[keep], V),
        G_nonneg=prog.G_nonneg[keep], G_free=prog.G_free[keep], rhs=prog.rhs[keep], face=None)
    # rows can still depend on each other on the face (diagonal rows at
    # large m), so the prune log is demoted
    inner = _solve_direct(reduced, settings, quiet_presolve=True)

    def lift_y(y_reduced):
        y_full = np.zeros(prog.n_rows)
        y_full[keep] = y_reduced
        return y_full

    # lift primal blocks
    X_full = V @ inner.primal_psd @ V.T
    sgn = 1.0 if prog.sense == "min" else -1.0
    c_psd_int = sgn * prog.obj_psd

    # dual repair: the V-block of c - G^T y is the reduced dual slack (PSD up
    # to the reduced solve's accuracy); the U-block is repaired by adding the
    # face combination t*W, W = sum_i k_i k_i^T / |k_i|^2, which leaves b^T y
    # and the complementarity with the lifted primal unchanged.  The V-block
    # itself is spliced from the reduced solve's slack, which is
    # complementarity-clean.
    Kn = face.kernel / np.linalg.norm(face.kernel, axis=0)
    W = Kn @ Kn.T
    y = lift_y(inner.dual_y)
    base = smat(c_psd_int - prog.G_psd.T @ y)
    base = base + V @ (inner.dual_slack_psd - V.T @ base @ V) @ V.T
    scale = max(1.0, _inf_norm(svec(base)))
    t = _face_shift(base, W, -1e-9, scale / 16.0, 2.0, 1e12 * scale)
    s_mat = base + t * W
    y = y - t * lam_face

    ray_cert = inner.ray
    if ray_cert is not None and ray_cert.kind == "primal":
        ray_cert = dataclasses.replace(ray_cert, psd=V @ ray_cert.psd @ V.T)
    elif ray_cert is not None and ray_cert.kind == "dual":
        yr = lift_y(ray_cert.y)
        sr = -prog.G_psd.T @ yr
        scale = max(1.0, _inf_norm(sr))
        yr = yr - _face_shift(smat(sr), W, -1e-12, scale, 4.0, 1e15 * scale) * lam_face
        ray_cert = _dual_ray(prog, yr)

    # the orthant dual slack stays the reduced solve's: nonnegative by
    # construction, consistent with y up to the reduced solve's dual residual
    return dataclasses.replace(
        inner, primal_psd=X_full, dual_y=y, dual_slack_psd=s_mat, ray=ray_cert,
        dropped_rows=sorted(face.implied.tolist() + keep[inner.dropped_rows].tolist()))


def _face_shift(S: np.ndarray, W: np.ndarray, floor: float, step: float, grow: float,
                limit: float) -> float:
    """t >= 0 raising the least eigenvalue of S + t W, by a growing-step search
    that stops once it exceeds floor or the step reaches limit."""
    t, margin = 0.0, psd_margin(S)
    while margin < floor and step < limit:
        m_try = psd_margin(S + (t + step) * W)
        if m_try > margin:
            t, margin = t + step, m_try
        step *= grow
    return t


def _face_multipliers(prog: ConicProgram):
    """lam with sum_r lam_r row_r = (svec(W), 0, 0) and lam . rhs = 0 for
    W = sum_i k_i k_i^T / |k_i|^2, from the face's declared row combinations;
    None unless each combination gives svec(k_i k_i^T), zero orthant and free
    parts and zero rhs, to rounding."""
    face = prog.face
    lam = np.zeros(prog.n_rows)
    for k, r, c in zip(face.kernel.T, face.rows, face.coeffs):
        B = np.hstack([prog.G_psd[r], prog.G_nonneg[r], prog.G_free[r], prog.rhs[r, None]])
        want = np.zeros(B.shape[1])
        want[:prog.G_psd.shape[1]] = svec(np.outer(k, k))
        kk = float(k @ k)
        if kk == 0.0 or np.any(np.abs(c @ B - want) > 1e-12 * (1.0 + np.abs(c) @ np.abs(B))):
            return None
        np.add.at(lam, r, c / kk)
    return lam


def _free_block_unbounded_ray(prog: ConicProgram):
    """Exact improving ray from c_f outside range(A_f^T), if any (min sense)."""
    if prog.free_count == 0:
        return None
    sgn = 1.0 if prog.sense == "min" else -1.0
    c_f = sgn * prog.obj_free
    ylsq, *_ = np.linalg.lstsq(prog.G_free.T, c_f, rcond=None)
    r = c_f - prog.G_free.T @ ylsq
    if np.abs(r).max() <= FREE_DUAL_RESIDUAL_REL * (1.0 + np.abs(c_f).max()):
        return None
    return -r / float(r @ r)  # objective value exactly -1 on the ray


def _dual_ray(prog: ConicProgram, y: np.ndarray) -> RayCertificate:
    """Dual ray y in prog's rows, with its slack blocks -G^T y."""
    return RayCertificate(
        kind="dual",
        y=y,
        slack_psd=smat(-prog.G_psd.T @ y),
        slack_nonneg=-prog.G_nonneg.T @ y,
    )


def _short_circuit(prog: ConicProgram, status: str, ray: RayCertificate, reason: str,
                   primal_obj: float, dropped_rows: list) -> ConicSolution:
    """A presolve verdict: zero blocks, no iterations, and the exact certificate."""
    d = prog.psd_order
    return ConicSolution(
        status=status,
        primal_psd=np.zeros((d, d)),
        primal_nonneg=np.zeros(prog.nonneg_count),
        primal_free=np.zeros(prog.free_count),
        dual_y=np.zeros(prog.n_rows),
        dual_slack_psd=np.zeros((d, d)),
        dual_slack_nonneg=np.zeros(prog.nonneg_count),
        primal_obj=primal_obj,
        dual_obj=np.nan,
        iters=0,
        residuals=(np.nan, np.nan, np.nan),
        ray=ray,
        dropped_rows=dropped_rows,
        stats=_zero_stats(reason),
    )


def _iterate(ws: _Workspace):
    """Main predictor-corrector loop; returns (status, ray_certificate_or_None)."""
    st = ws.settings
    d, p, rows = ws.d, ws.p, ws.rows
    stalls = 0
    best_each = np.full(4, np.inf)
    no_progress = 0

    for it in range(st.max_iters):
        pt = ws.pt
        res = ws.hsd(pt)
        tau, kappa = pt.tau, pt.kappa
        compl = pt.compl()
        mu = compl / (ws.nu + 1)
        pobj, dobj, pres, dres, gap_rel = ws.measures(res, tau)
        gap_mu = compl / tau**2
        ws.history.append(IterateRecord(it, pobj, pobj - gap_mu, gap_mu, pres, dres))
        log.debug("iter %3d  pobj %+.9e  dobj %+.9e  gap %9.3e  pres %9.3e  dres %9.3e",
                  it, pobj, pobj - gap_mu, gap_mu, pres, dres)

        gap_mu_rel = gap_mu / (1.0 + abs(pobj) + abs(dobj))
        if (pres <= st.tol_feas and dres <= st.tol_feas
                and gap_rel <= st.tol_gap and gap_mu_rel <= st.tol_gap):
            return _stop(ws, "optimal", STATUS_OPTIMAL)

        cert = _certificate_scan(ws, res[5], res[6])
        if cert is not None:
            return _stop(ws, "certificate", *cert)

        metrics = np.array([pres, dres, gap_rel, gap_mu_rel])
        ws.snapshot_if_best(float(metrics.max()))
        if np.any(metrics < 0.9 * best_each):
            no_progress = 0
        else:
            no_progress += 1
            if no_progress >= 30:  # nothing improved for 30 iterations
                return _stop(ws, "no_progress")
        best_each = np.minimum(best_each, metrics)
        if mu <= 0:
            return _stop(ws, "mu_nonpositive")

        # Nesterov-Todd scalings
        R, RinvT, lam, Lx, Ls = _nt_scaling(smat(pt.x_psd), smat(pt.s_psd))
        c_ps = svec(R.T @ smat(ws.c_psd) @ R)
        w_nn = np.sqrt(pt.x_nn / pt.s_nn)
        w2 = w_nn**2

        K, Vz = ws.kkt(R, w2)
        ws.stats["kkt_factorizations"] += 1
        try:
            lu = scipy.linalg.lu_factor(K)
        except (scipy.linalg.LinAlgError, ValueError):
            return _stop(ws, "factor_failed")

        u = Vz(c_ps) + ws.matvec(w2 * ws.c_nn)
        theta_c = float(c_ps @ c_ps + (w_nn * ws.c_nn) @ (w_nn * ws.c_nn))
        q = np.concatenate([ws.b - u, -ws.c_f])
        z2 = _solve_refined(K, lu, np.concatenate([u + ws.b, -ws.c_f]), ws.stats)
        denom = theta_c + kappa / tau + float(q @ z2)
        if not np.isfinite(denom) or denom <= 0:
            return _stop(ws, "bad_denominator")

        lam_outer = 2.0 / np.add.outer(lam, lam)

        def newton(t1, t2p, t2n, t2f, t3, Em, En, Et):
            """Solve one linearized HSD system, hsd(d)[:5] = (t1, t2p, t2n, t2f, t3):
            G dx - b dtau = t1;  -G^T dy + c dtau - ds = t2 (free rows: no ds);
            b^T dy - c^T dx - dkappa = t3;  scaled complementarities = (Em, En, Et).
            """
            Hm = Em * lam_outer
            h = svec(Hm)
            t2s = svec(R.T @ smat(t2p) @ R)
            Wt2 = Vz(t2s) + ws.matvec(w2 * t2n)
            cWt2 = float(c_ps @ t2s + (w2 * ws.c_nn) @ t2n)
            Gh = Vz(h) + ws.matvec(En / pt.s_nn)
            cGh = float(c_ps @ h + ws.c_nn @ (En / pt.s_nn))
            r1 = t1 - Wt2 - Gh
            r3 = t3 + Et / tau + cGh + cWt2
            z1 = _solve_refined(K, lu, np.concatenate([r1, t2f]), ws.stats)
            dtau = (r3 - float(q @ z1)) / denom
            zz = z1 + dtau * z2
            dy = zz[:rows]
            dxf = zz[rows:]
            gp, gn, _ = ws.rmatvec(dy, free=False)
            arg_psd = gp - ws.c_psd * dtau + t2p
            arg_nn = gn - ws.c_nn * dtau + t2n
            ds_psd = -arg_psd
            ds_nn = -arg_nn
            dx_psd = svec(R @ (R.T @ smat(arg_psd) @ R + Hm) @ R.T)
            dx_nn = w2 * arg_nn + En / pt.s_nn
            dkappa = (Et - kappa * dtau) / tau
            return _Point(dx_psd, dx_nn, dxf, dy, ds_psd, ds_nn, dtau, dkappa)

        def direction(sigma, corr_mat, corr_nn, corr_tk):
            eta = 1.0 - sigma
            t = [-eta * r for r in res[:5]]
            Em = sigma * mu * np.eye(d) - np.diag(lam**2) - corr_mat
            En = sigma * mu - pt.x_nn * pt.s_nn - corr_nn
            Et = sigma * mu - tau * kappa - corr_tk
            dirn = newton(*t, Em, En, Et)
            # outer refinement passes: the W-congruence reconstruction of dx
            # amplifies rounding by ||W||, which otherwise floors the
            # attainable primal residual near the boundary
            for _ in range(2):
                res_t = [a - b for a, b in zip(t, ws.hsd(dirn))]
                corr = newton(*res_t, np.zeros((d, d)), np.zeros(p), 0.0)
                dirn = dirn.step(1.0, corr)
            return dirn

        def max_step(v: _Point):
            alpha = min(
                _max_step_scalar(tau, v.tau),
                _max_step_scalar(kappa, v.kappa),
            )
            if d:
                # the factors of this iterate's X and S, from the NT scaling
                alpha = min(alpha, _max_step_psd(Lx, v.x_psd))
                alpha = min(alpha, _max_step_psd(Ls, v.s_psd))
                ws.stats["psd_step_solves"] += 4
            if p:
                alpha = min(alpha, _max_step_vec(pt.x_nn, v.x_nn))
                alpha = min(alpha, _max_step_vec(pt.s_nn, v.s_nn))
            return alpha

        # predictor
        aff = direction(0.0, np.zeros((d, d)), np.zeros(p), 0.0)
        if not all(np.isfinite(v).all() for v in aff):
            return _stop(ws, "nonfinite_direction")
        a_aff = min(1.0, max_step(aff))
        mu_aff = pt.step(a_aff, aff).compl() / (ws.nu + 1)
        sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector terms from the affine direction
        dXt = RinvT.T @ smat(aff.x_psd) @ RinvT
        dSt = R.T @ smat(aff.s_psd) @ R
        corr_mat = 0.5 * (dXt @ dSt + dSt @ dXt)
        corr_nn = aff.x_nn * aff.s_nn
        corr_tk = aff.tau * aff.kappa

        comb = direction(sigma, corr_mat, corr_nn, corr_tk)
        if not all(np.isfinite(v).all() for v in comb):
            return _stop(ws, "nonfinite_direction")
        alpha = min(1.0, FRACTION_TO_BOUNDARY * max_step(comb))
        if alpha < 1e-10:
            stalls += 1
            if stalls >= 3:
                return _stop(ws, "step_stall")
        else:
            stalls = 0

        ws.pt = pt.step(alpha, comb)
        if ws.pt.tau <= 0 or ws.pt.kappa <= 0:
            return _stop(ws, "tau_kappa_nonpositive")

    return _stop(ws, "iteration_limit", STATUS_ITERATION_LIMIT)


def _stop(ws: _Workspace, reason: str, status: str = STATUS_NUMERICAL_TROUBLE, ray=None):
    """End the loop: record the reason in stats["stop_reason"]; a numerical
    stop or the iteration limit falls back to the best iterate seen."""
    ws.stats["stop_reason"] = reason
    if status in (STATUS_NUMERICAL_TROUBLE, STATUS_ITERATION_LIMIT):
        ws.restore_best()
    return status, ray


def _certificate_scan(ws: _Workspace, cx: float, by: float):
    """Verify HSD-side unboundedness/infeasibility certificates at the iterate."""
    st, pt = ws.settings, ws.pt
    if cx < 0:
        scale = -cx
        Gx = ws.matvec(pt.x_nn, pt.x_psd, pt.x_f)
        ray_norm = _inf_norm(pt.x_psd, pt.x_nn, pt.x_f) / scale
        if _inf_norm(Gx) / scale <= st.tol_infeas * (1.0 + ray_norm):
            ray = RayCertificate(
                kind="primal",
                psd=smat(pt.x_psd / scale),
                nonneg=pt.x_nn / scale,
                free=pt.x_f / scale,
            )
            return STATUS_UNBOUNDED, ray
    if by > 0:
        # cone margins are checked absolutely on the normalized ray: a huge
        # ||y|| certificate with relatively-tiny but absolutely-significant
        # violations proves nothing (rows are unit-normalized internally)
        yr = pt.y / by
        sp, sn, sf = (-g for g in ws.rmatvec(yr))
        ok = _inf_norm(sf) <= st.tol_infeas
        if ok and ws.p:
            ok = sn.min() >= -st.tol_infeas
        if ok and ws.d:
            ok = float(np.linalg.eigvalsh(smat(sp))[0]) >= -st.tol_infeas
        if ok:
            # _assemble builds the slacks in the original rows
            return STATUS_INFEASIBLE, RayCertificate(kind="dual", y=yr)
    return None


def _assemble(orig: ConicProgram, pre: PresolveResult, ws: _Workspace, status: str,
              ray_cert) -> ConicSolution:
    pt = ws.pt
    tau = pt.tau if pt.tau > 0 else 1.0

    # dual multipliers back in original row space (undo normalization, reinsert pruned rows)
    dropped = set(pre.dropped_rows)
    kept = [i for i in range(orig.n_rows) if i not in dropped]
    y_model = np.zeros(orig.n_rows)
    y_model[kept] = (pt.y / tau) / ws.row_scale
    sgn = ws.sense_sign

    pobj_int, dobj_int, pres, dres, gap_rel = ws.measures(ws.hsd(pt), tau)

    if status == STATUS_UNBOUNDED:
        pobj = -np.inf if orig.sense == "min" else np.inf
        dobj = np.nan
    elif status == STATUS_INFEASIBLE:
        pobj = np.nan
        dobj = np.nan
    else:
        pobj = sgn * pobj_int + ws.offset
        dobj = sgn * dobj_int + ws.offset

    if ray_cert is not None and ray_cert.kind == "dual":
        # map y back to original rows (certificate found in scaled, pruned space)
        y_full = np.zeros(orig.n_rows)
        y_full[kept] = ray_cert.y / ws.row_scale
        scale = orig.rhs @ y_full
        if scale > 0:
            y_full /= scale
        ray_cert = _dual_ray(orig, y_full)

    return ConicSolution(
        status=status,
        primal_psd=smat(pt.x_psd) / tau,
        primal_nonneg=pt.x_nn / tau,
        primal_free=pt.x_f / tau,
        dual_y=y_model,
        dual_slack_psd=smat(pt.s_psd) / tau,
        dual_slack_nonneg=pt.s_nn / tau,
        primal_obj=pobj,
        dual_obj=dobj,
        iters=len(ws.history),
        residuals=(pres, dres, gap_rel),
        ray=ray_cert,
        history=ws.history,
        dropped_rows=pre.dropped_rows,
        stats=ws.stats,
    )


# ----------------------------------------------------------------------
# certification (independent of solver state)
# ----------------------------------------------------------------------

@dataclass
class CertCheck:
    name: str
    value: float
    threshold: float

    @property
    def ok(self) -> bool:
        return self.value <= self.threshold


@dataclass
class CertificateReport:
    status: str
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_violation(self) -> float:
        worst = 0.0
        for c in self.checks:
            worst = max(worst, c.value - c.threshold)
        return worst

    def failed(self) -> list:
        return [c for c in self.checks if not c.ok]


def certify(prog: ConicProgram, sol: ConicSolution, tol: float = 1e-6) -> CertificateReport:
    """Re-evaluate a solution's claims from its returned blocks only."""
    sgn = 1.0 if prog.sense == "min" else -1.0
    d = prog.psd_order
    checks = []

    if sol.status in (STATUS_OPTIMAL, STATUS_ITERATION_LIMIT):
        xs = svec(sol.primal_psd)
        for i in range(prog.n_rows):
            gp, gn, gf, rhs = prog.row(i)
            val = float(gp @ xs + gn @ sol.primal_nonneg + gf @ sol.primal_free)
            checks.append(CertCheck(f"primal_row[{i}]", abs(val - rhs) / (1.0 + abs(rhs)), tol))
        if d:
            checks.append(CertCheck("primal_psd_cone", -psd_margin(sol.primal_psd), tol))
            checks.append(CertCheck("dual_psd_cone", -psd_margin(sol.dual_slack_psd), tol))
        if prog.nonneg_count:
            checks.append(CertCheck("primal_nonneg_cone", -float(sol.primal_nonneg.min()), tol))
            checks.append(CertCheck("dual_nonneg_cone", -float(sol.dual_slack_nonneg.min()), tol))
        # dual feasibility: G^T y + s = c (internal min orientation)
        c_psd = sgn * prog.obj_psd
        c_nn = sgn * prog.obj_nonneg
        c_f = sgn * prog.obj_free
        cnorm = 1.0 + _inf_norm(c_psd, c_nn, c_f)
        rd_p = prog.G_psd.T @ sol.dual_y + svec(sol.dual_slack_psd) - c_psd
        rd_n = prog.G_nonneg.T @ sol.dual_y + sol.dual_slack_nonneg - c_nn
        rd_f = prog.G_free.T @ sol.dual_y - c_f
        checks.append(CertCheck("dual_residual", _inf_norm(rd_p, rd_n, rd_f) / cnorm, tol))
        pobj_int = sgn * (sol.primal_obj - prog.offset)
        compl = float(np.sum(sol.primal_psd * sol.dual_slack_psd)) + float(
            sol.primal_nonneg @ sol.dual_slack_nonneg
        )
        checks.append(CertCheck("complementarity", abs(compl) / (1.0 + abs(pobj_int)), tol))
        if np.isfinite(sol.dual_obj):
            checks.append(
                CertCheck("objective_gap", abs(sol.primal_obj - sol.dual_obj) / (1.0 + abs(sol.primal_obj)), tol)
            )
    elif sol.status == STATUS_UNBOUNDED:
        ray = sol.ray
        xs = svec(ray.psd)
        ray_scale = 1.0 + _inf_norm(xs, ray.nonneg, ray.free)
        for i in range(prog.n_rows):
            gp, gn, gf, _ = prog.row(i)
            val = float(gp @ xs + gn @ ray.nonneg + gf @ ray.free)
            checks.append(CertCheck(f"ray_row[{i}]", abs(val) / ray_scale, tol))
        if d:
            checks.append(CertCheck("ray_psd_cone", -psd_margin(ray.psd), tol))
        if prog.nonneg_count:
            checks.append(CertCheck("ray_nonneg_cone", -float(ray.nonneg.min()), tol))
        obj = float(sgn * (prog.obj_psd @ xs + prog.obj_nonneg @ ray.nonneg + prog.obj_free @ ray.free))
        checks.append(CertCheck("ray_objective<=-1", obj + 1.0, tol))
    elif sol.status == STATUS_INFEASIBLE:
        ray = sol.ray
        ynorm = 1.0 + _inf_norm(ray.y)
        res_p = prog.G_psd.T @ ray.y + svec(ray.slack_psd)
        res_n = prog.G_nonneg.T @ ray.y + ray.slack_nonneg
        res_f = prog.G_free.T @ ray.y
        checks.append(CertCheck("farkas_residual", _inf_norm(res_p, res_n, res_f) / ynorm, tol))
        if d:
            checks.append(CertCheck("farkas_psd_cone", -psd_margin(ray.slack_psd), tol))
        if prog.nonneg_count:
            checks.append(CertCheck("farkas_nonneg_cone", -float(ray.slack_nonneg.min()), tol))
        checks.append(CertCheck("farkas_objective>=1", 1.0 - float(prog.rhs @ ray.y), tol))
    else:
        checks.append(CertCheck("status_certifiable", 1.0, 0.0))

    return CertificateReport(status=sol.status, checks=checks)
