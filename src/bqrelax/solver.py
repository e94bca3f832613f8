"""Primal-dual interior-point solver over (PSD block x nonneg orthant x free block).

Algorithm: homogeneous self-dual embedding with Nesterov-Todd scaling for the
PSD block and a Mehrotra predictor-corrector step.  The free block is
decided before the loop, never split, so the loop's Newton matrix is
M + reg I (see _solve_free).  Certificates:
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

Presolve (presolve_rank_check) prunes numerically dependent equality rows,
reporting their multipliers as zero, and ends on an exact certificate when a
dependent row is inconsistent (Infeasible); then the objective leaving
range(A_f^T) ends it Unbounded.  Rows are normalized to unit norm for conditioning.

Facial reduction: a program whose builder declares a face (relax.Face) and
whose declared row combinations check out is solved on it, without the rows
the face implies; the solution is lifted back to the original rows.  The
dual is not shifted: its PSD slack is PSD on the face only (the duals of the
lifted relaxations are unattained), and certify checks the face first.

Row storage: the products G x and G^T y in the loop come from
(row, column, value) index arrays when the normalized rows hold at most
rows + columns nonzeros (the max-cut programs), and from the dense blocks
otherwise (face-reduced programs); the choice is made once per solve.
Setup stacks the rows [G_psd G_nonneg G_free] a bounded block at a time,
and whole rows only for presolve's QR and least squares on the rows they
test; the index path keeps no dense normalized copy of the rows.

The loop's iterate and its Newton directions are one type (_Point); one HSD
map (_Workspace.hsd) gives the residuals of both.  A numerical stop or the
iteration limit returns the best iterate seen, untouched (kept by reference).
Whether the iterate is in the cone is decided by the Cholesky factors of X
and S that the NT scaling computes: when either fails, the iterate has left
the cone and the solve ends there (stop_reason left_cone); nothing is
repaired.  Any other numerical failure ends it as breakdown (see _iterate).

Linear algebra per iteration: the NT scaling is the Cholesky factors of X and
S and one eigh of Lx^T S Lx, and the Newton system is one _NewtonSystem,
whose newton() maps a linearized HSD right-hand side to a direction and its
NT-scaled pair dX~ = R^{-1} dX R^{-T}, dS~ = R^T dS R; refinement calls it
from outside.  The PSD step lengths and the corrector take that pair: one
smallest-eigenvalue call per cone against diag(lam), no triangular solve.
The step bounds the scaled direction; dX as rounded back through R can
still leave the cone near its boundary, which the next Cholesky catches.
No factorization or solve checks for non-finite values.
ConicSolution.stats counts the factorizations, the solves and the
refinement passes, keeps the smallest step length taken (min_step) and
names the exit (stop_reason).
An empty block (no PSD block in an LP, no orthant) takes the
same path as any other, as 0 x 0 and length-0 arrays; only the PSD step
length and the cone checks ask whether there is a PSD block.
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
REFINE_FRACTION = 0.1  # a direction is refined down to this fraction of tol_feas
MAX_REFINEMENTS = 16  # refinement passes per direction, at most


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


# the counts kept in ConicSolution.stats (see the module docstring)
SOLVE_COUNTS = ("kkt_factorizations", "kkt_solves", "refinements")


def _zero_stats(stop_reason: str | None = None) -> dict:
    """ConicSolution.stats before any work: zero counts, no step taken
    (min_step, the smallest step length applied to the iterate, is None) and
    why the solve ended (one of the five stops of _iterate, or
    presolve_infeasible / presolve_unbounded)."""
    return {**dict.fromkeys(SOLVE_COUNTS, 0), "min_step": None, "stop_reason": stop_reason}


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
    scan: tuple | None = None  # _row_scan of program, when every row is kept


_CHUNK = 1 << 17  # entries formed at once, of the stacked rows or of a Schur block


def _stack_rows(prog: ConicProgram, idx) -> np.ndarray:
    """Rows idx of the stacked matrix [G_psd G_nonneg G_free]."""
    return np.hstack([prog.G_psd[idx], prog.G_nonneg[idx], prog.G_free[idx]])


def _coo(G: np.ndarray) -> tuple:
    """(rows, cols, values) of the nonzeros of G, in row-major order."""
    r, c = np.nonzero(G)
    return r, c, G[r, c]


def _row_scan(prog: ConicProgram):
    """(norms, (rows, cols, values)): the norms of the stacked rows and, in
    row-major order, their nonzeros.  The rows are stacked a bounded block at
    a time; a norm sums its own row only, so each is bit-for-bit that of the
    whole stack.
    A row whose squares overflow (a coefficient near 1e160) is summed by
    hypot instead, so its norm stays finite; every other norm keeps its bits.
    """
    cols = prog.G_psd.shape[1] + prog.nonneg_count + prog.free_count
    step = max(1, _CHUNK // max(1, cols))
    norms, parts = [], []
    for i in range(0, max(prog.n_rows, 1), step):  # one empty block without rows
        B = _stack_rows(prog, slice(i, i + step))
        with np.errstate(over="ignore"):  # where the squares overflow, hypot scales
            norms.append(np.linalg.norm(B, axis=1))
        big = np.isinf(norms[-1])
        norms[-1][big] = np.hypot.reduce(B[big], axis=1)
        r, c, v = _coo(B)
        parts.append((r + i, c, v))
    return np.concatenate(norms), tuple(np.concatenate(a) for a in zip(*parts))


def presolve_rank_check(prog: ConicProgram, quiet: bool = False) -> PresolveResult:
    """Prune numerically dependent equality rows; flag inconsistent dependents.

    Dependence test: rows that own a column (see ``_private_rows``) are
    independent of all others and kept outright.  The remaining rows go
    through QR with column pivoting on the stacked row matrix, row k
    declared dependent when its pivot magnitude falls below
    1e-10 * ||row k||.  A dependent row whose rhs disagrees with the implied
    combination of kept rows by more than 1e-8 (relative) makes the program
    Infeasible; the combination is returned as an exact Farkas certificate.
    Rows are stacked only for the QR and the combination.  When every row
    is kept, the result carries the row scan for the solve's workspace.
    """
    rows = prog.n_rows
    if rows == 0:
        return PresolveResult(program=prog, dropped_rows=[])
    norms, (r, c, v) = _row_scan(prog)
    # rows with (numerically) zero coefficients are pure noise: 0 = rhs is
    # consistent, anything else is an exact Farkas certificate
    floor = 1e-12 * max(1.0, norms.max())
    zero_rows = [int(i) for i in np.nonzero(norms <= floor)[0]]
    for z in zero_rows:
        if abs(prog.rhs[z]) > RANK_RHS_MISMATCH * (1.0 + abs(prog.rhs[z])):
            y = np.zeros(rows)
            y[z] = np.sign(prog.rhs[z])
            y /= prog.rhs @ y
            log.log(logging.DEBUG if quiet else logging.WARNING,
                    "presolve: zero row %d has rhs %.3e; program infeasible",
                    z, prog.rhs[z])
            return PresolveResult(program=prog, dropped_rows=zero_rows,
                                  infeasible=True, farkas_y=y)
    live = norms > floor
    if not live.any():
        return PresolveResult(program=_keep_rows(prog, []), dropped_rows=zero_rows)
    on = live[r]
    own = _private_rows((r[on], c[on], v[on]), norms)
    kept, rest = np.flatnonzero(own).tolist(), np.flatnonzero(live & ~own)
    dependent = []
    if rest.size:
        _, R, piv = scipy.linalg.qr(_stack_rows(prog, rest).T, mode="economic", pivoting=True)
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
        return PresolveResult(program=prog, dropped_rows=[], scan=(norms, (r, c, v)))

    bk = prog.rhs[kept]
    # zero rows were consistency-checked above
    if dependent:
        combos, *_ = np.linalg.lstsq(_stack_rows(prog, kept).T,
                                     _stack_rows(prog, dependent).T, rcond=None)
    for j, d in enumerate(dependent):
        coeffs = combos[:, j]
        mismatch = abs(prog.rhs[d] - coeffs @ bk)
        if mismatch > RANK_RHS_MISMATCH * (1.0 + abs(prog.rhs[d])):
            y = np.zeros(rows)
            y[kept] = coeffs
            y[d] = -1.0
            if prog.rhs @ y < 0:
                y = -y
            y /= prog.rhs @ y
            log.log(logging.DEBUG if quiet else logging.WARNING,
                    "presolve: row %d conflicts with a dependent combination "
                    "(rhs mismatch %.3e); program infeasible", d, mismatch)
            return PresolveResult(program=prog, dropped_rows=dropped,
                                  infeasible=True, farkas_y=y)
    log.log(logging.DEBUG if quiet else logging.WARNING,
            "presolve: dropped %d dependent equality row(s): %s", len(dropped), dropped)
    return PresolveResult(program=_keep_rows(prog, kept), dropped_rows=dropped)


def _private_rows(coo: tuple, norms: np.ndarray) -> np.ndarray:
    """Mask of the rows that own a column, from the (row, col, value) triples
    of their nonzeros: the singleton-column rule of Andersen & Andersen
    (Presolving in linear programming, 1995), repeated.

    A row that is the only nonzero of some column, with that coefficient
    above 1e-10 * its norm, lies outside the span of the other rows.  Setting
    it aside can leave another column with one nonzero among the rows left,
    whose row is then independent of those rows and, through the columns
    already owned, of the rows set aside.  Each column's count only falls,
    so it is examined once after reaching one.
    """
    r, c, v = coo
    counts = np.bincount(c)
    own = np.zeros(norms.size, dtype=bool)
    cols = np.flatnonzero(counts == 1)
    while cols.size:
        single = np.zeros(counts.size, dtype=bool)
        single[cols] = True
        e = np.flatnonzero(single[c] & ~own[r])  # the one nonzero left in each
        big = np.abs(v[e]) > RANK_PIVOT_REL * norms[r[e]]
        new = np.unique(r[e][big])
        if not new.size:
            break
        own[new] = True
        removed = np.bincount(c[np.isin(r, new)], minlength=counts.size)
        counts -= removed
        cols = np.flatnonzero((counts == 1) & (removed > 0))
    return own


def _keep_rows(prog: ConicProgram, kept: list) -> ConicProgram:
    return dataclasses.replace(prog, G_psd=prog.G_psd[kept], G_nonneg=prog.G_nonneg[kept],
                               G_free=prog.G_free[kept], rhs=prog.rhs[kept], face=None)


def _nt_scaling(X: np.ndarray, S: np.ndarray):
    """Nesterov-Todd scaling point: returns (R, lam), lam ascending, with
    R^{-1} X R^{-T} = R^T S R = diag(lam): from the Cholesky factors of X and
    S and one eigh of Lx^T S Lx = V diag(lam^2) V^T, R = Lx V diag(lam^{-1/2})
    (Todd, Toh and Tutuncu, SIAM J. Optim. 8, 1998).  An X or S outside the
    interior of the cone raises np.linalg.LinAlgError."""
    Lx = np.linalg.cholesky(X)
    P = np.linalg.cholesky(S).T @ Lx
    w, V = np.linalg.eigh(P.T @ P)
    lam = np.sqrt(np.maximum(w, 1e-300))
    return Lx @ V * (1.0 / np.sqrt(lam)), lam


def _lambda_min(T: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric T (upper triangle), and no other."""
    w, *_, info = scipy.linalg.lapack.dsyevr(T, compute_v=0, range="I", il=1, iu=1)
    if info:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
    return float(w[0])


def _max_step_scaled(lam: np.ndarray, dT: np.ndarray) -> float:
    """Largest alpha with diag(lam) + alpha dT >= 0, for a direction dT in
    NT-scaled form (X + alpha dX = R (diag(lam) + alpha dX~) R^T, and the
    same for S): the smallest eigenvalue of lam^{-1/2} dT lam^{-1/2}."""
    isq = 1.0 / np.sqrt(lam)
    T = dT * np.outer(isq, isq)
    lam_min = _lambda_min(0.5 * (T + T.T))
    return np.inf if lam_min >= 0 else 1.0 / (-lam_min)


def _max_step_vec(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    if not neg.any():
        return np.inf
    return float((-x[neg] / dx[neg]).min())


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
    gathered as whole rows of the column slices W[:, a_q], W[:, b_q], about
    _CHUNK entries at a time, straight into out (a new block when None)."""
    Wa, Wb = W[:, q.a], W[:, q.b]
    out = np.empty((s.a.size, q.a.size)) if out is None else out
    step = max(1, _CHUNK // q.a.size)  # a slot has at least one row
    for i in range(0, s.a.size, step):
        j = slice(i, i + step)
        B = np.take(Wa, s.a[j], axis=0, out=out[j], mode="clip")
        B *= Wb[s.b[j]]
        Z = Wb[s.a[j]]
        Z *= Wa[s.b[j]]
        B += Z
        B *= s.c[j, None]
        B *= q.c
    return out


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

    def __init__(self, prog: ConicProgram, row_scale: np.ndarray, Gp_coo: tuple, Gn_coo: tuple,
                 Gp: np.ndarray | None):
        """Gp_coo, Gn_coo: the triples of the PSD and orthant blocks over
        row_scale.  The dense rows are taken from Gp, the normalized PSD block,
        where there is one (a view when they are consecutive); else they, like
        the dense orthant columns, are cut from prog and divided by row_scale."""
        d = self.d = prog.psd_order
        self.rows = prog.n_rows
        r, k, vals = Gp_coo
        counts = np.bincount(r, minlength=self.rows)
        sparse = (counts > 0) & (counts <= d)
        self.sparse = np.flatnonzero(sparse)
        self.dense = np.flatnonzero(~sparse)
        self.dense_idx = D = _span(self.dense)
        self.Gd = prog.G_psd[D] / row_scale[D, None] if Gp is None else Gp[D]

        ii, jj, scale = svec_index(d)
        on = sparse[r]
        r, k, vals = r[on], k[on], vals[on]
        slot = np.arange(r.size) - np.searchsorted(r, r)
        self.slots = []
        for t in range(int(slot.max()) + 1 if slot.size else 0):
            on = slot == t
            rt, kt, v = r[on], k[on], vals[on]
            self.slots.append(_Slot(_span(rt), kt, ii[kt], jj[kt], v,
                                    v * scale[kt] / np.sqrt(2.0), v * scale[kt]))

        nr, nc, nv = Gn_coo
        col_counts = np.bincount(nc, minlength=prog.nonneg_count)
        self.Gn_dense_cols = np.flatnonzero(col_counts > 1)
        self.Gn_dense = prog.G_nonneg[:, self.Gn_dense_cols] / row_scale[:, None]
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

    def finite(self, *more: np.ndarray) -> bool:
        """Whether every block, and every array in more, is finite."""
        return all(np.isfinite(v).all() for v in (*self, *more))


class _Workspace:
    """One solve's state; the iterate is the _Point pt (single-threaded).

    The best iterate (by worst relative residual or gap) is kept and
    restored on a numerical stop or the iteration limit: problems without a
    Slater point (the norm for the lifted BQP relaxations, whose feasible
    lifted matrices are forced singular) have unattained duals, and iterates
    can degrade after the achievable floor is reached.
    """

    def __init__(self, prog: ConicProgram, settings: SolverSettings, scan: tuple | None = None):
        self.settings = settings
        self.sense_sign = 1.0 if prog.sense == "min" else -1.0
        self.offset = prog.offset
        self.d = prog.psd_order
        self.p = prog.nonneg_count
        self.c_psd = self.sense_sign * prog.obj_psd
        self.c_nn = self.sense_sign * prog.obj_nonneg
        # row normalization for conditioning; duals are rescaled on report.
        # scan: presolve's _row_scan of prog, when it has made one
        norms, (r, c, v) = scan or _row_scan(prog)
        self.row_scale = np.maximum(norms, 1e-12)
        v = v / self.row_scale[r]
        self.triples = r, c, v  # the nonzeros of the normalized rows
        self.b = prog.rhs / self.row_scale
        self.rows = prog.n_rows
        self.nu = self.d + self.p
        self.cnorm = _inf_norm(self.c_psd, self.c_nn)
        self.bnorm = _inf_norm(self.b)
        # G x and G^T y: from the triples of each block, or from the dense
        # normalized blocks (see Row storage in the module docstring)
        sd = self.c_psd.size
        psd = c < sd
        Gp_coo, Gn_coo = (r[psd], c[psd], v[psd]), (r[~psd], c[~psd] - sd, v[~psd])
        self.coo = (Gp_coo, Gn_coo) if r.size <= self.rows + sd + self.p else None
        dense = self.coo is None
        self.Gp = prog.G_psd / self.row_scale[:, None] if dense else None
        self.Gn = prog.G_nonneg / self.row_scale[:, None] if dense else None
        self.schur = _SchurRows(prog, self.row_scale, Gp_coo, Gn_coo, self.Gp)
        # the KKT buffer, rows in the program's order (see _NewtonSystem)
        self.K = np.empty((self.rows, self.rows))

        self.pt = _Point(svec(np.eye(self.d)), np.ones(self.p), np.zeros(self.rows),
                         svec(np.eye(self.d)), np.ones(self.p), 1.0, 1.0)
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

    # -- products with the normalized rows -----------------------------

    def matvec(self, nn, psd=None) -> np.ndarray:
        """G x for the orthant block nn of x and, when given, its PSD block."""
        if self.coo is None:
            out = self.Gn @ nn
            return out if psd is None else self.Gp @ psd + out
        out = 0.0
        for (r, c, v), x in zip(self.coo, (psd, nn)):
            if x is not None:
                out = out + np.bincount(r, v * x[c], self.rows)
        return out

    def rmatvec(self, y: np.ndarray):
        """(Gp^T y, Gn^T y)."""
        if self.coo is None:
            return self.Gp.T @ y, self.Gn.T @ y
        (rp, cp, vp), (rn, cn, vn) = self.coo
        return np.bincount(cp, vp * y[rp], self.c_psd.size), np.bincount(cn, vn * y[rn], self.p)

    # -- the HSD map and the stopping measures -------------------------

    def hsd(self, v: _Point):
        """(G x - tau b, tau c - G^T y - s per block, b^T y - c^T x - kappa,
        c^T x, b^T y) at an iterate or a direction v."""
        rp = self.matvec(v.x_nn, v.x_psd) - v.tau * self.b
        gp, gn = self.rmatvec(v.y)
        rd_psd = v.tau * self.c_psd - gp - v.s_psd
        rd_nn = v.tau * self.c_nn - gn - v.s_nn
        cx = float(self.c_psd @ v.x_psd + self.c_nn @ v.x_nn)
        by = float(self.b @ v.y)
        return rp, rd_psd, rd_nn, by - cx - v.kappa, cx, by

    def measures(self, res: tuple, tau: float):
        """(pobj, dobj, pres, dres, gap_rel) of hsd() at an iterate, over tau."""
        rp, rd_psd, rd_nn, _, cx, by = res
        pobj = cx / tau
        dobj = by / tau
        pres = _inf_norm(rp) / (tau * (1.0 + self.bnorm))
        dres = _inf_norm(rd_psd, rd_nn) / (tau * (1.0 + self.cnorm))
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return pobj, dobj, pres, dres, gap_rel


class _NewtonSystem:
    """The Newton system at the iterate pt and its NT scaling (R, lam):
    newton() maps a linearized HSD right-hand side to a direction and its
    NT-scaled PSD pair.  In (dy, dtau) it is [[K, -g], [q^T, theta]],
    K = M + reg I with M the Schur block at R and w2 = x_nn / s_nn, g = u + b,
    q = b - u, u = V c_ps + Gn w2c.  K is assembled in ws.K and factored there
    once by LU through its transposed view (K up to the rounding of M).
    One back-solve eliminates the tau column and newton() takes one, each a
    scipy.linalg call looked up when made (so wrappers see it) and counted in
    ws.stats."""

    def __init__(self, ws: "_Workspace", pt: "_Point", R: np.ndarray, lam: np.ndarray):
        self.ws, self.pt, self.R = ws, pt, R
        self.c_ps = c_ps = svec(R.T @ smat(ws.c_psd) @ R)
        w_nn = np.sqrt(pt.x_nn / pt.s_nn)
        self.w2 = w_nn**2
        self.w2c = self.w2 * ws.c_nn
        theta = float(c_ps @ c_ps + (w_nn * ws.c_nn) @ (w_nn * ws.c_nn)) + pt.kappa / pt.tau
        K, self.Vz = self.assemble(ws, R, self.w2)
        ws.stats["kkt_factorizations"] += 1
        self.lu = scipy.linalg.lu_factor(K.T, overwrite_a=True, check_finite=False)
        u = self.Vz(c_ps) + ws.matvec(self.w2c)
        self.q = ws.b - u
        self.z2 = self._back_solve(u + ws.b)
        self.denom = theta + float(self.q @ self.z2)
        self.ok = 0 < self.denom < np.inf  # not so when K or g is not finite
        self.lam_outer = 2.0 / np.add.outer(lam, lam)

    @staticmethod
    def assemble(ws: "_Workspace", R: np.ndarray, w2: np.ndarray):
        """(K, Vz): every entry of K = M + reg I written into ws.K, and z -> V z."""
        K = ws.K
        Vz = ws.schur.assemble(K, R, w2)
        K.reshape(-1)[::K.shape[0] + 1] += KKT_REGULARIZATION * max(
            1.0, max(K.max(), -K.min()) if ws.rows else 1.0)
        return K, Vz

    def _back_solve(self, r: np.ndarray) -> np.ndarray:
        self.ws.stats["kkt_solves"] += 1
        return scipy.linalg.lu_solve(self.lu, r, check_finite=False)

    def newton(self, t1, t2p, t2n, t3, Em=None, En=None, Et=0.0):
        """Solve one linearized HSD system, hsd(d)[:4] = (t1, t2p, t2n, t3):
        G dx - b dtau = t1;  -G^T dy + c dtau - ds = t2;
        b^T dy - c^T dx - dkappa = t3;  scaled complementarities = (Em, En, Et).
        Em and En left out are zero, and their terms are skipped.  Returns
        the direction and its PSD blocks in NT-scaled form,
        dX~ = R^{-1} dX R^{-T} and dS~ = R^T dS R.
        """
        ws, pt, R, c_ps, w2 = self.ws, self.pt, self.R, self.c_ps, self.w2
        t2s = svec(R.T @ smat(t2p) @ R)
        Wt2 = self.Vz(t2s) + ws.matvec(w2 * t2n)
        cWt2 = float(c_ps @ t2s + self.w2c @ t2n)
        r1, r3 = t1 - Wt2, t3 + Et / pt.tau
        if Em is not None:
            Hm = Em * self.lam_outer
            h = svec(Hm)
            r1 = r1 - (self.Vz(h) + ws.matvec(En / pt.s_nn))
            r3 = r3 + float(c_ps @ h + ws.c_nn @ (En / pt.s_nn))
        r3 = r3 + cWt2
        dy = self._back_solve(r1)  # dy at dtau = 0, then the tau column
        dtau = (r3 - float(self.q @ dy)) / self.denom
        dy = dy + dtau * self.z2
        gp, gn = ws.rmatvec(dy)
        arg_psd = gp - ws.c_psd * dtau + t2p
        arg_nn = gn - ws.c_nn * dtau + t2n
        dSt = -(R.T @ smat(arg_psd) @ R)
        dXt, dx_nn = -dSt, w2 * arg_nn
        if Em is not None:
            dXt, dx_nn = dXt + Hm, dx_nn + En / pt.s_nn
        dkappa = (Et - pt.kappa * dtau) / pt.tau
        return (_Point(svec(R @ dXt @ R.T), dx_nn, dy, -arg_psd, -arg_nn, dtau, dkappa),
                dXt, dSt)


def _inf_norm(*arrays):
    vals = [np.abs(a).max() for a in arrays if a.size]
    return max(vals) if vals else 0.0


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
    if prog.free_count:
        return _solve_free(prog, pre, settings)
    ws = _Workspace(pre.program, settings, pre.scan)
    status, ray_cert = _iterate(ws)
    return _assemble(prog, pre.dropped_rows, ws, status, ray_cert)


def _solve_free(prog: ConicProgram, pre: PresolveResult, settings: SolverSettings) -> ConicSolution:
    """The free block, decided by linear algebra: its rows hold no other
    coefficient (ConicProgram enforces it) and have full row rank after presolve.
    A c_f outside range(A_f^T) gives the exact improving ray of objective -1.
    Else x_f solves A_f x_f = b_f, y_f is least squares in A_f^T y_f = c_f,
    c_f^T x_f = b_f^T y_f joins the offset, the loop solves the other rows,
    and y_f is lifted onto the free rows; a ray is zero on the free block."""
    work, n = pre.program, prog.n_rows
    free = work.G_free.any(axis=1)
    A, c_f = work.G_free[free], (1.0 if prog.sense == "min" else -1.0) * work.obj_free
    y_f, *_ = np.linalg.lstsq(A.T, c_f, rcond=None)
    r = c_f - A.T @ y_f
    if np.abs(r).max() > FREE_DUAL_RESIDUAL_REL * (1.0 + np.abs(c_f).max()):
        ray = RayCertificate(kind="primal", psd=np.zeros((prog.psd_order,) * 2),
                             nonneg=np.zeros(prog.nonneg_count),
                             free=-r / float(r @ r))  # objective value exactly -1 on the ray
        return _short_circuit(prog, STATUS_UNBOUNDED, ray, "presolve_unbounded",
                              -np.inf if prog.sense == "min" else np.inf, pre.dropped_rows)
    x_f, *_ = np.linalg.lstsq(A, work.rhs[free], rcond=None)
    rest = dataclasses.replace(_keep_rows(work, ~free), free_count=0, obj_free=np.zeros(0),
                               G_free=work.G_free[~free, :0],
                               offset=work.offset + float(work.obj_free @ x_f))
    ws = _Workspace(rest, settings)
    sol = _assemble(rest, [], ws, *_iterate(ws))
    rows = np.setdiff1d(np.arange(n), pre.dropped_rows)  # work's rows in prog
    y, y_ray = np.zeros(n), np.zeros(n)
    y[rows[~free]], y[rows[free]] = sol.dual_y, y_f
    ray = sol.ray
    if ray is not None and ray.kind == "dual":
        y_ray[rows[~free]] = ray.y
        ray = _dual_ray(prog, y_ray)
    elif ray is not None:
        ray = dataclasses.replace(ray, free=np.zeros(prog.free_count))
    return dataclasses.replace(sol, primal_free=x_f, dual_y=y, ray=ray, dropped_rows=pre.dropped_rows)


def _solve_facial(prog: ConicProgram, settings: SolverSettings) -> ConicSolution:
    """Facial reduction onto the builder's face (relax.Face): restrict the
    PSD block to the orthogonal complement V of the kernel, drop the rows the
    face implies, solve the (Slater-restored) reduced program and lift it
    back.  y is zero on the implied rows and the PSD slack is c - G^T y with
    its V-block spliced from the reduced slack, PSD on the face only (see
    certify).  A face whose row combinations do not check out is not used:
    the program is solved unreduced."""
    face = prog.face
    if not _face_holds(prog):
        log.warning("facial reduction: the face's row combination does not hold; "
                    "solving the program unreduced")
        return _solve_direct(prog, settings)
    V = _face_basis(face.kernel)
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

    # the PSD slack in the original space; its V-block is the reduced solve's
    # slack, so the complementarity with the lifted primal is the reduced one
    sgn = 1.0 if prog.sense == "min" else -1.0
    y = lift_y(inner.dual_y)
    S = smat(sgn * prog.obj_psd - prog.G_psd.T @ y)
    S = S + V @ (inner.dual_slack_psd - V.T @ S @ V) @ V.T

    ray_cert = inner.ray
    if ray_cert is not None and ray_cert.kind == "primal":
        ray_cert = dataclasses.replace(ray_cert, psd=V @ ray_cert.psd @ V.T)
    elif ray_cert is not None and ray_cert.kind == "dual":
        ray_cert = _dual_ray(prog, lift_y(ray_cert.y))

    # the orthant dual slack stays the reduced solve's: nonnegative by
    # construction, consistent with y up to the reduced solve's dual residual
    return dataclasses.replace(
        inner, primal_psd=V @ inner.primal_psd @ V.T, dual_y=y, dual_slack_psd=S, ray=ray_cert,
        dropped_rows=sorted(face.implied.tolist() + keep[inner.dropped_rows].tolist()))


def _face_basis(kernel: np.ndarray) -> np.ndarray:
    """Orthonormal basis V (columns) of the orthogonal complement of the
    kernel's range, by a complete QR of the kernel."""
    Q, R = np.linalg.qr(kernel, mode="complete")
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > 1e-12 * max(1.0, diag.max())))
    return Q[:, rank:]


def _face_holds(prog: ConicProgram) -> bool:
    """Whether each of the face's declared row combinations gives
    svec(k_i k_i^T), zero orthant and free parts and zero rhs, to rounding."""
    face = prog.face
    for k, r, c in zip(face.kernel.T, face.rows, face.coeffs):
        B = np.hstack([prog.G_psd[r], prog.G_nonneg[r], prog.G_free[r], prog.rhs[r, None]])
        want = np.zeros(B.shape[1])
        want[:prog.G_psd.shape[1]] = svec(np.outer(k, k))
        if float(k @ k) == 0.0 or np.any(np.abs(c @ B - want) > 1e-12 * (1.0 + np.abs(c) @ np.abs(B))):
            return False
    return True


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
    """Main predictor-corrector loop; returns (status, ray_certificate_or_None).

    It stops in one of five ways, named in stats["stop_reason"]: optimal,
    certificate (a primal or dual ray), left_cone (Cholesky rejects X or S),
    breakdown (mu <= 0, a KKT denominator that is not positive and finite, or
    a non-finite direction) and iteration_limit."""
    st = ws.settings
    d, p = ws.d, ws.p

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

        cert = _certificate_scan(ws, res[4], res[5])
        if cert is not None:
            return _stop(ws, "certificate", *cert)

        ws.snapshot_if_best(max(pres, dres, gap_rel, gap_mu_rel))

        # Nesterov-Todd scalings; an X or S that Cholesky rejects has left the cone
        try:
            R, lam = _nt_scaling(smat(pt.x_psd), smat(pt.s_psd))
        except np.linalg.LinAlgError:
            return _stop(ws, "left_cone")
        kkt = _NewtonSystem(ws, pt, R, lam)
        if not (mu > 0 and kkt.ok):
            return _stop(ws, "breakdown")

        def direction(sigma, corr_mat, corr_nn, corr_tk):
            eta = 1.0 - sigma
            t = [-eta * r for r in res[:4]]
            Em = sigma * mu * np.eye(d) - np.diag(lam**2) - corr_mat
            En = sigma * mu - pt.x_nn * pt.s_nn - corr_nn
            Et = sigma * mu - tau * kappa - corr_tk
            dirn, dXt, dSt = kkt.newton(*t, Em, En, Et)
            # refine while the residual, scaled as measures() scales the
            # iterate's (times tau), is above REFINE_FRACTION of tol_feas and
            # falls: rebuilding dx through W amplifies rounding by ||W||, which
            # otherwise floors the attainable primal residual near the boundary
            prev = np.inf
            for _ in range(MAX_REFINEMENTS):
                res_t = [a - b for a, b in zip(t, ws.hsd(dirn))]
                err = max(_inf_norm(res_t[0]) / (1.0 + ws.bnorm),
                          _inf_norm(*res_t[1:3]) / (1.0 + ws.cnorm))
                if not REFINE_FRACTION * st.tol_feas * tau < err < prev:
                    break
                prev = err
                ws.stats["refinements"] += 1
                corr, cXt, cSt = kkt.newton(*res_t)
                dirn, dXt, dSt = dirn.step(1.0, corr), dXt + cXt, dSt + cSt
            return dirn, dXt, dSt

        def max_step(v: _Point, dXt, dSt):
            alpha = _max_step_vec(np.concatenate(([tau, kappa], pt.x_nn, pt.s_nn)),
                                  np.concatenate(([v.tau, v.kappa], v.x_nn, v.s_nn)))
            if d:  # in scaled form, where X~ = S~ = diag(lam)
                alpha = min(alpha, _max_step_scaled(lam, dXt), _max_step_scaled(lam, dSt))
            return alpha

        # predictor
        aff, dXt, dSt = direction(0.0, np.zeros((d, d)), np.zeros(p), 0.0)
        if not aff.finite(dXt, dSt):
            return _stop(ws, "breakdown")
        a_aff = min(1.0, max_step(aff, dXt, dSt))
        mu_aff = pt.step(a_aff, aff).compl() / (ws.nu + 1)
        # capped before the cube, which overflows past a ratio of 1e102
        sigma = min(1.0, max(mu_aff, 0.0) / mu) ** 3

        # corrector terms from the affine direction
        corr_mat = 0.5 * (dXt @ dSt + dSt @ dXt)
        corr_nn = aff.x_nn * aff.s_nn
        corr_tk = aff.tau * aff.kappa

        comb, dXt, dSt = direction(sigma, corr_mat, corr_nn, corr_tk)
        if not comb.finite(dXt, dSt):
            return _stop(ws, "breakdown")
        # at most 0.99 of the step that takes tau or kappa to zero keeps both positive
        alpha = float(min(1.0, FRACTION_TO_BOUNDARY * max_step(comb, dXt, dSt)))
        if ws.stats["min_step"] is None or alpha < ws.stats["min_step"]:
            ws.stats["min_step"] = alpha
        ws.pt = pt.step(alpha, comb)

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
    # a ray normalized to c^T d = -1 (b^T y = 1) shrinks like 1/||c|| (1/||b||),
    # so its rows (cones) are weighed by it, as in SCS (JOTA 169, 2016, 3.5)
    if cx < 0:
        scale = -cx
        Gx = ws.matvec(pt.x_nn, pt.x_psd)
        ray_norm = _inf_norm(pt.x_psd, pt.x_nn) / scale
        if _inf_norm(Gx) / scale * max(1.0, ws.cnorm) <= st.tol_infeas * (1.0 + ray_norm):
            ray = RayCertificate(
                kind="primal",
                psd=smat(pt.x_psd / scale),
                nonneg=pt.x_nn / scale,
                free=np.zeros(0),  # the loop's program has no free block
            )
            return STATUS_UNBOUNDED, ray
    if by > 0:
        # cone margins are checked absolutely on the normalized ray: a huge
        # ||y|| certificate with relatively-tiny but absolutely-significant
        # violations proves nothing (rows are unit-normalized internally)
        yr = pt.y / by
        sp, sn = (-g for g in ws.rmatvec(yr))
        tol_cone = st.tol_infeas / max(1.0, ws.bnorm)
        ok = not ws.p or sn.min() >= -tol_cone
        if ok and ws.d:
            ok = _lambda_min(smat(sp)) >= -tol_cone
        if ok:
            # _assemble builds the slacks in the original rows
            return STATUS_INFEASIBLE, RayCertificate(kind="dual", y=yr)
    return None


def _assemble(orig: ConicProgram, dropped_rows: list, ws: _Workspace, status: str,
              ray_cert) -> ConicSolution:
    """orig's solution (orig has no free block) from the loop over its rows less dropped_rows."""
    pt = ws.pt
    tau = pt.tau if pt.tau > 0 else 1.0

    # dual multipliers back in original row space (undo normalization, reinsert pruned rows)
    dropped = set(dropped_rows)
    kept = [i for i in range(orig.n_rows) if i not in dropped]
    y_model = np.zeros(orig.n_rows)
    y_model[kept] = (pt.y / tau) / ws.row_scale
    sgn = ws.sense_sign

    pobj_int, dobj_int, pres, dres, gap_rel = ws.measures(ws.hsd(pt), tau)

    if status == STATUS_UNBOUNDED:
        pobj = -np.inf if orig.sense == "min" else np.inf
        dobj = np.nan
    elif status == STATUS_INFEASIBLE:
        pobj = dobj = np.nan
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
        primal_free=np.zeros(0),
        dual_y=y_model,
        dual_slack_psd=smat(pt.s_psd) / tau,
        dual_slack_nonneg=pt.s_nn / tau,
        primal_obj=pobj,
        dual_obj=dobj,
        iters=len(ws.history),
        residuals=(pres, dres, gap_rel),
        ray=ray_cert,
        history=ws.history,
        dropped_rows=dropped_rows,
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

    def failed(self) -> list:
        return [c for c in self.checks if not c.ok]


def _on_face(prog: ConicProgram, S: np.ndarray) -> np.ndarray:
    """V^T S V when prog declares a face whose row combinations hold, else S:
    they give <k_i k_i^T, X> = 0 for every feasible X, so X = V X' V^T and
    <S, X> = <V^T S V, X'>."""
    if prog.face is None or not _face_holds(prog):
        return S
    V = _face_basis(prog.face.kernel)
    return V.T @ S @ V


def certify(prog: ConicProgram, sol: ConicSolution, tol: float = 1e-6) -> CertificateReport:
    """Re-evaluate a solution's claims from its returned blocks only, on the
    original rows and blocks; the dual PSD cone of a program with a face is
    checked on the face once its row combinations hold (see _on_face).

    Unbounded and Infeasible are checked by their rays.  Every other status
    returns a point (a numerical stop or the iteration limit its best
    iterate), which is checked as an optimum: feasibility, cones,
    complementarity and the objective gap, whatever the status."""
    sgn = 1.0 if prog.sense == "min" else -1.0
    d = prog.psd_order
    checks = []

    if sol.status in (STATUS_OPTIMAL, STATUS_ITERATION_LIMIT, STATUS_NUMERICAL_TROUBLE):
        xs = svec(sol.primal_psd)
        Gx = prog.G_psd @ xs + prog.G_nonneg @ sol.primal_nonneg + prog.G_free @ sol.primal_free
        checks.append(CertCheck("primal_rows",
                                _inf_norm((Gx - prog.rhs) / (1.0 + np.abs(prog.rhs))), tol))
        if d:
            checks.append(CertCheck("primal_psd_cone", -psd_margin(sol.primal_psd), tol))
            checks.append(CertCheck("dual_psd_cone",
                                    -psd_margin(_on_face(prog, sol.dual_slack_psd)), tol))
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
        # the data weighs the ray as in _certificate_scan
        cscale = max(1.0, _inf_norm(prog.obj_psd, prog.obj_nonneg, prog.obj_free))
        Gx = prog.G_psd @ xs + prog.G_nonneg @ ray.nonneg + prog.G_free @ ray.free
        checks.append(CertCheck("ray_rows", _inf_norm(Gx) / ray_scale * cscale, tol))
        if d:
            checks.append(CertCheck("ray_psd_cone", -psd_margin(ray.psd), tol))
        if prog.nonneg_count:
            checks.append(CertCheck("ray_nonneg_cone", -float(ray.nonneg.min()), tol))
        obj = float(sgn * (prog.obj_psd @ xs + prog.obj_nonneg @ ray.nonneg + prog.obj_free @ ray.free))
        checks.append(CertCheck("ray_objective<=-1", obj + 1.0, tol))
    else:  # STATUS_INFEASIBLE
        ray = sol.ray
        ynorm = 1.0 + _inf_norm(ray.y)
        res_p = prog.G_psd.T @ ray.y + svec(ray.slack_psd)
        res_n = prog.G_nonneg.T @ ray.y + ray.slack_nonneg
        res_f = prog.G_free.T @ ray.y
        checks.append(CertCheck("farkas_residual", _inf_norm(res_p, res_n, res_f) / ynorm, tol))
        bscale = max(1.0, _inf_norm(prog.rhs))  # as in _certificate_scan
        if d:
            checks.append(CertCheck("farkas_psd_cone",
                                    -psd_margin(_on_face(prog, ray.slack_psd)) * bscale, tol))
        if prog.nonneg_count:
            checks.append(CertCheck("farkas_nonneg_cone",
                                    -float(ray.slack_nonneg.min()) * bscale, tol))
        checks.append(CertCheck("farkas_objective>=1", 1.0 - float(prog.rhs @ ray.y), tol))

    return CertificateReport(status=sol.status, checks=checks)
