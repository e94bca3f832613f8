"""Problem data for binary quadratic programs and max-cut, plus desk-scale oracles.

A BQP instance is  min x^T Q x + 2 c^T x  over x in {-1,+1}^n  subject to
A x = b.  Max-cut graphs carry a symmetric weight matrix with zero diagonal;
the Laplacian is derived on demand.  Brute-force enumeration (exact oracles)
is capped at desk scale and refuses larger inputs rather than truncating.

Four seeded instance families are provided (RdnBQP, RdiBQP, RdBQP, RdsBQP);
generation is deterministic in (kind, n, m, seed, planted).  Draw order from
one SplitMix64 stream per instance: raw Q block (n*n, row-major), c (n),
A (m*n, row-major), then either the planted sign vector (n) or b (m).
"""

import json
from dataclasses import dataclass

import numpy as np

from . import kernels
from .rng import SplitMix64
from .symcone import DimensionError, NumericError

GENERATOR_KINDS = ("RdnBQP", "RdiBQP", "RdBQP", "RdsBQP")

BRUTE_FORCE_BQP_LIMIT = 22
BRUTE_FORCE_MAXCUT_LIMIT = 20


def canonical_kind(kind: str) -> str:
    for k in GENERATOR_KINDS:
        if kind.lower() == k.lower():
            return k
    raise ValueError(f"unknown generator kind {kind!r}; expected one of {GENERATOR_KINDS}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(eq=False)
class BqpInstance:
    """Data of  min x^T Q x + 2 c^T x,  A x = b,  x in {-1,1}^n."""

    Q: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    name: str = "bqp"

    def __post_init__(self):
        self.Q = _readonly(self.Q)
        self.c = _readonly(np.atleast_1d(self.c))
        A = np.asarray(self.A, dtype=float)
        if A.size == 0:
            A = A.reshape(0, self.c.shape[0])
        self.A = _readonly(np.atleast_2d(A))
        self.b = _readonly(np.atleast_1d(self.b) if np.size(self.b) else np.zeros(0))
        if not all(np.isfinite(a).all() for a in (self.Q, self.c, self.A, self.b)):
            raise NumericError("Q, c, A and b must be finite")
        n = self.Q.shape[0]
        if self.Q.shape != (n, n):
            raise DimensionError("Q must be square")
        if not np.array_equal(self.Q, self.Q.T):
            raise DimensionError("Q must be symmetric")
        if self.c.shape != (n,):
            raise DimensionError("c length must match Q order")
        if self.A.shape[1] != n:
            raise DimensionError("A column count must match Q order")
        if self.b.shape != (self.A.shape[0],):
            raise DimensionError("b length must match A row count")

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]


@dataclass(eq=False)
class MaxCutGraph:
    """Weighted undirected graph as a symmetric weight matrix with zero diagonal."""

    W: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise DimensionError("W must be square")
        if not np.isfinite(W).all():
            raise NumericError("W must be finite")
        if not np.array_equal(W, W.T):
            raise DimensionError("W must be symmetric")
        if np.any(np.diag(W) != 0.0):
            raise DimensionError("W must have a zero diagonal")
        self.W = _readonly(W)

    @property
    def n(self) -> int:
        return self.W.shape[0]


@dataclass
class BruteForceResult:
    status: str  # "feasible" | "infeasible"
    opt: float | None = None
    argmin: np.ndarray | None = None


def bqp_objective(inst: BqpInstance, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.n,):
        raise DimensionError(f"x must have length {inst.n}")
    return float(x @ inst.Q @ x + 2.0 * inst.c @ x)


def brute_force_bqp(inst: BqpInstance, limit: int = BRUTE_FORCE_BQP_LIMIT) -> BruteForceResult:
    """Exact minimum over all 2^n sign vectors with ||Ax-b||_inf <= 1e-9."""
    if inst.n > limit:
        raise ValueError(f"n={inst.n} exceeds brute-force limit {limit}")
    found, val, code = kernels.bqp_enumerate(inst.Q, inst.c, inst.A, inst.b)
    if not found:
        return BruteForceResult(status="infeasible")
    x = kernels.code_to_signs(code, inst.n)
    return BruteForceResult(status="feasible", opt=val, argmin=x)


def laplacian(G: MaxCutGraph) -> np.ndarray:
    """L = Diag(We) - W.

    Row sums vanish; bit-exactly so whenever the per-row weight sums are
    exactly representable (integer or dyadic weights), and to rounding error
    (~1e-15 relative) otherwise.
    """
    W = G.W
    return np.diag(W.sum(axis=1)) - W


def cut_value(G: MaxCutGraph, u: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    if u.shape != (G.n,):
        raise DimensionError(f"u must have length {G.n}")
    if not np.all(np.abs(u) == 1.0):
        raise ValueError("u must be a vector of +-1 entries")
    L = laplacian(G)
    return float(u @ L @ u) / 4.0


def brute_force_maxcut(G: MaxCutGraph, limit: int = BRUTE_FORCE_MAXCUT_LIMIT) -> tuple[float, np.ndarray]:
    """Exact max cut; fixes u_1 = +1 (global sign symmetry) and enumerates the rest."""
    n = G.n
    if n > limit:
        raise ValueError(f"n={n} exceeds brute-force limit {limit}")
    L = laplacian(G)
    if n == 1:
        return 0.0, np.ones(1)
    # max (1/4) u^T L u with u = (1, v):  minimize v^T(-L11/4)v + 2(-L[0,1:]/4)^T v - L00/4
    Qr = -L[1:, 1:] / 4.0
    cr = -L[0, 1:] / 4.0
    const = -L[0, 0] / 4.0
    found, val, code = kernels.bqp_enumerate(Qr, cr, np.zeros((0, n - 1)), np.zeros(0))
    v = kernels.code_to_signs(code, n - 1)
    u = np.concatenate(([1.0], v))
    return float(-(val + const)), u


def mc_to_bqp(G: MaxCutGraph) -> BqpInstance:
    """Bridge: max (1/4)u^T L u  ==  -min u^T(-L/4)u; objective negates the cut value."""
    return BqpInstance(Q=-laplacian(G) / 4.0, c=np.zeros(G.n), A=np.zeros((0, G.n)),
                       b=np.zeros(0), name="maxcut-as-bqp")


def _draw(kind: str, stream: SplitMix64, k: int) -> np.ndarray:
    if kind == "RdnBQP":
        return stream.normals(k)
    if kind == "RdiBQP":
        return stream.integers(-10, 10, k)
    if kind == "RdBQP":
        return stream.uniforms(k)
    if kind == "RdsBQP":
        return 2.0 * stream.uniforms(k) - 1.0
    raise ValueError(kind)


def generate_instance(kind: str, n: int, m: int, seed: int, planted: bool = True) -> BqpInstance:
    """Deterministic instance of one of the four random families.

    Q is symmetrized as G + G^T from one raw n x n draw.  With ``planted``
    (default) a sign vector xhat is drawn and b = A xhat, guaranteeing a
    nonempty feasible set; otherwise b comes from the family distribution.
    """
    kind = canonical_kind(kind)
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    stream = SplitMix64(seed)
    Graw = _draw(kind, stream, n * n).reshape(n, n)
    Q = Graw + Graw.T
    c = _draw(kind, stream, n)
    A = _draw(kind, stream, m * n).reshape(m, n)
    if planted:
        xhat = stream.signs(n)
        b = A @ xhat
    else:
        b = _draw(kind, stream, m)
    name = f"{kind}-n{n}-m{m}-s{seed}" + ("-p" if planted else "")
    return BqpInstance(Q=Q, c=c, A=A, b=b, name=name)


def random_graph(n: int, seed: int, density: float = 1.0) -> MaxCutGraph:
    """Random weighted graph: weights uniform [0,1); pairs kept with probability ``density``.

    Pairs i < j are drawn row by row, each a weight and, when density < 1,
    then a uniform that keeps the pair if below ``density``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    i, j = np.triu_indices(n, 1)
    stream = SplitMix64(seed)
    if density >= 1.0:
        w = stream.uniforms(i.size)
    else:
        u = stream.uniforms(2 * i.size)
        w = np.where(u[1::2] < density, u[0::2], 0.0)
    W = np.zeros((n, n))
    W[i, j] = W[j, i] = w
    return MaxCutGraph(W=W)


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------

def instance_to_dict(inst: BqpInstance) -> dict:
    return {
        "name": inst.name,
        "n": inst.n,
        "m": inst.m,
        "Q": inst.Q.ravel().tolist(),
        "c": inst.c.tolist(),
        "A": inst.A.ravel().tolist(),
        "b": inst.b.tolist(),
    }


def instance_from_dict(obj: dict) -> BqpInstance:
    """The instance stored in obj; ValueError, naming the field, when obj is not one."""
    if not isinstance(obj, dict):
        raise ValueError(f"instance rejected: expected an object, got {type(obj).__name__}")

    def read(key, *shape):  # n and m are integers, the rest arrays of the given shape
        if key not in obj:
            raise ValueError(f"instance rejected: field {key!r} missing")
        try:
            return np.array(obj[key], dtype=float).reshape(shape) if shape else int(obj[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"instance rejected: field {key!r}: {exc}") from None

    n, m = read("n"), read("m")
    return BqpInstance(Q=read("Q", n, n), c=read("c", n), A=read("A", m, n), b=read("b", m),
                       name=str(obj.get("name", "bqp")))


def save_instance(inst: BqpInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_instance(path) -> BqpInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_graph(G: MaxCutGraph, path) -> None:
    """Line-oriented edge list: first line n, then 'i j w' with 1-based indices, i < j."""
    lines = [str(G.n)]
    for i in range(G.n):
        for j in range(i + 1, G.n):
            if G.W[i, j] != 0.0:
                lines.append(f"{i + 1} {j + 1} {float(G.W[i, j])!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> MaxCutGraph:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln]
    if not lines:
        raise ValueError("graph file rejected: empty")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError("graph file rejected: first line must be the node count")
    if n < 1:
        raise ValueError("graph file rejected: node count must be positive")
    W = np.zeros((n, n))
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"graph file rejected: bad edge line {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        w = float(parts[2])
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"graph file rejected: node index out of range in {ln!r}")
        if i == j:
            raise ValueError(f"graph file rejected: self-loop in {ln!r}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"graph file rejected: duplicate edge {key}")
        seen.add(key)
        W[i - 1, j - 1] = W[j - 1, i - 1] = w
    return MaxCutGraph(W=W)
