"""Generalized differentials of nonsmooth discrete operators.

An operator here is any map on flat node vectors (the lexicographic grid
ordering).  Every operator of `operators` supplies its own Jacobian and
kink flag through `jacobian(v)`: a linear stencil its kernel matrix and no
kink; Pucci and Monge-Ampere the centred Hessian stencil weighted row by
row by the optimal matrix A*, with a kink where an eigenvalue of a row's
Hessian lies within rounding of 0; a Bellman or Isaacs envelope the rows
of the terms active at v, with a kink where two terms tie to rounding or
where the active term's row is a kink.  An envelope with a plain callable
term returns None there; it, and any operator without `jacobian` (a
wrapped or plain callable, a surrogate), is measured one basis column at
a time by central differences, where near a kink the two half-step
measurements disagree, which is exactly the detection signal.  Sampling
Jacobians near a point (and along segments) produces a finite stand-in for
the generalized differential: enough for mean-value residuals and
row-by-row coefficient extraction.  Matrices are dense.

Min-max evaluation needs, per probe v, the max of J (u - v) over the Clarke
Jacobians on the segment [v, u] (Clarke 1983, section 2.6; Lebourg 1975).
An envelope of stencil and matrix terms supplies it exactly, with no
matrix, from the lines its terms trace along the segment
(`operators.IsaacsOp.segment_max`); any other operator takes the max over
Jacobians sampled along the segment, which can miss a term active only
between two samples.

Coefficient fields decompose each distinct row once.  A row's key is the
bytes of its offsets relative to its node and of its weights, read off the
Jacobian row, so the rows of an operator that commutes with lattice shifts
share one decomposition away from the boundary, as the paper's
translation-invariant min-max formula predicts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .courrege import RowFunctional, decompose, reconstruct_residual
from .grid import DyadicGrid, GridError

DEDUP_TOL = 1e-10
KINK_FACTOR = 10.0
# Jacobian entries below DROP_TOL times the row's largest are not row atoms
DROP_TOL = 1e-12
# projected-gradient budget and stopping step of `mean_value_residual`
MEAN_VALUE_ITERS = 500
MEAN_VALUE_TOL = 1e-10


class ClarkeError(GridError):
    """Raised for ill-posed differential sampling requests."""


def _apply(op, vec: np.ndarray) -> np.ndarray:
    out = np.asarray(op(np.asarray(vec, dtype=float)), dtype=float)
    if out.shape != vec.shape:
        raise ClarkeError(f"operator returned shape {out.shape}, "
                          f"expected {vec.shape}")
    return out


def default_step(v: np.ndarray) -> float:
    peak = float(np.max(np.abs(v))) if v.size else 0.0
    return 1e-5 * (1.0 + peak)


@dataclass(frozen=True)
class JacobianSample:
    """Jacobian at a point, with a kink flag.

    For a measured matrix, kink is set when halving the step moves the
    matrix by more than KINK_FACTOR * step, which a twice-differentiable
    map cannot do, and also when that drift is not finite (an operator that
    is non-finite near v).  An exact Jacobian carries the operator's own
    flag: never for a linear stencil; for Pucci and Monge-Ampere when an
    eigenvalue of some row's Hessian lies within its rounding bound of 0,
    and for Monge-Ampere off convexity (see `operators.PucciOp`); for an
    envelope when two terms tie at some row within their rounding bounds,
    or the active term's row is a kink (see `operators.BellmanOp`).
    """

    point: np.ndarray
    matrix: np.ndarray
    step: float
    kink: bool


def jacobian_at(op, v, step: float | None = None) -> JacobianSample:
    """Jacobian of op at v: exact when op has one, else measured at s and s/2.

    An operator whose `jacobian(v)` returns (matrix, kink) supplies both
    itself: a linear stencil, Pucci and Monge-Ampere make no operator
    call, an envelope one per term.  When op has no `jacobian` (a wrapped
    or plain callable), or it returns None (an envelope with a plain
    callable term), the central-difference Jacobian is measured one basis
    column at a time: 4n operator calls.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    s = default_step(v) if step is None else float(step)
    if s <= 0:
        raise ClarkeError(f"step must be positive, got {s}")
    exact = getattr(op, "jacobian", None)
    got = exact(v) if exact is not None else None
    if got is not None:
        m, kink = got
        m = np.asarray(m, dtype=float)
        if m.shape != (v.size, v.size):
            raise ClarkeError(f"operator Jacobian has shape {m.shape}, "
                              f"expected {(v.size, v.size)}")
        return JacobianSample(point=v, matrix=m, step=s, kink=bool(kink))
    full = _matrix(op, v, s)
    half = _matrix(op, v, 0.5 * s)
    drift = float(np.max(np.abs(full - half)))
    return JacobianSample(point=v, matrix=half, step=s,
                          kink=not drift <= KINK_FACTOR * s)


def _matrix(op, v: np.ndarray, s: float) -> np.ndarray:
    n = v.size
    out = np.zeros((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = s
        out[:, j] = (_apply(op, v + e) - _apply(op, v - e)) / (2.0 * s)
        e[j] = 0.0
    return out


def _same_sample(a: np.ndarray, b: np.ndarray) -> bool:
    """Finite entries within DEDUP_TOL, non-finite ones equal (NaN to NaN)."""
    with np.errstate(invalid="ignore"):
        gap = np.abs(a - b)
    worst = float(np.max(gap))
    if not math.isnan(worst):
        return worst <= DEDUP_TOL
    odd = np.isnan(gap)
    return (np.array_equal(a[odd], b[odd], equal_nan=True)
            and float(np.max(gap, where=~odd, initial=0.0)) <= DEDUP_TOL)


@dataclass
class ClarkeSet:
    """Deduplicated Jacobian samples standing in for the differential at v."""

    point: np.ndarray
    members: list = field(default_factory=list)
    kinked: bool = False

    def add(self, sample: JacobianSample) -> bool:
        m = sample.matrix
        for other in self.members:
            if _same_sample(other, m):
                return False
        self.members.append(m)
        self.kinked = self.kinked or sample.kink
        return True

    def __len__(self) -> int:
        return len(self.members)

    def stacked(self) -> np.ndarray:
        if not self.members:
            raise ClarkeError("empty differential sample")
        return np.stack(self.members)


def sample_differential(op, v, samples: int = 8, radius: float = 1e-4,
                        seed: int = 0) -> ClarkeSet:
    """Jacobians at v and at nearby random points, deduplicated.

    Clarke's generalized Jacobian at v is the convex hull of the limits of
    Jacobians at points tending to v; this samples that definition at
    distance radius.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    out = ClarkeSet(point=v)
    out.add(jacobian_at(op, v))
    rng = np.random.default_rng(seed)
    for _ in range(max(0, samples - 1)):
        d = rng.standard_normal(v.size)
        d *= radius / max(float(np.max(np.abs(d))), 1e-300)
        out.add(jacobian_at(op, v + d))
    return out


def segment_differential(op, v, u, count: int = 9) -> ClarkeSet:
    """Jacobians sampled along the segment from v to u (both ends included)."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if count < 2:
        raise ClarkeError("segment sampling needs at least the two endpoints")
    out = ClarkeSet(point=v)
    for t in np.linspace(0.0, 1.0, count):
        out.add(jacobian_at(op, (1.0 - t) * v + t * u))
    return out


def project_simplex(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort based)."""
    y = np.asarray(y, dtype=float)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, y.size + 1)
    cond = u - css / ks > 0
    rho = int(np.nonzero(cond)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(y - theta, 0.0)


@dataclass(frozen=True)
class MeanValueReport:
    """Best fit of T(u)-T(v) by a convex combination of sampled Jacobians."""

    residual: float
    weights: np.ndarray
    iterations: int
    converged: bool


def mean_value_residual(op, u, v,
                        diff: ClarkeSet | None = None) -> MeanValueReport:
    """Solve the simplex least squares fit for the mean value identity.

    The increment T(u) - T(v) should lie in the convex hull of the sampled
    Jacobians applied to u - v.  Projected gradient on the simplex; the
    returned residual is the max-norm defect of the best fit.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if diff is None:
        diff = segment_differential(op, v, u)
    rhs = _apply(op, u) - _apply(op, v)
    cols = diff.stacked() @ (u - v)          # (m, n): each row one candidate
    g = cols.T                               # (n, m)
    m = g.shape[1]
    lam = np.full(m, 1.0 / m)
    gtg = g.T @ g
    lip = float(np.linalg.norm(gtg, 2))
    alpha = 1.0 / lip if lip > 0 else 1.0
    it = 0
    converged = False
    for it in range(1, MEAN_VALUE_ITERS + 1):
        grad = gtg @ lam - g.T @ rhs
        nxt = project_simplex(lam - alpha * grad)
        if float(np.max(np.abs(nxt - lam))) < MEAN_VALUE_TOL:
            lam = nxt
            converged = True
            break
        lam = nxt
    res = float(np.max(np.abs(g @ lam - rhs)))
    return MeanValueReport(residual=res, weights=lam, iterations=it,
                           converged=converged)


@dataclass(frozen=True)
class MinMaxReport:
    """Pointwise min over probes of max over sampled linearizations.

    gaps[k] is the gap of the min over the first k + 1 probes alone, so
    gap == gaps[-1].
    """

    values: np.ndarray
    direct: np.ndarray
    gap: float
    argmin: np.ndarray
    gaps: np.ndarray


def minmax_eval(op, u, probes, count: int = 9) -> MinMaxReport:
    """Evaluate the min-max form of the operator at u.

    For each probe v the inner layer is T(v) plus the componentwise max of
    J (u - v) over the Clarke Jacobians on the segment from v to u; the
    outer layer is the componentwise min over probes, kept as a running
    minimum whose gap is recorded after each probe.  An operator whose
    `segment_max(v, u)` returns that max (an envelope of stencil and matrix
    terms) supplies it exactly, with no Jacobian; otherwise (it returns
    None, or op has no such method) the max runs over count Jacobians
    sampled along the segment, both ends included.  With u among the probes
    the result reproduces T(u) up to rounding and the sampling defect,
    reported as the max-norm gap.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if not probes:
        raise ClarkeError("need at least one probe")
    direct = _apply(op, u)
    segment_max = getattr(op, "segment_max", None)
    best = None
    argmin = None
    gaps = []
    for p, v in enumerate(probes):
        v = np.atleast_1d(np.asarray(v, dtype=float))
        layer = segment_max(v, u) if segment_max is not None else None
        if layer is None:
            diff = segment_differential(op, v, u, count=count)
            layer = np.max(diff.stacked() @ (u - v), axis=0)
        inner = _apply(op, v) + layer
        if best is None:
            best = inner
            argmin = np.full(u.size, p)
        else:
            take = inner < best
            best = np.where(take, inner, best)
            argmin = np.where(take, p, argmin)
        gaps.append(float(np.max(np.abs(best - direct))))
    return MinMaxReport(values=best, direct=direct, gap=gaps[-1],
                        argmin=argmin, gaps=np.array(gaps))


@dataclass(frozen=True)
class CoefficientFields:
    """Row-by-row normal form of a linearization over the grid.

    Rows with the same offsets relative to their node and the same weights
    form one class.  row_class[i] is the first row of row i's class; only
    that row is decomposed, and decompositions[i] is its decomposition
    rebased to node i.  The fields at i repeat the class values.
    """

    grid: DyadicGrid
    points: np.ndarray
    a_field: np.ndarray
    b_field: np.ndarray
    c_field: np.ndarray
    gcp_field: np.ndarray
    decompositions: list
    row_class: np.ndarray

    @property
    def gcp(self) -> bool:
        return bool(np.all(self.gcp_field))


def coefficient_fields(op, grid: DyadicGrid, v) -> CoefficientFields:
    """Linearize at v and split every row into local plus jump parts.

    A row keeps its entries above DROP_TOL times its largest, and always
    its diagonal so the zero-order part survives.  Each distinct row (same
    relative offsets and weights, bit for bit) is decomposed once; the
    other rows of its class share that decomposition, rebased to their own
    node.  The decompositions are not checked here; `representation_residual`
    checks each class once.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    matrix = jacobian_at(op, v).matrix
    pts = grid.points()
    pts.setflags(write=False)   # rebased base points are views of it
    n = pts.shape[0]
    if matrix.shape != (n, n):
        raise ClarkeError(f"matrix shape {matrix.shape} does not match "
                          f"the {n}-node grid")
    first: dict = {}
    row_class = np.empty(n, dtype=np.int64)
    decs = []
    for i, w in enumerate(matrix):
        keep = np.abs(w) > DROP_TOL * max(float(np.max(np.abs(w))), 1e-300)
        keep[i] = True
        # grid points run in lexicographic order, so these offsets are
        # already the sorted offsets a RowFunctional stores
        offs, wts = pts[keep] - pts[i], w[keep]
        j = first.setdefault((offs.tobytes(), wts.tobytes()), i)
        row_class[i] = j
        decs.append(decompose(RowFunctional(pts[i], offs, wts)) if j == i
                    else replace(decs[j], base_point=pts[i]))
    d = grid.dim
    a = np.stack([dec.a_matrix for dec in decs]) if n else np.zeros((0, d, d))
    b = np.stack([dec.drift for dec in decs]) if n else np.zeros((0, d))
    c = np.array([dec.zero_order for dec in decs])
    g = np.array([dec.gcp for dec in decs], dtype=bool)
    return CoefficientFields(grid=grid, points=grid.points(), a_field=a,
                             b_field=b, c_field=c, gcp_field=g,
                             decompositions=decs, row_class=row_class)


def representation_residual(op, grid: DyadicGrid, v,
                            fields: CoefficientFields | None = None,
                            seed: int = 0) -> float:
    """Worst row defect of the exact normal-form reconstruction identity.

    Each distinct row is verified once, at the first node of its class
    (the other rows of the class differ from it only by a lattice shift).
    Rows are rebuilt from the stored decompositions (center weight is the
    zero-order coefficient minus the jump mass), so no re-linearization
    happens when fields are supplied.
    """
    if fields is None:
        fields = coefficient_fields(op, grid, v)
    worst = 0.0
    reps = np.flatnonzero(fields.row_class == np.arange(fields.row_class.size))
    for i in reps:
        dec = fields.decompositions[i]
        center = dec.zero_order - float(dec.atom_weights.sum())
        offs = np.vstack([np.zeros((1, dec.dim)), dec.atoms])
        wts = np.concatenate([[center], dec.atom_weights])
        row = RowFunctional(dec.base_point, offs, wts)
        worst = max(worst, reconstruct_residual(row, dec, seed=seed))
    return worst
