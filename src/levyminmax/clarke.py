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
the generalized differential, enough for row-by-row coefficient
extraction.  An exact Jacobian is a `grid.SparseRows` from end to end, its
storage O(nnz): a row's reach is a few lattice steps.  A measured one is
the dense n x n array the column loop fills; the sample sets and the
coefficient fields read it as sparse rows, so they and the sampled min-max
layer apply every sample as a sparse product and never stack n x n arrays.

Min-max evaluation needs, per probe v, the max of J (u - v) over the Clarke
Jacobians on the segment [v, u] (Clarke 1983, section 2.6; Lebourg 1975).
An envelope of stencil and matrix terms supplies it exactly, with no
matrix, from the lines its terms trace along the segment
(`operators.IsaacsOp.segment_max`); any other operator takes the max over
Jacobians sampled along the segment, which can miss a term active only
between two samples.  The same lines certify the mean-value inclusion:
T(u) - T(v) is the active terms' slopes weighted by the lengths of the
pieces between crossings (`mean_value_residual`), no fit needed.

Coefficient fields are array passes over the Jacobian's kept entries, read
off its sparse rows in O(nnz).  A row's class is the first row with the
same count, offset bits (relative to its node) and weight bits, found by
one stable sort, so the rows of an operator that commutes with lattice
shifts share one class away from the boundary, as the paper's
translation-invariant min-max formula predicts.
The first rows of the classes go through the schedule in one
`courrege.normal_forms` call, and `representation_residual` checks the
identity on every row, one pass over all rows per probe.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .courrege import (CourregeError, RowFunctional, decompose, normal_forms,
                       probe_battery, reconstruct_residual)
from .grid import DyadicGrid, GridError, SparseRows
from .levy import OFFSET_TOL
from .special import reverse_ramp

DEDUP_TOL = 1e-10
KINK_FACTOR = 10.0
# Jacobian entries below DROP_TOL times the row's largest are not row atoms
DROP_TOL = 1e-12


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

    An exact Jacobian's matrix is a `grid.SparseRows`: `toarray()`,
    `np.asarray` and `@` read it, and a row where the operator is not finite
    is a flag that reads back as NaN across.  A measured matrix is the
    dense array the column loop fills (a plain callable, or an operator
    whose `jacobian` hands back an array, keeps that array).

    For a measured matrix, kink is set when halving the step moves the
    matrix by more than KINK_FACTOR * step, which a twice-differentiable
    map cannot do, and also when that drift is not finite (an operator that
    is non-finite near v).  An exact Jacobian carries the operator's own
    flag: never for a linear stencil; for Pucci and Monge-Ampere when an
    eigenvalue of some row's Hessian lies within its rounding bound of 0
    or a row's Hessian is not finite, and for Monge-Ampere off convexity
    (see `operators.PucciOp`); for an
    envelope when two terms tie at some row within their rounding bounds,
    or the active term's row is a kink (see `operators.BellmanOp`).
    """

    point: np.ndarray
    matrix: SparseRows | np.ndarray
    step: float
    kink: bool


def jacobian_at(op, v, step: float | None = None) -> JacobianSample:
    """Jacobian of op at v: exact when op has one, else measured at s and s/2.

    An operator whose `jacobian(v)` returns (matrix, kink) supplies both
    itself, the matrix as sparse rows with no n x n array: a linear
    stencil, Pucci and Monge-Ampere make no operator call, an envelope one
    per term.  When op has no `jacobian` (a wrapped or plain callable), or
    it returns None (an envelope with a plain callable term), the
    central-difference Jacobian is measured one basis column at a time into
    a dense array: 4n operator calls.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    s = default_step(v) if step is None else float(step)
    if s <= 0:
        raise ClarkeError(f"step must be positive, got {s}")
    exact = getattr(op, "jacobian", None)
    got = exact(v) if exact is not None else None
    if got is not None:
        m, kink = got
        if not isinstance(m, SparseRows):
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


def _sparse(matrix) -> SparseRows:
    """A sample's matrix as sparse rows: an exact one is already, a measured
    (dense) one keeps every entry other than +0.0."""
    return matrix if isinstance(matrix, SparseRows) else SparseRows.from_dense(matrix)


def _same_sample(a: SparseRows, b: SparseRows) -> bool:
    """Finite entries within DEDUP_TOL, non-finite ones equal (NaN to NaN).

    The entries compared are those either matrix stores, an unstored one
    reading 0, and a row NaN across in one matches only a row NaN across
    in the other: the dense comparison, in O(nnz log nnz).
    """
    if a.shape != b.shape or not np.array_equal(a.nan_rows, b.nan_rows):
        return False
    ka, kb = (m.entry_rows() * m.shape[1] + m.indices for m in (a, b))
    both = np.sort(np.concatenate([ka, kb]))
    keys = both[np.diff(both, prepend=-1) != 0]
    x, y = np.zeros(keys.size), np.zeros(keys.size)
    x[np.searchsorted(keys, ka)] = a.data
    y[np.searchsorted(keys, kb)] = b.data
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y)
    worst = float(np.max(gap, initial=0.0))
    if not math.isnan(worst):
        return worst <= DEDUP_TOL
    odd = np.isnan(gap)
    return (np.array_equal(x[odd], y[odd], equal_nan=True)
            and float(np.max(gap, where=~odd, initial=0.0)) <= DEDUP_TOL)


@dataclass
class ClarkeSet:
    """Deduplicated Jacobian samples standing in for the differential at v,
    each kept as sparse rows."""

    point: np.ndarray
    members: list = field(default_factory=list)
    kinked: bool = False

    def add(self, sample: JacobianSample) -> bool:
        m = _sparse(sample.matrix)
        for other in self.members:
            if _same_sample(other, m):
                return False
        self.members.append(m)
        self.kinked = self.kinked or sample.kink
        return True

    def __len__(self) -> int:
        return len(self.members)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Each member times x, one sparse product each: shape (members, n)."""
        if not self.members:
            raise ClarkeError("empty differential sample")
        return np.stack([m @ x for m in self.members])


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


@dataclass(frozen=True)
class MeanValueReport:
    """T(u) - T(v) = sum_p w_p J_p (u - v), checked: the weights w_p are the
    lengths of the pieces of [0, 1] between the breakpoints of all rows
    (they sum to 1), J_p takes each row from the term active on piece p,
    and residual is the max-norm defect."""

    residual: float
    weights: np.ndarray


def mean_value_residual(op, u, v) -> MeanValueReport:
    """The mean-value inclusion with its exact witness, with no iteration.

    T(u) - T(v) lies in the hull of the Clarke Jacobians on [v, u] applied
    to u - v (Clarke 1983, section 2.6; Lebourg 1975).  An envelope of
    stencil and matrix terms is piecewise linear there, so row by row the
    hull point is the sum over the row's pieces of length times the slope
    of the active term (`operators.IsaacsOp.segment_pieces`).  An operator
    without pieces (a plain callable, an envelope with a Pucci,
    Monge-Ampere, callable or nested term) is refused.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    got = op.segment_pieces(v, u) if hasattr(op, "segment_pieces") else None
    if got is None:
        raise ClarkeError(f"{type(op).__name__} has no pieces along the segment: "
                          "only an envelope of stencil and matrix terms does")
    slopes = np.take_along_axis(got.e, got.term, axis=0)
    witness = np.sum(np.diff(got.breaks, axis=0) * slopes, axis=0)
    rhs = _apply(op, u) - _apply(op, v)
    cuts = np.diff(np.sort(got.breaks, axis=None))
    return MeanValueReport(residual=float(np.max(np.abs(witness - rhs))),
                           weights=cuts[cuts > 0.0])


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
            layer = np.max(diff.apply(u - v), axis=0)
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


class _Decompositions(Sequence):
    """decompositions[i] of a CoefficientFields, built when read.

    Each class's first row is decomposed once, on first read; the other
    rows of the class get that decomposition rebased to their own node.
    """

    def __init__(self, fields: "CoefficientFields"):
        self._fields = fields
        self._first: dict = {}

    def __len__(self) -> int:
        return self._fields.row_class.size

    def __getitem__(self, i):
        f = self._fields
        i = range(len(self))[operator.index(i)]
        j = int(f.row_class[i])
        if j not in self._first:
            self._first[j] = decompose(f.row(j))
        dec = self._first[j]
        return dec if i == j else replace(dec, base_point=f.points[i])


@dataclass(frozen=True)
class CoefficientFields:
    """Row-by-row normal form of a linearization over the grid.

    Rows with the same offsets relative to their node and the same weights
    form one class; row_class[i] is the first row of row i's class.  Only
    the classes' first rows are put through the schedule, in one
    `courrege.normal_forms` call, and the fields at i repeat the class
    values: A, B, C, the sign test and the schedule floor delta_field.  The
    rows themselves are kept as their entries: entry e of row owner[e] has
    offset offsets[e] and weight weights[e], in the lexicographic order of
    the grid.  decompositions[i] is row i's normal form as a
    `CourregeDecomposition`, its class's decomposition rebased to node i,
    built when read.
    """

    grid: DyadicGrid
    points: np.ndarray
    a_field: np.ndarray
    b_field: np.ndarray
    c_field: np.ndarray
    gcp_field: np.ndarray
    delta_field: np.ndarray
    row_class: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    owner: np.ndarray

    @property
    def gcp(self) -> bool:
        return bool(np.all(self.gcp_field))

    @cached_property
    def decompositions(self) -> Sequence:
        return _Decompositions(self)

    def row(self, i: int) -> RowFunctional:
        """Row i as read off the Jacobian: its kept entries at node i."""
        lo, hi = np.searchsorted(self.owner, [i, i + 1])
        return RowFunctional(self.points[i], self.offsets[lo:hi],
                             self.weights[lo:hi])


def _kept_entries(matrix: SparseRows) -> tuple:
    """(rows, columns, weights) of the entries above DROP_TOL times their
    row's largest, and of every diagonal entry (0 where it is not stored),
    row by row, in O(nnz).

    A row with a non-finite stored entry, or NaN across, has no threshold
    and no normal form: it is refused, naming its node.
    """
    n = matrix.shape[0]
    owner = matrix.entry_rows()
    bad = matrix.nan_rows.copy()
    bad[owner[~np.isfinite(matrix.data)]] = True
    if bad.any():
        raise CourregeError(f"row weights must be finite (node {np.argmax(bad)})")
    mag = np.abs(matrix.data)
    top = np.zeros(n)
    live = np.flatnonzero(np.diff(matrix.indptr))
    if live.size:
        top[live] = np.maximum.reduceat(mag, matrix.indptr[live])
    keep = (mag > DROP_TOL * np.maximum(top, 1e-300)[owner]) | (matrix.indices == owner)
    rows, cols, wts = owner[keep], matrix.indices[keep], matrix.data[keep]
    missing = np.ones(n, dtype=bool)
    missing[rows[rows == cols]] = False
    if missing.any():
        lone = np.flatnonzero(missing)
        rows, cols = np.concatenate([rows, lone]), np.concatenate([cols, lone])
        wts = np.concatenate([wts, np.zeros(lone.size)])
        order = np.argsort(rows * n + cols)
        rows, cols, wts = rows[order], cols[order], wts[order]
    return rows, cols, wts


def _row_classes(offsets: np.ndarray, weights: np.ndarray, owner: np.ndarray,
                 n: int) -> np.ndarray:
    """First row with the same entry count, offset bits and weight bits.

    Each row's key is its count followed by its entries' bits, zero padded
    to the longest row; one stable sort of the keys puts equal rows next to
    each other in row order.
    """
    counts = np.bincount(owner, minlength=n)
    starts = np.concatenate([[0], np.cumsum(counts)])
    bits = np.column_stack([offsets, weights]).view(np.int64)
    width = bits.shape[1]
    keys = np.zeros((n, 1 + width * int(counts.max())), dtype=np.int64)
    keys[:, 0] = counts
    slot = np.arange(owner.size) - starts[owner]
    cols = 1 + width * slot[:, None] + np.arange(width)
    keys[owner[:, None], cols] = bits
    order = np.argsort(keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel(),
                       kind="stable")
    ranked = keys[order]
    new = np.ones(n, dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    row_class = np.empty(n, dtype=np.int64)
    row_class[order] = order[new][np.cumsum(new) - 1]
    return row_class


def coefficient_fields(op, grid: DyadicGrid, v) -> CoefficientFields:
    """Linearize at v and split every row into local plus jump parts.

    A row keeps its entries above DROP_TOL times its largest, and always
    its diagonal so the zero-order part survives.  Rows with the same
    relative offsets and weights, bit for bit, form a class, found by one
    sort; the first row of each class goes through the schedule, all of
    them in one `courrege.normal_forms` call, and the fields repeat its
    values across the class.  The entries are read off the Jacobian's
    sparse rows in O(nnz).  A row with a non-finite entry, kept or not, or
    NaN across, is refused.  Nothing is checked here;
    `representation_residual` checks every row.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    matrix = _sparse(jacobian_at(op, v).matrix)
    pts = grid.points()
    pts.setflags(write=False)   # rebased base points are views of it
    n = pts.shape[0]
    if matrix.shape != (n, n):
        raise ClarkeError(f"matrix shape {matrix.shape} does not match "
                          f"the {n}-node grid")
    rows, cols, wts = _kept_entries(matrix)
    # grid points run in lexicographic order, so each row's offsets are
    # already the sorted offsets a RowFunctional stores
    offs = pts[cols] - pts[rows]
    row_class = _row_classes(offs, wts, rows, n)
    firsts = np.flatnonzero(row_class == np.arange(n))
    mine = row_class[rows] == rows
    a, b, c, gcp, floor = normal_forms(offs[mine], wts[mine],
                                       np.searchsorted(firsts, rows[mine]),
                                       firsts.size)
    cls = np.searchsorted(firsts, row_class)
    return CoefficientFields(grid=grid, points=pts, a_field=a[cls],
                             b_field=b[cls], c_field=c[cls], gcp_field=gcp[cls],
                             delta_field=floor[cls], row_class=row_class,
                             offsets=offs, weights=wts, owner=rows)


def representation_residual(op, grid: DyadicGrid, v,
                            fields: CoefficientFields | None = None,
                            seed: int = 0) -> float:
    """Worst row defect of the exact normal-form reconstruction identity.

    Every row is checked against its fields.  Per battery probe u, one pass
    over all rows sets the row, as its kept entries, applied to u against
    C u + B.grad u + tr(A D2u) plus the compensated jump sum at each node:
    one `values` call at all entries, one batch of gradients and Hessians
    at the nodes, sums per row by `bincount`.  The compensation's weights
    on grad u and D2u (the jumps' cutoff moments) are summed per row once
    for all probes.  The worst row is then checked once more on its own
    (`reconstruct_residual`), against the decomposition `decompositions`
    serves for it.  No re-linearization happens when fields are supplied.
    """
    if fields is None:
        fields = coefficient_fields(op, grid, v)
    pts, owner, offs, wts = fields.points, fields.owner, fields.offsets, fields.weights
    n, d = pts.shape
    jump = np.max(np.abs(offs), axis=1) >= OFFSET_TOL
    y, w, who = offs[jump], wts[jump], owner[jump]
    r = np.linalg.norm(y, axis=1)
    delta = fields.delta_field[who]
    eta = reverse_ramp(r, delta, delta)
    # B and A less the compensation's moments: what grad u and D2u meet
    drift = fields.b_field.copy()
    np.subtract.at(drift, who, (w * (r < 1.0))[:, None] * y)
    diffusion = fields.a_field.copy()
    np.subtract.at(diffusion, who,
                   (0.5 * w * eta)[:, None, None] * y[:, :, None] * y[:, None, :])
    mass = np.bincount(who, w, minlength=n)
    at = pts[owner] + offs
    probes = probe_battery(d, seed)
    worst = np.zeros(n)
    for u in probes:
        vals = u.values(at)
        u0 = u.values(pts)
        lhs = np.bincount(owner, wts * vals, minlength=n)
        rhs = ((fields.c_field - mass) * u0
               + np.einsum("ij,ij->i", drift, u.grads(pts))
               + np.einsum("ijk,ikj->i", diffusion, u.hessians(pts))
               + np.bincount(who, w * vals[jump], minlength=n))
        worst = np.maximum(worst, np.abs(lhs - rhs))
    i = int(np.argmax(worst))
    return max(float(worst[i]), reconstruct_residual(
        fields.row(i), fields.decompositions[i], probes=probes))
