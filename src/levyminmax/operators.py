"""Reference operators: stencils, extremal envelopes, fractional kernels,
and the half-strip Dirichlet-to-Neumann map.

Discretization conventions chosen for sign correctness:
  * second derivatives use centered differences (the one-sided variant has
    a negative near weight and fails the comparison sign test);
  * drift defaults to upwinding, which keeps every off-center weight
    nonnegative; the central alternative is provided for contrast;
  * jump atoms snap to the nearest lattice point and their gradient
    compensation is folded into the drift, so the assembled kernel applies
    the operator exactly on lattice data.

Grid operators declare a footprint (grid shape, reach): output node i reads
only the nodes whose multi-index differs from i's by at most reach on every
axis.  `clarke` uses it to measure Jacobians a column group at a time.

Exact Jacobians, which `clarke` takes instead of measuring anything, come
as `jacobian(v) -> (matrix, kink)`:
  * a linear stencil returns its kernel matrix and no kink;
  * Pucci and Monge-Ampere are envelopes of the linear maps
    u -> tr(A D2_h u), so row i is the centred Hessian stencil weighted by
    the optimal A*_i, from one Hessian field and one batched `eigh`, with a
    kink where an eigenvalue lies within its rounding bound of 0;
  * an affine term (a stencil, or a matrix kept as a `MatrixTerm`) can
    `scatter` chosen rows of its matrix into an output, so a Bellman or
    Isaacs envelope of such terms builds one n x n matrix and writes each
    row from the term active there: no per-term matrix is built or kept.
An envelope with any other term (Pucci, Monge-Ampere, a plain callable) has
no exact Jacobian (None): its tie test would need a rounding bound on each
such term's value.

The strip map solves the 5-point Laplace system with periodic lateral
boundary mode by mode in the lateral Fourier basis.  The direct sparse
solve of the same system is the reference it is tested against; it
imports scipy on its first use, so importing this module loads numpy
alone.  The boundary derivative uses the harmonicity-corrected one-sided
difference: the naive 3-point reading of the same data is several times
less accurate at moderate frequencies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calculus import hessian_field
from .courrege import SIGN_TOL, RowFunctional
from .grid import _STRIP_NODE_CAP, DyadicGrid, GridError, _shifted
from .levy import LevyMeasure, LevyOperator


class OperatorError(GridError):
    """Raised for ill-posed operator assembly requests."""


def _scatter(out: np.ndarray, shape: tuple, rows: np.ndarray, offs,
             wts) -> None:
    """Write out[i, i + off] = weight for every row i in rows and offset.

    offs are distinct integer offsets, so they reach distinct columns and
    every entry is written once, for all offsets at once; wts holds one
    weight per offset, shared by all rows, or one row of weights per offset
    (shape (offsets, rows)).  Reads outside the box are dropped.
    """
    offs = np.array(offs, dtype=np.int64).reshape(-1, len(shape)).T[:, :, None]
    tgt = np.array(np.unravel_index(rows, shape))[:, None, :] + offs
    size = np.array(shape)[:, None, None]
    k, r = np.nonzero(np.all((tgt >= 0) & (tgt < size), axis=0))
    cols = np.ravel_multi_index(tgt[:, k, r], shape)
    wts = np.asarray(wts, dtype=float)
    out[rows[r], cols] = wts[k, r] if wts.ndim == 2 else wts[k]


@dataclass(frozen=True)
class StencilOperator:
    """Constant-coefficient kernel acting on node data with zero padding."""

    grid: DyadicGrid
    kernel: dict

    def __post_init__(self):
        clean = {}
        for off, w in self.kernel.items():
            off = tuple(int(o) for o in off)
            if len(off) != self.grid.dim:
                raise OperatorError(f"offset {off} has wrong width")
            if w != 0.0:
                clean[off] = clean.get(off, 0.0) + float(w)
        object.__setattr__(self, "kernel", clean)

    @property
    def footprint(self) -> tuple:
        reach = max((abs(o) for off in self.kernel for o in off), default=0)
        return self.grid.shape, reach

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        vals = v.reshape(self.grid.shape)
        out = np.zeros_like(vals)
        for off, w in self.kernel.items():
            out += w * _shifted(vals, off)
        return out.ravel()

    def is_monotone(self, tol: float = SIGN_TOL) -> bool:
        return all(w >= -tol for off, w in self.kernel.items()
                   if any(o != 0 for o in off))

    @property
    def rounding(self) -> tuple:
        """(m, rho): a row of self(v) sums m products, absolute row sum <= rho."""
        return len(self.kernel), float(sum(abs(w) for w in self.kernel.values()))

    def scatter(self, out: np.ndarray, rows: np.ndarray) -> None:
        """Write the given rows of the kernel matrix into out, zero there."""
        _scatter(out, self.grid.shape, rows, list(self.kernel),
                 list(self.kernel.values()))

    def matrix(self) -> np.ndarray:
        """Dense kernel matrix: the scatter of every row."""
        n = self.grid.node_count
        m = np.zeros((n, n))
        self.scatter(m, np.arange(n))
        return m

    def jacobian(self, v: np.ndarray) -> tuple:
        """Exact Jacobian and kink flag: the kernel matrix, the same at every v."""
        return self.matrix(), False

    def row(self, index) -> RowFunctional:
        """The exact functional applied at a node (outside reads dropped)."""
        index = np.atleast_1d(np.asarray(index, dtype=np.int64))
        h = self.grid.spacing
        offs, wts = [], []
        for off, w in self.kernel.items():
            target = index + np.asarray(off, dtype=np.int64)
            if self.grid.contains_index(target):
                offs.append(np.asarray(off, dtype=float) * h)
                wts.append(w)
        return RowFunctional(self.grid.point_of(index), np.array(offs),
                             np.array(wts))


def levy_stencil(grid: DyadicGrid, op: LevyOperator,
                 drift: str = "upwind") -> StencilOperator:
    """Assemble the lattice kernel of a constant-coefficient operator.

    Centered second differences for the diffusion (cross terms with the
    standard four-corner stencil), upwind or central drift, atoms snapped
    to the nearest lattice point with their compensation moved into the
    drift.  On lattice-aligned atoms the kernel applies the operator
    exactly to quadratic data at interior nodes.
    """
    if drift not in ("upwind", "central"):
        raise OperatorError(f"unknown drift scheme {drift!r}")
    d = grid.dim
    if op.dim != d:
        raise OperatorError(f"operator dimension {op.dim} != grid dimension {d}")
    h = grid.spacing
    ker: dict = {}

    def add(off, w):
        ker[off] = ker.get(off, 0.0) + w

    zero = (0,) * d

    def axis(k, s):
        e = [0] * d
        e[k] = s
        return tuple(e)

    # cross terms ride tilted second differences picked by sign, so the
    # whole diffusion block is monotone exactly when A is diagonally
    # dominant; every piece is a pure second difference, hence exact on
    # quadratic data
    a = op.diffusion
    for k in range(d):
        w = (a[k, k] - np.sum(np.abs(a[k])) + abs(a[k, k])) / h ** 2
        if w != 0.0:
            add(axis(k, 1), w)
            add(axis(k, -1), w)
            add(zero, -2.0 * w)
    for k in range(d):
        for l in range(k + 1, d):
            w = abs(a[k, l]) / h ** 2
            if w == 0.0:
                continue
            off = [0] * d
            off[k] = 1
            off[l] = 1 if a[k, l] > 0 else -1
            add(tuple(off), w)
            add(tuple(-o for o in off), w)
            add(zero, -2.0 * w)

    # atoms first: their compensation feeds the drift.  Snapped atoms are
    # integer multiples of h = 2**-level, so their squared norms are exact
    # and the unit-ball test reads the same on the whole array as atom by
    # atom; the kernel and drift sums run over plain floats in measure order.
    b_eff = op.drift.astype(float).tolist()
    live = op.measure.masses != 0.0
    atoms = op.measure.atoms[live]
    idx = np.rint(atoms / h).astype(np.int64)
    at_origin = np.flatnonzero(~np.any(idx, axis=1))
    if at_origin.size:
        raise OperatorError(f"atom {atoms[at_origin[0]].tolist()} snaps to "
                            f"the origin at spacing {h}")
    snapped = idx * h
    inside = np.linalg.norm(snapped, axis=1) < 1.0
    for off, m, y, compensated in zip(idx.tolist(),
                                      op.measure.masses[live].tolist(),
                                      snapped.tolist(), inside.tolist()):
        add(tuple(off), m)
        add(zero, -m)
        if compensated:
            for k in range(d):
                b_eff[k] -= m * y[k]

    for k in range(d):
        b = b_eff[k]
        if b == 0.0:
            continue
        if drift == "central":
            add(axis(k, 1), b / (2.0 * h))
            add(axis(k, -1), -b / (2.0 * h))
        elif b > 0:
            add(axis(k, 1), b / h)
            add(zero, -b / h)
        else:
            add(axis(k, -1), -b / h)
            add(zero, b / h)

    add(zero, op.zero_order)
    return StencilOperator(grid=grid, kernel=ker)


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u the float64 unit roundoff.

    A computed sum of m products, in any order, is within gamma_m times the
    sum of the products' magnitudes of the exact sum (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1).
    """
    u = 0.5 * np.finfo(float).eps
    return m * u / (1.0 - m * u)


class _Pick(NamedTuple):
    """Row-wise choice among stacked values, with its rounding bound."""

    index: np.ndarray
    value: np.ndarray
    err: np.ndarray
    tie: np.ndarray


def _select(vals: np.ndarray, err: np.ndarray, pick) -> _Pick:
    """First maximiser or minimiser (pick = np.argmax, np.argmin) per row.

    A row ties when another entry lies within the sum of its rounding bound
    and the picked entry's: the computed values cannot order the two.
    """
    node = np.arange(vals.shape[1])
    index = pick(vals, axis=0)
    best, best_err = vals[index, node], err[index, node]
    tie = np.abs(vals - best) <= err + best_err
    tie[index, node] = False
    return _Pick(index, best, best_err, tie.any(axis=0))


@dataclass(frozen=True)
class BellmanOp:
    """Componentwise upper envelope of affine operator terms.

    When every term is affine with a row scatter (a `StencilOperator` or a
    matrix), `jacobian(v)` is exact: the envelope's Clarke Jacobian at v is
    the hull of the active terms' rows (Clarke 1983, section 2.6), and row
    i takes the row of the first maximiser of f(v)_i + s_i.  Computing term
    k's row i sums m_k products and the shift, so it rounds by at most
    gamma_(m_k+1) (rho_k |v|_inf + |s_i|), with rho_k the term's largest
    absolute row sum.  A row where another term comes within the sum of the
    two bounds is a tie: it keeps the first maximiser and sets the kink flag.
    """

    terms: tuple

    @property
    def footprint(self) -> tuple | None:
        return _joint_footprint(f for f, _ in self.terms)

    @property
    def affine(self) -> bool:
        return all(hasattr(f, "scatter") for f, _ in self.terms)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        vals = [np.asarray(f(v), dtype=float) + s for f, s in self.terms]
        return np.max(np.stack(vals), axis=0)

    def _active(self, v: np.ndarray) -> _Pick:
        """The first maximising term at each row."""
        peak = float(np.max(np.abs(v), initial=0.0))
        vals = np.stack([np.asarray(f(v), dtype=float) + s for f, s in self.terms])
        err = np.empty_like(vals)
        for k, (f, s) in enumerate(self.terms):
            m, rho = f.rounding
            err[k] = _gamma(m + 1) * (rho * peak + np.abs(s))
        return _select(vals, err, np.argmax)

    def jacobian(self, v: np.ndarray) -> tuple | None:
        """Active rows and kink flag: the one-team `IsaacsOp` case."""
        return IsaacsOp((self,)).jacobian(v)


@dataclass(frozen=True)
class IsaacsOp:
    """Lower envelope of upper envelopes: min over teams, max within.

    With affine terms, `jacobian(v)` takes row i from the active term of
    the first minimising team; a tie between teams, or inside the team
    picked at i, sets the kink flag, with the bounds of `BellmanOp`.
    """

    teams: tuple

    @property
    def footprint(self) -> tuple | None:
        return _joint_footprint(self.teams)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        vals = [team(v) for team in self.teams]
        return np.min(np.stack(vals), axis=0)

    def jacobian(self, v: np.ndarray) -> tuple | None:
        """Active rows and kink flag, or None when some term is not affine."""
        if not all(getattr(team, "affine", False) for team in self.teams):
            return None
        v = np.asarray(v, dtype=float)
        inner = [team._active(v) for team in self.teams]
        outer = _select(np.stack([p.value for p in inner]),
                        np.stack([p.err for p in inner]), np.argmin)
        tied = np.stack([p.tie for p in inner])[outer.index, np.arange(v.size)]
        out = np.zeros((v.size, v.size))
        for t, (team, p) in enumerate(zip(self.teams, inner)):
            rows = np.flatnonzero(outer.index == t)
            for k, (f, _) in enumerate(team.terms):
                f.scatter(out, rows[p.index[rows] == k])
        return out, bool(np.any(outer.tie | tied))


def _joint_footprint(parts) -> tuple | None:
    """Common grid shape and largest reach of the parts, or None.

    None when some part declares no footprint (a matrix term, a plain
    callable) or the parts live on grids of different shapes.
    """
    prints = [getattr(p, "footprint", None) for p in parts]
    if not prints or any(fp is None for fp in prints):
        return None
    if len({shape for shape, _ in prints}) != 1:
        return None
    return prints[0][0], max(reach for _, reach in prints)


@dataclass(frozen=True, eq=False)
class MatrixTerm:
    """A dense matrix as an affine envelope term: v -> M v."""

    matrix: np.ndarray

    @property
    def rounding(self) -> tuple:
        """(m, rho): a row of M v sums m products, absolute row sum <= rho."""
        return self.matrix.shape[1], float(np.linalg.norm(self.matrix, np.inf))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def scatter(self, out: np.ndarray, rows: np.ndarray) -> None:
        """Write the given rows of M into out."""
        out[rows] = self.matrix[rows]

    def jacobian(self, v: np.ndarray) -> tuple:
        return self.matrix.copy(), False


def _as_term(term):
    if isinstance(term, tuple):
        f, s = term
    else:
        f, s = term, 0.0
    if isinstance(f, np.ndarray):
        f = MatrixTerm(np.asarray(f, dtype=float))
    if not callable(f):
        raise OperatorError("each term needs a callable or matrix part")
    return f, s


def bellman(terms) -> BellmanOp:
    terms = [_as_term(t) for t in terms]
    if not terms:
        raise OperatorError("upper envelope of nothing")
    return BellmanOp(terms=tuple(terms))


def isaacs(families) -> IsaacsOp:
    teams = [bellman(fam) for fam in families]
    if not teams:
        raise OperatorError("lower envelope of nothing")
    return IsaacsOp(teams=tuple(teams))


def pucci_extremal(eigenvalues: np.ndarray, lam: float, big: float,
                   extremal: str = "max") -> np.ndarray:
    """Extremal trace over matrices with spectrum in [lam, big]."""
    e = np.asarray(eigenvalues, dtype=float)
    pos = np.clip(e, 0.0, None).sum(axis=-1)
    neg = np.clip(e, None, 0.0).sum(axis=-1)
    if extremal == "max":
        return big * pos + lam * neg
    if extremal == "min":
        return lam * pos + big * neg
    raise OperatorError(f"unknown extremal {extremal!r}")


def _hessian_eigen(grid: DyadicGrid, v: np.ndarray) -> tuple:
    """Centred Hessians (n, d, d), their eigenvalues and eigenvectors, and
    per row the bound of `_eigen_bound` on each eigenvalue's rounding."""
    d = grid.dim
    hess = hessian_field(grid, v).reshape(-1, d, d)
    e, q = np.linalg.eigh(hess)
    return e, q, _eigen_bound(grid, v, hess)


def _eigen_bound(grid: DyadicGrid, v: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """How far each computed eigenvalue of a row's centred Hessian may lie
    from the matching eigenvalue of the exact centred Hessian of v.

    Entry (k, l) of `hessian_field` sums its reads with two (diagonal) or
    three (cross) additions and divides by h^2 or 4 h^2, powers of two, so
    it lies within gamma_3 r_kl |v|_inf of the exact entry, r_kl the
    absolute sum of its weights: 4/h^2 on the diagonal, 1/h^2 off it.  The
    error matrix is symmetric, so its 2-norm is at most its largest
    absolute row sum, gamma_3 rho |v|_inf with rho = (d + 3)/h^2, the
    centred stencil's absolute row sum over one Hessian row.  `eigh` is
    backward stable: its eigenvalues are exact for a perturbation of the
    computed Hessian H of 2-norm at most p(d) u |H|_2 (Golub and Van Loan,
    Matrix Computations, section 8.3), bounded here by gamma_(4 d^2) |H|_F.
    Weyl's inequality adds the two.
    """
    d = grid.dim
    peak = float(np.max(np.abs(v), initial=0.0))
    rho = (d + 3) / grid.spacing ** 2
    frob = np.sqrt(np.sum(hess * hess, axis=(1, 2)))
    return _gamma(3) * rho * peak + _gamma(4 * d * d) * frob


def _scatter_hessian(out: np.ndarray, grid: DyadicGrid, rows: np.ndarray,
                     a: np.ndarray) -> None:
    """Write rows of v -> tr(A_i D2_h v)_i, D2_h the centred Hessian stencil
    of `hessian_field` and A_i = a[r] the symmetric matrix of row rows[r].

    Weights: a_kk/h^2 on +-e_k; a_kl/(2h^2) on the (+,+) and (-,-) corners
    of the (k, l) plane and -a_kl/(2h^2) on (+,-) and (-,+), since the cross
    entry enters the trace twice at 1/(4h^2); the rest, -2 tr(a)/h^2, on
    the centre.  Reads outside the box are dropped, as the field's zero
    padding drops them.
    """
    d = grid.dim
    h2 = grid.spacing ** 2
    eye = np.eye(d, dtype=np.int64)
    offs = [np.zeros(d, dtype=np.int64)]
    wts = [-2.0 * np.trace(a, axis1=1, axis2=2) / h2]
    for k in range(d):
        offs += [eye[k], -eye[k]]
        wts += [a[:, k, k] / h2] * 2
        for l in range(k + 1, d):
            cross = a[:, k, l] / (2.0 * h2)
            offs += [eye[k] + eye[l], -eye[k] - eye[l],
                     eye[k] - eye[l], eye[l] - eye[k]]
            wts += [cross, cross, -cross, -cross]
    _scatter(out, grid.shape, rows, offs, np.stack(wts))


def _from_eigen(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The matrices Q diag(w) Q^T, row by row."""
    return (q * w[:, None, :]) @ np.swapaxes(q, 1, 2)


@dataclass(frozen=True)
class PucciOp:
    """Extremal second-order operator from the centered Hessian field.

    Pucci is the max (or min) over A with spectrum in [lam, big] of
    tr(A D2_h u), attained at A* = big P+ + lam P- (the roles swap for
    "min"), P+ and P- the projections on the eigenvectors of the row's
    Hessian with positive and with nonpositive eigenvalues.  So
    `jacobian(v)` is exact: row i is the centred stencil weighted by A*_i,
    from one Hessian field and one batched `eigh`, with no operator call.
    A row whose eigenvalues all share a sign takes A* = big I or lam I
    exactly (P+ + P- = I).  P+ and P- switch where an eigenvalue crosses 0,
    so a row is a kink when some computed eigenvalue lies within its
    rounding bound of 0 (`_eigen_bound`); with lam == big nothing switches
    and no row is a kink.
    """

    grid: DyadicGrid
    lam: float
    big: float
    extremal: str = "max"

    def __post_init__(self):
        if not (0.0 < self.lam <= self.big):
            raise OperatorError(
                f"ellipticity bounds must satisfy 0 < {self.lam} <= {self.big}")
        if self.extremal not in ("max", "min"):
            raise OperatorError(f"unknown extremal {self.extremal!r}")

    @property
    def footprint(self) -> tuple:
        return self.grid.shape, 1

    def __call__(self, v: np.ndarray) -> np.ndarray:
        hess = hessian_field(self.grid, v)
        e = np.linalg.eigvalsh(hess)
        return pucci_extremal(e, self.lam, self.big, self.extremal).ravel()

    def jacobian(self, v: np.ndarray) -> tuple:
        """Exact Jacobian and kink flag: the A*-weighted centred stencil."""
        v = np.asarray(v, dtype=float)
        e, q, bound = _hessian_eigen(self.grid, v)
        up, down = ((self.big, self.lam) if self.extremal == "max"
                    else (self.lam, self.big))
        w = np.where(e > 0.0, up, down)
        a = _from_eigen(q, w)
        same = np.all(w == w[:, :1], axis=1)
        a[same] = w[same, :1, None] * np.eye(self.grid.dim)
        out = np.zeros((v.size, v.size))
        _scatter_hessian(out, self.grid, np.arange(v.size), a)
        kink = self.lam < self.big and bool(np.any(np.abs(e) <= bound[:, None]))
        return out, kink


def pucci(grid: DyadicGrid, lam: float, big: float,
          extremal: str = "max") -> PucciOp:
    return PucciOp(grid=grid, lam=lam, big=big, extremal=extremal)


@dataclass(frozen=True)
class MAReport:
    """Infimum of tr(A M) over unit-determinant positive matrices."""

    value: float
    a_star: np.ndarray | None
    sampled: float


def ma_infimum(m, samples: int = 0, seed: int = 0) -> MAReport:
    """Closed-form infimum with an optional sampled upper bound.

    For positive definite M the infimum is d det(M)^(1/d), attained at
    A* = det(M)^(1/d) M^(-1); one negative eigenvalue drives it to -inf.
    Sampled random unit-determinant matrices can only do worse, which the
    report makes checkable.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    d = m.shape[0]
    if m.shape != (d, d) or np.max(np.abs(m - m.T)) > 1e-10:
        raise OperatorError("need a symmetric matrix")
    e = np.linalg.eigvalsh(m)
    if e[0] <= 0.0:
        return MAReport(value=-math.inf, a_star=None, sampled=math.inf)
    det = float(np.prod(e))
    value = d * det ** (1.0 / d)
    a_star = det ** (1.0 / d) * np.linalg.inv(m)
    sampled = float(np.trace(a_star @ m))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        r = rng.standard_normal((d, d))
        w = r @ r.T + 0.1 * np.eye(d)
        a = w / np.linalg.det(w) ** (1.0 / d)
        sampled = min(sampled, float(np.trace(a @ m)))
    return MAReport(value=value, a_star=a_star, sampled=sampled)


@dataclass(frozen=True)
class MongeAmpereOp:
    """d det(D2 u)^(1/d) on the centered Hessian field; -inf off convexity.

    On a convex row this is the infimum of tr(A D2_h u) over det A = 1,
    attained at A* = det(H)^(1/d) H^(-1) (`ma_infimum`), so `jacobian(v)`
    is exact there: the centred stencil weighted by A*, from one Hessian
    field and one batched `eigh`, with no operator call.  A row off
    convexity, where T is -inf, is NaN inside its reach box and 0 outside
    it, as a measured Jacobian reads there, and sets the kink flag; so does
    a row with an eigenvalue within its rounding bound of 0 (`_eigen_bound`),
    where convexity can switch.
    """

    grid: DyadicGrid

    @property
    def footprint(self) -> tuple:
        return self.grid.shape, 1

    def __call__(self, v: np.ndarray) -> np.ndarray:
        hess = hessian_field(self.grid, v)
        e = np.linalg.eigvalsh(hess)
        d = self.grid.dim
        convex = np.all(e > 0.0, axis=-1)
        out = np.full(e.shape[:-1], -math.inf)
        good = np.prod(e[convex], axis=-1)
        out[convex] = d * good ** (1.0 / d)
        return out.ravel()

    def jacobian(self, v: np.ndarray) -> tuple:
        """Exact Jacobian on convex rows, NaN rows off convexity, kink flag."""
        v = np.asarray(v, dtype=float)
        d = self.grid.dim
        e, q, bound = _hessian_eigen(self.grid, v)
        convex = np.all(e > 0.0, axis=-1)
        good = e[convex]
        w = np.prod(good, axis=-1, keepdims=True) ** (1.0 / d) / good
        rows = np.arange(v.size)
        out = np.zeros((v.size, v.size))
        _scatter_hessian(out, self.grid, rows[convex], _from_eigen(q[convex], w))
        box = np.array(list(np.ndindex(*(3,) * d))) - 1
        _scatter(out, self.grid.shape, rows[~convex], box,
                 np.full(len(box), np.nan))
        kink = not convex.all() or bool(np.any(np.abs(e) <= bound[:, None]))
        return out, kink


def monge_ampere(grid: DyadicGrid) -> MongeAmpereOp:
    return MongeAmpereOp(grid=grid)


def fractional_constant(dim: int, alpha: float) -> float:
    """Normalizing constant of the fractional kernel |y|^(-d-alpha)."""
    if not (0.0 < alpha < 2.0):
        raise OperatorError(f"order must lie in (0, 2), got {alpha}")
    num = 2.0 ** alpha * math.gamma((dim + alpha) / 2.0)
    den = math.pi ** (dim / 2.0) * abs(math.gamma(-alpha / 2.0))
    return num / den


def fractional_laplacian(alpha: float, dim: int = 1, spacing: float = 2.0 ** -6,
                         radius: float = 32.0) -> LevyOperator:
    """Quadrature operator for minus the fractional power of the Laplacian.

    Lattice atoms inside the given radius carry C h^d / |y|^(d+alpha); the
    tail integral beyond the radius becomes a negative zero-order term
    (data is assumed to decay).  The omitted ball |y| < h contributes
    O(h^(2-alpha)) on twice-differentiable data.
    """
    if spacing <= 0 or radius <= spacing:
        raise OperatorError("need 0 < spacing < radius")
    c = fractional_constant(dim, alpha)
    n = int(math.floor(radius / spacing))
    rng1 = np.arange(-n, n + 1)
    grids = np.meshgrid(*([rng1 * spacing] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    r = np.linalg.norm(pts, axis=1)
    keep = (r > 0.0) & (r <= radius)
    atoms = pts[keep]
    masses = c * spacing ** dim / np.linalg.norm(atoms, axis=1) ** (dim + alpha)
    surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    tail = c * surface / (alpha * radius ** alpha)
    measure = LevyMeasure(atoms, masses)
    return LevyOperator(np.zeros((dim, dim)), np.zeros(dim), -tail, measure)


# --- half-strip Dirichlet-to-Neumann map -----------------------------------


@dataclass(frozen=True)
class StripProblem:
    """Laplace in a lateral-periodic strip of given width and height.

    Bottom boundary carries the data, the top is grounded.  nx lateral
    nodes (periodic), ny vertical intervals.
    """

    width: float
    height: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise OperatorError("strip dimensions must be positive")
        if self.nx < 4 or self.ny < 2:
            raise OperatorError("need nx >= 4 and ny >= 2")
        nodes = self.nx * (self.ny + 1)
        if nodes > _STRIP_NODE_CAP:
            raise OperatorError(
                f"strip would hold {nodes} nodes, above the desk-scale "
                f"strip budget {_STRIP_NODE_CAP}")

    @property
    def dx(self) -> float:
        return self.width / self.nx

    @property
    def dy(self) -> float:
        return self.height / self.ny

    def x_nodes(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx


def _mode_rates(p: StripProblem) -> np.ndarray:
    k = np.arange(p.nx // 2 + 1)
    return 2.0 * (1.0 - np.cos(2.0 * math.pi * k / p.nx)) / p.dx ** 2


def _mode_profiles(p: StripProblem, rows: np.ndarray) -> np.ndarray:
    """Decay profile per Fourier mode at the vertical node indices rows.

    Shape (len(rows), modes).  Solves the vertical three-term recurrence in
    closed form: the discrete rate mu satisfies cosh(mu dy) = 1 + lam dy^2/2
    and the profile is sinh(mu (H - y)) / sinh(mu H), evaluated in
    overflow-safe form.
    """
    lam = _mode_rates(p)
    y = rows * p.dy
    out = np.empty((y.size, lam.size))
    out[:, 0] = 1.0 - y / p.height
    if lam.size > 1:
        t = 1.0 + lam[1:] * p.dy ** 2 / 2.0
        mu = np.arccosh(t) / p.dy
        a = np.outer(p.height - y, mu)
        b = mu * p.height
        out[:, 1:] = np.exp(a - b) * (-np.expm1(-2.0 * a)) / (-np.expm1(-2.0 * b))
    return out


def dtn_solve(p: StripProblem, g, method: str = "modes") -> np.ndarray:
    """Harmonic extension of bottom data; rows run bottom to top.

    method "modes" solves mode by mode in the lateral Fourier basis;
    "direct" solves the sparse 5-point system with scipy, imported on its
    first use, and is the reference.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (p.nx,):
        raise OperatorError(f"boundary data shape {g.shape} != ({p.nx},)")
    if method == "modes":
        ghat = np.fft.rfft(g)
        prof = _mode_profiles(p, np.arange(p.ny + 1))
        return np.fft.irfft(prof * ghat[None, :], n=p.nx, axis=1)
    if method == "direct":
        from scipy.sparse.linalg import spsolve

        mat, load = strip_system(p)
        out = np.zeros((p.ny + 1, p.nx))
        out[0] = g
        out[1:p.ny] = spsolve(mat.tocsc(), load(g)).reshape(p.ny - 1, p.nx)
        return out
    raise OperatorError(f"unknown method {method!r}")


def strip_system(p: StripProblem):
    """Sparse 5-point system for the interior unknowns, and the rhs map.

    Returns (matrix, load) where matrix is a scipy CSR matrix (scipy is
    imported on the first call) and load(g) builds the right-hand side from
    bottom data.  The matrix is the negative Laplacian: positive diagonal,
    nonpositive off-diagonal, weakly diagonally dominant (an M-matrix),
    which is the discrete form of the comparison property here.
    """
    from scipy import sparse

    nx, ny = p.nx, p.ny - 1
    ax = 1.0 / p.dx ** 2
    ay = 1.0 / p.dy ** 2
    ex = sparse.diags([np.full(nx - 1, -ax), np.full(nx, 2.0 * ax),
                       np.full(nx - 1, -ax)], [-1, 0, 1], format="lil")
    ex[0, -1] -= ax
    ex[-1, 0] -= ax
    ix = sparse.identity(nx)
    iy = sparse.identity(ny)
    ey = sparse.diags([np.full(ny - 1, -ay), np.full(ny, 2.0 * ay),
                       np.full(ny - 1, -ay)], [-1, 0, 1])
    mat = (sparse.kron(iy, ex.tocsr()) + sparse.kron(ey, ix)).tocsr()

    def load(g):
        rhs = np.zeros(nx * ny)
        rhs[:nx] = ay * np.asarray(g, dtype=float)
        return rhs

    return mat, load


def boundary_derivative(p: StripProblem, u: np.ndarray) -> np.ndarray:
    """Inward normal derivative at the bottom from the solved field.

    One-sided difference plus the harmonicity correction: the vertical
    curvature at the boundary equals minus the lateral curvature of the
    data, so (u1 - u0)/dy + (dy/2) * d2g/dx2 is second-order accurate.
    """
    if u.shape[1] != p.nx:
        raise OperatorError("field does not match the strip")
    g = u[0]
    lateral = (np.roll(g, -1) - 2.0 * g + np.roll(g, 1)) / p.dx ** 2
    return (u[1] - u[0]) / p.dy + 0.5 * p.dy * lateral


def _boundary_symbol(p: StripProblem) -> np.ndarray:
    """Fourier multiplier of `boundary_derivative` on the mode-by-mode
    solution: reads only the first interior row of the profiles."""
    first = _mode_profiles(p, np.arange(1, 2))[0]
    return (first - 1.0) / p.dy - 0.5 * p.dy * _mode_rates(p)


def dtn_kernel(p: StripProblem) -> np.ndarray:
    """First row of the circulant boundary-derivative map.

    Row sum is exactly -1/height (the constant mode), off-center entries
    are nonnegative: the map passes the comparison sign test.
    """
    return np.fft.irfft(_boundary_symbol(p), n=p.nx)


def dtn_matrix(p: StripProblem) -> np.ndarray:
    row = dtn_kernel(p)
    idx = (np.arange(p.nx)[None, :] - np.arange(p.nx)[:, None]) % p.nx
    return row[idx]


def dtn_apply(p: StripProblem, g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (p.nx,):
        raise OperatorError(f"boundary data shape {g.shape} != ({p.nx},)")
    return np.fft.irfft(_boundary_symbol(p) * np.fft.rfft(g), n=p.nx)
