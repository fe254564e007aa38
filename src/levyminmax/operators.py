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

Every operator here has an exact Clarke Jacobian under one term protocol,
which `clarke` takes instead of measuring anything:
  * `jacobian_rows(rows, v)` hands back the Jacobian entries at v of the
    nodes in rows as flat (row, column, weight) arrays, with two flags per
    asked row: NaN across, and a kink (`_Rows`);
  * `bound(v, shift)` bounds, row by row, how far the computed value of
    f(v) + shift may lie from the exact one;
  * `jacobian(v) -> (matrix, kink)` assembles every row's entries into one
    `grid.SparseRows` (`_Term`), so no n x n array is made.
A linear stencil or a `MatrixTerm` hands back its own rows and is never a
kink.  Pucci and Monge-Ampere are envelopes of the linear maps
u -> tr(A D2_h u), so row i is the centred Hessian stencil weighted by the
optimal A*_i, from one Hessian field and one batched `eigh`, and a kink
where an eigenvalue lies within its rounding bound of 0.  A row whose
Hessian is not finite, and a Monge-Ampere row off convexity, where the value
is -inf, are NaN across, as the column loop reads them, and kinks.  A
Bellman or Isaacs envelope takes each row from the term active there, and
that row is a kink where two terms tie within their bounds or where the
active term's own row is a kink.  An envelope with a plain callable term
has no exact Jacobian (None).

An envelope also names each row's active term at v (`active_terms`).  One
of stencil and matrix terms hands back its rows' lines along a segment
[v, u], their crossings and the terms active between (`segment_pieces`):
with no matrix, the inner layer of `clarke.minmax_eval` (`segment_max`)
and the witness of `clarke.mean_value_residual`.

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
from .grid import _STRIP_NODE_CAP, DyadicGrid, GridError, SparseRows, _shifted
from .levy import LevyMeasure, LevyOperator


class OperatorError(GridError):
    """Raised for ill-posed operator assembly requests."""


class _Rows(NamedTuple):
    """Jacobian entries of some asked rows: entry e sits at (row[e], col[e])
    with weight data[e].  nan and kink flag the asked rows, in their order:
    NaN across (no entries), and a kink."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    nan: np.ndarray
    kink: np.ndarray


def _linear_rows(rows: np.ndarray, entries: tuple) -> _Rows:
    """Entries of rows of a map that is linear near v: no NaN, no kink."""
    none = np.zeros(len(rows), dtype=bool)
    return _Rows(*entries, none, none)


def _scatter(shape: tuple, rows: np.ndarray, offs, wts) -> tuple:
    """Entries (i, i + off) = weight for every row i in rows and offset, as
    (row, column, weight) arrays.

    offs are distinct integer offsets, so they reach distinct columns and
    every entry is made once, for all offsets at once; wts holds one weight
    per offset, shared by all rows, or one row of weights per offset (shape
    (offsets, rows)).  Reads outside the box are dropped.
    """
    offs = np.array(offs, dtype=np.int64).reshape(-1, len(shape)).T[:, :, None]
    tgt = np.array(np.unravel_index(rows, shape))[:, None, :] + offs
    size = np.array(shape)[:, None, None]
    k, r = np.nonzero(np.all((tgt >= 0) & (tgt < size), axis=0))
    cols = np.ravel_multi_index(tgt[:, k, r], shape)
    wts = np.asarray(wts, dtype=float)
    return rows[r], cols, wts[k, r] if wts.ndim == 2 else wts[k]


class _Term:
    """Exact Jacobian of an operator that hands back its `jacobian_rows`."""

    def jacobian(self, v: np.ndarray) -> tuple | None:
        """Every row's entries as one `SparseRows`, and whether a row is a
        kink; None for an envelope with a term that has no rows (a plain
        callable)."""
        if not all(hasattr(f, "jacobian_rows") for f in _leaves(self)):
            return None
        v = np.asarray(v, dtype=float)
        got = self.jacobian_rows(np.arange(v.size), v)
        matrix = SparseRows.from_entries(got.row, got.col, got.data,
                                         (v.size, v.size), got.nan)
        return matrix, bool(np.any(got.kink))


def _affine_bound(m: int, rho: float, v: np.ndarray, shift) -> np.ndarray:
    """Rounding of a row that sums m products and the shift, rho bounding
    the absolute sum of the row's weights: gamma_(m+1) (rho |v|_inf + |shift|),
    |v|_inf over the finite entries (a row reading another is not finite)."""
    peak = float(np.max(np.abs(v), initial=0.0, where=np.isfinite(v)))
    return _gamma(m + 1) * (rho * peak + np.abs(shift))


@dataclass(frozen=True)
class StencilOperator(_Term):
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

    def bound(self, v: np.ndarray, shift) -> np.ndarray:
        return _affine_bound(len(self.kernel), float(sum(
            abs(w) for w in self.kernel.values())), v, shift)

    def jacobian_rows(self, rows: np.ndarray, v) -> _Rows:
        """The given rows of the kernel matrix, the same at every v."""
        return _linear_rows(rows, _scatter(self.grid.shape, rows, list(self.kernel),
                                           list(self.kernel.values())))

    def matrix(self) -> np.ndarray:
        """Dense kernel matrix, for a `MatrixTerm`: the Jacobian densified."""
        return self.jacobian(np.zeros(self.grid.node_count))[0].toarray()

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
    """Row-wise choice among stacked values, with its rounding bound, and
    the entries that the computed values cannot order from it (it among
    them)."""

    index: np.ndarray
    value: np.ndarray
    err: np.ndarray
    near: np.ndarray

    @property
    def tie(self) -> np.ndarray:
        """The rows where another entry is near the picked one."""
        return np.count_nonzero(self.near, axis=0) > 1


def _select(vals: np.ndarray, err: np.ndarray, pick) -> _Pick:
    """First maximiser or minimiser (pick = np.argmax, np.argmin) per row.

    An entry is near the picked one when it lies within the sum of its
    rounding bound and the picked entry's: the computed values cannot order
    the two, and a row with another near entry ties.  Two values at -inf
    (Monge-Ampere off convexity) are not near here; the active term flags
    its own row.
    """
    node = np.arange(vals.shape[1])
    index = pick(vals, axis=0)
    best, best_err = vals[index, node], err[index, node]
    with np.errstate(invalid="ignore"):
        near = np.abs(vals - best) <= err + best_err
    near[index, node] = True
    return _Pick(index, best, best_err, near)


class _Pieces(NamedTuple):
    """Slopes, active terms, breakpoints, piece terms (`segment_pieces`)."""
    e: np.ndarray
    active: np.ndarray
    breaks: np.ndarray
    term: np.ndarray


@dataclass(frozen=True)
class BellmanOp(_Term):
    """Componentwise upper envelope of operator terms.

    The envelope's Clarke Jacobian at v is the hull of the active terms'
    rows (Clarke 1983, section 2.6): row i takes the row of the first
    maximiser of f(v)_i + s_i.  Each term bounds the rounding of its own
    value (`bound`); a row where another term comes within the sum of the
    two bounds is a tie, which keeps the first maximiser and is a kink, as
    is a row where the active term's own row is one.  Terms on grids of
    different shapes are refused.
    """

    terms: tuple

    def __post_init__(self):
        _one_grid(self)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        vals = [np.asarray(f(v), dtype=float) + s for f, s in self.terms]
        return np.max(np.stack(vals), axis=0)

    def _stacked(self, v: np.ndarray) -> tuple:
        """Each term's value f(v) + s, and its rounding bound."""
        vals = np.stack([np.asarray(f(v), dtype=float) + s for f, s in self.terms])
        err = np.empty_like(vals)
        for k, (f, s) in enumerate(self.terms):
            err[k] = f.bound(v, s)
        return vals, err

    def bound(self, v: np.ndarray, shift) -> np.ndarray:
        """The one-team `IsaacsOp` case."""
        return IsaacsOp((self,)).bound(v, shift)

    def jacobian_rows(self, rows: np.ndarray, v) -> _Rows:
        """The one-team `IsaacsOp` case."""
        return IsaacsOp((self,)).jacobian_rows(rows, v)

    def active_terms(self, v: np.ndarray) -> tuple:
        """The one-team `IsaacsOp` case."""
        return IsaacsOp((self,)).active_terms(v)

    def segment_pieces(self, v: np.ndarray, u: np.ndarray) -> _Pieces | None:
        """The one-team `IsaacsOp` case."""
        return IsaacsOp((self,)).segment_pieces(v, u)

    def segment_max(self, v: np.ndarray, u: np.ndarray) -> np.ndarray | None:
        """The one-team `IsaacsOp` case."""
        return IsaacsOp((self,)).segment_max(v, u)


@dataclass(frozen=True)
class IsaacsOp(_Term):
    """Lower envelope of upper envelopes: min over teams, max within.

    Row i comes from the active term of the first minimising team; a tie
    between teams, or inside the team picked at i, is a kink, with the
    bounds of `BellmanOp`, and so is a kink of the active term's row.
    """

    teams: tuple

    def __post_init__(self):
        _one_grid(self)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        vals = [team(v) for team in self.teams]
        return np.min(np.stack(vals), axis=0)

    def _terms(self) -> list:
        """Every team's terms (f, s), team by team: the numbering of
        `active_terms`."""
        return [term for team in self.teams for term in team.terms]

    def _stacks(self, v: np.ndarray) -> list:
        """Each team's stacked values and rounding bounds at v."""
        v = np.asarray(v, dtype=float)
        return [team._stacked(v) for team in self.teams]

    def _choose(self, stacks: list) -> tuple:
        """The first maximiser of each team's `_stacked`, and the lowest team."""
        inner = [_select(vals, err, np.argmax) for vals, err in stacks]
        return inner, _select(np.stack([p.value for p in inner]),
                              np.stack([p.err for p in inner]), np.argmin)

    def bound(self, v: np.ndarray, shift) -> np.ndarray:
        """The active term's bound, which holds off ties (where the row is
        a kink), and the rounding of adding the shift."""
        outer = self._choose(self._stacks(v))[1]
        return outer.err + _gamma(1) * np.abs(outer.value + shift)

    def _term(self, inner: list, outer: _Pick) -> np.ndarray:
        """Per column of the choice, the active term, numbered team by team."""
        first = np.cumsum([0] + [len(team.terms) for team in self.teams])
        index = np.stack([p.index for p in inner])
        return first[outer.index] + index[outer.index, np.arange(outer.index.size)]

    def active_terms(self, v: np.ndarray) -> tuple:
        """Per row, the active term (`_term`), and whether the row ties:
        between teams, or inside the team picked."""
        inner, outer = self._choose(self._stacks(v))
        tied = np.stack([p.tie for p in inner])[outer.index,
                                                np.arange(outer.index.size)]
        return self._term(inner, outer), outer.tie | tied

    def jacobian_rows(self, rows: np.ndarray, v) -> _Rows:
        """Each row from its active term; a kink at ties and at the active
        term's kinks, NaN across where the active term's row is."""
        v = np.asarray(v, dtype=float)
        term, kink = self.active_terms(v)
        term, kink = term[rows], kink[rows]
        nan = np.zeros(len(rows), dtype=bool)
        parts = []
        for k, (f, _) in enumerate(self._terms()):
            mine = term == k
            if mine.any():
                got = f.jacobian_rows(rows[mine], v)
                kink[mine] |= got.kink
                nan[mine] = got.nan
                parts.append(got)
        row, col, data = (np.concatenate(e) for e in zip(*(p[:3] for p in parts)))
        return _Rows(row, col, data, nan, kink)

    @staticmethod
    def _near(inner: list, outer: _Pick) -> np.ndarray:
        """(terms, columns) mask of the terms that the choice cannot order
        from its pick: near the first minimising team, and inside a near
        team near its first maximiser."""
        return np.vstack([p.near & o for p, o in zip(inner, outer.near)])

    def segment_pieces(self, v: np.ndarray, u: np.ndarray) -> _Pieces | None:
        """The terms' lines along v + t (u - v), row by row, where they cross
        and which terms are active where; None unless every term is affine
        (a stencil or a `MatrixTerm`).

        Row i of term k is the line a_k + t e_k, a_k = f_k(v) + s_k and
        e_k = f_k(u) + s_k - a_k: in exact arithmetic e_k is f_k(u - v), and
        taken from the two computed values the line meets both, so a row
        carried by one term gives back T(u) to two roundings.  A row's
        breakpoints are 0, the pairwise crossings of its lines in (0, 1)
        (one outside reads 0) and 1; each piece between two takes the pick
        at its midpoint.  The active terms are those near the pick at v or
        at u within the rounding bounds of `_select`, and the pick at every
        breakpoint and midpoint.  No matrix and O(terms^2 n) work.
        """
        terms = self._terms()
        if not all(isinstance(f, (StencilOperator, MatrixTerm))
                   for f, _ in terms):
            return None
        ends = [self._stacks(x) for x in (v, u)]
        a = np.vstack([vals for vals, _ in ends[0]])
        e = np.vstack([vals for vals, _ in ends[1]]) - a
        active = self._near(*self._choose(ends[0])) | self._near(*self._choose(ends[1]))
        j, k = np.triu_indices(len(terms), 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (a[j] - a[k]) / (e[k] - e[j])
        cross = np.where((cross > 0.0) & (cross < 1.0), cross, 0.0)
        n = a.shape[1]
        ts = np.sort(np.vstack([np.zeros(n), cross, np.ones(n)]), axis=0)
        t = np.vstack([ts[1:-1], 0.5 * (ts[1:] + ts[:-1])])
        lines = (a[:, None, :] + t * e[:, None, :]).reshape(len(terms), -1)
        cut = np.cumsum([len(team.terms) for team in self.teams])[:-1]
        inner, outer = self._choose([(part, np.zeros_like(part))
                                     for part in np.split(lines, cut)])
        active |= self._near(inner, outer).reshape(len(terms), len(t), n).any(axis=1)
        term = self._term(inner, outer).reshape(len(t), n)[len(ts) - 2:]
        return _Pieces(e, active, ts, term)

    def segment_max(self, v: np.ndarray, u: np.ndarray) -> np.ndarray | None:
        """Row by row, the max of J (u - v) over the Clarke Jacobians on the
        segment [v, u]: the largest slope of an active term
        (`segment_pieces`); None unless every term is affine."""
        got = self.segment_pieces(v, u)
        return (None if got is None
                else np.max(np.where(got.active, got.e, -np.inf), axis=0))


def _leaves(op):
    """The terms inside an envelope, nested envelopes opened; else op."""
    if isinstance(op, IsaacsOp):
        for team in op.teams:
            yield from _leaves(team)
    elif isinstance(op, BellmanOp):
        for f, _ in op.terms:
            yield from _leaves(f)
    else:
        yield op


def _one_grid(op) -> None:
    """Refuse an envelope whose terms live on grids of different shapes."""
    shapes = list(dict.fromkeys(f.grid.shape for f in _leaves(op)
                                if hasattr(f, "grid")))
    if len(shapes) > 1:
        raise OperatorError(f"envelope terms live on grids of shapes "
                            f"{shapes[0]} and {shapes[1]}")


@dataclass(frozen=True, eq=False)
class MatrixTerm(_Term):
    """A dense matrix as an envelope term: v -> M v."""

    matrix: np.ndarray

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def bound(self, v: np.ndarray, shift) -> np.ndarray:
        return _affine_bound(self.matrix.shape[1], float(np.linalg.norm(
            self.matrix, np.inf)), v, shift)

    def jacobian_rows(self, rows: np.ndarray, v) -> _Rows:
        """The entries of the given rows of M other than +0.0, the same at
        every v."""
        part = np.asarray(self.matrix[rows], dtype=float)
        r, cols = np.nonzero((part != 0.0) | np.signbit(part))
        return _linear_rows(rows, (rows[r], cols, part[r, cols]))


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


def _hessians(grid: DyadicGrid, v: np.ndarray, rows=slice(None)) -> tuple:
    """The centred Hessians (d, d) of the given rows, and which are finite
    (`eigh` may return finite eigenvalues for a NaN diagonal)."""
    d = grid.dim
    hess = hessian_field(grid, v).reshape(-1, d, d)[rows]
    return hess, np.isfinite(hess).all(axis=(1, 2))


def _hessian_eigen(grid: DyadicGrid, v: np.ndarray, rows=slice(None)) -> tuple:
    """`eigh` of the rows' `_hessians`, the bound of `_eigen_bound` on each
    eigenvalue, and which Hessians are finite."""
    hess, finite = _hessians(grid, v, rows)
    e, q = np.linalg.eigh(hess)
    return e, q, _eigen_bound(grid, v, hess), finite


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
    Weyl's inequality adds the two.  |v|_inf runs over the finite entries:
    a row that reads another one has no finite Hessian.
    """
    d = grid.dim
    peak = float(np.max(np.abs(v), initial=0.0, where=np.isfinite(v)))
    rho = (d + 3) / grid.spacing ** 2
    frob = np.sqrt(np.sum(hess * hess, axis=(1, 2)))
    return _gamma(3) * rho * peak + _gamma(4 * d * d) * frob


def _scatter_hessian(grid: DyadicGrid, rows: np.ndarray, a: np.ndarray) -> tuple:
    """Entries of the rows of v -> tr(A_i D2_h v)_i, D2_h the centred Hessian
    stencil of `hessian_field` and A_i = a[r] the symmetric matrix of row
    rows[r], as `_scatter` makes them.

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
    return _scatter(grid.shape, rows, offs, np.stack(wts))


def _from_eigen(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The matrices Q diag(w) Q^T, row by row."""
    return (q * w[:, None, :]) @ np.swapaxes(q, 1, 2)


@dataclass(frozen=True)
class PucciOp(_Term):
    """Extremal second-order operator from the centered Hessian field.

    Pucci is the max (or min) over A with spectrum in [lam, big] of
    tr(A D2_h u), attained at A* = big P+ + lam P- (the roles swap for
    "min"), P+ and P- the projections on the eigenvectors of the row's
    Hessian with positive and with nonpositive eigenvalues.  So row i of
    the Jacobian is the centred stencil weighted by A*_i, from one Hessian
    field and one batched `eigh`, with no operator call.
    A row whose eigenvalues all share a sign takes A* = big I or lam I
    exactly (P+ + P- = I).  P+ and P- switch where an eigenvalue crosses 0,
    so a row is a kink when some computed eigenvalue lies within its
    rounding bound of 0 (`_eigen_bound`); with lam == big nothing switches
    and no row is a kink.  A row whose Hessian is not finite (data with a
    NaN or infinite node within reach) has value NaN, is NaN across, as the
    column loop reads it, and is a kink.  The value is big-Lipschitz in each
    eigenvalue, so it rounds by at most big d times the eigenvalues' bound,
    plus the rounding of the weighted sum and the shift.
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

    def __call__(self, v: np.ndarray) -> np.ndarray:
        hess, finite = _hessians(self.grid, v)
        e = np.where(finite[:, None], np.linalg.eigvalsh(hess), math.nan)
        return pucci_extremal(e, self.lam, self.big, self.extremal)

    def bound(self, v: np.ndarray, shift) -> np.ndarray:
        d = self.grid.dim
        e, _, eig, _ = _hessian_eigen(self.grid, np.asarray(v, dtype=float))
        return (self.big * d * eig + _gamma(d + 2) * (
            self.big * np.sum(np.abs(e), axis=1) + np.abs(shift)))

    def jacobian_rows(self, rows: np.ndarray, v) -> _Rows:
        """The A*-weighted centred stencil of the given rows; NaN across,
        and a kink, where the row's Hessian is not finite."""
        e, q, bound, finite = _hessian_eigen(self.grid, np.asarray(v, dtype=float),
                                             rows)
        up, down = ((self.big, self.lam) if self.extremal == "max"
                    else (self.lam, self.big))
        w = np.where(e > 0.0, up, down)
        a = _from_eigen(q, w)
        same = np.all(w == w[:, :1], axis=1)
        a[same] = w[same, :1, None] * np.eye(self.grid.dim)
        kink = np.any(np.abs(e) <= bound[:, None], axis=1) & (self.lam < self.big)
        return _Rows(*_scatter_hessian(self.grid, rows[finite], a[finite]),
                     ~finite, kink | ~finite)


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


def _ma_value(e: np.ndarray, d: int) -> np.ndarray:
    """d (prod e)^(1/d) over the last axis; -inf where some e <= 0."""
    convex = np.all(e > 0.0, axis=-1)
    out = np.full(e.shape[:-1], -math.inf)
    good = np.prod(e[convex], axis=-1)
    out[convex] = d * good ** (1.0 / d)
    return out


@dataclass(frozen=True)
class MongeAmpereOp(_Term):
    """d det(D2 u)^(1/d) on the centered Hessian field; -inf off convexity,
    NaN where the Hessian is not finite.

    On a convex row this is the infimum of tr(A D2_h u) over det A = 1,
    attained at A* = det(H)^(1/d) H^(-1) (`ma_infimum`), so its Jacobian
    row is the centred stencil weighted by A*, from one Hessian field and
    one batched `eigh`, with no operator call.  A row off convexity, where
    T is -inf, is NaN across the row, as the column loop reads it
    (-inf - -inf), and is a kink, as is a row whose Hessian is not finite;
    so is a row with an eigenvalue within its rounding bound of 0
    (`_eigen_bound`), where convexity can switch.
    """

    grid: DyadicGrid

    def __call__(self, v: np.ndarray) -> np.ndarray:
        hess, finite = _hessians(self.grid, v)
        return np.where(finite, _ma_value(np.linalg.eigvalsh(hess), self.grid.dim),
                        math.nan)

    def bound(self, v: np.ndarray, shift) -> np.ndarray:
        """The spread of the value over eigenvalues within `_eigen_bound`
        of the computed ones, plus the rounding of the value and shift.

        The value is increasing and concave in the eigenvalues, so the
        spread is value(e) - value(e - bound) where every e - bound > 0.  A
        row with an eigenvalue at most -bound is -inf exactly (bound 0);
        any other row may be -inf or finite (bound inf).  The value rounds
        by gamma_(d+2) relatively, plus u |ln prod e| / d from the rounded
        power 1/d.
        """
        d = self.grid.dim
        e, _, eig, _ = _hessian_eigen(self.grid, np.asarray(v, dtype=float))
        eig = eig[:, None]
        value, low = _ma_value(e, d), _ma_value(e - eig, d)
        with np.errstate(invalid="ignore", divide="ignore"):
            power = 1.0 + np.abs(np.sum(np.log(e), axis=1)) / d
            spread = value - low + _gamma(d + 2) * (power * value + np.abs(shift))
        off = np.any(e + eig <= 0.0, axis=1)
        return np.where(np.isfinite(low), spread, np.where(off, 0.0, math.inf))

    def jacobian_rows(self, rows: np.ndarray, v) -> _Rows:
        """The A*-weighted centred stencil of the given convex rows with a
        finite Hessian; the others are NaN across and kinks."""
        d = self.grid.dim
        e, q, bound, finite = _hessian_eigen(self.grid, np.asarray(v, dtype=float),
                                             rows)
        convex = np.all(e > 0.0, axis=-1) & finite
        good = e[convex]
        w = np.prod(good, axis=-1, keepdims=True) ** (1.0 / d) / good
        return _Rows(*_scatter_hessian(self.grid, rows[convex],
                                       _from_eigen(q[convex], w)),
                     ~convex, ~convex | np.any(np.abs(e) <= bound[:, None], axis=1))


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
