"""Dyadic lattices, grid functions, and pointwise smooth-function data.

The lattice at refinement level ``n`` has spacing ``2**-n`` and carries real
values on the nodes of a centered box.  Node coordinates are stored as exact
integer multi-indices scaled by the spacing, so translation, nesting and
restriction tests are free of float drift.  Reads outside the box return 0,
matching the convention that grid functions vanish outside their box;
``_shifted`` is the one zero-padded lattice shift of whole arrays.  A grid
function is a read-only array with no algebra or serialization of its own:
callers combine ``values`` and write the reports they need.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
import numpy as np


class GridError(ValueError):
    pass


# desk-scale node budgets: the default boxes at levels 6, 4 and 3 in dims 1-3
_NODE_CAPS = {1: 2 * 4096 + 1, 2: 513 ** 2, 3: 129 ** 3}
# strip node budget nx (ny + 1): the default `levymm dtn` strip at level 13
_STRIP_LEVEL_CAP = 13
_STRIP_NODE_CAP = 2 ** _STRIP_LEVEL_CAP * (2 ** (_STRIP_LEVEL_CAP - 1) + 1)


@dataclass(frozen=True)
class RegularityClass:
    """Smoothness label beta in (0,3).

    An integer exponent means "derivatives up to beta-1 plus a Lipschitz
    top derivative", the paper's convention (so beta=2 is C^{1,1}).
    """

    exponent: float

    def __post_init__(self):
        if not (0.0 < self.exponent < 3.0):
            raise GridError(f"regularity exponent must lie in (0,3), got {self.exponent}")

    @property
    def case(self) -> int:
        """0: constants, 1: affine data (beta>=1), 2: quadratic data (beta>=2)."""
        b = self.exponent
        if b < 1.0:
            return 0
        if b < 2.0:
            return 1
        return 2

    @property
    def derivative_order(self) -> int:
        """Order m of the highest derivative carried by the class."""
        b = self.exponent
        if b == int(b):
            return int(b) - 1
        return int(math.floor(b))

    @property
    def holder_exponent(self) -> float:
        """Seminorm exponent s of the top derivative; s=1 means Lipschitz."""
        b = self.exponent
        if b == int(b):
            return 1.0
        return b - math.floor(b)


class SmoothFn:
    """Pointwise data of a function: value, gradient and Hessian evaluators.

    Parameters
    ----------
    value : callable
        x (shape (d,)) -> float.
    grad : callable or None
        x -> ndarray (d,).  Required when cls.case >= 1.
    hess : callable or None
        x -> ndarray (d,d).  Required when cls.case >= 2.
    cls : RegularityClass
        Declared smoothness of the data.
    values, grads, hessians : callable or None
        Batch forms of value, grad and hess: (m, d) points -> arrays of
        shape (m,), (m, d) and (m, d, d).  Without one, the batch method
        calls the pointwise evaluator once per point.
    """

    def __init__(self, value, grad=None, hess=None,
                 cls: RegularityClass = RegularityClass(2.0),
                 name: str = "", values=None, grads=None, hessians=None):
        self._value = value
        self._grad = grad
        self._hess = hess
        self._values = values
        self._grads = grads
        self._hessians = hessians
        self.cls = cls
        self.name = name

    def value(self, x) -> float:
        v = float(self._value(np.asarray(x, dtype=float)))
        return v

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self._values is not None:
            return np.asarray(self._values(pts), dtype=float)
        return np.array([self.value(p) for p in pts], dtype=float)

    def grad(self, x) -> np.ndarray:
        if self._grad is None:
            raise GridError(f"function {self.name!r} carries no gradient data")
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def hess(self, x) -> np.ndarray:
        if self._hess is None:
            raise GridError(f"function {self.name!r} carries no Hessian data")
        return np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)

    def grads(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self._grads is not None:
            return np.asarray(self._grads(pts), dtype=float)
        return np.array([self.grad(p) for p in pts], dtype=float).reshape(pts.shape)

    def hessians(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if self._hessians is not None:
            return np.asarray(self._hessians(pts), dtype=float)
        d = pts.shape[1]
        return np.array([self.hess(p) for p in pts],
                        dtype=float).reshape(pts.shape[0], d, d)


@dataclass(frozen=True)
class DyadicGrid:
    """Truncated dyadic lattice: spacing 2**-level, box [-box_radius, box_radius]^dim.

    box_radius defaults to 2**level and must be a positive multiple of the
    spacing so that the box boundary lies on nodes.
    """

    level: int
    dim: int
    box_radius: float = -1.0  # sentinel: default 2**level

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise GridError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (isinstance(self.level, (int, np.integer)) and 0 <= self.level <= 20):
            raise GridError(f"level must be an integer in [0, 20], got {self.level}")
        if self.box_radius == -1.0:
            object.__setattr__(self, "box_radius", float(2 ** self.level))
        r = self.box_radius
        n_half = r / self.spacing
        if not (r > 0 and abs(n_half - round(n_half)) < 1e-9):
            raise GridError(f"box_radius {r} is not a positive multiple of spacing {self.spacing}")
        if self.node_count > _NODE_CAPS[self.dim]:
            raise GridError(
                f"grid would hold {self.node_count} nodes, above the "
                f"desk-scale cap {_NODE_CAPS[self.dim]} for dim {self.dim} "
                f"(shrink box_radius to go finer)")

    @property
    def spacing(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def half_count(self) -> int:
        """N such that node indices run over [-N, N]^dim."""
        return int(round(self.box_radius / self.spacing))

    @property
    def shape(self) -> tuple:
        n = 2 * self.half_count + 1
        return (n,) * self.dim

    @property
    def node_count(self) -> int:
        return (2 * self.half_count + 1) ** self.dim

    def point_of(self, index) -> np.ndarray:
        return np.asarray(index, dtype=float) * self.spacing

    def contains_index(self, index) -> bool:
        return bool(np.all(np.abs(np.asarray(index)) <= self.half_count))

    def indices(self) -> np.ndarray:
        """All node indices, shape (node_count, dim), lexicographic order.

        The array is shared between calls and read-only."""
        return _index_array(self.level, self.dim, self.half_count)

    def points(self) -> np.ndarray:
        return self.indices() * self.spacing


@lru_cache(maxsize=32)
def _index_array(level: int, dim: int, half: int) -> np.ndarray:
    """Node indices of a grid, shared by every grid with these parameters,
    so read-only."""
    ax = np.arange(-half, half + 1, dtype=np.int64)
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    out = np.stack([g.ravel() for g in grids], axis=-1)
    out.setflags(write=False)
    return out


class GridFunction:
    """Real values on the nodes of a DyadicGrid.  Immutable after construction.

    Reads at indices outside the box return 0 (``pad``); the strict accessor
    ``value`` raises instead.  This zero-padding is the declared out-of-box
    policy for translated data.
    """

    def __init__(self, grid: DyadicGrid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise GridError(f"values shape {values.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0] - grid.half_count
            raise GridError(f"non-finite value at node {tuple(int(b) for b in bad)}")
        self.grid = grid
        self._values = values.copy()
        self._values.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def _pos(self, index) -> tuple:
        n = self.grid.half_count
        return tuple(int(i) + n for i in np.atleast_1d(np.asarray(index, dtype=np.int64)))

    def value(self, index) -> float:
        if not self.grid.contains_index(index):
            raise GridError(f"node {index} outside box of half-count {self.grid.half_count}")
        return float(self._values[self._pos(index)])

    def pad(self, index) -> float:
        """Zero-padded read: 0 for indices outside the box."""
        if not self.grid.contains_index(index):
            return 0.0
        return float(self._values[self._pos(index)])

    def flat(self) -> np.ndarray:
        return self._values.ravel()


def restrict(u: SmoothFn, g: DyadicGrid) -> GridFunction:
    """Sample a function on every node of the grid."""
    pts = g.points()
    vals = u.values(pts)
    if not np.all(np.isfinite(vals)):
        bad = pts[~np.isfinite(vals)][0]
        raise GridError(f"non-finite sample at node {tuple(bad)}")
    return GridFunction(g, vals.reshape(g.shape))


def _shifted(values: np.ndarray, offset) -> np.ndarray:
    """Zero-padded shifted read: out[i] = values[i + offset]."""
    out = np.zeros_like(values)
    src, dst = [], []
    for o, n in zip(offset, values.shape):
        o = int(o)
        if abs(o) >= n:
            return out
        if o >= 0:
            src.append(slice(o, n))
            dst.append(slice(0, n - o))
        else:
            src.append(slice(0, n + o))
            dst.append(slice(-o, n))
    out[tuple(dst)] = values[tuple(src)]
    return out


def translate(u: GridFunction, z) -> GridFunction:
    """Shifted copy: result(x) = u(x + z) with zero padding outside the box.

    z must lie on the lattice (given either as an index vector of ints or as
    a point whose coordinates are multiples of the spacing).
    """
    g = u.grid
    z = np.asarray(z)
    if np.issubdtype(z.dtype, np.integer):
        zidx = z.astype(np.int64)
    else:
        q = z.astype(float) / g.spacing
        zidx = np.rint(q).astype(np.int64)
        if np.max(np.abs(q - zidx)) > 1e-9:
            raise GridError(f"shift {z} is not on the level-{g.level} lattice")
    if zidx.shape != (g.dim,):
        raise GridError(f"shift {z} does not have {g.dim} components")
    return GridFunction(g, _shifted(u.values, zidx))
