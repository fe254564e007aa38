"""Extension of lattice data off the lattice, and the projection built on it.

The extension blends, with the cube partition weights, polynomials anchored
at the node owning each active cube.  Polynomial degree follows the declared
regularity case (constant / affine / quadratic); derivative coefficients are
the discrete stencils of the node data, read with zero padding outside the
box.  On the lattice the extension reproduces the data exactly; across a
node it stays continuous because every nearby anchored polynomial converges
to the node value.

Projection = restrict then extend.  At nodes the projected gradient and
Hessian are the discrete stencils themselves, which makes local operators
applied to projections coincide with classical finite-difference schemes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .calculus import dgrad, dgrad_padded, dhess_padded
from .grid import (DyadicGrid, GridError, GridFunction, RegularityClass,
                   restrict)


@dataclass(frozen=True)
class InterpPoly:
    """Taylor-type polynomial anchored at one node of a grid function.

    Coefficients are the padded discrete stencils at the anchor; degree is
    the regularity case.  Matches the polynomials blended by the extension.
    """

    anchor_index: tuple
    anchor: np.ndarray
    value: float
    grad: np.ndarray | None
    hess: np.ndarray | None
    case: int

    def __call__(self, x) -> float:
        dx = np.asarray(x, dtype=float) - self.anchor
        acc = self.value
        if self.case >= 1:
            acc += float(self.grad @ dx)
        if self.case >= 2:
            acc += 0.5 * float(dx @ self.hess @ dx)
        return acc


def interp_poly(u: GridFunction, x_index, smoothness: RegularityClass) -> InterpPoly:
    idx = tuple(int(i) for i in np.atleast_1d(x_index))
    case = smoothness.case
    g = dgrad_padded(u, idx) if case >= 1 else None
    h = dhess_padded(u, idx) if case >= 2 else None
    return InterpPoly(anchor_index=idx, anchor=u.grid.point_of(idx),
                      value=u.pad(idx), grad=g, hess=h, case=case)


class ExtendedFn:
    """Callable extension of node data to all points.

    Accepts a single point (scalar in 1-d, shape (d,) otherwise) or a batch
    of shape (m, d).  Node values reproduce the data; off-lattice values are
    the weighted polynomial blend.  Points closer to a node than the
    generation cap resolves return the node value (the blend converges
    there, so this stays continuous).
    """

    def __init__(self, u: GridFunction, smoothness: RegularityClass):
        self.node_data = u
        self.grid = u.grid
        self.smoothness = smoothness
        self._flat = u.values.ravel().tolist()

    def values(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        d = self.grid.dim
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1) if d == 1 else pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != d:
            raise GridError(f"expected points of shape (m, {d}), got {pts.shape}")
        out = _kernels.extend_many(pts, self._flat, self.grid.half_count, d,
                                   self.grid.spacing, self.smoothness.case)
        if np.any(np.isnan(out)):
            bad = pts[int(np.argmax(np.isnan(out)))]
            raise GridError(f"no active cube at {bad.tolist()}; cover failed")
        return out

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return float(self.values(x.reshape(1, 1))[0])
        if x.ndim == 1 and (self.grid.dim > 1 or x.size == 1):
            return float(self.values(x.reshape(1, -1))[0])
        return self.values(x)


def extend(u: GridFunction, smoothness: RegularityClass) -> ExtendedFn:
    return ExtendedFn(u, smoothness)


class ProjectedFn:
    """Restrict-then-extend of a function; duck-types the smooth-data API.

    value/values evaluate the extension.  grad and hess at lattice nodes are
    the padded discrete stencils of the node data; off the lattice they are
    central differences of the extension with a spacing-scaled step (plumbing
    accuracy only).
    """

    def __init__(self, extension: ExtendedFn, name: str = ""):
        self.extension = extension
        self.node_data = extension.node_data
        self.grid = extension.grid
        self.cls = extension.smoothness
        self.name = name or "projection"

    def value(self, x) -> float:
        return float(self.extension(np.asarray(x, dtype=float)))

    def values(self, pts) -> np.ndarray:
        return self.extension.values(pts)

    def _node_index(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        h = self.grid.spacing
        idx = np.floor(x / h + 0.5).astype(int)
        if np.max(np.abs(x - idx * h)) < _kernels.SNAP_TOL_UNIT * h:
            return tuple(int(i) for i in idx)
        return None

    def grad(self, x) -> np.ndarray:
        idx = self._node_index(x)
        if idx is not None:
            return dgrad_padded(self.node_data, idx)
        return self._fd_grad(np.atleast_1d(np.asarray(x, dtype=float)))

    def hess(self, x) -> np.ndarray:
        idx = self._node_index(x)
        if idx is not None:
            return dhess_padded(self.node_data, idx)
        return self._fd_hess(np.atleast_1d(np.asarray(x, dtype=float)))

    def _fd_grad(self, x) -> np.ndarray:
        d = self.grid.dim
        step = self.grid.spacing / 16.0
        out = np.empty(d)
        for i in range(d):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            out[i] = (self.value(xp) - self.value(xm)) / (2.0 * step)
        return out

    def _fd_hess(self, x) -> np.ndarray:
        d = self.grid.dim
        step = self.grid.spacing / 8.0
        out = np.empty((d, d))
        f0 = self.value(x)
        for i in range(d):
            for j in range(i, d):
                if i == j:
                    xp, xm = x.copy(), x.copy()
                    xp[i] += step
                    xm[i] -= step
                    out[i, i] = (self.value(xp) - 2.0 * f0 + self.value(xm)) / step ** 2
                else:
                    xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
                    xpp[[i, j]] += step
                    xmm[[i, j]] -= step
                    xpm[i] += step
                    xpm[j] -= step
                    xmp[i] -= step
                    xmp[j] += step
                    v = (self.value(xpp) - self.value(xpm)
                         - self.value(xmp) + self.value(xmm)) / (4.0 * step ** 2)
                    out[i, j] = v
                    out[j, i] = v
        return out


def project(f, g: DyadicGrid, smoothness: RegularityClass | None = None) -> ProjectedFn:
    """Sample f on the grid and extend back; the discretization projector."""
    if smoothness is None:
        smoothness = getattr(f, "cls", RegularityClass(2.0))
    u = restrict(f, g)
    name = getattr(f, "name", "") or "fn"
    return ProjectedFn(extend(u, smoothness), name=f"proj[{name}]")


@dataclass(frozen=True)
class HolderEstimate:
    """Sampled lower bound of a Holder-type norm (never an upper bound)."""

    value: float
    sup_norm: float
    seminorm: float
    exponent: float
    derivative_order: int
    samples: int


def holder_norm(f, smoothness: RegularityClass, dim: int, box_radius: float = 1.0,
                samples: int = 300, seed: int = 0) -> HolderEstimate:
    """Monte-Carlo lower bound of the Holder norm of f on a box.

    Samples the top derivative (by central differences unless f exposes
    exact derivative callables) at random points and maximizes the Holder
    quotient over sampled pairs, including tight pairs to probe the local
    seminorm.  Strict integer classes carry no seminorm and report 0 there.
    """
    rng = np.random.default_rng(seed)
    val = f.value if hasattr(f, "value") else f
    m = smoothness.derivative_order
    s = smoothness.holder_exponent

    def top(x):
        if m == 0:
            return np.array([val(x)])
        if m == 1:
            if hasattr(f, "grad"):
                try:
                    return np.asarray(f.grad(x), dtype=float).ravel()
                except GridError:
                    pass
            return _fd_vec(val, x, dim, 1)
        if hasattr(f, "hess"):
            try:
                return np.asarray(f.hess(x), dtype=float).ravel()
            except GridError:
                pass
        return _fd_vec(val, x, dim, 2)

    pts = rng.uniform(-box_radius, box_radius, size=(samples, dim))
    sup = 0.0
    tops = []
    for p in pts:
        sup = max(sup, abs(val(p)))
        tops.append(top(p))
    semi = 0.0
    if s > 0.0:
        for i in range(0, samples - 1, 2):
            dist = float(np.linalg.norm(pts[i] - pts[i + 1]))
            if dist > 1e-9:
                semi = max(semi, float(np.max(np.abs(tops[i] - tops[i + 1]))) / dist ** s)
        for i in range(0, samples, 4):
            q = pts[i] + rng.uniform(-1e-2, 1e-2, size=dim)
            dist = float(np.linalg.norm(pts[i] - q))
            if dist > 1e-9:
                semi = max(semi, float(np.max(np.abs(tops[i] - top(q)))) / dist ** s)
    return HolderEstimate(value=sup + semi, sup_norm=sup, seminorm=semi,
                          exponent=s, derivative_order=m, samples=samples)


def _fd_vec(val, x, dim: int, order: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if order == 1:
        step = 1e-6
        out = np.empty(dim)
        for i in range(dim):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            out[i] = (val(xp) - val(xm)) / (2.0 * step)
        return out
    step = 1e-4
    out = np.empty((dim, dim))
    f0 = val(x)
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                xp, xm = x.copy(), x.copy()
                xp[i] += step
                xm[i] -= step
                out[i, i] = (val(xp) - 2.0 * f0 + val(xm)) / step ** 2
            else:
                xpp, xmm, xpm, xmp = x.copy(), x.copy(), x.copy(), x.copy()
                xpp[[i, j]] += step
                xmm[[i, j]] -= step
                xpm[i] += step
                xpm[j] -= step
                xmp[i] -= step
                xmp[j] += step
                v = (val(xpp) - val(xpm) - val(xmp) + val(xmm)) / (4.0 * step ** 2)
                out[i, j] = v
                out[j, i] = v
    return out.ravel()


def order_preservation_defect(f_low, f_high, g: DyadicGrid,
                              smoothness: RegularityClass,
                              samples: int = 400, seed: int = 0) -> float:
    """Worst violation of ordering by the projector, sampled on the box.

    Requires f_low <= f_high on the nodes (checked); returns the sampled sup
    of the positive part of (proj f_low - proj f_high).  For Holder data
    this decays like a power of the spacing as the level grows.
    """
    u_low = restrict(f_low, g)
    u_high = restrict(f_high, g)
    gap = u_low.values - u_high.values
    if float(gap.max()) > 1e-12:
        raise GridError("f_low exceeds f_high on the grid; defect undefined")
    e_low = extend(u_low, smoothness)
    e_high = extend(u_high, smoothness)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-g.box_radius, g.box_radius, size=(samples, g.dim))
    diff = e_low.values(pts) - e_high.values(pts)
    return float(max(0.0, diff.max()))


@dataclass(frozen=True)
class MinGradientReport:
    """Discrete first-order condition at an interior minimum."""

    index: tuple
    point: np.ndarray
    value: float
    grad: np.ndarray
    grad_norm: float
    spacing: float

    @property
    def ratio(self) -> float:
        return self.grad_norm / self.spacing


def discrete_min_gradient_bound(w: GridFunction) -> MinGradientReport:
    """Locate the interior node minimizing w and report its discrete gradient.

    At an interior grid minimum each centered difference is a difference of
    two nonnegative one-sided slopes, so the gradient norm is bounded by the
    spacing times the second-difference scale; the ratio field exposes the
    constant.
    """
    g = w.grid
    half = g.half_count
    if half < 2:
        raise GridError("grid too small for an interior minimum")
    vals = w.values
    inner = vals[(slice(1, -1),) * g.dim]
    pos = np.unravel_index(int(np.argmin(inner)), inner.shape)
    idx = tuple(int(p) + 1 - half for p in pos)
    grad = dgrad(w, idx)
    return MinGradientReport(index=idx, point=g.point_of(idx),
                             value=w.value(idx), grad=grad,
                             grad_norm=float(np.max(np.abs(grad))),
                             spacing=g.spacing)
