"""Extension of lattice data off the lattice: the discretization projector.

The extension blends, with the cube partition weights, polynomials anchored
at the node owning each active cube.  Polynomial degree follows the declared
regularity case (constant / affine / quadratic); its coefficients are the
derivative fields of the node data (`calculus`), built once per extension
over the box plus its margin.  On the lattice the extension reproduces the
data exactly; across a node it stays continuous because every nearby
anchored polynomial converges to the node value.

Projection = restrict then extend, and `ExtendedFn` is that projection: it
carries the smooth-data API (value/values/grad/hess, name, cls).  At nodes
its gradient and Hessian are reads of the same fields, the discrete
stencils themselves, which makes local operators applied to projections
coincide with classical finite-difference schemes.

One-point reads skip the batch API: a point becomes d validated Python
floats once, `value` is one `_kernels.extend_point` call on them, and
`grad`/`hess` at a node index the fields with plain ints.  `values` loops
the same kernel over a batch below `_kernels.BATCH_MIN` points and runs
its NumPy batch form `extend_batch` from there on; all three give the same
bits at a point.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import _kernels
from .calculus import (FIELD_MARGIN, dgrad_padded, dhess_padded, fd_grad,
                       fd_hess, value_field)
from .grid import (DyadicGrid, GridError, GridFunction, RegularityClass,
                   restrict)


class ExtendedFn:
    """Extension of node data to all points; duck-types the smooth-data API.

    Calls accept a single point (scalar in 1-d, shape (d,) otherwise) or a
    batch of shape (m, d).  Node values reproduce the data; off-lattice
    values are the weighted polynomial blend.  Points closer to a node than
    the generation cap resolves return the node value (the blend converges
    there, so this stays continuous), and grad/hess there read the node's
    derivative fields (fresh copies; zeros beyond the fields' margin).
    Elsewhere grad/hess are central differences of the extension, step
    spacing/16 and /8 (plumbing only).  A point that is not d coordinates,
    finite in lattice units, raises GridError.
    """

    def __init__(self, u: GridFunction, smoothness: RegularityClass,
                 name: str = ""):
        self.node_data = u
        self.grid = u.grid
        self.cls = smoothness
        self.name = name or "projection"
        self.spacing = u.grid.spacing
        # half-width of the padded fields: node indices run over [-n, n]^d
        self.field_half = u.grid.half_count + FIELD_MARGIN
        # the spacing is a power of two, so x / spacing is finite exactly
        # when |x| is at most this (NaN compares false)
        self._coord_limit = np.finfo(float).max * self.spacing

    @cached_property
    def value_field(self) -> np.ndarray:
        """Node values, box plus margin (zeros in the margin)."""
        return value_field(self.node_data)

    @cached_property
    def grad_field(self) -> np.ndarray:
        """Central gradient field of the node data, box plus margin."""
        return dgrad_padded(self.node_data)

    @cached_property
    def hess_field(self) -> np.ndarray:
        """Forward Hessian field of the node data, box plus margin."""
        return dhess_padded(self.node_data)

    @cached_property
    def _fields(self) -> list:
        """Flat value, gradient and Hessian fields, as far as the case blends."""
        case = self.cls.case
        fields = [self.value_field]
        if case >= 1:
            fields.append(self.grad_field)
        if case >= 2:
            fields.append(self.hess_field)
        return [f.ravel() for f in fields]

    @cached_property
    def _coeffs(self) -> list:
        """`_fields` as lists of Python floats, for the scalar kernel."""
        return [f.tolist() for f in self._fields]

    def values(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        d = self.grid.dim
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1) if d == 1 else pts.reshape(1, -1)
        if pts.ndim != 2 or pts.shape[1] != d:
            raise GridError(f"expected points of shape (m, {d}), got {pts.shape}")
        finite = np.abs(pts) <= self._coord_limit
        if not finite.all():
            raise self._not_finite(pts[int(np.argmin(finite.all(axis=1)))].tolist())
        if len(pts) < _kernels.BATCH_MIN:
            out = _kernels.extend_many(pts, self._coeffs, self.field_half, d,
                                       self.spacing)
        else:
            out = _kernels.extend_batch(pts, self._fields, self.field_half, d,
                                        self.spacing)
        if np.any(np.isnan(out)):
            bad = pts[int(np.argmax(np.isnan(out)))]
            raise GridError(f"no active cube at {bad.tolist()}; cover failed")
        return out

    def __call__(self, x):
        a = np.asarray(x, dtype=float)
        if a.ndim == 0 or (a.ndim == 1 and (self.grid.dim > 1 or a.size == 1)):
            return self.value(a)
        return self.values(a)

    def _point(self, x) -> list:
        """One point as a list of d finite Python floats, else GridError."""
        a = np.asarray(x, dtype=float)
        d = self.grid.dim
        if a.ndim > 1 or a.size != d:
            raise GridError(f"expected one point of dimension {d}, "
                            f"got shape {a.shape}")
        xs = a.ravel().tolist()
        for v in xs:
            if not abs(v) <= self._coord_limit:
                raise self._not_finite(xs)
        return xs

    def _not_finite(self, xs: list) -> GridError:
        return GridError(f"non-finite point {xs} in lattice units of spacing "
                         f"{self.spacing}")

    def value(self, x) -> float:
        xs = self._point(x)
        out = _kernels.extend_point(xs, self._coeffs, self.field_half,
                                    self.grid.dim, self.spacing)
        if math.isnan(out):
            raise GridError(f"no active cube at {xs}; cover failed")
        return out

    def _snap(self, xs: list):
        """The node xs snaps to, as a list of ints, or None."""
        h = self.spacing
        return _kernels.snapped_node([v / h for v in xs])

    def _entry(self, field: np.ndarray, z: list) -> np.ndarray:
        """Copy of a field entry at node z; zeros beyond the margin."""
        n = self.field_half
        for zi in z:
            if zi < -n or zi > n:
                return np.zeros(field.shape[len(z):])
        return field[tuple(zi + n for zi in z)].copy()

    def grad(self, x) -> np.ndarray:
        xs = self._point(x)
        z = self._snap(xs)
        if z is None:
            return fd_grad(self.value, xs, self.spacing / 16.0)
        return self._entry(self.grad_field, z)

    def hess(self, x) -> np.ndarray:
        xs = self._point(x)
        z = self._snap(xs)
        if z is None:
            return fd_hess(self.value, xs, self.spacing / 8.0)
        return self._entry(self.hess_field, z)


def extend(u: GridFunction, smoothness: RegularityClass,
           name: str = "") -> ExtendedFn:
    return ExtendedFn(u, smoothness, name)


def project(f, g: DyadicGrid, smoothness: RegularityClass | None = None) -> ExtendedFn:
    """Sample f on the grid and extend back; the discretization projector."""
    if smoothness is None:
        smoothness = getattr(f, "cls", RegularityClass(2.0))
    u = restrict(f, g)
    name = getattr(f, "name", "") or "fn"
    return extend(u, smoothness, name=f"proj[{name}]")


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
