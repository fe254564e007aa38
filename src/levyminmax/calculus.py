"""The lattice derivative stencils, written once as whole-grid fields.

Field layer.  ``dgrad_padded(u)`` is the central gradient (symmetric
two-point quotient per axis) and ``dhess_padded(u)`` the forward four-point
Hessian, entry (k,l) built from x, x+h e_k, x+h e_l and x+h(e_k+e_l).  Both
are exact on quadratics, linear in the data and commute with lattice
translations.  They read the data zero-padded, through the lattice shift
``grid._shifted``, and cover the box plus a margin of ``FIELD_MARGIN`` = 2
nodes on each side: a node up to 2 outside the box still reaches box data
through the +2e_k Hessian read, and every node beyond that reads only
zeros, so its derivatives are 0.  The extension kernel takes its
polynomial coefficients from these fields, and ``ExtendedFn.grad``/``hess``
at nodes index them directly (zeros beyond the margin).

Strict reads.  ``dgrad(u, x)``/``dhess(u, x)`` evaluate the same builders on
the block of data around one node, and raise GridError when the stencil
leaves the box instead of reading padding: a silent one-sided fallback
would corrupt the rate studies.

The centred Hessian ``hessian_field`` is a separate stencil on purpose: its
second differences have nonnegative off-centre weights, which the sign test
for comparison needs (the forward stencil has a negative near weight).
Pucci and Monge-Ampere operators use it, and their exact Jacobians weight
its stencil row by row.

Off the lattice, ``fd_grad``/``fd_hess`` are the one central finite-difference
pair; each caller picks its step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .grid import DyadicGrid, GridError, GridFunction, _shifted

FIELD_MARGIN = 2


def _unit(d: int, k: int) -> np.ndarray:
    e = np.zeros(d, dtype=np.int64)
    e[k] = 1
    return e


def _grad_field(vals: np.ndarray, h: float) -> np.ndarray:
    d = vals.ndim
    out = np.empty(vals.shape + (d,))
    for k in range(d):
        e = _unit(d, k)
        out[..., k] = (_shifted(vals, e) - _shifted(vals, -e)) / (2.0 * h)
    return out


def _hess_field(vals: np.ndarray, h: float) -> np.ndarray:
    d = vals.ndim
    out = np.empty(vals.shape + (d, d))
    for k in range(d):
        ek = _unit(d, k)
        for l in range(d):
            el = _unit(d, l)
            out[..., k, l] = (_shifted(vals, ek + el) - _shifted(vals, ek)
                              - _shifted(vals, el) + vals) / h ** 2
    return out


def value_field(u: GridFunction) -> np.ndarray:
    """Node values zero-padded by FIELD_MARGIN nodes on each side."""
    return np.pad(u.values, FIELD_MARGIN)


def dgrad_padded(u: GridFunction) -> np.ndarray:
    """Central gradient field over the box plus margin, shape (*shape, d)."""
    return _grad_field(value_field(u), u.grid.spacing)


def dhess_padded(u: GridFunction) -> np.ndarray:
    """Forward Hessian field over the box plus margin, shape (*shape, d, d)."""
    return _hess_field(value_field(u), u.grid.spacing)


def _strict(u: GridFunction, x_index, lo: int, hi: int, what: str, build):
    """Build a field on the block x+lo..x+hi per axis and read it at x."""
    g = u.grid
    n = g.half_count
    x = np.atleast_1d(np.asarray(x_index, dtype=np.int64))
    if np.any(x + lo < -n) or np.any(x + hi > n):
        raise GridError(f"{what} stencil at node {x.tolist()} leaves the box")
    block = u.values[tuple(slice(int(i) + lo + n, int(i) + hi + n + 1) for i in x)]
    return build(block, g.spacing)[(-lo,) * g.dim]


def dgrad(u: GridFunction, x_index) -> np.ndarray:
    """Central gradient at a node; requires the full +-h stencil in-box."""
    return _strict(u, x_index, -1, 1, "gradient", _grad_field)


def dhess(u: GridFunction, x_index) -> np.ndarray:
    """Forward Hessian at a node (raw, unsymmetrized); needs x..x+2 in-box."""
    return _strict(u, x_index, 0, 2, "Hessian", _hess_field)


def hessian_field(grid: DyadicGrid, v: np.ndarray) -> np.ndarray:
    """Centered discrete Hessians at every node, shape (*grid.shape, d, d).

    Boundary nodes read zero padding and are only meaningful in the
    interior; callers mask accordingly.
    """
    d = grid.dim
    h = grid.spacing
    vals = np.asarray(v, dtype=float).reshape(grid.shape)
    out = np.zeros(grid.shape + (d, d))

    def sh(off):
        return _shifted(vals, off)

    for k in range(d):
        ek = [0] * d
        ek[k] = 1
        out[..., k, k] = (sh(ek) - 2.0 * vals + sh([-o for o in ek])) / h ** 2
    for k in range(d):
        for l in range(k + 1, d):
            pp = [0] * d; pp[k], pp[l] = 1, 1
            mm = [-o for o in pp]
            pm = [0] * d; pm[k], pm[l] = 1, -1
            mp = [-o for o in pm]
            cross = (sh(pp) + sh(mm) - sh(pm) - sh(mp)) / (4.0 * h ** 2)
            out[..., k, l] = cross
            out[..., l, k] = cross
    return out


def fd_grad(value, x, step: float) -> np.ndarray:
    """Central-difference gradient of a pointwise function."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(x.size)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        out[i] = (value(xp) - value(xm)) / (2.0 * step)
    return out


def fd_hess(value, x, step: float) -> np.ndarray:
    """Central-difference Hessian of a pointwise function (symmetric)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    out = np.empty((d, d))
    f0 = value(x)
    for i in range(d):
        for j in range(i, d):
            if i == j:
                xp, xm = x.copy(), x.copy()
                xp[i] += step
                xm[i] -= step
                out[i, i] = (value(xp) - 2.0 * f0 + value(xm)) / step ** 2
            else:
                xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
                xpp[[i, j]] += step
                xmm[[i, j]] -= step
                xpm[i] += step
                xpm[j] -= step
                xmp[i] -= step
                xmp[j] += step
                v = (value(xpp) - value(xpm)
                     - value(xmp) + value(xmm)) / (4.0 * step ** 2)
                out[i, j] = v
                out[j, i] = v
    return out


@dataclass
class ConvergenceStudy:
    """Log-log rate fit of a per-level error sequence."""

    levels: List[int]
    spacings: List[float]
    errors: List[float]
    order: Optional[float]
    exact: bool


def fit_order(spacings: Sequence[float], errors: Sequence[float],
              floor: float = 1e-14):
    """Least-squares slope of log error against log spacing.

    Returns (order, exact): exact=True when every error sits at the float
    floor, in which case no slope is reported.
    """
    e = np.asarray(errors, dtype=float)
    h = np.asarray(spacings, dtype=float)
    if np.all(e < floor):
        return None, True
    keep = e > floor
    if np.count_nonzero(keep) < 2:
        return None, True
    slope = np.polyfit(np.log(h[keep]), np.log(e[keep]), 1)[0]
    return float(slope), False
