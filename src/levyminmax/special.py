"""Smooth cutoff profiles and cutoff-compensated Taylor test functions.

The base profile ``phi0`` is the classic exponential ramp
q(t)/(q(t)+q(1-t)) with q(t)=exp(-1/t): smooth, nondecreasing, 0 below 0 and
1 above 1.  It is ``_kernels.ramp`` on arrays, so the cube partition and
the cutoffs share one ramp, bit for bit.  Everything else is built from
it: the reverse radial ramp ``reverse_ramp``; the admissible cutoff class
``SClassFn`` (values in [0,1], equal to 1 near 0, supported in the ball of
radius 2) with its reverse radial ramps ``from_psi`` and the shrinking pair
members ``shrunk_unit`` and ``shrunk_origin``, with which ``courrege``
splits a row into local and jump parts (it evaluates their ramps for many
rows at once through ``reverse_ramp``); and ``taylor_cutoff``, the
cutoff-compensated Taylor polynomial of smooth data at a point.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import ramp
from .calculus import fd_grad, fd_hess
from .grid import GridError, RegularityClass, SmoothFn


def phi0(t):
    """``_kernels.ramp`` elementwise: 0 for t<=0, 1 for t>=1, NaN for NaN.

    A 0-d input gives a float.  ramp runs only where it takes its
    exponential branch (neither t <= 0 nor t >= 1), so the flat tails cost
    no Python call.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return ramp(float(t))
    out = (t >= 1.0).astype(float)
    inner = ~((t <= 0.0) | (t >= 1.0))
    out[inner] = [ramp(v) for v in t[inner].tolist()]
    return out


def reverse_ramp(t, plateau, width):
    """1 - phi0((t - plateau) / width): 1 up to plateau, 0 from plateau + width.

    The radial profile of `SClassFn.from_psi`; plateau and width may be
    arrays, so cutoffs of many radii, each at its own scale, are one call.
    """
    return 1.0 - phi0((t - plateau) / width)


@dataclass(frozen=True)
class SClassFn:
    """Admissible radial cutoff: smooth, in [0,1], 1 on B_plateau, 0 outside B_support.

    support_radius must not exceed 2; plateau_radius must be positive.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    plateau_radius: float
    support_radius: float
    label: str = ""

    def __post_init__(self):
        if not (0.0 < self.plateau_radius <= self.support_radius <= 2.0):
            raise GridError(
                f"cutoff radii out of range: plateau={self.plateau_radius}, "
                f"support={self.support_radius}")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if y.ndim <= 1:
            r = float(np.sqrt(np.sum(y ** 2)))
            return float(self.profile(np.asarray(r)))
        r = np.sqrt(np.sum(y ** 2, axis=-1))
        return np.asarray(self.profile(r), dtype=float)

    @staticmethod
    def from_psi(r: float, R: float, label: str = "") -> "SClassFn":
        """Reverse ramp 1 - phi0((|y|-R)/r): 1 on B_R, 0 outside B_{R+r}."""
        if r <= 0:
            raise GridError(f"ramp width must be positive, got r={r}")
        if R + r > 2.0:
            raise GridError(f"support radius {R + r} exceeds 2")
        return SClassFn(lambda t: reverse_ramp(t, R, r), R, R + r,
                        label or f"from_psi({r},{R})")

    @staticmethod
    def shrunk_unit(delta: float) -> "SClassFn":
        """The pair member with plateau B_{1-2 delta}, support B_{1-delta}."""
        if not (0.0 < delta < 0.25):
            raise GridError(f"delta must lie in (0, 1/4), got {delta}")
        return SClassFn.from_psi(delta, 1.0 - 2.0 * delta, f"shrunk_unit({delta})")

    @staticmethod
    def shrunk_origin(delta: float) -> "SClassFn":
        """The pair member with plateau B_delta, support B_{2 delta}."""
        if not (0.0 < delta < 0.25):
            raise GridError(f"delta must lie in (0, 1/4), got {delta}")
        return SClassFn.from_psi(delta, delta, f"shrunk_origin({delta})")


DEFAULT_PHI = SClassFn.from_psi(0.5, 1.0, "from_psi(1/2,1)")


def validate_s_member(f: SClassFn, samples: int = 256, seed: int = 0, dim: int = 3) -> None:
    """Spot-check class membership: range, plateau, and support."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.5, 2.5, size=(samples, dim))
    vals = f(pts)
    if np.any(vals < -1e-12) or np.any(vals > 1 + 1e-12):
        raise GridError(f"cutoff {f.label!r} leaves [0,1]")
    radii = np.sqrt(np.sum(pts ** 2, axis=-1))
    on_plateau = radii <= f.plateau_radius * (1 - 1e-9)
    if np.any(np.abs(vals[on_plateau] - 1.0) > 1e-12):
        raise GridError(f"cutoff {f.label!r} is not 1 on its plateau")
    outside = radii >= f.support_radius * (1 + 1e-9)
    if np.any(np.abs(vals[outside]) > 1e-12):
        raise GridError(f"cutoff {f.label!r} does not vanish outside its support")


@dataclass(frozen=True)
class CutoffPair:
    """A pair (phi, eta) of admissible cutoffs used to split kernels."""

    phi: SClassFn
    eta: SClassFn


DEFAULT_PAIR = CutoffPair(DEFAULT_PHI, DEFAULT_PHI)


def taylor_cutoff(u: SmoothFn, x, pair: CutoffPair,
                  beta: RegularityClass) -> SmoothFn:
    """Cutoff-compensated Taylor data of u at x, as a function of the offset y.

    Three regimes: below 1 the value alone; in [1,2) value plus a cutoff
    gradient term; in [2,3) additionally a cutoff quadratic term.  On the
    common plateau of the pair the result agrees with the Taylor polynomial
    of the matching order.  Derivatives of the returned function are finite
    difference measurements.
    """
    x = np.asarray(x, dtype=float)
    case = beta.case
    u0 = u.value(x)
    grad = u.grad(x) if case >= 1 else np.zeros(x.size)
    hess = u.hess(x) if case >= 2 else np.zeros((x.size, x.size))

    def value(y):
        y = np.asarray(y, dtype=float)
        out = u0
        if case >= 1:
            out = out + pair.phi(y) * float(np.dot(grad, y))
        if case >= 2:
            out = out + pair.eta(y) * 0.5 * float(y @ hess @ y)
        return out

    def values(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.full(pts.shape[0], u0)
        if case >= 1:
            out = out + pair.phi(pts) * (pts @ grad)
        if case >= 2:
            out = out + pair.eta(pts) * 0.5 * np.einsum("ij,jk,ik->i", pts, hess, pts)
        return out

    return SmoothFn(value, grad=lambda y: fd_grad(value, y, 1e-6),
                    hess=lambda y: fd_hess(value, y, 1e-4),
                    cls=beta, name=f"P[{u.name}@{x.tolist()}]", values=values)
