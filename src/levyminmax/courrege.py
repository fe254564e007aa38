"""Normal-form decomposition of finitely supported row functionals.

A row functional is u -> sum of weights * u(base + offset).  When every
off-center weight is nonnegative the row passes the comparison sign test
and splits into a diffusion matrix, a drift vector, a zero-order
coefficient, and a jump measure:

    <row, u> = C u(x) + B.grad u(x) + tr(A D2u(x))
               + sum_y K(y) [u(x+y) - u(x) - 1_{|y|<1} grad u(x).y
                             - eta(y) (1/2) y.D2u(x) y]

with eta the origin cutoff at the schedule floor.  The identity is exact
for every cutoff choice; the schedule only decides how much of the kernel
is reported as diffusion versus jumps.  The drift uses the open-unit-ball
indicator convention; the shrinking-cutoff schedule must stabilize onto
it, otherwise decompose refuses.

Rows and normal forms are evaluated on arrays: a probe with a `values`
method (every `probe_battery` probe, any `SmoothFn` built with `values=`)
is called once on all of a row's points, and the cutoff eta is evaluated
once per decomposition, however many probes it is checked against.  A
decomposition's `report()` hands its normal form to the command line as
plain floats and lists, read off the arrays in one pass each.

`decompose` returns the normal form alone; only the callers that gate on a
check run one: `reconstruct_residual` per row, `representation_residual`
(in `clarke`) per row class of a coefficient field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridError, RegularityClass, SmoothFn
from .levy import OFFSET_TOL, LevyMeasure, _point_values
from .special import SClassFn

SCHEDULE_START = 3          # delta = 2**-k; 1/4 is outside the admissible window
SCHEDULE_TOL = 1e-10
# sign test for comparison: off-center weights down to -SIGN_TOL count as >= 0
SIGN_TOL = 1e-12


class CourregeError(GridError):
    """Raised for ill-formed rows or non-stabilizing schedules."""


@dataclass(frozen=True)
class RowFunctional:
    """Finitely supported functional u -> sum w_i u(base + y_i)."""

    base_point: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        base = np.atleast_1d(np.asarray(self.base_point, dtype=float))
        offs = np.atleast_2d(np.asarray(self.offsets, dtype=float))
        wts = np.atleast_1d(np.asarray(self.weights, dtype=float))
        for name, arr in (("base_point", base), ("offsets", offs),
                          ("weights", wts)):
            if not np.all(np.isfinite(arr)):
                raise CourregeError(f"row {name} must be finite")
        if offs.shape[1] != base.size:
            raise CourregeError(
                f"offset width {offs.shape[1]} does not match base dimension {base.size}")
        if offs.shape[0] != wts.size:
            raise CourregeError(f"{offs.shape[0]} offsets but {wts.size} weights")
        order = np.lexsort(offs.T[::-1])
        offs = offs[order]
        wts = wts[order]
        dup = np.flatnonzero(
            np.max(np.abs(np.diff(offs, axis=0)), axis=1) < OFFSET_TOL)
        if dup.size:
            raise CourregeError(f"duplicate offset {offs[dup[0] + 1].tolist()}")
        base.setflags(write=False)
        offs.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "base_point", base)
        object.__setattr__(self, "offsets", offs)
        object.__setattr__(self, "weights", wts)

    @property
    def dim(self) -> int:
        return self.base_point.size

    def jump_part(self):
        """Off-center offsets and weights, in canonical order."""
        keep = np.max(np.abs(self.offsets), axis=1) >= OFFSET_TOL
        return self.offsets[keep], self.weights[keep]

    @property
    def pitch(self) -> float:
        """Smallest off-center offset in the max norm (inf if none)."""
        offs, _ = self.jump_part()
        if not offs.shape[0]:
            return math.inf
        return float(np.min(np.max(np.abs(offs), axis=1)))

    def apply(self, u) -> float:
        """<row, u> for a plain callable u or a function with `values`."""
        return float(np.sum(self.weights
                            * _point_values(u, self.base_point + self.offsets)))


def is_gcp(row: RowFunctional, tol: float = SIGN_TOL) -> bool:
    """Sign test for comparison: every off-center weight is >= -tol."""
    _, wts = row.jump_part()
    return bool(wts.size == 0 or np.min(wts) >= -tol)


def c_of(row: RowFunctional) -> float:
    """Zero-order coefficient: the row applied to the constant 1."""
    return float(row.weights.sum())


def b_of(row: RowFunctional, cutoff) -> np.ndarray:
    """Cutoff drift: sum of weight * cutoff(y) * y over off-center offsets."""
    offs, wts = row.jump_part()
    if not offs.shape[0]:
        return np.zeros(row.dim)
    c = np.atleast_1d(np.asarray(cutoff(offs), dtype=float))
    return np.asarray((wts * c) @ offs, dtype=float)


def a_of(row: RowFunctional, cutoff) -> np.ndarray:
    """Cutoff diffusion: (1/2) sum of weight * cutoff(y) * y y^T."""
    offs, wts = row.jump_part()
    if not offs.shape[0]:
        return np.zeros((row.dim, row.dim))
    c = np.atleast_1d(np.asarray(cutoff(offs), dtype=float))
    return 0.5 * np.einsum("i,ij,ik->jk", wts * c, offs, offs)


@dataclass(frozen=True)
class CourregeDecomposition:
    """Normal form of a row at the schedule floor (exact by construction)."""

    base_point: np.ndarray
    a_matrix: np.ndarray
    drift: np.ndarray
    zero_order: float
    atoms: np.ndarray
    atom_weights: np.ndarray
    gcp: bool
    delta_floor: float

    @property
    def dim(self) -> int:
        return self.base_point.size

    def levy_measure(self) -> LevyMeasure:
        if not self.atoms.shape[0]:
            return LevyMeasure.empty(self.dim)
        return LevyMeasure(self.atoms, self.atom_weights)

    @cached_property
    def _cutoffs(self) -> tuple:
        """Unit-ball indicator and floor cutoff eta at each atom."""
        eta = SClassFn.shrunk_origin(self.delta_floor)
        return (np.linalg.norm(self.atoms, axis=1) < 1.0,
                np.atleast_1d(np.asarray(eta(self.atoms), dtype=float)))

    def apply(self, u) -> float:
        """Evaluate the normal form on u (exact grad/hess at the base point)."""
        x0 = self.base_point
        u0 = float(u.value(x0))
        g = np.asarray(u.grad(x0), dtype=float)
        h = np.asarray(u.hess(x0), dtype=float)
        out = self.zero_order * u0 + float(self.drift @ g)
        out += float(np.trace(self.a_matrix @ h))
        if self.atoms.shape[0]:
            inside, ev = self._cutoffs
            comp = (_point_values(u, x0 + self.atoms) - u0
                    - inside * (self.atoms @ g))
            comp -= 0.5 * ev * np.einsum("ij,jk,ik->i", self.atoms, h, self.atoms)
            out += float(self.atom_weights @ comp)
        return out

    def report(self) -> dict:
        """The normal form as plain JSON values: A, B, C, mu, gcp (no check)."""
        return {
            "A": self.a_matrix.tolist(),
            "B": self.drift.tolist(),
            "C": float(self.zero_order),
            "mu": [{"mass": w, "y": y} for y, w in
                   zip(self.atoms.tolist(), self.atom_weights.tolist())],
            "gcp": bool(self.gcp),
        }


def probe_battery(dim: int, seed: int = 0):
    """Smooth functions with exact derivatives for reconstruction checks."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((dim, dim))
    p = 0.5 * (p + p.T)
    q = rng.standard_normal(dim)
    w = rng.standard_normal(dim)
    a = rng.uniform(-0.5, 0.5, size=dim)
    cls = RegularityClass(2.0)

    def quad(x):
        return 0.5 * float(x @ p @ x) + float(q @ x) + 0.7

    probes = [
        SmoothFn(lambda x: 1.0, grad=lambda x: np.zeros(dim),
                 hess=lambda x: np.zeros((dim, dim)), cls=cls, name="one",
                 values=lambda pts: np.ones(len(pts))),
        SmoothFn(lambda x: float(q @ x) - 0.25, grad=lambda x: q,
                 hess=lambda x: np.zeros((dim, dim)), cls=cls, name="affine",
                 values=lambda pts: pts @ q - 0.25),
        SmoothFn(quad, grad=lambda x: p @ x + q, hess=lambda x: p,
                 cls=cls, name="quad",
                 values=lambda pts: 0.5 * np.einsum("ij,jk,ik->i", pts, p, pts)
                 + pts @ q + 0.7),
        SmoothFn(lambda x: math.sin(float(w @ x) + 0.3),
                 grad=lambda x: math.cos(float(w @ x) + 0.3) * w,
                 hess=lambda x: -math.sin(float(w @ x) + 0.3) * np.outer(w, w),
                 cls=cls, name="wave",
                 values=lambda pts: np.sin(pts @ w + 0.3)),
        SmoothFn(lambda x: math.exp(-0.5 * float(np.sum((x - a) ** 2))),
                 grad=lambda x: -(x - a) * math.exp(-0.5 * float(np.sum((x - a) ** 2))),
                 hess=lambda x: (np.outer(x - a, x - a) - np.eye(dim))
                 * math.exp(-0.5 * float(np.sum((x - a) ** 2))),
                 cls=cls, name="bell",
                 values=lambda pts: np.exp(-0.5 * np.sum((pts - a) ** 2, axis=1))),
        SmoothFn(lambda x: float(w @ x) ** 3,
                 grad=lambda x: 3.0 * float(w @ x) ** 2 * w,
                 hess=lambda x: 6.0 * float(w @ x) * np.outer(w, w),
                 cls=cls, name="cubic",
                 values=lambda pts: (pts @ w) ** 3),
    ]
    return probes


def reconstruct_residual(row: RowFunctional, dec: CourregeDecomposition,
                         probes=None, seed: int = 0) -> float:
    """Sup over the probe battery of |<row, u> - normal form applied to u|.

    Each probe is evaluated on the row's points and the atoms at once; the
    cutoff eta is evaluated once for dec, not once per probe.
    """
    if probes is None:
        probes = probe_battery(row.dim, seed)
    worst = 0.0
    for u in probes:
        worst = max(worst, abs(row.apply(u) - dec.apply(u)))
    return worst


def decompose(row: RowFunctional, tol: float = SCHEDULE_TOL) -> CourregeDecomposition:
    """Run the shrinking-cutoff schedule and assemble the normal form.

    The schedule walks delta = 2**-k from 1/8 down to the floor near twice
    the kernel pitch; it needs the cutoff sums at two scales only.  The
    drift at its last two steps must stabilize onto the open-unit-ball
    indicator sum within tol; the diffusion is reported at the floor, where
    the origin cutoff still sees the near atoms.  Jumps keep every
    off-center atom (none: the schedule runs k = 3, 4).  The normal form is
    returned unchecked; `reconstruct_residual` checks it against the row.
    """
    offs, wts = row.jump_part()
    # Diffusion floor: delta near twice the pitch, so the origin cutoff is
    # still 1 on the nearest atoms.  Drift floor: delta small enough that the
    # shrinking cutoff has left the collar around the unit sphere.
    pitch = row.pitch
    k_diffusion = max(SCHEDULE_START, math.ceil(math.log2(1.0 / pitch)) - 1) \
        if pitch < 1.0 else SCHEDULE_START
    r = np.linalg.norm(offs, axis=1)
    inside = r < 1.0
    k_drift = SCHEDULE_START
    if np.any(inside):
        closest = float(np.max(r[inside]))
        # floats below 1 are spaced 2^-53, so this never exceeds 54
        k_drift = max(k_drift,
                      min(56, math.ceil(math.log2(2.0 / (1.0 - closest)))))

    # one step past the drift floor, so stabilization shows up as a vanishing
    # successive difference
    k_last = max(k_diffusion, k_drift + 1)
    before, last = (b_of(row, SClassFn.shrunk_unit(2.0 ** -k))
                    for k in (k_last - 1, k_last))
    b_exact = np.asarray((wts * inside) @ offs, dtype=float)
    scale = max(1.0, float(np.abs(wts) @ np.max(np.abs(offs), axis=1)))
    gap = float(np.max(np.abs(last - b_exact)))
    step = float(np.max(np.abs(last - before)))
    if not (gap <= tol * scale and step <= tol * scale):
        raise CourregeError(
            "drift schedule did not stabilize onto the unit-ball convention "
            f"(gap {gap:.3e})")

    delta_floor = 2.0 ** -k_diffusion
    return CourregeDecomposition(
        base_point=row.base_point,
        a_matrix=a_of(row, SClassFn.shrunk_origin(delta_floor)),
        drift=b_exact,
        zero_order=c_of(row),
        atoms=offs, atom_weights=wts,
        gcp=is_gcp(row), delta_floor=delta_floor)
