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

`normal_forms` runs the schedule for many rows given as flat entry arrays:
the parts that act entry by entry (norms, pitch, schedule, cutoffs) run
once over all rows, the sums per row in the one-row form, and `decompose`
is its one-row call, so there is one schedule.  Both return normal forms
alone; only the callers that gate on a check run one:
`reconstruct_residual` per row, `representation_residual` (in `clarke`)
on every row of a coefficient field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridError, RegularityClass, SmoothFn
from .levy import OFFSET_TOL, LevyMeasure, _point_values
from .special import SClassFn, reverse_ramp

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
    """Smooth functions with exact derivatives for reconstruction checks.

    Each probe evaluates values, gradients and Hessians point by point and,
    for many points, in one batch call each.
    """
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((dim, dim))
    p = 0.5 * (p + p.T)
    q = rng.standard_normal(dim)
    w = rng.standard_normal(dim)
    a = rng.uniform(-0.5, 0.5, size=dim)
    cls = RegularityClass(2.0)

    def quad(x):
        return 0.5 * float(x @ p @ x) + float(q @ x) + 0.7

    ww = np.outer(w, w)

    def zero_h(pts):
        return np.zeros((len(pts), dim, dim))

    def bell(pts):
        return np.exp(-0.5 * np.sum((pts - a) ** 2, axis=1))

    probes = [
        SmoothFn(lambda x: 1.0, grad=lambda x: np.zeros(dim),
                 hess=lambda x: np.zeros((dim, dim)), cls=cls, name="one",
                 values=lambda pts: np.ones(len(pts)),
                 grads=lambda pts: np.zeros((len(pts), dim)), hessians=zero_h),
        SmoothFn(lambda x: float(q @ x) - 0.25, grad=lambda x: q,
                 hess=lambda x: np.zeros((dim, dim)), cls=cls, name="affine",
                 values=lambda pts: pts @ q - 0.25,
                 grads=lambda pts: np.tile(q, (len(pts), 1)), hessians=zero_h),
        SmoothFn(quad, grad=lambda x: p @ x + q, hess=lambda x: p,
                 cls=cls, name="quad",
                 values=lambda pts: 0.5 * np.einsum("ij,jk,ik->i", pts, p, pts)
                 + pts @ q + 0.7,
                 grads=lambda pts: pts @ p + q,
                 hessians=lambda pts: np.broadcast_to(p, (len(pts), dim, dim))),
        SmoothFn(lambda x: math.sin(float(w @ x) + 0.3),
                 grad=lambda x: math.cos(float(w @ x) + 0.3) * w,
                 hess=lambda x: -math.sin(float(w @ x) + 0.3) * np.outer(w, w),
                 cls=cls, name="wave",
                 values=lambda pts: np.sin(pts @ w + 0.3),
                 grads=lambda pts: np.cos(pts @ w + 0.3)[:, None] * w,
                 hessians=lambda pts: -np.sin(pts @ w + 0.3)[:, None, None] * ww),
        SmoothFn(lambda x: math.exp(-0.5 * float(np.sum((x - a) ** 2))),
                 grad=lambda x: -(x - a) * math.exp(-0.5 * float(np.sum((x - a) ** 2))),
                 hess=lambda x: (np.outer(x - a, x - a) - np.eye(dim))
                 * math.exp(-0.5 * float(np.sum((x - a) ** 2))),
                 cls=cls, name="bell", values=bell,
                 grads=lambda pts: -(pts - a) * bell(pts)[:, None],
                 hessians=lambda pts: (np.einsum("ij,ik->ijk", pts - a, pts - a)
                                       - np.eye(dim)) * bell(pts)[:, None, None]),
        SmoothFn(lambda x: float(w @ x) ** 3,
                 grad=lambda x: 3.0 * float(w @ x) ** 2 * w,
                 hess=lambda x: 6.0 * float(w @ x) * np.outer(w, w),
                 cls=cls, name="cubic",
                 values=lambda pts: (pts @ w) ** 3,
                 grads=lambda pts: 3.0 * (pts @ w)[:, None] ** 2 * w,
                 hessians=lambda pts: 6.0 * (pts @ w)[:, None, None] * ww),
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


def normal_forms(offsets, weights, owner, count: int,
                 tol: float = SCHEDULE_TOL) -> tuple:
    """Normal forms of count rows at once: (A, B, C, gcp, delta_floor).

    Entry e belongs to row owner[e] (nondecreasing) with offset offsets[e]
    and weight weights[e]; each row's entries come in the canonical order
    a RowFunctional stores.  The parts that act entry by entry run once
    over all rows: max norms, radii, pitch, the schedule and the three
    cutoffs, each entry at its own row's scales.  The sums stay per row,
    the one-row expressions of `decompose`, so a row's normal form does not
    depend on the rows it is computed with.  Returns arrays of shapes
    (count, d, d), (count, d), (count,), (count,) and (count,).
    """
    offsets = np.asarray(offsets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    owner = np.asarray(owner)
    d = offsets.shape[1]
    rows = np.arange(count + 1)
    starts = np.searchsorted(owner, rows)
    peak = np.max(np.abs(offsets), axis=1)
    jump = peak >= OFFSET_TOL
    offs, wts, who, peak = offsets[jump], weights[jump], owner[jump], peak[jump]
    cuts = np.searchsorted(who, rows)
    r = np.linalg.norm(offs, axis=1)
    inside = r < 1.0

    # Diffusion floor: delta near twice the pitch, so the origin cutoff is
    # still 1 on the nearest atoms.  Drift floor: delta small enough that the
    # shrinking cutoff has left the collar around the unit sphere.  Min and
    # max are exact in any order; the logarithms are math's, as for one row.
    pitch = np.full(count, math.inf)
    np.minimum.at(pitch, who, peak)
    closest = np.full(count, -math.inf)
    np.maximum.at(closest, who[inside], r[inside])
    k_diffusion = np.array(
        [max(SCHEDULE_START, math.ceil(math.log2(1.0 / p)) - 1) if p < 1.0
         else SCHEDULE_START for p in pitch.tolist()], dtype=np.int64)
    # floats below 1 are spaced 2^-53, so this never exceeds 54
    k_drift = np.array(
        [SCHEDULE_START if c < 0.0 else
         max(SCHEDULE_START, min(56, math.ceil(math.log2(2.0 / (1.0 - c)))))
         for c in closest.tolist()], dtype=np.int64)
    # one step past the drift floor, so stabilization shows up as a vanishing
    # successive difference
    k_last = np.maximum(k_diffusion, k_drift + 1)
    delta_floor = np.ldexp(1.0, -k_diffusion)
    unit = [reverse_ramp(r, 1.0 - 2.0 * delta, delta)
            for delta in (np.ldexp(1.0, 1 - k_last[who]),
                          np.ldexp(1.0, -k_last[who]))]
    origin = reverse_ramp(r, delta_floor[who], delta_floor[who])

    a = np.zeros((count, d, d))
    b = np.zeros((count, d))
    c = np.empty(count)
    gcp = np.ones(count, dtype=bool)
    drifts = np.zeros((2, count, d))
    scale = np.ones(count)
    for i in range(count):
        c[i] = weights[starts[i]:starts[i + 1]].sum()
        lo, hi = cuts[i], cuts[i + 1]
        if lo == hi:
            continue
        y, w = offs[lo:hi], wts[lo:hi]
        b[i] = (w * inside[lo:hi]) @ y
        for k, cut in enumerate(unit):
            drifts[k, i] = (w * cut[lo:hi]) @ y
        scale[i] = max(1.0, float(np.abs(w) @ peak[lo:hi]))
        a[i] = 0.5 * np.einsum("i,ij,ik->jk", w * origin[lo:hi], y, y)
        gcp[i] = np.min(w) >= -SIGN_TOL
    # the drift at the last two steps must stabilize onto the unit-ball sum
    gap = np.max(np.abs(drifts[1] - b), axis=1)
    step = np.max(np.abs(drifts[1] - drifts[0]), axis=1)
    bad = np.flatnonzero(~((gap <= tol * scale) & (step <= tol * scale)))
    if bad.size:
        raise CourregeError(
            "drift schedule did not stabilize onto the unit-ball convention "
            f"(gap {gap[bad[0]]:.3e})")
    return a, b, c, gcp, delta_floor


def decompose(row: RowFunctional, tol: float = SCHEDULE_TOL) -> CourregeDecomposition:
    """Run the shrinking-cutoff schedule and assemble the normal form.

    The schedule walks delta = 2**-k from 1/8 down to the floor near twice
    the kernel pitch; it needs the cutoff sums at two scales only.  The
    drift at its last two steps must stabilize onto the open-unit-ball
    indicator sum within tol; the diffusion is reported at the floor, where
    the origin cutoff still sees the near atoms.  Jumps keep every
    off-center atom (none: the schedule runs k = 3, 4).  This is the
    one-row call of `normal_forms`.  The normal form is returned unchecked;
    `reconstruct_residual` checks it against the row.
    """
    a, b, c, gcp, delta_floor = normal_forms(
        row.offsets, row.weights, np.zeros(row.weights.size, dtype=np.int64),
        1, tol)
    offs, wts = row.jump_part()
    return CourregeDecomposition(
        base_point=row.base_point, a_matrix=a[0], drift=b[0],
        zero_order=float(c[0]), atoms=offs, atom_weights=wts,
        gcp=bool(gcp[0]), delta_floor=float(delta_floor[0]))
