"""Discrete surrogates of function-space operators, with probe diagnostics.

A source operator is a `LevyOperator` or any map (fn, x) -> float taking a
function with value/grad/hess and a point.  The surrogate pipeline is: wrap
flat node data into grid data, extend it off the lattice (the `ExtendedFn`
projector, which carries that API itself), apply the source at every node,
return the flat result.  That makes any such operator a map on node
vectors, ready for the differential-sampling machinery.

A `LevyOperator` source is applied to the whole grid at once: node values,
gradients and Hessians are read from the extension's fields, and each
atom's shifted values come from one extension call over all nodes.  Any
other callable is applied node by node.

The probes are seeded sampling estimates, reported with hatted names:
rho_hat for the sup-norm Lipschitz ratio, omega for envelope-tightness and
shift-equivariance defects.  They measure; asserting against them is the
caller's business.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import FIELD_MARGIN, ConvergenceStudy, fit_order
from .clarke import minmax_eval
from .grid import (DyadicGrid, GridError, GridFunction, RegularityClass,
                   restrict, translate)
from .levy import LevyOperator, apply, evaluate
from .whitney import ExtendedFn, extend


# size of the largest probe perturbation in `probe_tightness`
PROBE_SCALE = 0.5


class ApproxError(GridError):
    """Raised for ill-formed surrogate requests."""


@dataclass(frozen=True)
class DiscreteSurrogate:
    """Node-vector operator obtained by extending data and resampling."""

    grid: DyadicGrid
    smoothness: RegularityClass
    source: object
    name: str = ""

    def lift(self, v: np.ndarray) -> ExtendedFn:
        """Grid data from a flat vector, extended off the lattice."""
        v = np.asarray(v, dtype=float)
        if v.size != self.grid.node_count:
            raise ApproxError(f"vector of size {v.size} does not fit the "
                              f"{self.grid.node_count}-node grid")
        gf = GridFunction(self.grid, v.reshape(self.grid.shape))
        return extend(gf, self.smoothness, name=self.name)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        ext = self.lift(v)
        pts = self.grid.points()
        op = self.source
        if not isinstance(op, LevyOperator):
            return np.array([op(ext, x) for x in pts])
        n, d = self.grid.node_count, self.grid.dim
        box = (slice(FIELD_MARGIN, -FIELD_MARGIN),) * d
        return apply(op, ext.value_field[box].ravel(),
                     lambda: ext.grad_field[box].reshape(n, d),
                     lambda: ext.hess_field[box].reshape(n, d, d),
                     (ext.values(pts + y) for y, _, _ in op.jumps))

    def on_grid(self, u: GridFunction) -> GridFunction:
        if u.grid != self.grid:
            raise ApproxError("grid mismatch")
        out = self(u.flat())
        return GridFunction(self.grid, out.reshape(self.grid.shape))


def build_surrogate(source, grid: DyadicGrid,
                    smoothness: RegularityClass | None = None,
                    name: str = "") -> DiscreteSurrogate:
    if isinstance(source, LevyOperator):
        if source.dim != grid.dim:
            raise ApproxError(f"source of dimension {source.dim} on a "
                              f"{grid.dim}-d grid")
    elif not callable(source):
        raise ApproxError("source operator must be a LevyOperator or "
                          "callable as source(fn, x)")
    if smoothness is None:
        smoothness = RegularityClass(2.0)
    return DiscreteSurrogate(grid=grid, smoothness=smoothness, source=source,
                             name=name or getattr(source, "__name__", ""))


def convergence_study(source, u, levels, dim: int = 1,
                      box_radius: float = -1.0,
                      smoothness: RegularityClass | None = None,
                      region_radius: float | None = None) -> ConvergenceStudy:
    """Surrogate error against the direct application, across levels.

    u must carry exact value/grad/hess.  The error at each level is the
    max-norm gap between the surrogate on restricted data and the source
    applied to u itself, over nodes inside region_radius (default: half the
    box, which keeps nonlocal tails of moderate reach inside the data).  A
    `LevyOperator` source is applied to u through `levy.evaluate`, all
    those nodes in one batch.
    """
    levels = list(levels)
    if len(levels) < 3:
        raise GridError("need at least three levels to fit an order")
    errs = []
    spacings = []
    for lv in levels:
        g = DyadicGrid(lv, dim, box_radius)
        radius = 0.5 * g.box_radius if region_radius is None else region_radius
        surr = build_surrogate(source, g, smoothness)
        v = restrict(u, g)
        got = surr(v.flat())
        pts = g.points()
        mask = np.max(np.abs(pts), axis=1) <= radius + 1e-12
        if isinstance(source, LevyOperator):
            want = evaluate(source, u, pts[mask])
        else:
            want = np.array([source(u, x) for x in pts[mask]])
        errs.append(float(np.max(np.abs(got[mask] - want))))
        spacings.append(g.spacing)
    order, exact = fit_order(spacings, errs)
    return ConvergenceStudy(levels=levels, spacings=spacings, errors=errs,
                            order=order, exact=exact)


@dataclass(frozen=True)
class LipschitzProbe:
    """Sampled sup-norm Lipschitz ratio of a node-vector operator."""

    rho_hat: float
    ratios: np.ndarray
    seed: int


def probe_lipschitz(op, size: int, samples: int = 20, seed: int = 0,
                    amplitude: float = 1.0) -> LipschitzProbe:
    """Max ratio |op(u)-op(v)| / |u-v| over random data pairs (sup norms)."""
    if samples < 1:
        raise ApproxError("need at least one sample pair")
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        u = amplitude * rng.standard_normal(size)
        v = amplitude * rng.standard_normal(size)
        den = float(np.max(np.abs(u - v)))
        if den < 1e-14:
            continue
        num = float(np.max(np.abs(np.asarray(op(u)) - np.asarray(op(v)))))
        ratios.append(num / den)
    if not ratios:
        raise ApproxError(f"every sample pair was degenerate: sup |u - v| < 1e-14 "
                          f"in all {samples} (amplitude {amplitude})")
    return LipschitzProbe(rho_hat=float(np.max(ratios)),
                          ratios=np.array(ratios), seed=seed)


@dataclass(frozen=True)
class TightnessProbe:
    """Envelope gap of the min-max form as the probe set grows, and the
    rows no probe certified (`probe_tightness`)."""

    gaps: np.ndarray
    omega: float
    seed: int
    kink_rows: np.ndarray


def probe_tightness(op, u, count: int = 6, seed: int = 0) -> TightnessProbe:
    """Min-max gap at u using only perturbed probes, one added at a time.

    Probe k is u plus PROBE_SCALE 2^-k times unit normal noise, drawn from
    one seeded stream; one `minmax_eval` over all of them records the gap
    after each probe.  The gap sequence is nonincreasing up to rounding and
    omega is its final value.  A zero omega means the linearizations
    already reproduce the operator at u.

    The gap at a row closes once some probe keeps u's active term there:
    on a Bellman envelope of stencil and matrix terms the segment then
    carries that term alone.  So for an operator with `active_terms` (an
    envelope), halved probes are drawn past count until every row has a
    probe whose active term is u's, with neither end tied within rounding,
    or until the next perturbation is below the float resolution of u.
    The rows tied at u, and those still uncovered when drawing stops, are
    the kink rows; they stay in omega.  An operator without active terms
    (a plain callable) takes count probes and names no kink rows.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if count < 1:
        raise ApproxError("need at least one probe")
    active_terms = getattr(op, "active_terms", None)
    kink = uncovered = np.zeros(u.size, dtype=bool)
    if active_terms is not None:
        want, kink = active_terms(u)
        uncovered = ~kink
    resolution = np.finfo(float).eps * max(float(np.max(np.abs(u))),
                                           np.finfo(float).tiny)
    rng = np.random.default_rng(seed)
    probes = []
    while len(probes) < count or (
            uncovered.any()
            and PROBE_SCALE * 0.5 ** len(probes) >= resolution):
        v = u + PROBE_SCALE * 0.5 ** len(probes) * rng.standard_normal(u.size)
        probes.append(v)
        if active_terms is not None:
            got, tie = active_terms(v)
            uncovered &= (got != want) | tie
    gaps = minmax_eval(op, u, probes).gaps
    return TightnessProbe(gaps=gaps, omega=float(gaps[-1]), seed=seed,
                          kink_rows=np.flatnonzero(kink | uncovered))


@dataclass(frozen=True)
class ShiftProbe:
    """Equivariance defect of a surrogate under lattice translations."""

    shifts: np.ndarray
    defects: np.ndarray
    omega: float
    margin: int


def probe_shift_regularity(surr: DiscreteSurrogate, u: GridFunction,
                           shifts, margin: int = 2) -> ShiftProbe:
    """Compare shift-then-apply with apply-then-shift on interior nodes.

    Both sides zero-pad outside the box, so the comparison only counts
    nodes at least margin + |shift| nodes away from the boundary.  For a
    coefficient field that does not depend on the base point the defect is
    rounding-level; genuine base-point dependence shows up as omega > 0.
    """
    if u.grid != surr.grid:
        raise ApproxError("grid mismatch")
    g = surr.grid
    out = surr.on_grid(u)
    defects = []
    shift_arr = []
    for z in shifts:
        z = np.atleast_1d(np.asarray(z, dtype=np.int64))
        shifted_first = surr.on_grid(translate(u, z))
        shifted_last = translate(out, z)
        reach = margin + int(np.max(np.abs(z)))
        keep = g.half_count - reach
        if keep < 0:
            raise ApproxError(f"shift {z.tolist()} leaves no interior nodes")
        diff = shifted_first.values - shifted_last.values
        sl = tuple(slice(g.half_count - keep, g.half_count + keep + 1)
                   for _ in range(g.dim))
        defects.append(float(np.max(np.abs(diff[sl]))))
        shift_arr.append(z)
    return ShiftProbe(shifts=np.array(shift_arr), defects=np.array(defects),
                      omega=float(np.max(defects)), margin=margin)
