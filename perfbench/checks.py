"""Property checks on the outputs of the benchmark's operations.

Every check returns a list of failure messages (empty when it passes) and
compares the program's output either with a value the benchmark computed on
its own or with a property the method must have.  None of them compares with
a stored copy of earlier output.  The checks take plain arrays, so the
self-tests in ``perfbench/tests`` can plant faults in them.
"""
from __future__ import annotations

import math

import numpy as np


def close(got, want, rtol: float, what: str, scale: float | None = None) -> list[str]:
    """max |got - want| <= rtol * scale, scale defaulting to max(1, max |want|)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    if scale is None:
        scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    if not np.all(np.isfinite(got)):
        return [f"{what}: non-finite output"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if err > rtol * scale:
        return [f"{what}: deviation {err:.3e} > {rtol:.1e} * {scale:.3e}"]
    return []


def partition_totals(sums) -> list[str]:
    """Raw bump total >= 1 and normalised total 1 within 1e-10, per point.

    Rows carrying the node sentinel (-1, -1) are skipped; uniform random
    points never come that close to a node, so at most a handful may appear.
    """
    sums = np.asarray(sums, dtype=float)
    live = sums[:, 0] != -1.0
    out = []
    if np.count_nonzero(~live) > 2:
        out.append(f"partition: {np.count_nonzero(~live)} points snapped to nodes")
    raw, norm = sums[live, 0], sums[live, 1]
    if raw.size and float(raw.min()) < 1.0 - 1e-12:
        out.append(f"partition: raw total {raw.min():.15g} < 1")
    if norm.size and float(np.max(np.abs(norm - 1.0))) > 1e-10:
        out.append(f"partition: normalised total off 1 by "
                   f"{np.max(np.abs(norm - 1.0)):.3e}")
    return out


def _lattice_gap(lo: float, hi: float) -> float:
    """Distance from the interval [lo, hi] (unit frame) to the integers."""
    if math.ceil(lo) <= hi:
        return 0.0
    return min(lo - math.floor(lo), math.ceil(hi) - hi)


def cover_geometry(point, spacing: float, cubes) -> list[str]:
    """Whitney geometry of one cover, recomputed from (generation, index, cell).

    Each cube must satisfy 1 <= dist(Q, lattice) / diam(Q) <= 4, the point must
    lie inside its 9/8-inflated support, and at least one cube must contain
    the point (the kept cubes tile the cell minus its node).
    """
    x = np.asarray(point, dtype=float) / spacing
    d = x.size
    if not cubes:
        return [f"cover at {x.tolist()}: no cubes"]
    out = []
    holder = False
    for gen, index, cell in cubes:
        side = 2.0 ** -gen
        lo = np.asarray(cell, dtype=float) + np.asarray(index, dtype=float) * side
        gaps = [_lattice_gap(lo[i], lo[i] + side) for i in range(d)]
        ratio = math.sqrt(sum(g * g for g in gaps)) / (side * math.sqrt(d))
        if not (1.0 - 1e-12 <= ratio <= 4.0):
            out.append(f"cube gen {gen} index {tuple(index)}: ratio {ratio:.6g} "
                       f"outside [1, 4]")
        if np.any(np.abs(x - (lo + 0.5 * side)) >= 0.5625 * side):
            out.append(f"cube gen {gen} index {tuple(index)}: point outside support")
        holder = holder or bool(np.all((x >= lo) & (x <= lo + side)))
    if not holder:
        out.append(f"cover at {x.tolist()}: no cube contains the point")
    return out


def within_bounds(values, lo: float, hi: float, what: str) -> list[str]:
    """Every value in [lo, hi] up to 1e-12 relative slack."""
    v = np.asarray(values, dtype=float)
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if v.size and (float(v.min()) < lo - slack or float(v.max()) > hi + slack):
        return [f"{what}: values [{v.min():.6g}, {v.max():.6g}] leave "
                f"[{lo:.6g}, {hi:.6g}]"]
    return []


def dense_matrix(kernel: dict, shape: tuple) -> np.ndarray:
    """Matrix of a constant-coefficient kernel with zero padding, built here.

    Row i, column j carries the weight of offset (j - i) whenever both nodes
    lie in the box; this is the benchmark's own reference, independent of
    ``StencilOperator.matrix``.
    """
    idx = np.indices(shape).reshape(len(shape), -1).T
    n = idx.shape[0]
    m = np.zeros((n, n))
    rows = np.arange(n)
    for off, w in kernel.items():
        tgt = idx + np.asarray(off)
        ok = np.all((tgt >= 0) & (tgt < np.asarray(shape)), axis=1)
        cols = np.ravel_multi_index(tgt[ok].T, shape)
        m[rows[ok], cols] += w
    return m


def linear_jacobian(matrix, w, op_w, what: str) -> list[str]:
    """For a linear map the sampled Jacobian applied to w reproduces op(w)."""
    return close(np.asarray(matrix) @ w, op_w, 1e-6, f"{what}: J w vs op(w)")


def active_rows(matrix, v, teams, step: float, what: str) -> list[str]:
    """Jacobian of min over teams of max over (M, s) terms = the active rows.

    Rows whose active term is not unique by a margin larger than the
    difference step could resolve are skipped: there the sampled Jacobian
    legitimately mixes rows.  At most a tenth of the rows may be skipped.
    """
    vals = [np.stack([m @ v + s for m, s in team]) for team in teams]
    mats = [np.stack([m for m, _ in team]) for team in teams]
    n = v.size
    node = np.arange(n)
    inner = [np.argmax(t, axis=0) for t in vals]
    team_val = np.stack([t[k, node] for t, k in zip(vals, inner)])
    outer = np.argmin(team_val, axis=0)
    ref = np.stack([mats[t][inner[t][i], i] for i, t in enumerate(outer)])
    margin = np.full(n, np.inf)
    for t in vals:
        if t.shape[0] > 1:
            top2 = np.sort(t, axis=0)[-2:]
            margin = np.minimum(margin, top2[1] - top2[0])
    if team_val.shape[0] > 1:
        low2 = np.sort(team_val, axis=0)[:2]
        margin = np.minimum(margin, low2[1] - low2[0])
    row_scale = np.max([np.abs(m).sum(axis=2).max(axis=0) for m in mats], axis=0)
    clear = margin > 10.0 * row_scale * step
    out = []
    if np.count_nonzero(~clear) > n // 10:
        out.append(f"{what}: {np.count_nonzero(~clear)} of {n} rows near a tie")
    dev = np.abs(np.asarray(matrix)[clear] - ref[clear]).max(axis=1)
    bad = dev > 1e-6 * row_scale[clear]
    if np.any(bad):
        out.append(f"{what}: {np.count_nonzero(bad)} rows differ from the "
                   f"active term (worst {dev.max():.3e})")
    return out


def sign_test(atom_weights_per_row, gcp_flags, what: str) -> list[str]:
    """Every row's off-centre weights are >= 0 (to rounding) and flagged so."""
    out = []
    worst = 0.0
    for w in atom_weights_per_row:
        if len(w):
            worst = min(worst, float(np.min(w)) / max(1.0, float(np.abs(w).sum())))
    if worst < -1e-9:
        out.append(f"{what}: off-centre weight {worst:.3e} (relative) < 0")
    if not all(bool(g) for g in gcp_flags):
        out.append(f"{what}: {sum(not g for g in gcp_flags)} rows fail the sign test flag")
    return out


def kernel_fields(c_field, b_field, kernel: dict, grid_shape: tuple,
                  spacing: float, what: str) -> list[str]:
    """At interior nodes C is the kernel's row sum and B its |y| < 1 first moment."""
    offs = np.array(list(kernel), dtype=np.int64)
    wts = np.array(list(kernel.values()))
    reach = int(np.max(np.abs(offs)))
    idx = np.indices(grid_shape).reshape(len(grid_shape), -1).T
    n = np.asarray(grid_shape)
    interior = np.all((idx >= reach) & (idx < n - reach), axis=1)
    if not np.any(interior):
        return [f"{what}: no interior node"]
    y = offs * spacing
    r = np.linalg.norm(y, axis=1)
    inside = (r > 0.0) & (r < 1.0)
    c_want = float(wts.sum())
    b_want = (wts * inside) @ y
    scale = float(np.abs(wts).sum())
    c = np.asarray(c_field)[interior]
    b = np.asarray(b_field)[interior]
    return (close(c, np.full(c.shape, c_want), 1e-6, f"{what}: C field", scale)
            + close(b, np.broadcast_to(b_want, b.shape), 1e-6, f"{what}: B field",
                    scale))


def fitted_rate(spacings, errors, minimum: float, what: str) -> list[str]:
    """Least-squares slope of log error against log spacing is >= minimum."""
    h = np.asarray(spacings, dtype=float)
    e = np.asarray(errors, dtype=float)
    if np.any(e <= 0.0):
        return [f"{what}: non-positive error in {e.tolist()}"]
    slope = float(np.polyfit(np.log(h), np.log(e), 1)[0])
    if slope < minimum:
        return [f"{what}: fitted rate {slope:.3f} < {minimum}"]
    return []
