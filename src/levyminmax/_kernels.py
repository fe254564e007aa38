"""Hot kernels: cube cover queries, partition weights, extension evaluation.

Single source of truth for the lattice-periodic cube geometry, written as
plain Python over floats, ints and tuples.  All arithmetic is dyadic-exact:
sides are powers of two, cube corners are integer multiples of the side.

Geometry, in lattice units (spacing 1, lattice = the integer points):
cell-local cubes of generation k have side 2**-k inside [-1/2, 1/2]^d and a
cube is kept when it meets the half-open shell {2 sqrt(d) 2**-k <= |x| <
2 sqrt(d) 2**-(k-1)} while no dyadic ancestor meets its own shell.  Kept
cubes have
dist/diam in [1, 4] against the lattice and tile the cell around the origin;
translating by integer vectors tiles space minus the lattice.  The inflation
factor for supports is 9/8.

A query point sees at most 5 generations of 3**d candidates each, so a
cover holds at most 135 cubes in d = 3.
"""
import math

import numpy as np

# perfbench/worker.py reads this flag to report the backend of a run.
JIT_ENABLED = False

KMAX = 30                # generation safety cap (float scale degenerates beyond)
SNAP_TOL_UNIT = 2.0 ** -26   # closer than this to a node: use the node value
SUPPORT_FACTOR = 9.0 / 16.0  # support half-width of the bump, in sides


def ramp(t):
    """Smooth nondecreasing ramp: 0 for t<=0, 1 for t>=1."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    qa = math.exp(-1.0 / t)
    qb = math.exp(-1.0 / (1.0 - t))
    return qa / (qa + qb)


def bump1(t):
    """1-d bump: 1 on [-1/2,1/2], 0 outside (-9/16, 9/16), smooth monotone walls."""
    a = abs(t)
    if a <= 0.5:
        return 1.0
    if a >= SUPPORT_FACTOR:
        return 0.0
    return 1.0 - ramp((a - 0.5) * 16.0)


def _ring_test(m):
    """Does the cell-local cube with corner index m meet its generation's shell?

    Exact integer arithmetic in side units: the cube is [m, m+1]^d and the
    half-open shell is 4d <= |x|^2 < 16d.  The test is scale invariant, so
    the same function serves every generation (ancestors included).
    """
    minr2 = 0
    maxr2 = 0
    for mi in m:
        near, far = (mi, mi + 1) if mi >= 0 else (-mi - 1, -mi)
        minr2 += near * near
        maxr2 += far * far
    d = len(m)
    return minr2 < 16 * d and maxr2 >= 4 * d


def _selected(k, m):
    """Cube is kept: meets its shell and no dyadic ancestor meets its own."""
    if not _ring_test(m):
        return False
    for shift in range(1, k):
        if _ring_test(tuple(mi >> shift for mi in m)):
            return False
    return True


def cover(xi, d):
    """All kept cubes whose inflated support contains the unit-frame point xi.

    Returns (cell, generation, index, weight) tuples: cell lattice point,
    generation, cell-local corner index and bump weight.  The list is empty
    when xi sits on the lattice closer than the enumeration can resolve.
    """
    # distance to the lattice sets the relevant generations
    d2 = 0.0
    for v in xi:
        zi = math.floor(v + 0.5)
        d2 += (v - zi) * (v - zi)
    if d2 <= 0.0:
        return []
    k0 = 0.5 * math.log(d / d2) / math.log(2.0)
    kmin = max(math.floor(k0) - 1, 1)
    kmax = min(math.floor(k0) + 3, KMAX)
    found = []
    for k in range(kmin, kmax + 1):
        s = 2.0 ** (-k)
        pk = 1 << k
        half = 1 << (k - 1)
        # per axis: (cell, cell-local index, weight) of the positive-weight
        # candidates whose centre lies in the cell they are assigned to
        combos = [((), (), 1.0)]
        for v in xi:
            axis = []
            base = math.floor(v / s)
            for off in (-1, 0, 1):
                mg = base + off
                ci = mg * s + 0.5 * s
                wi = bump1((v - ci) / s)
                if wi <= 0.0:
                    continue
                # centers are never half-integers, so floor(c+1/2) is safe
                zi = math.floor(ci + 0.5)
                ml = mg - zi * pk
                if -half <= ml <= half - 1:
                    axis.append((zi, ml, wi))
            # earlier axes vary fastest; weights multiply left to right
            combos = [(cell + (zi,), index + (ml,), w * wi)
                      for zi, ml, wi in axis for cell, index, w in combos]
        for cell, index, w in combos:
            if _selected(k, index):
                found.append((cell, k, index, w))
    return found


def partition_sums(pts, h, d):
    """Raw bump total and normalized weight total per point (unit-frame scale h).

    Column 0 is the sum of bump weights over active cubes (coverage demands
    >= 1); column 1 the sum of normalized partition weights (1 in floats).
    Points within the snap tolerance of a node get the sentinel (-1, -1).
    """
    out = []
    for row in pts.tolist():
        xi = [v / h for v in row]
        d2 = 0.0
        for v in xi:
            zi = math.floor(v + 0.5)
            d2 += (v - zi) * (v - zi)
        if d2 < SNAP_TOL_UNIT * SNAP_TOL_UNIT:
            out.append((-1.0, -1.0))
            continue
        weights = [w for _, _, _, w in cover(xi, d)]
        raw = 0.0
        for w in weights:
            raw += w
        norm = 0.0
        if raw > 0.0:
            for w in weights:
                norm += w / raw
        out.append((raw, norm))
    return np.array(out, dtype=float).reshape(-1, 2)


def _val(values, n_half, z):
    """Zero-padded flat read of node z (index sequence)."""
    pos = 0
    width = 2 * n_half + 1
    for zi in z:
        if zi < -n_half or zi > n_half:
            return 0.0
        pos = pos * width + (zi + n_half)
    return values[pos]


def _poly_eval(values, n_half, d, h, z, x, beta_case):
    """Interpolating polynomial anchored at node z, evaluated at physical x.

    Constant / affine / quadratic by beta_case, with stencil derivatives at
    the anchor read from the zero-padded node array.
    """
    zi = list(z)
    u0 = _val(values, n_half, zi)
    acc = u0
    if beta_case >= 1:
        for k in range(d):
            zi[k] = z[k] + 1
            up = _val(values, n_half, zi)
            zi[k] = z[k] - 1
            um = _val(values, n_half, zi)
            zi[k] = z[k]
            gk = (up - um) / (2.0 * h)
            acc += gk * (x[k] - z[k] * h)
    if beta_case >= 2:
        for k in range(d):
            dxk = x[k] - z[k] * h
            for l in range(d):
                dxl = x[l] - z[l] * h
                zi[k] += 1
                zi[l] += 1
                upp = _val(values, n_half, zi)
                zi[l] -= 1
                upk = _val(values, n_half, zi)
                zi[k] -= 1
                zi[l] += 1
                upl = _val(values, n_half, zi)
                zi[l] -= 1
                hkl = (upp - upk - upl + u0) / (h * h)
                acc += 0.5 * hkl * dxk * dxl
    return acc


def extend_many(pts, values, n_half, d, h, beta_case):
    """Evaluate the extension of node data (flat list) at many physical points.

    Node points return the stored value; off-lattice points blend the
    anchored polynomials of the active cubes with normalized bump weights.
    """
    out = []
    for x in pts.tolist():
        xi = [v / h for v in x]
        z = [math.floor(v + 0.5) for v in xi]
        d2 = 0.0
        for v, zi in zip(xi, z):
            d2 += (v - zi) * (v - zi)
        if d2 < SNAP_TOL_UNIT * SNAP_TOL_UNIT:
            out.append(_val(values, n_half, z))
            continue
        num = 0.0
        den = 0.0
        for cell, _, _, w in cover(xi, d):
            pj = _poly_eval(values, n_half, d, h, cell, x, beta_case)
            num += w * pj
            den += w
        out.append(num / den if den > 0.0 else math.nan)
    return np.array(out, dtype=float)
