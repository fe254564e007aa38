"""Hot kernels: cube cover queries, partition weights, extension evaluation.

Single source of truth for the lattice-periodic cube geometry, written as
plain Python over floats, ints and tuples.  All arithmetic is dyadic-exact:
sides are powers of two, cube corners are integer multiples of the side.
The extension blend receives its polynomial coefficients (value, gradient
and Hessian fields from `calculus`) as flat lists and computes no stencils.
`extend_point` is the one blend, at one point given as a list of floats;
`extend_many` is the loop of it over the rows of an array.

Geometry, in lattice units (spacing 1, lattice = the integer points):
cell-local cubes of generation k have side 2**-k inside [-1/2, 1/2]^d and a
cube is kept when it meets the half-open shell {2 sqrt(d) 2**-k <= |x| <
2 sqrt(d) 2**-(k-1)} while no dyadic ancestor meets its own shell.  Kept
cubes have
dist/diam in [1, 4] against the lattice and tile the cell around the origin;
translating by integer vectors tiles space minus the lattice.  The inflation
factor for supports is 9/8.

A query point sees 2 or 3 generations (see `cover`).  On each axis only
the cube holding the point and, within 1/16 of a side from a face, its
neighbour across that face have positive weight, so a generation adds at
most 2**d cubes and a cover holds at most 24 cubes in d = 3.
"""
import functools
import itertools
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


def corner_radii2(m):
    """Squared distances from the origin to the nearest and farthest point of
    the cube [m, m+1]^d (integers, in side units).

    An axis on which the cube straddles 0 adds nothing to the near distance.
    """
    near2 = 0
    far2 = 0
    for mi in m:
        near, far = (mi, mi + 1) if mi >= 0 else (-mi - 1, -mi)
        near2 += near * near
        far2 += far * far
    return near2, far2


def _ring_test(m):
    """Does the cell-local cube with corner index m meet its generation's shell?

    Exact integer arithmetic in side units: the cube is [m, m+1]^d and the
    half-open shell is 4d <= |x|^2 < 16d.  The test is scale invariant, so
    the same function serves every generation (ancestors included).
    """
    near2, far2 = corner_radii2(m)
    d = len(m)
    return near2 < 16 * d and far2 >= 4 * d


def _selected(m):
    """Cube is kept: meets its shell and no dyadic ancestor meets its own.

    Only the parent (index m >> 1) needs a test, in every generation.  In
    units of the cube's side, a cube meeting its shell has a point p with
    |p| < 4 sqrt(d).  Its ancestor j levels up (index m >> j, side 2**j)
    contains p and has diameter 2**j sqrt(d), so its farthest point lies
    below (4 + 2**j) sqrt(d) <= 2**(j+1) sqrt(d) when j >= 2: the inner
    radius of that ancestor's shell, which it therefore misses.  A
    generation-1 cube has no parent, but its index lies in {-1, 0}**d, where
    far**2 = d < 4 d, so it misses its own shell and the test changes nothing.
    """
    return _ring_test(m) and not _ring_test(tuple(mi >> 1 for mi in m))


@functools.cache
def _kept_indices(d):
    """Corner indices of the kept cubes of all generations, in dimension d.

    Selection does not depend on the generation (see `_selected`), and a
    kept index has near_i <= b = isqrt(16 d - 1), so m_i lies in [-b-1, b].
    Built on first use: 2744 candidates in d = 3.
    """
    b = math.isqrt(16 * d - 1)
    axis = range(-b - 1, b + 1)
    return frozenset(m for m in itertools.product(axis, repeat=d)
                     if _selected(m))


def snapped_node(xi):
    """The lattice point nearest the unit-frame point xi, as a list of ints,
    when xi lies closer to it than SNAP_TOL_UNIT (Euclidean); else None."""
    z = [math.floor(v + 0.5) for v in xi]
    d2 = 0.0
    for v, zi in zip(xi, z):
        d2 += (v - zi) * (v - zi)
    return z if d2 < SNAP_TOL_UNIT * SNAP_TOL_UNIT else None


def cover(xi, d):
    """All kept cubes whose inflated support contains the unit-frame point xi.

    Returns (cell, generation, index, weight) tuples: cell lattice point,
    generation, cell-local corner index and bump weight.  The list is empty
    when xi sits on the lattice closer than the enumeration can resolve.

    Generations: let delta be the lattice distance of xi and
    k0 = log2(sqrt(d) / delta).  A kept cube Q of generation k (side
    s = 2**-k) meets its shell, so it lies at least 2 sqrt(d) s - diam =
    sqrt(d) s from its node, which is its nearest node.  Its parent holds
    points of Q, below the outer radius of the parent's shell, so the parent
    misses that shell by lying inside its inner radius: far**2 <= 4 d - 1 in
    the parent's integer units, so Q lies within 2 sqrt(4 d - 1) s of the
    node.  A point of the 9/8-inflated support is less than sqrt(d) s / 16
    from Q, so
    (15/16) sqrt(d) s < delta < (2 sqrt(4 d - 1) + sqrt(d) / 16) s
    < 4 sqrt(d) s for d <= 3, that is k0 + log2(15/16) < k < k0 + 2.  The
    window ceil(k0 - 0.1) .. floor(k0) + 2 holds three generations when
    k0 - floor(k0) <= 0.1 and two otherwise; the margin from
    -log2(15/16) = 0.093 to 0.1 absorbs the rounding of k0.

    Candidates per axis, with q = v/s and frac = q - floor(q): the cube
    holding v has |(v - c)/s| <= 1/2 and weight exactly 1; the neighbour
    below can have positive weight only when frac < 1/16, the one above only
    when frac > 15/16.  At most one of the two is evaluated.  This holds in
    floats too: q is exact, rounding is monotone and s/2, 9s/16 are floats;
    frac rounds only for q in (-1/2, 0), where 1 + q and the neighbour's
    1/2 - q round on the same grid, so a gate closed by rounding drops a
    weight that evaluates to exactly 0.
    """
    # distance to the lattice sets the relevant generations
    d2 = 0.0
    for v in xi:
        zi = math.floor(v + 0.5)
        d2 += (v - zi) * (v - zi)
    if d2 <= 0.0:
        return []
    k0 = 0.5 * math.log(d / d2) / math.log(2.0)
    kmin = max(math.ceil(k0 - 0.1), 1)
    kmax = min(math.floor(k0) + 2, KMAX)
    kept = _kept_indices(d)
    found = []
    for k in range(kmin, kmax + 1):
        s = 2.0 ** (-k)
        pk = 1 << k
        # per axis: (cell, cell-local index, weight) of the positive-weight
        # candidates; the cell is the node nearest the centre c, so the
        # index (c - cell)/s - 1/2 always lies in [-pk/2, pk/2 - 1]
        combos = [((), (), 1.0)]
        for v in xi:
            axis = []
            q = v / s
            base = math.floor(q)
            frac = q - base
            offs = (-1, 0) if frac < 0.0625 else (0, 1) if frac > 0.9375 else (0,)
            for off in offs:
                mg = base + off
                ci = mg * s + 0.5 * s
                wi = bump1((v - ci) / s) if off else 1.0
                if wi <= 0.0:
                    continue
                # centers are never half-integers, so floor(c+1/2) is safe
                zi = math.floor(ci + 0.5)
                axis.append((zi, mg - zi * pk, wi))
            # earlier axes vary fastest; weights multiply left to right
            combos = [(cell + (zi,), index + (ml,), w * wi)
                      for zi, ml, wi in axis for cell, index, w in combos]
        for cell, index, w in combos:
            if index in kept:
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
        if snapped_node(xi) is not None:
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


def _pos(n_half, z):
    """Flat position of node z (index sequence) in a field of half-width
    n_half, or -1 when z lies outside it."""
    pos = 0
    width = 2 * n_half + 1
    for zi in z:
        if zi < -n_half or zi > n_half:
            return -1
        pos = pos * width + (zi + n_half)
    return pos


def _poly_eval(coeffs, p, d, h, z, x):
    """Polynomial anchored at node z (field position p), evaluated at physical x.

    Constant / affine / quadratic by the number of coefficient fields.
    """
    acc = coeffs[0][p]
    if len(coeffs) > 1:
        grad = coeffs[1]
        for k in range(d):
            acc += grad[p * d + k] * (x[k] - z[k] * h)
    if len(coeffs) > 2:
        hess = coeffs[2]
        q = p * d * d
        for k in range(d):
            dxk = x[k] - z[k] * h
            for l in range(d):
                dxl = x[l] - z[l] * h
                acc += 0.5 * hess[q + k * d + l] * dxk * dxl
    return acc


def extend_point(x, coeffs, n_half, d, h):
    """Evaluate the extension of node data at one physical point x (d floats).

    coeffs holds the flat value field, then the gradient field (d entries per
    node) and the Hessian field (d*d per node) as far as the regularity case
    blends them, all over the nodes of half-width n_half; anchors outside it
    carry the zero polynomial.  A node point returns the stored value; an
    off-lattice point blends the anchored polynomials of the active cubes
    with normalized bump weights, and gets NaN when no cube covers it.
    """
    xi = [v / h for v in x]
    z = snapped_node(xi)
    if z is not None:
        p = _pos(n_half, z)
        return coeffs[0][p] if p >= 0 else 0.0
    num = 0.0
    den = 0.0
    for cell, _, _, w in cover(xi, d):
        p = _pos(n_half, cell)
        pj = _poly_eval(coeffs, p, d, h, cell, x) if p >= 0 else 0.0
        num += w * pj
        den += w
    return num / den if den > 0.0 else math.nan


def extend_many(pts, coeffs, n_half, d, h):
    """`extend_point` at each row of the (m, d) array pts."""
    return np.array([extend_point(x, coeffs, n_half, d, h)
                     for x in pts.tolist()], dtype=float)
