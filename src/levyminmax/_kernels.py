"""Hot kernels: cube cover queries, partition weights, extension evaluation.

Single source of truth for the lattice-periodic cube geometry.  The scalar
forms (`cover`, `partition_point`, `extend_point`) are plain Python over
floats, ints and tuples; the batch forms (`partition_batch`,
`extend_batch`) run the same cover and blend in NumPy over all the rows of
an (m, d) array at once and equal the scalar forms row by row, bit for bit.
`partition_batch` is the only partition sum in use; it hands rows beyond
EXACT_UNIT to `partition_point`.
All arithmetic is dyadic-exact: sides are powers of two, cube corners are
integer multiples of the side.  The extension blend receives its polynomial
coefficients (value, gradient and Hessian fields from `calculus`) as flat
fields and computes no stencils; `_poly_eval` and the weighted sum are the
same code on one point's floats and on a batch's per-axis arrays.
`extend_many` is the loop of `extend_point` over the rows of an array.

A batch call costs a fixed amount of NumPy set-up, so
`whitney.ExtendedFn.values` keeps batches below BATCH_MIN rows on the
scalar loop `extend_many`.

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


def partition_point(x, d, h):
    """Raw bump total and normalized weight total at one physical point x
    (d floats): (-1, -1) within the snap tolerance of a node."""
    xi = [v / h for v in x]
    if snapped_node(xi) is not None:
        return -1.0, -1.0
    weights = [w for _, _, _, w in cover(xi, d)]
    raw = 0.0
    for w in weights:
        raw += w
    norm = 0.0
    if raw > 0.0:
        for w in weights:
            norm += w / raw
    return raw, norm


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


# --- batch forms --------------------------------------------------------------

# Measured crossover: below this many rows the per-point loop beats the
# fixed NumPy cost of a batch call (CHANGES.md has the timings).
BATCH_MIN = 64
# Unit-frame coordinates below 2**25 keep q = v * 2**k (k <= 28 off the snap
# tolerance) and every index the cover derives from it exact integers in
# floats; the rare row beyond takes the scalar kernel.
EXACT_UNIT = 2.0 ** 25
# Rows per pass through the cover: bounds the batch's working arrays.
CHUNK_ROWS = 1 << 14


@functools.cache
def _kept_table(d):
    """`_kept_indices` as a read-only flat boolean table over [-b-1, b]^d
    (C order, width 2 b + 2), and b."""
    b = math.isqrt(16 * d - 1)
    width = 2 * b + 2
    table = np.zeros(width ** d, dtype=bool)
    for m in _kept_indices(d):
        pos = 0
        for mi in m:
            pos = pos * width + mi + b + 1
        table[pos] = True
    table.setflags(write=False)
    return table, b


def _split(pts, h):
    """Unit-frame points of the (m, d) array pts, their nearest nodes and the
    squared distances to them, as `snapped_node` and `cover` compute them."""
    xi = pts / h
    z = np.floor(xi + 0.5)
    r = xi - z
    d2 = r[:, 0] * r[:, 0]
    for i in range(1, xi.shape[1]):
        d2 = d2 + r[:, i] * r[:, i]
    return xi, z, d2


def _cover_slots(xi, d2, d):
    """`cover` at every row of the unit-frame array xi at once.

    Rows lie off the snap tolerance (d2, their squared lattice distance, is
    at least SNAP_TOL_UNIT**2) and within EXACT_UNIT.  A slot is one of the
    window's 3 generations and one of the 2**d combinations of per-axis
    candidates.  Yields, per generation, (rows, cells, w, cuts): the slots
    of that generation in `cover`'s order (earlier axes fastest), slot t
    holding entries cuts[t]:cuts[t + 1].  An entry is a row that holds a
    kept, positive-weight cube in that slot, its d cell coordinates
    (integer-valued float arrays) and its weight; a row holds at most one
    entry per slot.  Generations come in ascending order, so a row's entries
    come in the order `cover` lists its cubes.
    """
    k0 = 0.5 * np.log(d / d2) / math.log(2.0)
    kmin = np.maximum(np.ceil(k0 - 0.1), 1.0)
    kmax = np.minimum(np.floor(k0) + 2.0, KMAX)
    table, b = _kept_table(d)
    width = 2 * b + 2
    for j in range(3):
        sub = np.flatnonzero(kmin + j <= kmax)
        k = (kmin[sub] + j).astype(np.int64)
        s = np.ldexp(1.0, -k)
        pk = np.ldexp(1.0, k)
        # per axis, two candidate slots: (-1, 0) below the 1/16 gate, (0, 1)
        # above the 15/16 gate, (0, absent) between
        axes = []
        for i in range(d):
            v = xi[sub, i]
            q = v / s
            base = np.floor(q)
            frac = q - base
            low = frac < 0.0625
            high = frac > 0.9375
            cands = []
            for off, wall, w in ((np.where(low, -1.0, 0.0), low,
                                  np.ones(sub.size)),
                                 (np.where(high, 1.0, 0.0), high,
                                  (low | high).astype(float))):
                mg = base + off
                ci = mg * s + 0.5 * s
                # the neighbour's weight: the scalar bump, as in `cover`
                w[wall] = [bump1(t) for t in
                           ((v[wall] - ci[wall]) / s[wall]).tolist()]
                zi = np.floor(ci + 0.5)
                # cell-local index, shifted into the table's range [0, width)
                ml = mg - zi * pk + (b + 1)
                cands.append((w, zi, ml, (w > 0.0) & (ml >= 0.0) & (ml < width)))
            axes.append(cands)
        parts = []
        for c in range(1 << d):
            pick = [axes[i][(c >> i) & 1] for i in range(d)]
            ok = pick[0][3]
            for _, _, _, oki in pick[1:]:
                ok = ok & oki
            rows = np.flatnonzero(ok)
            flat = pick[0][2][rows]
            for _, _, ml, _ in pick[1:]:
                flat = flat * width + ml[rows]
            rows = rows[table[flat.astype(np.intp)]]
            # weights multiply left to right, as in `cover`
            w = pick[0][0][rows]
            for wi, _, _, _ in pick[1:]:
                w = w * wi[rows]
            parts.append((rows, [zi[rows] for _, zi, _, _ in pick], w))
        rows = np.concatenate([r for r, _, _ in parts])
        cells = [np.concatenate([cs[i] for _, cs, _ in parts])
                 for i in range(d)]
        cuts = np.cumsum([0] + [r.size for r, _, _ in parts]).tolist()
        yield sub[rows], cells, np.concatenate([w for _, _, w in parts]), cuts


def _pos_many(n_half, cells):
    """`_pos` of the nodes given by d integer-valued float arrays: int64
    positions, -1 outside the field."""
    inside = np.abs(cells[0]) <= n_half
    for z in cells[1:]:
        inside &= np.abs(z) <= n_half
    pos = np.zeros(inside.size, dtype=np.int64)
    for z in cells:
        pos = pos * (2 * n_half + 1) + np.where(inside, z, 0.0).astype(np.int64) \
            + n_half
    return np.where(inside, pos, -1)


def _regular_rows(xi, d2):
    """Rows off the snap tolerance, split into those within EXACT_UNIT and
    the others (non-finite ones included, which the scalar kernel refuses)."""
    off = ~(d2 < SNAP_TOL_UNIT * SNAP_TOL_UNIT)
    near = np.max(np.abs(xi), axis=1) < EXACT_UNIT
    return np.flatnonzero(off & near), np.flatnonzero(off & ~near)


def _partition_rows(xi, d2, d):
    """(raw, norm) columns at rows off the snap tolerance and within
    EXACT_UNIT, given in the unit frame."""
    raw = np.zeros(len(xi))
    gens = []
    for r, _, w, cuts in _cover_slots(xi, d2, d):
        for lo, hi in zip(cuts, cuts[1:]):
            raw[r[lo:hi]] += w[lo:hi]
        gens.append((r, w, cuts))
    norm = np.zeros(len(xi))
    for r, w, cuts in gens:
        for lo, hi in zip(cuts, cuts[1:]):
            norm[r[lo:hi]] += w[lo:hi] / raw[r[lo:hi]]
    return np.column_stack([raw, norm])


def partition_batch(pts, h, d):
    """`partition_point` at every row of the (m, d) array pts, in NumPy,
    shape (m, 2).

    Column 0 is the sum of bump weights over active cubes (coverage demands
    >= 1); column 1 the sum of normalized partition weights (1 in floats).
    """
    xi, _, d2 = _split(pts, h)
    out = np.full((len(pts), 2), -1.0)
    rows, far = _regular_rows(xi, d2)
    for r in far.tolist():
        out[r] = partition_point(pts[r].tolist(), d, h)
    for lo in range(0, rows.size, CHUNK_ROWS):
        part = rows[lo:lo + CHUNK_ROWS]
        out[part] = _partition_rows(xi[part], d2[part], d)
    return out


def _extend_rows(pts, xi, d2, coeffs, n_half, d, h):
    """The blend at rows off the snap tolerance and within EXACT_UNIT, given
    as physical points pts and unit-frame points xi."""
    x = [pts[:, i] for i in range(d)]
    num = np.zeros(len(pts))
    den = np.zeros(len(pts))
    for r, cells, w, cuts in _cover_slots(xi, d2, d):
        p = _pos_many(n_half, cells)
        a = np.flatnonzero(p >= 0)
        pj = np.zeros(r.size)
        pj[a] = _poly_eval(coeffs, p[a], d, h, [c[a] for c in cells],
                           [xk[r[a]] for xk in x])
        for lo, hi in zip(cuts, cuts[1:]):
            num[r[lo:hi]] += w[lo:hi] * pj[lo:hi]
            den[r[lo:hi]] += w[lo:hi]
    val = np.full(len(pts), math.nan)
    np.divide(num, den, out=val, where=den > 0.0)
    return val


def extend_batch(pts, coeffs, n_half, d, h):
    """`extend_point` at every row of the (m, d) array pts, in NumPy.

    coeffs are the flat fields of `extend_point` (arrays, or sequences
    converted here).  Rows go through the cover CHUNK_ROWS at a time, and
    num and den accumulate one cover slot at a time.
    """
    coeffs = [np.asarray(c, dtype=float) for c in coeffs]
    xi, z, d2 = _split(pts, h)
    out = np.empty(len(pts))
    node = np.flatnonzero(d2 < SNAP_TOL_UNIT * SNAP_TOL_UNIT)
    p = _pos_many(n_half, [z[node, i] for i in range(d)])
    out[node] = np.where(p >= 0, coeffs[0][p], 0.0)
    rows, far = _regular_rows(xi, d2)
    for r in far.tolist():
        out[r] = extend_point(pts[r].tolist(), coeffs, n_half, d, h)
    for lo in range(0, rows.size, CHUNK_ROWS):
        part = rows[lo:lo + CHUNK_ROWS]
        out[part] = _extend_rows(pts[part], xi[part], d2[part], coeffs,
                                 n_half, d, h)
    return out
