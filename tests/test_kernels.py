"""Geometry kernel outputs pinned against recorded values.

The expected values below were recorded from the kernel as it stood before
its rewrite to plain Python and are stored as hex floats.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from levyminmax import _kernels
from levyminmax.calculus import (FIELD_MARGIN, dgrad_padded, dhess_padded,
                                 value_field)
from levyminmax.grid import DyadicGrid, GridFunction


def _inputs(d):
    """Node values and query points on the n_half = 2, h = 1/2 grid in d dims."""
    rng = np.random.default_rng(70 + d)
    n_half, h = 2, 0.5
    values = rng.standard_normal((2 * n_half + 1) ** d)
    sign = (-1.0) ** np.arange(d)
    pts = np.vstack([
        rng.uniform(-1.6, 1.6, size=(4, d)),       # the box is [-1, 1]^d
        h * (1.0 + 0.255 * sign),                  # two generations overlap
        h * 0.51 * sign,                           # cubes of 2**d cells overlap
        h * (1.0 + 3e-9 * sign),                   # inside the snap tolerance
        h * (-1.0 - 1e-7 * sign),                  # just outside it
    ])
    return n_half, h, values, pts


EXTEND = {  # [case 0, case 1, case 2] values per point
    1: [
        [
            '0x0.0p+0', '-0x1.c2f796e81e770p-4', '0x1.8f1f2eb0dd515p-5',
            '-0x1.6caeaab90b778p-4', '-0x1.6caeaab90b777p-4', '-0x1.7cbf1e37bdf37p-4',
            '-0x1.6caeaab90b778p-4', '0x1.094cba4e95392p-1',
        ],
        [
            '0x1.28b5e861c6f65p-9', '-0x1.3daa9d4f980ecp-3', '0x1.260baaa022e9cp-4',
            '-0x1.b71883d19d2bap-3', '-0x1.660d4330342a0p-7', '-0x1.f3902cc4afc2ep-3',
            '-0x1.6caeaab90b778p-4', '0x1.094cba92cbb3ep-1',
        ],
        [
            '0x1.0b6717c759fbep-8', '-0x1.30d37f53d4fe7p-3', '0x1.14395afe247f9p-4',
            '-0x1.3962f577f78a4p-2', '-0x1.7ce7087e481e0p-5', '-0x1.5917131c96794p-2',
            '-0x1.6caeaab90b778p-4', '0x1.094cba92cbb5bp-1',
        ],
    ],
    2: [
        [
            '0x1.e819e3a416328p-2', '0x0.0p+0', '0x1.2be0060a66a7fp-1',
            '0x1.1cdd6695dbf60p+0', '-0x1.86e82f91172b0p-1', '0x1.d52a61dd7723bp-6',
            '-0x1.86e82f91172b1p-1', '0x1.00b69dd6d8e21p+0',
        ],
        [
            '0x1.f6801ea84e3e7p-2', '0x1.f46faa7237afap-7', '0x1.e8d449887b905p-1',
            '0x1.3c62d53389a48p+0', '-0x1.04c9d7f53bd57p+0', '0x1.4893cd2296114p-4',
            '-0x1.86e82f91172b1p-1', '0x1.00b6a089beab4p+0',
        ],
        [
            '0x1.e8a55a8df1c60p-2', '0x1.f46faa7237afap-7', '0x1.373daab0e3bb4p+0',
            '0x1.59d1742586a91p+0', '-0x1.0d91e61be1d3bp+0', '-0x1.9e687fc221270p-5',
            '-0x1.86e82f91172b1p-1', '0x1.00b6a089beaabp+0',
        ],
    ],
    3: [
        [
            '-0x1.553d2d6ceea8dp-3', '0x0.0p+0', '0x0.0p+0',
            '0x1.13e801dfebe12p-2', '0x1.6e58e52acdc5dp-5', '0x1.7fbfd39d4a27fp-2',
            '0x1.6e58e52acdc5dp-5', '0x1.dc2767bf7bbcdp-1',
        ],
        [
            '-0x1.3d2bb2f7f306dp-1', '-0x1.79ff3dee27621p-7', '0x0.0p+0',
            '0x1.f2cf1390e20abp-2', '0x1.8581bcf48c30cp-2', '0x1.039587e8def23p-1',
            '0x1.6e58e52acdc5dp-5', '0x1.dc276dd379e64p-1',
        ],
        [
            '-0x1.300c7dbcf589bp+0', '-0x1.79ff3dee27621p-7', '0x0.0p+0',
            '0x1.4f596192e0852p-2', '0x1.b2ff9ec8a194bp-3', '0x1.163841addab89p+0',
            '0x1.6e58e52acdc5dp-5', '0x1.dc276dd37a048p-1',
        ],
    ],
}
PSUMS = {  # (raw, normalized) per point
    1: [
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.3a90933bdebcap+0', '0x1.fffffffffffffp-1'),
        ('0x1.3a90933bdeb56p+0', '0x1.0000000000000p+0'),
        ('-0x1.0000000000000p+0', '-0x1.0000000000000p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ],
    2: [
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.32a86b6e1408ap+0', '0x1.fffffffffffffp-1'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.8286fad4d6664p+0', '0x1.fffffffffffffp-1'),
        ('0x1.8286fad4d65d6p+0', '0x1.fffffffffffffp-1'),
        ('-0x1.0000000000000p+0', '-0x1.0000000000000p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ],
    3: [
        ('0x1.00005273d6b18p+0', '0x1.0000000000000p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
        ('0x1.203b848b56bd4p+0', '0x1.0000000000001p+0'),
        ('0x1.daf3d9e40e23ep+0', '0x1.fffffffffffffp-1'),
        ('0x1.daf3d9e40e0e2p+0', '0x1.fffffffffffffp-1'),
        ('-0x1.0000000000000p+0', '-0x1.0000000000000p+0'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0'),
    ],
}
COVERS = {  # (cell, generation, index, weight) per cube, per point
    1: [
        [((-3,), 4, (1,), '0x1.0000000000000p+0')],
        [((0,), 3, (1,), '0x1.0000000000000p+0')],
        [((-2,), 4, (1,), '0x1.0000000000000p+0')],
        [((1,), 2, (-2,), '0x1.0000000000000p+0')],
        [
            ((1,), 2, (1,), '0x1.0000000000000p+0'),
            ((1,), 3, (1,), '0x1.d48499def5e4cp-3'),
        ],
        [
            ((0,), 2, (1,), '0x1.d48499def5ab4p-3'),
            ((1,), 2, (-2,), '0x1.0000000000000p+0'),
        ],
        [((1,), 29, (1,), '0x1.0000000000000p+0')],
        [((-1,), 24, (-2,), '0x1.0000000000000p+0')],
    ],
    2: [
        [((0, 0), 4, (-3, -2), '0x1.0000000000000p+0')],
        [((3, -1), 3, (-1, 2), '0x1.0000000000000p+0')],
        [
            ((-2, 0), 3, (-1, -4), '0x1.0000000000000p+0'),
            ((-2, 0), 3, (0, -4), '0x1.95435b70a044cp-3'),
        ],
        [((-1, 0), 3, (-2, -3), '0x1.0000000000000p+0')],
        [
            ((1, 1), 2, (1, -2), '0x1.0000000000000p+0'),
            ((1, 1), 3, (1, -3), '0x1.d48499def5e4cp-3'),
            ((1, 1), 3, (1, -2), '0x1.acba8ba31e868p-5'),
            ((1, 1), 3, (2, -2), '0x1.d48499def5ab4p-3'),
        ],
        [
            ((0, -1), 2, (1, 1), '0x1.d48499def5ab4p-3'),
            ((1, -1), 2, (-2, 1), '0x1.0000000000000p+0'),
            ((0, 0), 2, (1, -2), '0x1.acba8ba31e51ep-5'),
            ((1, 0), 2, (-2, -2), '0x1.d48499def5ab4p-3'),
        ],
        [((1, 1), 29, (1, -2), '0x1.0000000000000p+0')],
        [((-1, -1), 24, (-2, 1), '0x1.0000000000000p+0')],
    ],
    3: [
        [
            ((-2, 1, -2), 3, (-2, -1, -4), '0x1.49cf5ac620000p-18'),
            ((-2, 1, -2), 3, (-2, 0, -4), '0x1.0000000000000p+0'),
        ],
        [((3, 0, 0), 3, (-1, -4, 1), '0x1.0000000000000p+0')],
        [((3, -1, -3), 4, (-2, 4, 1), '0x1.0000000000000p+0')],
        [
            ((-1, 1, 2), 3, (-2, -1, -4), '0x1.01dc245ab5ea4p-3'),
            ((-1, 1, 2), 3, (-2, 0, -4), '0x1.0000000000000p+0'),
        ],
        [
            ((1, 1, 1), 2, (1, -2, 1), '0x1.0000000000000p+0'),
            ((1, 1, 1), 3, (1, -3, 1), '0x1.acba8ba31ebb2p-5'),
            ((1, 1, 1), 3, (2, -3, 1), '0x1.d48499def5e4cp-3'),
            ((1, 1, 1), 3, (1, -2, 1), '0x1.88518c938b787p-7'),
            ((1, 1, 1), 3, (2, -2, 1), '0x1.acba8ba31e868p-5'),
            ((1, 1, 1), 3, (1, -3, 2), '0x1.d48499def5e4cp-3'),
            ((1, 1, 1), 3, (1, -2, 2), '0x1.acba8ba31e868p-5'),
            ((1, 1, 1), 3, (2, -2, 2), '0x1.d48499def5ab4p-3'),
        ],
        [
            ((0, -1, 0), 2, (1, 1, 1), '0x1.acba8ba31e51ep-5'),
            ((1, -1, 0), 2, (-2, 1, 1), '0x1.d48499def5ab4p-3'),
            ((0, 0, 0), 2, (1, -2, 1), '0x1.88518c938b182p-7'),
            ((1, 0, 0), 2, (-2, -2, 1), '0x1.acba8ba31e51ep-5'),
            ((0, -1, 1), 2, (1, 1, -2), '0x1.d48499def5ab4p-3'),
            ((1, -1, 1), 2, (-2, 1, -2), '0x1.0000000000000p+0'),
            ((0, 0, 1), 2, (1, -2, -2), '0x1.acba8ba31e51ep-5'),
            ((1, 0, 1), 2, (-2, -2, -2), '0x1.d48499def5ab4p-3'),
        ],
        [((1, 1, 1), 29, (1, -2, 1), '0x1.0000000000000p+0')],
        [((-1, -1, -1), 24, (-2, 1, -2), '0x1.0000000000000p+0')],
    ],
}


def _close(got, want_hex):
    want = np.array([float.fromhex(v) for v in want_hex])
    got = np.asarray(got, dtype=float)
    atol = 1e-14 * np.max(np.abs(want))
    return got.shape == want.shape and np.allclose(got, want, rtol=0.0, atol=atol)


def test_kernels_match_recorded_values():
    for d in (1, 2, 3):
        n_half, h, values, pts = _inputs(d)
        u = GridFunction(DyadicGrid(1, d, 1.0), values.reshape((2 * n_half + 1,) * d))
        fields = [value_field(u), dgrad_padded(u), dhess_padded(u)]
        for case in (0, 1, 2):
            coeffs = [f.ravel().tolist() for f in fields[:case + 1]]
            for extend in (_kernels.extend_many, _kernels.extend_batch):
                got = extend(pts, coeffs, n_half + FIELD_MARGIN, d, h)
                assert _close(got, EXTEND[d][case]), (d, case, extend)
        got = _kernels.partition_batch(pts, h, d)
        assert _close(got.ravel(), [v for pair in PSUMS[d] for v in pair]), d
        for p, want in zip(pts, COVERS[d]):
            got = _kernels.cover((p / h).tolist(), d)
            assert [c[:3] for c in got] == [c[:3] for c in want], (d, p)
            assert _close([c[3] for c in got], [c[3] for c in want]), (d, p)


def test_cover_cap_is_never_close():
    rng = np.random.default_rng(43)
    worst = 0
    for d in (1, 2, 3):
        for _ in range(300):
            x = rng.uniform(-0.5, 0.5, size=d)
            worst = max(worst, len(_kernels.cover(x.tolist(), d)))
    assert worst <= 24


def test_bump_profile():
    assert _kernels.bump1(0.0) == 1.0
    assert _kernels.bump1(0.5) == 1.0
    assert _kernels.bump1(-0.5) == 1.0
    assert _kernels.bump1(0.5625) == 0.0
    assert _kernels.bump1(1.0) == 0.0
    assert 0.0 < _kernels.bump1(0.53) < 1.0
    assert _kernels.ramp(0.5) == 0.5


@st.composite
def batches(draw):
    """(d, case, h, n, coeffs, pts): random flat fields of half-width n and
    a batch of physical points of mixed kinds, possibly empty.

    Hypothesis draws the structure (dimension, case, kinds, nodes,
    generations); the seeded generator draws the continuous offsets."""
    d = draw(st.integers(1, 3))
    case = draw(st.integers(0, 2))
    h = draw(st.sampled_from([1.0, 0.5, 2.0 ** -3]))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    size = (2 * n + 1) ** d
    coeffs = [rng.standard_normal(size * d ** j) for j in range(case + 1)]
    node = st.lists(st.integers(-n - 3, n + 3), min_size=d, max_size=d)
    rows = []
    for kind in draw(st.lists(st.sampled_from(
            ["uniform", "outside", "snap", "3e-9", "1e-7", "gate", "corner",
             "three", "far"]), max_size=24)):
        z = np.array(draw(node), dtype=float)
        # offsets from the seeded generator: many distinct bump arguments
        u = rng.uniform(-1.0, 1.0, size=d)
        if kind == "uniform":      # anchors inside and beyond the field
            xi = z + 0.5 * u
        elif kind == "outside":    # well outside the field
            xi = z + (n + 6) * np.sign(u + 0.5) + 0.5 * u
        elif kind == "snap":       # within the snap radius of a node
            xi = z + 0.4 * _kernels.SNAP_TOL_UNIT * u
        elif kind in ("3e-9", "1e-7"):   # either side of the snap radius
            xi = z + float(kind) * np.where(u < 0.0, -1.0, 1.0)
        elif kind in ("gate", "corner"):
            # on a 1/16 gate of a generation-k side on one axis, or inside
            # the gates of every axis, where 2**d cubes overlap
            k = draw(st.integers(1, 6))
            side = 2.0 ** -k
            cell = np.floor(0.5 * u / side)
            if kind == "corner":
                f = rng.uniform(0.0, 0.0625, size=d)
                xi = z + (cell + np.where(u < 0.0, f, 1.0 - f)) * side
            else:
                g = draw(st.sampled_from([0.0625, 0.9375]))
                axis = draw(st.integers(0, d - 1))
                xi = z + 0.5 * u
                xi[axis] = z[axis] + (cell[axis] + g) * side
        elif kind == "three":      # lattice distance with k0 - floor(k0) <= 0.1
            k0 = draw(st.integers(1, 20)) + draw(st.floats(0.0, 0.1))
            direction = np.where(u < 0.0, u - 1.0, u + 1.0)
            xi = z + direction / np.linalg.norm(direction) \
                * math.sqrt(d) * 2.0 ** -k0
        else:                      # beyond EXACT_UNIT = 2**25 lattice units
            xi = z + 0.5 * u
            xi[0] += draw(st.sampled_from([-2.0 ** 27, 2.0 ** 25, 2.0 ** 53]))
        rows.append(xi * h)
    pts = np.array(rows, dtype=float).reshape(len(rows), d)
    return d, case, h, n, coeffs, pts


@settings(max_examples=400, derandomize=True, deadline=None)
@given(batches())
def test_batch_forms_are_the_scalar_kernels_bit_for_bit(data):
    # the batch forms run at any size here, m = 0 and m = 1 included, so both
    # sides of BATCH_MIN are checked against the per-row scalar kernels
    d, case, h, n, coeffs, pts = data
    xi, _, d2 = _kernels._split(pts, h)
    rows, _ = _kernels._regular_rows(xi, d2)
    got = [[] for _ in rows]
    for r, cells, w, _ in _kernels._cover_slots(xi[rows], d2[rows], d):
        for t, i in enumerate(r.tolist()):
            got[i].append(([float(c[t]) for c in cells], w[t].hex()))
    want = [[([float(c) for c in cell], w.hex())
             for cell, _, _, w in _kernels.cover(x, d)]
            for x in xi[rows].tolist()]
    assert got == want
    lists = [c.tolist() for c in coeffs]
    want = np.array([_kernels.extend_point(x, lists, n, d, h)
                     for x in pts.tolist()], dtype=float)
    got = _kernels.extend_batch(pts, coeffs, n, d, h)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    want = np.array([_kernels.partition_point(x, d, h) for x in pts.tolist()],
                    dtype=float).reshape(-1, 2)
    got = _kernels.partition_batch(pts, h, d)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
