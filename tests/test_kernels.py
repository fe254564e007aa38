"""Geometry kernel outputs pinned against recorded values.

The expected values below were recorded from the kernel as it stood before
its rewrite to plain Python and are stored as hex floats.
"""
import numpy as np

from levyminmax import _kernels


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
        for case in (0, 1, 2):
            got = _kernels.extend_many(pts, values.tolist(), n_half, d, h, case)
            assert _close(got, EXTEND[d][case]), (d, case)
        got = _kernels.partition_sums(pts, h, d)
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
    assert worst <= 80


def test_bump_profile():
    assert _kernels.bump1(0.0) == 1.0
    assert _kernels.bump1(0.5) == 1.0
    assert _kernels.bump1(-0.5) == 1.0
    assert _kernels.bump1(0.5625) == 0.0
    assert _kernels.bump1(1.0) == 0.0
    assert 0.0 < _kernels.bump1(0.53) < 1.0
    assert _kernels.ramp(0.5) == 0.5
