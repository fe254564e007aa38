import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyminmax._kernels import (KMAX, SNAP_TOL_UNIT, _kept_indices,
                                 _ring_test, _selected)
from levyminmax.cubes import (CubeError, WhitneyCube, base_family, cubes_at,
                              partition_raw_sums, uncovered_volume)


def test_one_dimensional_family_is_dyadic_annuli():
    fam = base_family(1, 6)
    got = sorted((q.generation, q.index[0]) for q in fam)
    want = sorted([(k, 1) for k in range(2, 7)] + [(k, -2) for k in range(2, 7)])
    assert got == want
    # generation k cube on the right is [2^-k, 2^-(k-1)]
    for q in fam:
        if q.index[0] == 1:
            assert q.corner[0] == pytest.approx(2.0 ** (-q.generation))


def test_ratio_window_all_dims():
    for d in (1, 2, 3):
        for q in base_family(d, 5):
            assert 1.0 - 1e-12 <= q.ratio < 4.0


def test_family_cubes_are_pairwise_disjoint():
    fam = base_family(2, 5)
    boxes = [(q.corner, q.corner + q.side) for q in fam]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            lo = np.maximum(boxes[i][0], boxes[j][0])
            hi = np.minimum(boxes[i][1], boxes[j][1])
            assert np.any(lo >= hi - 1e-15), (fam[i], fam[j])


def test_family_covers_cell_minus_core():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        fam = base_family(d, 7)
        lo = np.array([q.corner for q in fam])[None, :, :]
        side = np.array([q.side for q in fam])[None, :, None]
        core = 2.0 * np.sqrt(d) * 2.0 ** -7
        pts = rng.uniform(-0.5, 0.5, size=(300, d))
        pts = pts[np.linalg.norm(pts, axis=1) > core][:, None, :]
        # hits[p, q]: WhitneyCube.contains for every point and cube at once
        hits = np.all((pts >= lo) & (pts <= lo + side), axis=2)
        assert np.all(hits.sum(axis=1) >= 1)
        # interior points land in exactly one cube
        face = np.any(np.abs((pts - lo) / side % 1.0) < 1e-12, axis=2)
        on_face = np.any(hits & face, axis=1)
        assert np.all(hits.sum(axis=1)[~on_face] == 1)


def test_uncovered_volume_frozen_and_decaying():
    assert uncovered_volume(2, 2) == 0.75
    assert uncovered_volume(2, 4) == 0.046875
    assert uncovered_volume(2, 6) == 0.0029296875
    for d in (1, 2, 3):
        vols = [uncovered_volume(d, k) for k in range(2, 9)]
        assert all(a >= b for a, b in zip(vols, vols[1:]))
        ball = np.pi ** (d / 2) / math.gamma(d / 2 + 1)
        assert vols[-1] <= ball * (2 * np.sqrt(d)) ** d * 2.0 ** (-8 * d) + 1e-15


def test_cubes_at_rejects_nodes():
    with pytest.raises(CubeError):
        cubes_at(np.zeros(2))
    with pytest.raises(CubeError):
        cubes_at(np.array([1.0, -3.0]))
    with pytest.raises(CubeError):
        cubes_at(np.array([0.25, 0.5]), spacing=0.25)
    # barely off a node but below the resolvable scale
    with pytest.raises(CubeError):
        cubes_at(np.array([1e-10, 0.0]))


def test_cover_contains_point_in_exactly_one_cube():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        for _ in range(40):
            x = rng.uniform(-0.5, 0.5, size=d)
            if np.linalg.norm(x) < 1e-6:
                continue
            cov = cubes_at(x)
            inside = [q for q in cov.cubes if q.contains(x)]
            assert len(inside) == 1
            assert inside[0].weight(x) == 1.0
            assert sum(cov.weights) >= 1.0


def test_cover_weights_match_cube_weights():
    cov = cubes_at(np.array([0.3, 0.1]))
    for q, w in zip(cov.cubes, cov.weights):
        assert q.weight(np.array([0.3, 0.1])) == pytest.approx(w, abs=1e-15)
    total = partition_raw_sums(np.array([[0.3, 0.1]]))[0, 1]
    assert total == pytest.approx(1.0, abs=1e-12)


def test_cover_agrees_with_base_family_in_origin_cell():
    rng = np.random.default_rng(13)
    fam = {(q.generation, q.index) for q in base_family(2, 9)}
    for _ in range(25):
        x = rng.uniform(-0.4, 0.4, size=2)
        if np.linalg.norm(x) < 2e-3:
            continue
        for q in cubes_at(x).cubes:
            if q.cell == (0, 0) and q.generation <= 9:
                assert (q.generation, q.index) in fam


def test_cover_scales_with_spacing():
    x = np.array([0.3, 0.1])
    a = cubes_at(x)
    b = cubes_at(0.25 * x, spacing=0.25)
    assert [(q.generation, q.cell, q.index) for q in a.cubes] == \
        [(q.generation, q.cell, q.index) for q in b.cubes]
    assert np.allclose(a.weights, b.weights)


def test_partition_raw_sums_bulk():
    rng = np.random.default_rng(14)
    for d in (1, 2, 3):
        pts = rng.uniform(-2.0, 2.0, size=(400, d))
        sums = partition_raw_sums(pts)
        ok = sums[:, 0] > 0  # sentinel-free rows
        assert ok.all()
        assert np.all(sums[ok, 0] >= 1.0)
        assert np.allclose(sums[ok, 1], 1.0, atol=1e-12)


@pytest.mark.parametrize("points, spacing, names", [
    (np.full((2, 4), 0.3), 1.0, "dim must be 1, 2 or 3, got 4"),
    (np.zeros((3, 0)), 1.0, "dim must be 1, 2 or 3, got 0"),
    (np.zeros((2, 2, 2)), 1.0, r"\(n, d\) array, got shape \(2, 2, 2\)"),
    (np.array([[0.3, 0.1]]), -1.0, "spacing must be positive and finite, got -1.0"),
    (np.array([[0.3, 0.1]]), 0.0, "spacing must be positive and finite, got 0.0"),
    (np.array([[0.3, 0.1]]), math.inf, "got inf"),
    (np.array([[0.3, 0.1]]), math.nan, "got nan"),
    (np.array([[0.3, 0.1], [0.2, math.nan]]), 1.0, r"point \[0.2, nan\] is not finite"),
    (np.array([[math.inf]]), 0.5, r"point \[inf\] is not finite"),
    (np.array([[1e300, 0.1]]), 1e-10, r"point \[1e\+300, 0.1\] is not finite in lattice units"),
], ids=["4-d", "0-d", "3-axis array", "negative spacing", "zero spacing",
        "infinite spacing", "NaN spacing", "NaN coordinate", "inf coordinate",
        "overflow in lattice units"])
def test_partition_raw_sums_refuses_what_cubes_at_refuses(points, spacing, names):
    with pytest.raises(CubeError, match=names):
        partition_raw_sums(points, spacing)
    if points.ndim == 2 and points.shape[0]:
        with pytest.raises(CubeError, match=names):
            cubes_at(points[-1], spacing)


@st.composite
def off_lattice_points(draw):
    """(point, spacing): a node plus an offset, some within 2^-20 of it.

    Near offsets run down to just outside the snap radius 2^-26, where the
    cover reaches its deepest generations.
    """
    d = draw(st.integers(1, 3))
    h = draw(st.sampled_from([1.0, 0.25, 2.0 ** -6]))
    node = np.array(draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)))
    unit = st.floats(-0.5, 0.5, allow_nan=False)
    off = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
    size = float(np.linalg.norm(off))
    if draw(st.booleans()):
        if size < 1e-3:
            off, size = np.ones(d), math.sqrt(d)
        lo = math.log2(SNAP_TOL_UNIT * (1.0 + 1e-6))
        off *= 2.0 ** draw(st.floats(lo, -20.0)) / size
    elif size < SNAP_TOL_UNIT * (1.0 + 1e-6):
        off = np.full(d, 0.25)
    return (node + off) * h, h


@settings(max_examples=300, derandomize=True, deadline=None)
@given(off_lattice_points())
def test_cover_properties_hold_off_lattice(case):
    # Whitney (Stein 1970): the bumps cover, normalise to a partition of
    # unity, and each cube's lattice distance is 1 to 4 diameters; the
    # snap radius keeps every cube below the generation cap KMAX
    x, h = case
    raw, total = partition_raw_sums(x[None, :], h)[0]
    assert raw >= 1.0
    assert abs(total - 1.0) <= 1e-14
    cubes = cubes_at(x, spacing=h).cubes
    assert all(1.0 <= q.ratio < 4.0 for q in cubes)
    assert max(q.generation for q in cubes) <= KMAX - 1


@st.composite
def near_node_points(draw):
    """(point, spacing): a node of magnitude up to 1e12 plus an offset of
    2**-32 to 2**-1 lattice units, so the point lies on either side of the
    snap radius 2**-26, or on the node itself."""
    d = draw(st.integers(1, 3))
    h = draw(st.sampled_from([1.0, 0.25, 2.0 ** -6, 0.3]))
    step = math.floor(10.0 ** draw(st.integers(0, 12)) / h / 10)
    node = np.array([draw(st.integers(-10, 10)) * step for _ in range(d)],
                    dtype=float)
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    off = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
    size = max(float(np.linalg.norm(off)), 1e-300)
    off *= 2.0 ** draw(st.floats(-32.0, -1.0)) / size
    return (node + off) * h, h


@settings(max_examples=400, derandomize=True, deadline=None)
@given(near_node_points())
def test_cubes_at_refuses_exactly_where_partition_raw_sums_snaps(case):
    # one snap rule for the whole geometry layer: the cover is refused
    # where the batch sentinel reads -1, and otherwise its weights add, left
    # to right, to the raw total bit for bit
    x, h = case
    raw = partition_raw_sums(x[None, :], h)[0, 0]
    if raw == -1.0:
        with pytest.raises(CubeError):
            cubes_at(x, h)
        return
    total = 0.0
    for w in cubes_at(x, h).weights:
        total += w
    assert total == raw


def _selected_by_ancestors(k, m):
    """Reference selection: the cube meets its shell and none of its k - 1
    dyadic ancestors meets its own."""
    return _ring_test(m) and not any(
        _ring_test(tuple(mi >> j for mi in m)) for j in range(1, k))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_selection_equals_the_ancestor_walk(d):
    kept = _kept_indices(d)
    for k in range(1, 13):
        half = 1 << (k - 1)
        axis = range(max(-half, -16), min(half, 16))
        for m in itertools.product(axis, repeat=d):
            want = _selected_by_ancestors(k, m)
            assert _selected(m) == want, (k, m)
            assert (m in kept) == want, (k, m)
    # base_family reads the same table: check it against the walk over each
    # generation's full index range, so its range filter has its own reference
    want = [(k, m) for k in range(1, 7)
            for m in itertools.product(range(-(1 << (k - 1)), 1 << (k - 1)),
                                       repeat=d)
            if _selected_by_ancestors(k, m)]
    assert [(q.generation, q.index) for q in base_family(d, 6)] == want


def _brute_force_cover(x, h):
    """{(generation, index, cell): weight} over every generation up to
    floor(k0) + 5 and all 3**d dyadic cubes around x in each."""
    xi = x / h
    d = xi.size
    k0 = math.log2(math.sqrt(d) / float(np.linalg.norm(xi - np.floor(xi + 0.5))))
    found = {}
    for k in range(1, min(KMAX, math.floor(k0) + 5) + 1):
        s = 2.0 ** -k
        near = [[math.floor(v / s) + off for off in (-1, 0, 1)] for v in xi]
        for mg in itertools.product(*near):
            # a cube belongs to the cell of the node nearest its centre
            cell = tuple(math.floor((g + 0.5) * s + 0.5) for g in mg)
            index = tuple(g - z * (1 << k) for g, z in zip(mg, cell))
            if not _selected_by_ancestors(k, index):
                continue
            q = WhitneyCube(dim=d, generation=k, index=index, cell=cell,
                            spacing=h)
            w = q.weight(x)
            if w > 0.0:
                found[(k, index, cell)] = w
    return found


@settings(max_examples=200, derandomize=True, deadline=None)
@given(off_lattice_points())
def test_cover_equals_brute_force_over_all_generations(case):
    x, h = case
    want = _brute_force_cover(x, h)
    cov = cubes_at(x, spacing=h)
    got = {(q.generation, q.index, q.cell): w
           for q, w in zip(cov.cubes, cov.weights)}
    assert got.keys() == want.keys()
    assert all(abs(got[key] - want[key]) <= 1e-15 for key in want)


def test_bad_arguments():
    with pytest.raises(CubeError):
        base_family(4, 3)
    with pytest.raises(CubeError):
        base_family(2, 31)
    with pytest.raises(CubeError):
        WhitneyCube(dim=2, generation=0, index=(0, 0), cell=(0, 0))
    with pytest.raises(CubeError):
        cubes_at(np.array([0.3, 0.1]), spacing=-1.0)


def test_support_matches_weight_positivity():
    # positive weight implies the inflated box; the converse only holds away
    # from the support edge, where the exponential wall underflows to 0
    q = WhitneyCube(dim=2, generation=3, index=(2, 0), cell=(0, 0))
    rng = np.random.default_rng(15)
    for _ in range(200):
        x = q.center + rng.uniform(-1.0, 1.0, size=2) * q.side
        w = q.weight(x)
        if w > 0.0:
            assert q.support_contains(x)
        if np.max(np.abs(x - q.center)) < 0.55 * q.side:
            assert w > 0.0


def test_lattice_distance_is_true_distance():
    rng = np.random.default_rng(16)
    for q in base_family(2, 4):
        samples = q.corner + rng.uniform(0, 1, size=(200, 2)) * q.side
        radii = np.linalg.norm(samples, axis=1)
        assert radii.min() >= q.lattice_distance - 1e-12
        assert radii.min() <= q.lattice_distance + 0.2 * q.diameter
