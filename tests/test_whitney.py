import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyminmax import _kernels
from levyminmax.calculus import (FIELD_MARGIN, dgrad_padded, dhess_padded,
                                 value_field)
from levyminmax.grid import (DyadicGrid, GridError, GridFunction,
                             RegularityClass, SmoothFn, restrict)
from levyminmax.whitney import extend, order_preservation_defect, project

QUAD = RegularityClass(2.5)


def _quad_fn():
    a = np.array([[1.5, -0.4], [-0.4, 0.8]])
    b = np.array([0.2, -0.3])
    return SmoothFn(lambda x: float(0.5 * x @ a @ x + b @ x + 0.7),
                    grad=lambda x: a @ x + b, hess=lambda x: a,
                    cls=QUAD, name="quad")


def test_extension_reproduces_node_values():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3):
        g = DyadicGrid(level=2, dim=d, box_radius=1.0)
        u = GridFunction(g, rng.standard_normal(g.node_count).reshape(g.shape))
        E = extend(u, QUAD)
        for idx in [(0,) * d, (1,) * d, (-g.half_count,) * d]:
            assert E(g.point_of(idx)) == u.value(idx)


def test_extension_exact_on_quadratics_inside():
    # stencils are exact on quadratics, so every anchored polynomial is the
    # quadratic itself and the blend reproduces it wherever no anchor pads
    f = _quad_fn()
    g = DyadicGrid(level=3, dim=2, box_radius=1.0)
    E = extend(restrict(f, g), QUAD)
    rng = np.random.default_rng(22)
    pts = rng.uniform(-0.5, 0.5, size=(200, 2))
    vals = E.values(pts)
    want = np.array([f.value(p) for p in pts])
    assert np.max(np.abs(vals - want)) < 1e-12


def test_extension_exact_on_affine_case_one():
    f = SmoothFn(lambda x: float(1.3 * x[0] - 0.7 * x[1] + 0.1),
                 grad=lambda x: np.array([1.3, -0.7]))
    g = DyadicGrid(level=2, dim=2, box_radius=1.0)
    E = extend(restrict(f, g), RegularityClass(1.5))
    rng = np.random.default_rng(23)
    for _ in range(60):
        x = rng.uniform(-0.5, 0.5, size=2)
        assert E(x) == pytest.approx(f.value(x), abs=1e-13)


def test_extension_constant_case_zero():
    f = SmoothFn(lambda x: 4.25 + 0.0 * x[0])
    g = DyadicGrid(level=2, dim=1, box_radius=1.0)
    E = extend(restrict(f, g), RegularityClass(0.5))
    rng = np.random.default_rng(24)
    xs = rng.uniform(-0.5, 0.5, size=30)
    for x in xs:
        assert E(float(x)) == pytest.approx(4.25, abs=1e-14)


def test_extension_error_decays_with_level():
    f = SmoothFn(lambda x: float(np.sin(x[0]) * np.cos(x[1])), cls=QUAD)
    rng = np.random.default_rng(25)
    pts = rng.uniform(-0.45, 0.45, size=(300, 2))
    want = np.array([f.value(p) for p in pts])
    errs = {}
    for lev in (3, 5):
        g = DyadicGrid(level=lev, dim=2, box_radius=1.0)
        E = extend(restrict(f, g), QUAD)
        errs[lev] = float(np.max(np.abs(E.values(pts) - want)))
    assert errs[5] < errs[3] / 8.0


def test_extension_continuous_across_nodes():
    f = _quad_fn()
    g = DyadicGrid(level=3, dim=2, box_radius=1.0)
    E = extend(restrict(f, g), QUAD)
    node = g.point_of((2, -1))
    base = E(node)
    for eps in (1e-7, 3e-8):
        for sgn in (1.0, -1.0):
            x = node + sgn * eps * np.array([1.0, 0.7])
            assert abs(E(x) - base) < 1e-5


def test_extension_snap_region_is_consistent():
    f = _quad_fn()
    g = DyadicGrid(level=2, dim=2, box_radius=1.0)
    E = extend(restrict(f, g), QUAD)
    node = g.point_of((1, 1))
    inside = node + 2.0 ** -28 * g.spacing
    outside = node + 2.0 ** -24 * g.spacing
    assert E(inside) == E(node)
    assert abs(E(outside) - E(node)) < 1e-6


def test_projection_snaps_where_the_extension_does():
    # node + 0.8 * tol * (1, 1) is within the snap tolerance on each axis
    # but not in Euclidean distance: the extension blends there, so grad
    # and hess must not read the node's fields
    g = DyadicGrid(level=2, dim=2, box_radius=1.0)
    flat = np.random.default_rng(29).standard_normal(g.node_count)
    u = GridFunction(g, flat.reshape(g.shape))
    P = extend(u, QUAD)
    node = g.point_of((1, -1))
    tol = _kernels.SNAP_TOL_UNIT * g.spacing
    near = node + 0.5 * tol * np.ones(2)
    assert P.value(near) == P.value(node)
    assert np.array_equal(P.grad(near), P.grad(node))
    assert np.array_equal(P.hess(near), P.hess(node))
    off = node + 0.8 * tol * np.ones(2)
    assert P.value(off) != P.value(node)
    assert not np.array_equal(P.grad(off), P.grad(node))
    assert not np.array_equal(P.hess(off), P.hess(node))


def test_extension_input_shapes():
    g1 = DyadicGrid(level=2, dim=1, box_radius=1.0)
    u1 = restrict(SmoothFn(lambda x: float(x[0])), g1)
    E1 = extend(u1, RegularityClass(1.5))
    assert E1(0.31) == pytest.approx(0.31, abs=1e-13)
    batch = E1(np.array([0.31, -0.12, 0.07]))
    assert batch.shape == (3,)
    g2 = DyadicGrid(level=2, dim=2, box_radius=1.0)
    u2 = restrict(SmoothFn(lambda x: float(x[0])), g2)
    E2 = extend(u2, RegularityClass(1.5))
    assert np.isscalar(E2(np.array([0.31, 0.2])))
    with pytest.raises(GridError):
        E2.values(np.zeros((4, 3)))


@pytest.mark.parametrize("dim, read, point, message", [
    (1, "value", [0.1, 0.2], "dimension 1"),
    (1, "hess", [[0.1]], "dimension 1"),
    (2, "grad", [0.0], "dimension 2"),
    (2, "hess", [0.0, 0.0, 0.0], "dimension 2"),
    (2, "value", [math.nan, 0.0], "non-finite"),
    (2, "value", [math.inf, 0.0], "non-finite"),
    (2, "__call__", [0.0, -math.inf], "non-finite"),
    (1, "grad", [math.inf], "non-finite"),
    (2, "values", [[0.1, 0.2], [math.nan, 0.0]], "non-finite"),
])
def test_reads_reject_a_point_of_the_wrong_dimension_or_not_finite(
        dim, read, point, message):
    g = DyadicGrid(level=2, dim=dim, box_radius=1.0)
    E = extend(GridFunction(g, np.ones(g.node_count).reshape(g.shape)), QUAD)
    with pytest.raises(GridError, match=message):
        getattr(E, read)(np.array(point))


@pytest.mark.parametrize("read, point", [
    ("value", [1e308]),
    ("values", [[1e308]]),
    ("values", [[0.3]] * 99 + [[-1e308]]),
    ("hess", [1e308]),
], ids=["value", "values-loop", "values-batch", "hess"])
def test_a_point_that_overflows_in_lattice_units_raises_grid_error(read, point):
    # 1e308 / h overflows to inf, which no node index can hold
    g = DyadicGrid(level=3, dim=1, box_radius=1.0)
    E = extend(GridFunction(g, np.ones(g.node_count).reshape(g.shape)), QUAD)
    with pytest.raises(GridError, match="in lattice units"):
        getattr(E, read)(np.array(point))


@functools.cache
def _extension(d, exponent):
    g = DyadicGrid(level=2, dim=d, box_radius=1.0)
    flat = np.random.default_rng(40 + d).standard_normal(g.node_count)
    u = GridFunction(g, flat.reshape(g.shape))
    return extend(u, RegularityClass(exponent)), dgrad_padded(u), dhess_padded(u)


@st.composite
def one_point_reads(draw):
    """Dimension, exponent, kind of point, its node (None off the lattice)
    and the point: a node, a point within the snap tolerance of one, a node
    in the fields' margin or beyond it, or a point anywhere on a wider box."""
    d = draw(st.integers(1, 3))
    exponent = draw(st.sampled_from((0.5, 1.5, 2.5)))
    kind = draw(st.sampled_from(("node", "near", "off", "margin", "beyond")))
    E = _extension(d, exponent)[0]
    half, h = E.grid.half_count, E.grid.spacing
    n = half + FIELD_MARGIN
    if kind == "off":
        coord = st.floats(-(n + 2) * h, (n + 2) * h)
        return d, exponent, kind, None, np.array([draw(coord) for _ in range(d)])
    z = [draw(st.integers(-half, half)) for _ in range(d)]
    axis = draw(st.integers(0, d - 1))
    if kind == "margin":
        z[axis] = draw(st.sampled_from((-n, 1 - n, n - 1, n)))
    elif kind == "beyond":
        z[axis] = draw(st.sampled_from((-n - 3, -n - 1, n + 1, n + 3)))
    x = np.array(z, dtype=float) * h
    if kind == "near":
        # Euclidean offset below 0.4 sqrt(3) < 1 snap tolerance
        unit = [draw(st.floats(-1.0, 1.0)) for _ in range(d)]
        x = x + 0.4 * _kernels.SNAP_TOL_UNIT * h * np.array(unit)
    return d, exponent, kind, z, x


def _same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=250, derandomize=True, deadline=None)
@given(one_point_reads())
def test_one_point_reads_are_the_batch_kernel_bit_for_bit(case):
    d, exponent, kind, z, x = case
    E, grad, hess = _extension(d, exponent)
    want = E.values(x[None])[0]
    assert _same(E.value(x), want)
    assert _same(E(x), want)
    if d == 1:
        assert _same(E(float(x[0])), want)
    if z is None:
        return
    n = E.grid.half_count + FIELD_MARGIN
    if all(abs(zi) <= n for zi in z):
        pos = tuple(zi + n for zi in z)
        want_grad, want_hess = grad[pos], hess[pos]
    else:
        want_grad, want_hess = np.zeros(d), np.zeros((d, d))
    assert _same(E.grad(x), want_grad)
    assert _same(E.hess(x), want_hess)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_values_are_the_one_point_reads_bit_for_bit(d):
    # a batch of BATCH_MIN points or more runs the NumPy batch kernel
    rng = np.random.default_rng(60 + d)
    for exponent in (0.5, 1.5, 2.5):
        E = _extension(d, exponent)[0]
        h, n = E.grid.spacing, E.grid.half_count + FIELD_MARGIN
        nodes = rng.integers(-n - 2, n + 3, size=(30, d)) * h
        pts = np.vstack([
            rng.uniform(-(n + 2) * h, (n + 2) * h, size=(_kernels.BATCH_MIN, d)),
            nodes, nodes + 0.4 * _kernels.SNAP_TOL_UNIT * h, nodes + 1e-7 * h])
        want = np.array([E.value(p) for p in pts])
        assert E.values(pts).tobytes() == want.tobytes()


def test_interp_poly_matches_manual_formula():
    # the kernel's polynomial anchored at a node, from the coefficient fields
    g = DyadicGrid(level=2, dim=2, box_radius=1.0)
    rng = np.random.default_rng(26)
    u = GridFunction(g, rng.standard_normal(g.node_count).reshape(g.shape))
    idx = (1, -1)
    x = [0.3, -0.2]
    n = g.half_count + FIELD_MARGIN
    grad, hess = dgrad_padded(u), dhess_padded(u)
    coeffs = [f.ravel().tolist() for f in (value_field(u), grad, hess)]
    p = _kernels._pos(n, idx)
    dx = np.array(x) - g.point_of(idx)
    pos = (idx[0] + n, idx[1] + n)
    want = u.value(idx) + grad[pos] @ dx + 0.5 * dx @ hess[pos] @ dx
    got = _kernels._poly_eval(coeffs, p, 2, g.spacing, idx, x)
    assert got == pytest.approx(want, abs=1e-13)
    assert _kernels._poly_eval(coeffs[:1], p, 2, g.spacing, idx, x) == u.value(idx)


def test_projection_exposes_stencils_at_nodes():
    f = SmoothFn(lambda x: float(np.sin(x[0] + 0.5 * x[1])), cls=QUAD)
    g = DyadicGrid(level=3, dim=2, box_radius=1.0)
    P = project(f, g)
    u = restrict(f, g)
    n = g.half_count + FIELD_MARGIN
    grad, hess = dgrad_padded(u), dhess_padded(u)
    for idx in [(2, 2), (g.half_count, -g.half_count), (n, 1 - n)]:
        x = g.point_of(idx)
        pos = (idx[0] + n, idx[1] + n)
        assert np.array_equal(P.grad(x), grad[pos])
        assert np.array_equal(P.hess(x), hess[pos])
    assert P.value(g.point_of((2, 2))) == u.value((2, 2))
    # beyond the margin every stencil read is padding
    far = g.point_of((n + 1, 0))
    assert np.array_equal(P.grad(far), np.zeros(2))
    assert np.array_equal(P.hess(far), np.zeros((2, 2)))


def test_projected_node_derivatives_are_fresh_copies():
    g = DyadicGrid(level=2, dim=2, box_radius=1.0)
    P = project(_quad_fn(), g)
    x = g.point_of((1, 0))
    grad, hess = P.grad(x), P.hess(x)
    want_grad, want_hess = grad.copy(), hess.copy()
    grad[:] = 99.0
    hess[:] = 99.0
    assert np.array_equal(P.grad(x), want_grad)
    assert np.array_equal(P.hess(x), want_hess)


def test_projection_idempotent_on_quadratics():
    f = _quad_fn()
    g = DyadicGrid(level=3, dim=2, box_radius=1.0)
    P = project(f, g)
    P2 = project(P, g)
    rng = np.random.default_rng(27)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, size=2)
        assert P2.value(x) == pytest.approx(P.value(x), abs=1e-11)


def test_projection_offnode_derivatives_are_reasonable():
    f = _quad_fn()
    g = DyadicGrid(level=4, dim=2, box_radius=1.0)
    P = project(f, g)
    x = np.array([0.21, -0.13])
    assert np.allclose(P.grad(x), f.grad(x), atol=1e-6)
    assert np.allclose(P.hess(x), f.hess(x), atol=1e-4)


def test_order_preservation_defect_decays():
    # extending sqrt-rough data with quadratic polynomials dips below zero
    # near the kink (curvature stencil ~ h^-1.5), so the defect against the
    # zero function is positive and shrinks like h^0.5
    low = SmoothFn(lambda x: 0.0 * x[0], name="low")
    high = SmoothFn(lambda x: float(np.abs(x[0]) ** 0.5), name="high")
    cls = QUAD
    d3 = order_preservation_defect(low, high, DyadicGrid(3, 2, 1.0), cls)
    d5 = order_preservation_defect(low, high, DyadicGrid(5, 2, 1.0), cls)
    assert d3 > 1e-4
    assert d5 < d3
    assert d5 < 0.1


def test_order_preservation_rejects_bad_ordering():
    low = SmoothFn(lambda x: float(np.sum(x ** 2)))
    high = SmoothFn(lambda x: float(-1.0 + 0.0 * x[0]))
    with pytest.raises(GridError):
        order_preservation_defect(low, high, DyadicGrid(3, 1, 1.0),
                                  RegularityClass(1.5))
