import numpy as np
import pytest

from levyminmax.grid import (DyadicGrid, GridError, GridFunction,
                             RegularityClass, SmoothFn, restrict, translate)


def test_grid_basic_geometry():
    g = DyadicGrid(level=2, dim=2, box_radius=1.0)
    assert g.spacing == 0.25
    assert g.half_count == 4
    assert g.shape == (9, 9)
    assert g.node_count == 81
    assert np.allclose(g.point_of((3, -4)), [0.75, -1.0])


def test_grid_default_box_is_power_of_two():
    g = DyadicGrid(level=3, dim=1)
    assert g.box_radius == 8.0
    assert g.half_count == 64


def test_grid_rejects_bad_shapes():
    with pytest.raises(GridError):
        DyadicGrid(level=2, dim=4)
    with pytest.raises(GridError):
        DyadicGrid(level=-1, dim=1)
    with pytest.raises(GridError):
        DyadicGrid(level=2, dim=1, box_radius=0.3)   # not a spacing multiple
    with pytest.raises(GridError):
        DyadicGrid(level=5, dim=2)                   # default box too large
    # small box at the same level is fine
    DyadicGrid(level=5, dim=2, box_radius=1.0)


def test_grid_node_budget_cap():
    with pytest.raises(GridError):
        DyadicGrid(level=8, dim=3, box_radius=4.0)


def test_indices_cover_box_lexicographically():
    g = DyadicGrid(level=1, dim=2, box_radius=0.5)
    idx = g.indices()
    assert idx.shape == (9, 2)
    assert tuple(idx[0]) == (-1, -1)
    assert tuple(idx[-1]) == (1, 1)
    pts = g.points()
    assert np.allclose(pts[0], [-0.5, -0.5])


def test_shared_node_indices_are_read_only():
    # every grid with these parameters hands out the same cached array
    g = DyadicGrid(level=1, dim=2, box_radius=1.0)
    with pytest.raises(ValueError):
        g.indices()[0, 0] = 99
    assert tuple(DyadicGrid(level=1, dim=2, box_radius=1.0).indices()[0]) == (-2, -2)
    assert DyadicGrid(level=1, dim=2, box_radius=1.0).points()[0, 0] == -1.0


def test_grid_function_value_and_pad():
    g = DyadicGrid(level=1, dim=1, box_radius=1.0)
    u = GridFunction(g, np.arange(5, dtype=float).reshape(g.shape))
    assert u.value((-2,)) == 0.0
    assert u.value((2,)) == 4.0
    with pytest.raises(GridError):
        u.value((3,))
    assert u.pad((3,)) == 0.0
    assert u.pad((-2,)) == 0.0


def test_restrict_rejects_nonfinite():
    g = DyadicGrid(level=1, dim=1, box_radius=1.0)
    with np.errstate(divide="ignore"):
        bad = SmoothFn(lambda x: float(np.divide(1.0, x[0])))
        with pytest.raises(GridError):
            restrict(bad, g)


def test_translate_shifts_samples():
    g = DyadicGrid(level=2, dim=1, box_radius=1.0)
    u = restrict(SmoothFn(lambda x: x[0]), g)
    v = translate(u, [0.25])
    # v(x) = u(x + 0.25) where defined, zero-padded past the box
    assert v.value((0,)) == pytest.approx(0.25)
    assert v.value((4,)) == 0.0
    with pytest.raises(GridError):
        translate(u, [0.1])            # off-lattice shift
    for z in (1, [1, 0], np.zeros(0, dtype=int)):
        with pytest.raises(GridError):
            translate(u, z)            # not one component per axis


def test_regularity_class_cases():
    assert RegularityClass(0.5).case == 0
    assert RegularityClass(1.0).case == 1
    assert RegularityClass(1.7).case == 1
    assert RegularityClass(2.0).case == 2
    assert RegularityClass(2.9).case == 2
    with pytest.raises(GridError):
        RegularityClass(3.0)
    with pytest.raises(GridError):
        RegularityClass(0.0)


def test_regularity_class_integer_semantics():
    c11 = RegularityClass(2.0)
    assert c11.derivative_order == 1 and c11.holder_exponent == 1.0
    frac = RegularityClass(2.5)
    assert frac.derivative_order == 2 and frac.holder_exponent == 0.5


def test_smooth_fn_missing_derivatives_raise():
    f = SmoothFn(lambda x: float(x[0]))
    assert f.value([2.0]) == 2.0
    with pytest.raises(GridError):
        f.grad([0.0])
    with pytest.raises(GridError):
        f.hess([0.0])
