import numpy as np
import pytest

from levyminmax.calculus import (FIELD_MARGIN, ConvergenceStudy, dgrad,
                                 dgrad_padded, dhess, dhess_padded, fit_order)
from levyminmax.grid import (DyadicGrid, GridError, GridFunction,
                             RegularityClass, SmoothFn, restrict)


def _sin():
    return SmoothFn(lambda x: float(np.sin(x[0])),
                    grad=lambda x: np.cos(x),
                    hess=lambda x: -np.sin(x).reshape(1, 1),
                    cls=RegularityClass(2.5), name="sin")


def test_dgrad_frozen_value():
    # central difference of sin at 0.25 with h=1/16
    g = DyadicGrid(level=4, dim=1, box_radius=1.0)
    u = restrict(_sin(), g)
    val = dgrad(u, (4,))[0]
    assert val == pytest.approx(0.9682817425448877, abs=1e-14)


def test_dhess_frozen_value():
    # forward second difference of exp at 0 with h=1/16
    g = DyadicGrid(level=4, dim=1, box_radius=1.0)
    u = restrict(SmoothFn(lambda x: float(np.exp(x[0]))), g)
    val = dhess(u, (0,))[0, 0]
    assert val == pytest.approx(1.0648410191635662, abs=1e-12)


def test_stencils_exact_on_quadratics():
    a = np.array([[2.0, -1.0], [-1.0, 3.0]])
    b = np.array([0.5, 0.25])
    f = SmoothFn(lambda x: float(0.5 * x @ a @ x + b @ x))
    g = DyadicGrid(level=2, dim=2, box_radius=1.0)
    u = restrict(f, g)
    idx = (1, -1)
    x = g.point_of(idx)
    assert np.allclose(dgrad(u, idx), a @ x + b, atol=1e-12)
    assert np.allclose(dhess(u, idx), a, atol=1e-10)


def test_dgrad_linearity_and_translation_covariance():
    rng = np.random.default_rng(5)
    g = DyadicGrid(level=2, dim=2, box_radius=1.0)
    from levyminmax.grid import translate
    u = GridFunction(g, rng.standard_normal(g.node_count).reshape(g.shape))
    v = GridFunction(g, rng.standard_normal(g.node_count).reshape(g.shape))
    idx = (1, 0)
    w = GridFunction(g, u.values + v.values)
    assert np.allclose(dgrad(w, idx), dgrad(u, idx) + dgrad(v, idx), atol=1e-12)
    shifted = translate(u, (1, -1))
    assert np.allclose(dgrad(shifted, (0, 0)), dgrad(u, (1, -1)), atol=1e-12)


def test_boundary_stencils_raise():
    g = DyadicGrid(level=1, dim=1, box_radius=1.0)
    u = restrict(SmoothFn(lambda x: float(x[0])), g)
    with pytest.raises(GridError):
        dgrad(u, (2,))
    with pytest.raises(GridError):
        dhess(u, (1,))   # forward stencil needs index+2
    # the padded fields read zeros instead
    n = g.half_count + FIELD_MARGIN
    assert dgrad_padded(u)[2 + n, 0] == pytest.approx((0.0 - 0.5) / 1.0)
    assert np.isfinite(dhess_padded(u)[1 + n]).all()


def _ref_grad(u, x):
    """Per-node central gradient with zero-padded reads."""
    d, h = u.grid.dim, u.grid.spacing
    out = np.zeros(d)
    for k in range(d):
        e = np.eye(d, dtype=np.int64)[k]
        out[k] = (u.pad(x + e) - u.pad(x - e)) / (2.0 * h)
    return out


def _ref_hess(u, x):
    """Per-node forward four-point Hessian with zero-padded reads."""
    d, h = u.grid.dim, u.grid.spacing
    out = np.zeros((d, d))
    eye = np.eye(d, dtype=np.int64)
    for k in range(d):
        for l in range(d):
            out[k, l] = (u.pad(x + eye[k] + eye[l]) - u.pad(x + eye[k])
                         - u.pad(x + eye[l]) + u.pad(x)) / h ** 2
    return out


def _field_nodes(g):
    """Every node of the box plus the field margin, with its field position."""
    n = g.half_count + FIELD_MARGIN
    for pos in np.ndindex(*(2 * n + 1,) * g.dim):
        yield np.array(pos, dtype=np.int64) - n, pos


@pytest.mark.parametrize("dim,level", [(1, 2), (2, 1), (3, 1)])
def test_fields_equal_per_node_stencils_bitwise(dim, level):
    rng = np.random.default_rng(60 + dim)
    g = DyadicGrid(level=level, dim=dim, box_radius=1.0)
    u = GridFunction(g, rng.standard_normal(g.node_count).reshape(g.shape))
    grad, hess = dgrad_padded(u), dhess_padded(u)
    assert grad.shape[:dim] == (g.shape[0] + 2 * FIELD_MARGIN,) * dim
    for x, pos in _field_nodes(g):
        assert grad[pos].tobytes() == _ref_grad(u, x).tobytes(), x
        assert hess[pos].tobytes() == _ref_hess(u, x).tobytes(), x


@pytest.mark.parametrize("dim", [1, 2])
def test_strict_reads_raise_exactly_where_the_stencil_leaves_the_box(dim):
    rng = np.random.default_rng(64 + dim)
    g = DyadicGrid(level=1, dim=dim, box_radius=1.0)
    u = GridFunction(g, rng.standard_normal(g.node_count).reshape(g.shape))
    n = g.half_count
    grad, hess = dgrad_padded(u), dhess_padded(u)
    for x, pos in _field_nodes(g):
        eye = np.eye(dim, dtype=np.int64)
        grad_nodes = [x + s * e for e in eye for s in (1, -1)]
        hess_nodes = [x + a + b for a in eye for b in eye] + [x + e for e in eye] + [x]
        for read, nodes, field in ((dgrad, grad_nodes, grad),
                                   (dhess, hess_nodes, hess)):
            if all(np.all(np.abs(z) <= n) for z in nodes):
                assert read(u, x).tobytes() == field[pos].tobytes(), x
            else:
                with pytest.raises(GridError):
                    read(u, x)


def test_hessian_raw_is_symmetric_and_sym_equals_raw():
    # the forward Hessian field, margin included
    rng = np.random.default_rng(6)
    g = DyadicGrid(level=2, dim=3, box_radius=0.5)
    u = GridFunction(g, rng.standard_normal(g.node_count).reshape(g.shape))
    raw = dhess_padded(u)
    sym = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    assert np.allclose(raw, np.swapaxes(raw, -1, -2), atol=1e-12)
    assert np.allclose(sym, raw, atol=1e-12)


def _rate_study(u: SmoothFn, which: str, levels, x: float) -> ConvergenceStudy:
    """Stencil error at the node x against the exact derivative, per level."""
    x = np.array([x])
    spacings, errors = [], []
    for n in levels:
        g = DyadicGrid(n, 1, 2.0)
        un = restrict(u, g)
        idx = np.rint(x / g.spacing).astype(np.int64)
        if which == "grad":
            err = np.max(np.abs(dgrad(un, idx) - u.grad(x)))
        else:
            err = np.max(np.abs(dhess(un, idx) - u.hess(x)))
        spacings.append(g.spacing)
        errors.append(float(err))
    order, exact = fit_order(spacings, errors)
    return ConvergenceStudy(list(levels), spacings, errors, order, exact)


def test_gradient_order_two_on_smooth_data():
    study = _rate_study(_sin(), "grad", [3, 4, 5, 6], x=0.25)
    assert study.order == pytest.approx(2.0, abs=0.05)
    assert not study.exact


def test_hessian_order_one_on_smooth_data():
    f = SmoothFn(lambda x: float(np.exp(x[0])),
                 grad=lambda x: np.exp(x),
                 hess=lambda x: np.exp(x).reshape(1, 1))
    study = _rate_study(f, "hess", [3, 4, 5, 6], x=0.0)
    assert study.order == pytest.approx(1.0, abs=0.05)


def test_hessian_half_order_on_rough_data():
    # |x|^2.5 at the kink: the forward stencil error is exactly (2^2.5-2) h^0.5
    f = SmoothFn(lambda x: float(np.abs(x[0]) ** 2.5),
                 grad=lambda x: np.zeros(1),
                 hess=lambda x: np.zeros((1, 1)),
                 cls=RegularityClass(2.5), name="rough")
    study = _rate_study(f, "hess", [3, 4, 5, 6], x=0.0)
    assert study.order == pytest.approx(0.5, abs=1e-6)
    for h, err in zip(study.spacings, study.errors):
        assert err == pytest.approx((2 ** 2.5 - 2.0) * h ** 0.5, rel=1e-10)


def test_gradient_rate_on_rough_data():
    # x|x|^1.5 has gradient 0 at the origin; the central stencil error there
    # is exactly h^1.5
    f = SmoothFn(lambda x: float(x[0] * np.abs(x[0]) ** 1.5),
                 grad=lambda x: np.zeros(1))
    study = _rate_study(f, "grad", [3, 4, 5], x=0.0)
    assert study.order == pytest.approx(1.5, abs=1e-6)


def test_fit_order_exact_floor():
    order, exact = fit_order([0.5, 0.25, 0.125], [0.0, 1e-16, 0.0])
    assert exact and order is None
