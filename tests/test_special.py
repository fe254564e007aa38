import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyminmax import _kernels
from levyminmax.grid import GridError, RegularityClass, SmoothFn
from levyminmax.special import (DEFAULT_PAIR, DEFAULT_PHI, SClassFn,
                                CutoffPair, phi0, taylor_cutoff,
                                validate_s_member)


def test_phi0_endpoints_and_symmetry():
    assert phi0(-1.0) == 0.0
    assert phi0(0.0) == 0.0
    assert phi0(1.0) == 1.0
    assert phi0(2.0) == 1.0
    assert phi0(0.5) == 0.5
    t = np.linspace(0.01, 0.99, 41)
    assert np.allclose(phi0(t) + phi0(1.0 - t), 1.0, atol=1e-15)


def test_phi0_frozen_values():
    assert phi0(0.25) == pytest.approx(0.06496916912866406, abs=1e-15)
    assert phi0(0.75) == pytest.approx(0.935030830871336, abs=1e-15)


def test_phi0_monotone_and_flat_tails():
    t = np.linspace(-0.5, 1.5, 301)
    v = phi0(t)
    assert np.all(np.diff(v) >= -1e-15)
    # smooth junctions: one-sided slopes vanish at 0 and 1
    eps = 1e-4
    assert phi0(eps) / eps < 1e-9
    assert (1.0 - phi0(1.0 - eps)) / eps < 1e-9


def _same_bits(got, want) -> bool:
    """Equal bit for bit (so 0.0 is not -0.0), NaN where want is NaN."""
    got = np.atleast_1d(np.asarray(got, dtype=float))
    want = np.atleast_1d(np.asarray(want, dtype=float))
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64),
                               want[~nan].view(np.int64)))


RAMP_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e-310,
              2.2250738585072014e-308, 1.0 - 2.0 ** -53, 1.0 + 2.0 ** -52,
              float("inf"), float("-inf"), float("nan")]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(RAMP_EDGES),
                          st.floats(-0.5, 1.5), st.floats()),
                min_size=1, max_size=40))
def test_phi0_is_the_kernel_ramp_bit_for_bit(ts):
    want = [_kernels.ramp(t) for t in ts]
    assert _same_bits(phi0(np.array(ts)), want)
    assert _same_bits(phi0(np.array(ts).reshape(-1, 1)),
                      np.reshape(want, (-1, 1)))
    for t, w in zip(ts, want):
        for arg in (t, np.float64(t), np.array(t)):
            got = phi0(arg)
            assert type(got) is float and _same_bits(got, w)


def test_phi_rR_geometry():
    cutoff = SClassFn.from_psi(0.5, 1.0)
    y = np.array([0.0, 1.0, 0.0])
    assert cutoff(y) == 1.0
    assert cutoff(1.6 * y) == 0.0
    assert 0.0 < cutoff(1.25 * y) < 1.0


def test_phi_delta_bands():
    d = 0.1
    phi = SClassFn.shrunk_unit(d)
    assert phi(np.array([0.79, 0.0])) == 1.0
    assert phi(np.array([0.91, 0.0])) == 0.0
    mid = phi(np.array([0.85, 0.0]))
    assert 0.0 < mid < 1.0
    for bad in (0.0, 0.25, 0.4):
        with pytest.raises(GridError):
            SClassFn.shrunk_unit(bad)


def test_eta_delta_bands_and_monotonicity():
    d = 0.1
    eta = SClassFn.shrunk_origin(d)
    assert eta(np.array([0.09])) == 1.0
    assert eta(np.array([0.21])) == 0.0
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 0.5, size=(128, 3))
    small = SClassFn.shrunk_origin(0.05)(pts)
    large = SClassFn.shrunk_origin(0.2)(pts)
    assert np.all(large - small >= -1e-12)


def test_s_class_membership_of_defaults():
    validate_s_member(DEFAULT_PAIR.phi)
    validate_s_member(DEFAULT_PAIR.eta)


def test_s_class_rejects_oversized_support():
    with pytest.raises(GridError):
        SClassFn.from_psi(0.5, 1.8)
    for width in (0.0, -0.5):
        with pytest.raises(GridError):
            SClassFn.from_psi(width, 1.0)
    with pytest.raises(GridError):
        SClassFn(lambda t: np.exp(-t), -1.0, 1.0)


def test_shrunk_families_are_members():
    for d in (0.05, 0.1, 0.2):
        validate_s_member(SClassFn.shrunk_unit(d))
        validate_s_member(SClassFn.shrunk_origin(d))
    q = SClassFn.shrunk_origin(0.1)
    assert q.plateau_radius == 0.1
    assert q.support_radius == pytest.approx(0.2)


def test_s_class_batch_matches_scalar():
    f = DEFAULT_PHI
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(32, 2))
    batch = f(pts)
    single = np.array([f(p) for p in pts])
    assert np.allclose(batch, single, atol=1e-15)


def _quadratic():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([0.3, -0.7])
    return SmoothFn(lambda x: float(0.5 * x @ a @ x + b @ x + 1.0),
                    grad=lambda x: a @ x + b,
                    hess=lambda x: a,
                    cls=RegularityClass(2.5), name="quad")


def test_taylor_cutoff_matches_taylor_on_plateau():
    u = _quadratic()
    x = np.array([0.2, -0.1])
    T = taylor_cutoff(u, x, DEFAULT_PAIR, RegularityClass(2.5))
    g = u.grad(x)
    H = u.hess(x)
    for y in (np.array([0.3, 0.2]), np.array([-0.5, 0.4]), np.zeros(2)):
        want = u.value(x) + g @ y + 0.5 * y @ H @ y
        assert T.value(y) == pytest.approx(want, abs=1e-12)


def test_taylor_cutoff_flattens_far_away():
    u = _quadratic()
    x = np.zeros(2)
    T = taylor_cutoff(u, x, DEFAULT_PAIR, RegularityClass(2.5))
    far = np.array([3.0, -2.0])
    assert T.value(far) == pytest.approx(u.value(x), abs=1e-12)


def test_taylor_cutoff_case_gating():
    u = _quadratic()
    x = np.zeros(2)
    y = np.array([0.4, 0.1])
    low = taylor_cutoff(u, x, DEFAULT_PAIR, RegularityClass(0.5))
    assert low.value(y) == pytest.approx(u.value(x), abs=1e-14)
    mid = taylor_cutoff(u, x, DEFAULT_PAIR, RegularityClass(1.5))
    assert mid.value(y) == pytest.approx(u.value(x) + u.grad(x) @ y, abs=1e-12)


def test_taylor_cutoff_batch_matches_pointwise():
    u = _quadratic()
    T = taylor_cutoff(u, np.zeros(2), DEFAULT_PAIR, RegularityClass(2.5))
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    batch = T.values(pts)
    single = np.array([T.value(p) for p in pts])
    assert np.allclose(batch, single, atol=1e-13)


def test_taylor_cutoff_fd_gradient_agrees_on_plateau():
    u = _quadratic()
    x = np.array([0.1, 0.1])
    T = taylor_cutoff(u, x, DEFAULT_PAIR, RegularityClass(2.5))
    y = np.array([0.2, -0.2])
    want = u.grad(x) + u.hess(x) @ y
    assert np.allclose(T.grad(y), want, atol=1e-6)


def test_custom_pair_changes_transition_band_only():
    tight = CutoffPair(SClassFn.shrunk_unit(0.1), SClassFn.shrunk_origin(0.1))
    u = _quadratic()
    T = taylor_cutoff(u, np.zeros(2), tight, RegularityClass(2.5))
    inside = np.array([0.05, 0.0])
    want = u.value(np.zeros(2)) + u.grad(np.zeros(2)) @ inside \
        + 0.5 * inside @ u.hess(np.zeros(2)) @ inside
    assert T.value(inside) == pytest.approx(want, abs=1e-13)
    far = np.array([1.5, 0.0])
    assert T.value(far) == pytest.approx(u.value(np.zeros(2)), abs=1e-13)
