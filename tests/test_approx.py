"""Surrogate pipeline and probe diagnostics.

The value source makes the surrogate the identity on node vectors (node
reproduction is exact), which pins the plumbing.  The second-trace source
reduces to the interior stencil, linear in the data, so its Jacobian rows
decompose like the hand-built ones in the differential tests.
"""
import math

import numpy as np
import pytest

from levyminmax.approx import (ApproxError, DiscreteSurrogate, LipschitzProbe,
                               build_surrogate, convergence_study,
                               probe_lipschitz, probe_shift_regularity,
                               probe_tightness)
from levyminmax.clarke import coefficient_fields, jacobian_at
from levyminmax.grid import (DyadicGrid, GridError, GridFunction,
                             RegularityClass, SmoothFn, restrict)
from levyminmax.levy import LevyMeasure, LevyOperator, evaluate

CLS = RegularityClass(2.0)

SIN = SmoothFn(lambda x: math.sin(x[0]),
               grad=lambda x: np.array([math.cos(x[0])]),
               hess=lambda x: np.array([[-math.sin(x[0])]]),
               cls=CLS, name="sin")


def value_source(fn, x):
    return fn.value(x)


def trace_source(fn, x):
    return float(np.trace(fn.hess(x)))


def jump_op():
    # off-lattice compensated atom plus a far uncompensated one, so the
    # surrogate inherits genuine interpolation error at every level
    mu = LevyMeasure(np.array([[0.3], [1.2]]), np.array([1.0, 0.5]))
    return LevyOperator(np.zeros((1, 1)), np.zeros(1), 0.0, mu)


def symmetric_jump_source(fn, x):
    mu = LevyMeasure(np.array([[0.25], [-0.25]]), np.array([1.0, 1.0]))
    op = LevyOperator(np.zeros((1, 1)), np.zeros(1), 0.0, mu)
    return evaluate(op, fn, x)


def jump_source(fn, x):
    return evaluate(jump_op(), fn, x)


class TestSurrogate:
    def test_value_source_is_identity_on_nodes(self):
        g = DyadicGrid(3, 1, box_radius=2.0)
        surr = build_surrogate(value_source, g)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(g.node_count)
        assert np.array_equal(surr(v), v)

    def test_on_grid_round_trip(self):
        g = DyadicGrid(2, 2, box_radius=1.0)
        surr = build_surrogate(value_source, g)
        u = restrict(SmoothFn(lambda x: float(x[0] - x[1] ** 2), cls=CLS), g)
        out = surr.on_grid(u)
        assert np.array_equal(out.values, u.values)

    def test_trace_source_matches_stencil_on_quadratic(self):
        g = DyadicGrid(3, 1, box_radius=2.0)
        surr = build_surrogate(trace_source, g)
        u = restrict(SmoothFn(lambda x: float(3.0 * x[0] ** 2), cls=CLS), g)
        got = surr(u.flat())
        inner = slice(2, g.node_count - 2)
        assert got[inner] == pytest.approx(np.full(g.node_count - 4, 6.0),
                                           abs=1e-9)

    def test_size_mismatch_rejected(self):
        g = DyadicGrid(2, 1, box_radius=1.0)
        surr = build_surrogate(value_source, g)
        with pytest.raises(ApproxError):
            surr(np.zeros(g.node_count + 1))
        with pytest.raises(ApproxError):
            surr.on_grid(restrict(SIN, DyadicGrid(3, 1, box_radius=1.0)))

    def test_source_must_be_callable(self):
        with pytest.raises(ApproxError):
            build_surrogate("laplace", DyadicGrid(2, 1, box_radius=1.0))

    def test_linearization_recovers_stencil_coefficients(self):
        g = DyadicGrid(3, 1, box_radius=1.0)
        h = g.spacing

        def centered_trace(fn, x):
            e = np.array([h])
            return (fn.value(x + e) - 2.0 * fn.value(x) + fn.value(x - e)) / h ** 2

        surr = build_surrogate(centered_trace, g)
        fields = coefficient_fields(surr, g, np.zeros(g.node_count))
        inner = slice(2, g.node_count - 2)
        assert fields.a_field[inner] == pytest.approx(
            np.ones((g.node_count - 4, 1, 1)), abs=1e-7)
        assert fields.c_field[inner] == pytest.approx(
            np.zeros(g.node_count - 4), abs=1e-4)
        assert np.all(fields.gcp_field[inner])

    def test_forward_hessian_rows_are_not_monotone(self):
        # the projection measures curvature with the one-sided 4-point
        # stencil, whose row {+1, -2, +1}/h^2 at offsets {0, h, 2h} has a
        # negative near atom: the sign test fails and the floor-scale
        # diffusion comes out as -1, not +1.  This is why grid operators
        # are assembled from centered differences instead.
        g = DyadicGrid(3, 1, box_radius=1.0)
        surr = build_surrogate(trace_source, g)
        fields = coefficient_fields(surr, g, np.zeros(g.node_count))
        inner = slice(2, g.node_count - 2)
        assert fields.a_field[inner] == pytest.approx(
            -np.ones((g.node_count - 4, 1, 1)), abs=1e-7)
        assert not np.any(fields.gcp_field[inner])

    def test_coarse_pitch_reports_pure_jumps(self):
        # at pitch 1/4 the schedule floor is 1/8, below the atoms: the whole
        # kernel lands in the jump part and the reported diffusion is zero
        g = DyadicGrid(2, 1, box_radius=1.0)
        surr = build_surrogate(trace_source, g)
        fields = coefficient_fields(surr, g, np.zeros(g.node_count))
        inner = slice(2, g.node_count - 2)
        assert fields.a_field[inner] == pytest.approx(
            np.zeros((g.node_count - 4, 1, 1)), abs=1e-7)


class TestConvergenceStudy:
    def test_trace_source_first_order_on_sin(self):
        study = convergence_study(trace_source, SIN, [2, 3, 4], dim=1,
                                  box_radius=2.0)
        assert study.order is not None
        assert study.order == pytest.approx(1.0, abs=0.1)
        assert study.errors[0] > study.errors[-1]

    def test_jump_source_converges_on_sin(self):
        # region_radius keeps x + 1.2 inside the data box at every level
        study = convergence_study(jump_source, SIN, [2, 3, 4], dim=1,
                                  box_radius=2.0, region_radius=0.5)
        assert study.errors[-1] < study.errors[0]
        assert study.order is not None and study.order > 1.0

    def test_on_lattice_symmetric_jumps_are_exact(self):
        # atoms at +-0.25 land on nodes at every level and the gradient
        # compensation cancels in pairs: the surrogate is exact and the fit
        # reports the exactness flag instead of an order
        study = convergence_study(symmetric_jump_source, SIN, [2, 3, 4],
                                  dim=1, box_radius=2.0)
        assert study.exact
        assert study.errors == [0.0, 0.0, 0.0]

    def test_needs_three_levels(self):
        with pytest.raises(GridError):
            convergence_study(trace_source, SIN, [2, 3], dim=1,
                              box_radius=2.0)


class TestLipschitzProbe:
    def test_diagonal_map_ratio_is_exact(self):
        probe = probe_lipschitz(lambda v: 2.0 * v, size=6, samples=10, seed=1)
        assert probe.rho_hat == pytest.approx(2.0, abs=1e-12)
        assert np.all(np.abs(probe.ratios - 2.0) < 1e-12)

    def test_identity_surrogate_ratio_is_one(self):
        g = DyadicGrid(2, 1, box_radius=1.0)
        surr = build_surrogate(value_source, g)
        probe = probe_lipschitz(surr, size=g.node_count, samples=5, seed=2)
        assert probe.rho_hat == pytest.approx(1.0, abs=1e-12)

    def test_max_map_ratio_between_slopes(self):
        probe = probe_lipschitz(lambda v: np.maximum(v, 2.0 * v), size=4,
                                samples=30, seed=3)
        assert 1.0 - 1e-12 <= probe.rho_hat <= 2.0 + 1e-12

    def test_needs_samples(self):
        with pytest.raises(ApproxError):
            probe_lipschitz(lambda v: v, size=3, samples=0)

    def test_all_degenerate_pairs_raise(self):
        with pytest.raises(ApproxError, match="every sample pair was degenerate"):
            probe_lipschitz(lambda v: v, size=3, samples=4, amplitude=0.0)


class TestTightnessProbe:
    def test_gaps_shrink_to_zero_on_piecewise_linear_map(self):
        op = lambda v: np.maximum(v, 2.0 * v)
        u = np.array([0.7, -0.4])
        probe = probe_tightness(op, u, count=6, scale=0.5, seed=0)
        assert np.all(np.diff(probe.gaps) <= 1e-12)
        assert probe.omega <= 1e-8

    def test_needs_probes(self):
        with pytest.raises(ApproxError):
            probe_tightness(lambda v: v, np.zeros(2), count=0)


class TestShiftProbe:
    def test_constant_coefficients_commute_with_shifts(self):
        g = DyadicGrid(3, 1)
        surr = build_surrogate(jump_source, g)
        u = restrict(SmoothFn(lambda x: math.exp(-0.5 * float(x[0]) ** 2),
                              cls=CLS), g)
        probe = probe_shift_regularity(surr, u, shifts=[[8], [-16]], margin=4)
        assert probe.omega < 1e-9

    def test_base_point_dependence_is_detected(self):
        g = DyadicGrid(3, 1)
        surr = build_surrogate(lambda fn, x: float(x[0]) * fn.value(x), g)
        u = restrict(SmoothFn(lambda x: 1.0, cls=CLS), g)
        probe = probe_shift_regularity(surr, u, shifts=[[8]], margin=2)
        assert probe.omega == pytest.approx(1.0, abs=1e-12)

    def test_oversized_shift_rejected(self):
        g = DyadicGrid(2, 1, box_radius=1.0)
        surr = build_surrogate(value_source, g)
        u = restrict(SIN, g)
        with pytest.raises(ApproxError):
            probe_shift_regularity(surr, u, shifts=[[20]], margin=2)

    def test_grid_mismatch_rejected(self):
        g = DyadicGrid(2, 1, box_radius=1.0)
        surr = build_surrogate(value_source, g)
        u = restrict(SIN, DyadicGrid(3, 1, box_radius=1.0))
        with pytest.raises(ApproxError):
            probe_shift_regularity(surr, u, shifts=[[1]])