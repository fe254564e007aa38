"""Atomic jump measures and operator evaluation.

Frozen oracles, computed independently before the module was written:
  sin(0.25) - 0.25                  = -0.002596040745477063
  mixed exp operator value at 0.1   =  1.9763628701948963
"""
import json
import math

import numpy as np
import pytest

from levyminmax.grid import RegularityClass, SmoothFn
from levyminmax.levy import (LevyError, LevyMeasure, LevyOperator, evaluate,
                             tv_distance)

CLS = RegularityClass(2.0)

SIN = SmoothFn(lambda x: math.sin(x[0]),
               grad=lambda x: np.array([math.cos(x[0])]),
               hess=lambda x: np.array([[-math.sin(x[0])]]),
               cls=CLS, name="sin")
EXP = SmoothFn(lambda x: math.exp(x[0]),
               grad=lambda x: np.array([math.exp(x[0])]),
               hess=lambda x: np.array([[math.exp(x[0])]]),
               cls=CLS, name="exp")


def _measure(*pairs):
    atoms = np.array([[y] if np.isscalar(y) else y for y, _ in pairs], dtype=float)
    masses = np.array([m for _, m in pairs], dtype=float)
    return LevyMeasure(atoms, masses)


def _op(a, b, c, measure):
    return LevyOperator(np.atleast_2d(a), np.atleast_1d(b), c, measure)


class TestMeasure:
    def test_atoms_sorted_and_merged(self):
        mu = LevyMeasure(np.array([[1.0], [-0.5], [1.0]]),
                         np.array([2.0, 1.0, 3.0]))
        assert mu.atoms.tolist() == [[-0.5], [1.0]]
        assert mu.masses.tolist() == [1.0, 5.0]
        assert mu.total_mass() == 6.0

    def test_negative_mass_rejected(self):
        with pytest.raises(LevyError):
            _measure((0.5, -1.0))

    def test_origin_atom_rejected(self):
        with pytest.raises(LevyError):
            _measure((0.0, 1.0))

    @pytest.mark.parametrize("atoms, masses, field", [
        ([[math.nan]], [1.0], "atoms"),
        ([[0.5, math.inf]], [1.0], "atoms"),
        ([[0.5]], [math.nan], "masses"),
        ([[0.5]], [math.inf], "masses"),
    ])
    def test_non_finite_entries_rejected(self, atoms, masses, field):
        with pytest.raises(LevyError, match=field):
            LevyMeasure(np.array(atoms), np.array(masses))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(LevyError):
            LevyMeasure(np.array([[1.0], [2.0]]), np.array([1.0]))

    def test_moment_splits_at_radius(self):
        mu = _measure((0.5, 4.0), (1.0, 1.0), (2.0, 0.25))
        # inside: 4*(0.5)^2; at and beyond the radius the integrand is 1
        assert mu.moment(2.0, 1.0) == 2.25
        assert mu.moment(0.0, 1.0) == mu.total_mass()

    def test_restricted_is_half_open(self):
        mu = _measure((0.5, 1.0), (1.0, 2.0), (2.0, 3.0))
        band = mu.restricted(0.5, 2.0)
        assert band.atoms.ravel().tolist() == [0.5, 1.0]
        assert band.total_mass() == 3.0

    def test_support_radius(self):
        mu = _measure(((0.3, 0.4), 1.0), ((-1.0, 0.0), 2.0))
        assert mu.support_radius() == 1.0

    def test_json_round_trip_and_determinism(self):
        mu = _measure(((0.25, 0.0), 1.5), ((-0.5, 0.5), 2.0))
        text = mu.to_json()
        back = LevyMeasure.from_json(text)
        assert back.to_json() == text
        assert np.array_equal(back.atoms, mu.atoms)
        payload = json.loads(text)
        assert all(set(rec) == {"mass", "y"} for rec in payload)

    def test_empty_json_needs_dimension(self):
        with pytest.raises(LevyError):
            LevyMeasure.from_json("[]")
        assert len(LevyMeasure.empty(3)) == 0


class TestTotalVariation:
    def test_matched_and_unmatched_atoms(self):
        m1 = _measure((0.5, 1.0), (1.0, 2.0))
        m2 = _measure((0.5, 0.75), (2.0, 1.0))
        assert tv_distance(m1, m2) == 3.25
        assert tv_distance(m2, m1) == 3.25

    def test_identical_measures(self):
        m1 = _measure((0.5, 1.0), (1.0, 2.0))
        assert tv_distance(m1, m1) == 0.0

    def test_triangle_inequality_on_random_measures(self):
        rng = np.random.default_rng(7)
        sites = rng.uniform(-2, 2, size=(6, 2))
        sites = sites[np.max(np.abs(sites), axis=1) > 1e-3]
        ms = [LevyMeasure(sites, rng.uniform(0, 1, size=len(sites)))
              for _ in range(3)]
        d01 = tv_distance(ms[0], ms[1])
        d12 = tv_distance(ms[1], ms[2])
        d02 = tv_distance(ms[0], ms[2])
        assert d02 <= d01 + d12 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(LevyError):
            tv_distance(_measure((0.5, 1.0)), _measure(((0.5, 0.5), 1.0)))


class TestOperatorValidation:
    def test_asymmetric_diffusion_rejected(self):
        with pytest.raises(LevyError):
            _op(np.array([[1.0, 0.3], [0.0, 1.0]]), np.zeros(2), 0.0,
                LevyMeasure.empty(2))

    def test_indefinite_diffusion_rejected(self):
        with pytest.raises(LevyError):
            _op(np.array([[1.0, 0.0], [0.0, -0.5]]), np.zeros(2), 0.0,
                LevyMeasure.empty(2))

    def test_measure_dimension_checked(self):
        with pytest.raises(LevyError):
            _op(np.eye(2), np.zeros(2), 0.0, _measure((0.5, 1.0)))


class TestEvaluate:
    def test_frozen_compensated_jump(self):
        op = _op(0.0, 0.0, 0.0, _measure((0.25, 1.0)))
        got = evaluate(op, SIN, [0.0])
        assert got == pytest.approx(-0.002596040745477063, abs=1e-15)

    def test_frozen_mixed_operator_on_exp(self):
        op = _op(0.5, 0.25, -1.0, _measure((0.5, 2.0), (1.5, 0.5)))
        got = evaluate(op, EXP, [0.1])
        assert got == pytest.approx(1.9763628701948963, rel=1e-14)

    def test_compensation_is_strictly_inside_unit_ball(self):
        # An affine function kills compensated jumps entirely, so atoms at
        # radius exactly 1 must contribute their full increment.
        lin = SmoothFn(lambda x: 2.0 * x[0],
                       grad=lambda x: np.array([2.0]),
                       hess=lambda x: np.zeros((1, 1)), cls=CLS)
        inside = _op(0.0, 0.0, 0.0, _measure((0.999, 3.0)))
        at_one = _op(0.0, 0.0, 0.0, _measure((1.0, 3.0)))
        assert evaluate(inside, lin, [0.0]) == 0.0
        assert evaluate(at_one, lin, [0.0]) == pytest.approx(6.0, abs=1e-15)

    def test_local_part_on_quadratic(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        p = np.array([[1.0, 0.25], [0.25, 3.0]])
        q = np.array([0.3, -0.7])
        quad = SmoothFn(lambda x: 0.5 * float(x @ p @ x) + float(q @ x),
                        grad=lambda x: p @ x + q, hess=lambda x: p, cls=CLS)
        op = _op(a, np.array([1.0, -2.0]), 0.5, LevyMeasure.empty(2))
        x = np.array([0.25, -0.5])
        want = float(np.trace(a @ p)) + float(np.array([1.0, -2.0]) @ (p @ x + q)) \
            + 0.5 * quad.value(x)
        assert evaluate(op, quad, x) == pytest.approx(want, rel=1e-14)

    def test_comparison_at_touching_maximum(self):
        # w <= 0 with w(x0) = 0 and exact derivatives: the operator value at
        # x0 must be nonpositive for any admissible coefficients.
        rng = np.random.default_rng(3)
        x0 = np.array([0.2, -0.1])
        w = SmoothFn(lambda x: -float(np.sum((x - x0) ** 2)),
                     grad=lambda x: -2.0 * (x - x0),
                     hess=lambda x: -2.0 * np.eye(2), cls=CLS)
        for trial in range(20):
            m = rng.standard_normal((2, 2))
            a = m @ m.T
            atoms = rng.uniform(-2, 2, size=(4, 2))
            atoms = atoms[np.max(np.abs(atoms), axis=1) > 1e-3]
            mu = LevyMeasure(atoms, rng.uniform(0, 2, size=len(atoms)))
            op = _op(a, rng.standard_normal(2), 0.0, mu)
            assert evaluate(op, w, x0) <= 1e-12

    def test_gradient_not_required_when_unused(self):
        # Only uncompensated atoms and no drift: a value-only function works.
        val_only = SmoothFn(lambda x: float(x[0] ** 2), cls=CLS)
        op = _op(0.0, 0.0, 0.0, _measure((1.5, 2.0)))
        assert evaluate(op, val_only, [0.0]) == pytest.approx(4.5, rel=1e-15)


class TestBatchEvaluate:
    OP = LevyOperator(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -2.0]),
                      0.5, LevyMeasure(np.array([[0.25, 0.5], [1.5, 0.0],
                                                 [0.0, -0.75]]),
                                       np.array([1.0, 0.5, 0.0])))

    @staticmethod
    def bump(calls):
        def val(x):
            return math.exp(-float(x @ x))

        def values(pts):
            calls.append(len(pts))
            return np.exp(-np.sum(pts * pts, axis=1))

        return SmoothFn(val, grad=lambda x: -2.0 * x * val(x),
                        hess=lambda x: (4.0 * np.outer(x, x)
                                        - 2.0 * np.eye(2)) * val(x),
                        cls=CLS, values=values)

    def test_batch_equals_point_by_point(self):
        pts = np.random.default_rng(1).uniform(-1.0, 1.0, size=(7, 2))
        u = self.bump([])
        got = evaluate(self.OP, u, pts)
        want = np.array([evaluate(self.OP, u, p) for p in pts])
        assert got.shape == (7,)
        assert got.tobytes() == want.tobytes()

    def test_one_values_call_for_the_point_and_its_shifts(self):
        calls = []
        evaluate(self.OP, self.bump(calls), np.array([0.1, -0.2]))
        # the point and the two atoms of nonzero mass
        assert calls == [3]

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((4, 3)), 0.0])
    def test_points_of_another_dimension_rejected(self, x):
        with pytest.raises(LevyError, match="dimension 2"):
            evaluate(self.OP, self.bump([]), x)
