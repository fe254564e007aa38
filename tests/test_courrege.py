"""Row functionals and their normal-form decompositions.

Frozen facts used below, all derivable by hand:
  second-difference row at pitch h:  A = identity, B = 0, C = 0
  one-sided drift row at pitch h:    B = e_1 exactly, A = [[h/2]] at the floor
The reconstruction identity is algebraic, so residuals sit at rounding
level; the assertions use 1e-12 with unit-scale probes and pitch 1/16.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyminmax.courrege import (CourregeError, RowFunctional, a_of, b_of,
                                 c_of, decompose, is_gcp,
                                 probe_battery, reconstruct_residual)
from levyminmax.grid import SmoothFn
from levyminmax.levy import LevyError, LevyOperator, evaluate
from levyminmax.special import SClassFn

H = 1.0 / 16.0


def second_difference_row(h=H, dim=2, base=None):
    offs = [np.zeros(dim)]
    wts = [-2.0 * dim / h ** 2]
    for j in range(dim):
        for s in (1.0, -1.0):
            e = np.zeros(dim)
            e[j] = s * h
            offs.append(e)
            wts.append(1.0 / h ** 2)
    base = np.zeros(dim) if base is None else np.asarray(base, dtype=float)
    return RowFunctional(base, np.array(offs), np.array(wts))


def one_sided_drift_row(h=H):
    return RowFunctional(np.zeros(1), np.array([[0.0], [h]]),
                         np.array([-1.0 / h, 1.0 / h]))


class TestRowFunctional:
    def test_apply_matches_manual_sum(self):
        row = second_difference_row(0.25, 1)
        got = row.apply(lambda x: math.exp(x[0]))
        want = (math.exp(0.25) - 2.0 + math.exp(-0.25)) / 0.25 ** 2
        assert got == pytest.approx(want, rel=1e-14)

    def test_offsets_canonicalized(self):
        row = RowFunctional(np.zeros(1), np.array([[0.5], [-0.5], [0.0]]),
                            np.array([1.0, 2.0, 3.0]))
        assert row.offsets.ravel().tolist() == [-0.5, 0.0, 0.5]
        assert row.weights.tolist() == [2.0, 3.0, 1.0]
        assert row.jump_part()[1].tolist() == [2.0, 1.0]
        assert row.pitch == 0.5

    def test_duplicate_offset_rejected(self):
        with pytest.raises(CourregeError):
            RowFunctional(np.zeros(1), np.array([[0.5], [0.5]]),
                          np.array([1.0, 1.0]))

    def test_shape_mismatches_rejected(self):
        with pytest.raises(CourregeError):
            RowFunctional(np.zeros(2), np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(CourregeError):
            RowFunctional(np.zeros(1), np.array([[0.5]]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("field", ["base_point", "offsets", "weights"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, field, bad):
        parts = {"base_point": np.zeros(1), "offsets": np.array([[0.0], [0.5]]),
                 "weights": np.array([-1.0, 1.0])}
        parts[field] = parts[field].copy()
        parts[field].flat[-1] = bad
        with pytest.raises(CourregeError, match=field):
            RowFunctional(**parts)

    def test_pitch_without_jumps_is_infinite(self):
        row = RowFunctional(np.zeros(1), np.array([[0.0]]), np.array([-1.0]))
        assert row.pitch == math.inf

    def test_offset_below_tolerance_is_the_centre(self):
        # one tolerance decides both duplicates and the centre
        row = RowFunctional(np.zeros(1), np.array([[5e-13]]), np.array([-1.0]))
        assert row.jump_part()[0].shape == (0, 1)
        assert row.pitch == math.inf
        with pytest.raises(CourregeError):
            RowFunctional(np.zeros(1), np.array([[0.0], [1e-300]]),
                          np.array([1.0, 1.0]))


class TestCoefficientExtraction:
    def test_sign_condition(self):
        assert is_gcp(second_difference_row())
        bad = RowFunctional(np.zeros(1), np.array([[0.0], [0.5]]),
                            np.array([1.0, -0.1]))
        assert not is_gcp(bad)
        assert is_gcp(bad, tol=0.2)

    def test_zero_order_is_row_sum(self):
        row = second_difference_row()
        assert c_of(row) == 0.0
        assert c_of(row) == row.apply(lambda x: 1.0)

    def test_cutoff_drift_and_diffusion_match_manual_sums(self):
        row = one_sided_drift_row(0.25)
        phi = SClassFn.from_psi(0.5, 1.0)
        assert b_of(row, phi) == pytest.approx([1.0], abs=1e-15)
        a = a_of(row, phi)
        assert a == pytest.approx(np.array([[0.5 * 4.0 * 0.25 ** 2]]), abs=1e-16)

    def test_jump_measure_requires_nonnegative_weights(self):
        mu = decompose(second_difference_row()).levy_measure()
        assert len(mu) == 4
        assert mu.masses.sum() == 4.0 / H ** 2
        bad = RowFunctional(np.zeros(1), np.array([[0.0], [0.5]]),
                            np.array([1.0, -0.1]))
        with pytest.raises(LevyError):
            decompose(bad).levy_measure()

    def test_diffusion_is_psd_for_sign_correct_rows(self):
        rng = np.random.default_rng(11)
        phi = SClassFn.from_psi(0.5, 1.0)
        for _ in range(10):
            offs = rng.uniform(-1.5, 1.5, size=(5, 3))
            offs = offs[np.max(np.abs(offs), axis=1) > 1e-2]
            row = RowFunctional(np.zeros(3), offs,
                                rng.uniform(0.0, 2.0, size=len(offs)))
            a = a_of(row, phi)
            assert np.max(np.abs(a - a.T)) < 1e-14
            assert np.min(np.linalg.eigvalsh(a)) >= -1e-12


class TestDecompose:
    def test_second_difference_row_splits_to_identity(self):
        row = second_difference_row()
        dec = decompose(row)
        assert np.array_equal(dec.a_matrix, np.eye(2))
        assert np.array_equal(dec.drift, np.zeros(2))
        assert dec.zero_order == 0.0
        assert dec.gcp
        assert dec.delta_floor == 0.125
        assert reconstruct_residual(row, dec) < 1e-12
        mu = dec.levy_measure()
        assert len(mu) == 4 and mu.masses.tolist() == [256.0] * 4

    def test_one_sided_drift_row(self):
        row = one_sided_drift_row()
        dec = decompose(row)
        assert dec.drift.tolist() == [1.0]
        # the schedule floor still sees the single atom as curvature h/2
        assert dec.a_matrix.tolist() == [[0.03125]]
        assert dec.zero_order == 0.0
        assert reconstruct_residual(row, dec) < 1e-12

    def test_floor_diffusion_and_drift_of_a_fine_second_difference(self):
        dec = decompose(second_difference_row(2.0 ** -6, 1))
        assert np.allclose(dec.a_matrix, 1.0)
        assert np.array_equal(dec.drift, np.zeros(1))
        assert dec.delta_floor == 0.03125

    def test_signed_row_decomposes_with_gcp_flag_down(self):
        row = RowFunctional(np.zeros(1), np.array([[0.0], [0.25], [-0.25]]),
                            np.array([2.0, 1.0, -0.5]))
        dec = decompose(row)
        assert not dec.gcp
        assert reconstruct_residual(row, dec) < 1e-13
        with pytest.raises(LevyError):
            dec.levy_measure()

    def test_atom_on_unit_sphere_is_uncompensated(self):
        row = RowFunctional(np.zeros(2), np.array([[0.0, 0.0], [1.0, 0.0]]),
                            np.array([-2.0, 2.0]))
        dec = decompose(row)
        assert np.array_equal(dec.drift, np.zeros(2))
        assert reconstruct_residual(row, dec) < 1e-13

    def test_atom_one_ulp_inside_sphere_still_resolves(self):
        r = float(np.nextafter(1.0, 0.0))
        row = RowFunctional(np.zeros(1), np.array([[0.0], [r]]),
                            np.array([-1.0, 1.0]))
        dec = decompose(row)
        assert dec.drift.tolist() == [r]
        assert reconstruct_residual(row, dec) < 1e-13

    def test_degenerate_sphere_collision_refused(self):
        # an atom one ulp inside the sphere drives the schedule so deep that
        # the shrinking plateau rounds onto radius 1, where it disagrees with
        # the strict indicator on the mirror atom at exactly -1: honest
        # non-convergence
        row = RowFunctional(np.zeros(1),
                            np.array([[0.0], [float(np.nextafter(1.0, 0.0))],
                                      [-1.0]]),
                            np.array([-2.0, 1.0, 1.0]))
        with pytest.raises(CourregeError):
            decompose(row)

    def test_pure_zero_order_row(self):
        row = RowFunctional(np.zeros(2), np.zeros((1, 2)), np.array([-3.0]))
        dec = decompose(row)
        assert dec.zero_order == -3.0
        assert dec.atoms.shape == (0, 2)
        # no off-centre atom: the general schedule, floor at its first step
        assert np.array_equal(dec.a_matrix, np.zeros((2, 2)))
        assert np.array_equal(dec.drift, np.zeros(2))
        assert dec.delta_floor == 0.125
        assert reconstruct_residual(row, dec) < 1e-15

    def test_random_signed_rows_reconstruct_exactly(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            offs = rng.uniform(-1.8, 1.8, size=(6, 2))
            offs = offs[np.max(np.abs(offs), axis=1) > 5e-2]
            wts = rng.standard_normal(len(offs))
            row = RowFunctional(rng.uniform(-0.3, 0.3, size=2), offs, wts)
            dec = decompose(row)
            assert reconstruct_residual(row, dec) < 1e-12
            assert reconstruct_residual(row, dec, probes=probe_battery(2, seed=trial + 1)) < 1e-12

    def test_array_probes_match_point_by_point_evaluation(self):
        # the array path sums in another order: agreement to rounding level
        rng = np.random.default_rng(9)
        for dim in (1, 2, 3):
            offs = rng.uniform(-1.5, 1.5, size=(40, dim))
            row = RowFunctional(rng.uniform(-0.3, 0.3, size=dim), offs,
                                rng.uniform(0.0, 2.0, size=40))
            dec = decompose(row)
            pts = row.base_point + row.offsets
            for u in probe_battery(dim, seed=dim):
                pointwise = SmoothFn(u.value, grad=u.grad, hess=u.hess)
                want = np.array([u.value(x) for x in pts])
                assert u.values(pts) == pytest.approx(want, rel=1e-14, abs=1e-14)
                # the batch hooks, and SmoothFn's point-by-point fallback
                for batch in (u, pointwise):
                    assert batch.grads(pts) == pytest.approx(
                        np.array([u.grad(x) for x in pts]), rel=1e-14, abs=1e-14)
                    assert batch.hessians(pts) == pytest.approx(
                        np.array([u.hess(x) for x in pts]), rel=1e-14, abs=1e-14)
                assert row.apply(u) == pytest.approx(row.apply(pointwise),
                                                     rel=1e-13, abs=1e-13)
                assert dec.apply(u) == pytest.approx(dec.apply(pointwise),
                                                     rel=1e-13, abs=1e-13)

    def test_agrees_with_operator_evaluation_away_from_origin_cutoff(self):
        # atoms outside the floor cutoff and a vanished diffusion: the normal
        # form coincides with the standard compensated operator form
        row = RowFunctional(np.zeros(1), np.array([[0.0], [0.5], [1.5]]),
                            np.array([-1.0, 2.0, 0.5]))
        dec = decompose(row)
        assert dec.a_matrix.tolist() == [[0.0]]
        op = LevyOperator(np.zeros((1, 1)), dec.drift, dec.zero_order,
                          dec.levy_measure())
        for u in probe_battery(1, seed=2):
            assert dec.apply(u) == pytest.approx(evaluate(op, u, [0.0]),
                                                 rel=1e-12, abs=1e-13)


@st.composite
def sign_test_rows(draw):
    """A random row passing the sign test, with a probe seed for its check.

    Off-centre weights are nonnegative, the centre weight is at most minus
    their sum, and every offset lies beyond 5e-2 of the centre: radii near
    5e-2 move the schedule floor, radii near 1 the drift convention.
    """
    d = draw(st.integers(1, 3))
    direction = st.tuples(*[st.floats(-1.0, 1.0)] * d).filter(
        lambda t: np.linalg.norm(t) > 0.1)
    radius = st.floats(5e-2, 2.0, exclude_min=True)
    offsets = draw(st.lists(
        st.builds(lambda t, r: r * np.array(t) / np.linalg.norm(t),
                  direction, radius),
        min_size=1, max_size=6,
        unique_by=lambda y: tuple(np.round(y, 6))))
    weights = draw(st.lists(st.floats(0.0, 8.0), min_size=len(offsets),
                            max_size=len(offsets)))
    centre = -sum(weights) - draw(st.floats(0.0, 4.0))
    base = draw(st.tuples(*[st.floats(-1.0, 1.0)] * d))
    row = RowFunctional(np.array(base), np.vstack([np.zeros(d)] + offsets),
                        np.array([centre] + weights))
    return row, draw(st.integers(0, 2 ** 16))


class TestRoundTripProperty:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(sign_test_rows())
    def test_normal_form_reconstructs_every_sign_test_row(self, case):
        row, seed = case
        dec = decompose(row)
        assert dec.gcp
        assert reconstruct_residual(row, dec) < 1e-12
        probes = probe_battery(row.dim, seed)
        assert reconstruct_residual(row, dec, probes=probes) < 1e-12


class TestDecompositionJson:
    def test_keys_and_determinism(self):
        row = second_difference_row()
        payload = decompose(row).report()
        assert payload == decompose(row).report()
        assert set(payload) == {"A", "B", "C", "mu", "gcp"}
        assert payload["A"] == [[1.0, 0.0], [0.0, 1.0]]
        assert payload["B"] == [0.0, 0.0]
        assert payload["C"] == 0.0
        assert payload["gcp"] is True
        assert len(payload["mu"]) == 4
        assert reconstruct_residual(row, decompose(row)) < 1e-12

    def test_empty_measure_serializes_to_empty_list(self):
        row = RowFunctional(np.zeros(1), np.zeros((1, 1)), np.array([2.0]))
        payload = decompose(row).report()
        assert payload["mu"] == []
