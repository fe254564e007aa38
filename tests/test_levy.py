"""Atomic jump measures and operator evaluation.

Frozen oracles, computed independently before the module was written:
  sin(0.25) - 0.25                  = -0.002596040745477063
  mixed exp operator value at 0.1   =  1.9763628701948963
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyminmax.grid import DyadicGrid, RegularityClass, SmoothFn
from levyminmax.levy import (OFFSET_TOL, LevyError, LevyMeasure, LevyOperator,
                             evaluate, tv_distance)
from levyminmax.operators import OperatorError, StencilOperator, levy_stencil

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
        assert mu.masses.sum() == 6.0

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
        assert mu.moment(0.0, 1.0) == mu.masses.sum()

    def test_empty_measure_has_no_atoms(self):
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


# --- per-atom reference for the array path ----------------------------------
# The loops below are the per-atom forms of the measure's canonical atoms,
# the operator's derived jumps and the stencil assembly.  The array path in
# `levy` and `operators.levy_stencil` must reproduce them bit for bit.

def _canonical_atoms_loop(atoms, masses):
    order = np.lexsort(atoms.T[::-1])
    atoms = atoms[order]
    masses = masses[order]
    keep_a, keep_m = [], []
    for a, m in zip(atoms, masses):
        if keep_a and np.max(np.abs(keep_a[-1] - a)) < OFFSET_TOL:
            keep_m[-1] += m
        else:
            keep_a.append(a.copy())
            keep_m.append(float(m))
    return np.array(keep_a, dtype=float).reshape(len(keep_a), atoms.shape[1]), \
        np.array(keep_m, dtype=float)


def _jumps_loop(mu):
    return tuple((y, float(m), float(np.linalg.norm(y)) < 1.0)
                 for y, m in zip(mu.atoms, mu.masses) if m != 0.0)


def _levy_stencil_loop(grid, op, drift="upwind"):
    d = grid.dim
    h = grid.spacing
    ker: dict = {}

    def add(off, w):
        ker[off] = ker.get(off, 0.0) + w

    zero = (0,) * d

    def axis(k, s):
        e = [0] * d
        e[k] = s
        return tuple(e)

    a = op.diffusion
    for k in range(d):
        w = (a[k, k] - np.sum(np.abs(a[k])) + abs(a[k, k])) / h ** 2
        if w != 0.0:
            add(axis(k, 1), w)
            add(axis(k, -1), w)
            add(zero, -2.0 * w)
    for k in range(d):
        for l in range(k + 1, d):
            w = abs(a[k, l]) / h ** 2
            if w == 0.0:
                continue
            off = [0] * d
            off[k] = 1
            off[l] = 1 if a[k, l] > 0 else -1
            add(tuple(off), w)
            add(tuple(-o for o in off), w)
            add(zero, -2.0 * w)

    b_eff = op.drift.astype(float).copy()
    for y, m in zip(op.measure.atoms, op.measure.masses):
        if m == 0.0:
            continue
        idx = np.rint(y / h).astype(np.int64)
        if not np.any(idx):
            raise OperatorError(
                f"atom {y.tolist()} snaps to the origin at spacing {h}")
        snapped = idx * h
        add(tuple(idx), m)
        add(zero, -m)
        if float(np.linalg.norm(snapped)) < 1.0:
            b_eff -= m * snapped

    for k in range(d):
        b = b_eff[k]
        if b == 0.0:
            continue
        if drift == "central":
            add(axis(k, 1), b / (2.0 * h))
            add(axis(k, -1), -b / (2.0 * h))
        elif b > 0:
            add(axis(k, 1), b / h)
            add(zero, -b / h)
        else:
            add(axis(k, -1), -b / h)
            add(zero, b / h)

    add(zero, op.zero_order)
    return StencilOperator(grid=grid, kernel=ker)


@st.composite
def levy_operators(draw):
    """A random operator on a random lattice, stressing the atom paths.

    Atoms are lattice nodes, arbitrary points, points a fraction of h from a
    node (several snap to one node, some to the origin), exact copies and
    copies moved by less than OFFSET_TOL (merged) or a little more (kept).
    Masses may be 0; drift and diffusion may vanish.
    """
    d = draw(st.integers(1, 3))
    level = draw(st.integers(0, 3))
    h = 2.0 ** -level
    node = st.lists(st.integers(-5, 5), min_size=d, max_size=d)
    frac = st.lists(st.floats(-0.45, 0.45), min_size=d, max_size=d)
    anywhere = st.lists(st.floats(-2.5, 2.5), min_size=d, max_size=d)
    site = st.one_of(
        node.map(lambda k: np.array(k) * h),
        anywhere.map(np.array),
        st.tuples(node, frac).map(lambda p: (np.array(p[0]) + p[1]) * h))
    atoms = draw(st.lists(site.filter(lambda y: np.max(np.abs(y)) > 0.0),
                          min_size=0, max_size=12))
    for y in list(atoms):
        kind = draw(st.sampled_from(["none", "copy", "near", "apart"]))
        if kind == "copy":
            atoms.append(y.copy())
        elif kind != "none":
            step = draw(st.sampled_from([0.4, 0.9] if kind == "near"
                                        else [1.1, 3.0])) * OFFSET_TOL
            atoms.append(y + step * np.array(
                draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                              min_size=d, max_size=d))))
    atoms = [y for y in atoms if np.max(np.abs(y)) > 0.0]
    order = draw(st.permutations(range(len(atoms))))
    atoms = np.array([atoms[i] for i in order], dtype=float).reshape(-1, d)
    mass = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
    masses = np.array(draw(st.lists(mass, min_size=len(atoms),
                                    max_size=len(atoms))), dtype=float)
    if draw(st.booleans()):
        root = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d,
                                      max_size=d * d))).reshape(d, d)
        diffusion = root @ root.T
        diffusion = 0.5 * (diffusion + diffusion.T)
    else:
        diffusion = np.zeros((d, d))
    drift = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=d, max_size=d)))
    scheme = draw(st.sampled_from(["upwind", "central"]))
    return (DyadicGrid(level, d, box_radius=1.0), atoms, masses, diffusion,
            drift, draw(st.floats(-2.0, 2.0)), scheme)


class TestArrayPathOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(levy_operators())
    def test_equals_the_per_atom_loops_bitwise(self, case):
        grid, atoms, masses, diffusion, drift, c, scheme = case
        d = grid.dim
        mu = LevyMeasure(atoms, masses) if len(atoms) else LevyMeasure.empty(d)
        if len(atoms):
            want_a, want_m = _canonical_atoms_loop(atoms, masses)
        else:
            want_a, want_m = np.zeros((0, d)), np.zeros(0)
        assert mu.atoms.shape == want_a.shape and mu.masses.shape == want_m.shape
        assert mu.atoms.tobytes() == want_a.tobytes()
        assert mu.masses.tobytes() == want_m.tobytes()

        op = LevyOperator(diffusion, drift, c, mu)
        want_jumps = _jumps_loop(mu)
        assert len(op.jumps) == len(want_jumps)
        for (y, m, comp), (wy, wm, wcomp) in zip(op.jumps, want_jumps):
            assert y.tobytes() == wy.tobytes()
            assert m.hex() == wm.hex() and comp == wcomp
        assert op.needs_grad == (bool(np.any(drift != 0.0))
                                 or any(comp for _, _, comp in want_jumps))

        try:
            want = _levy_stencil_loop(grid, op, scheme)
        except OperatorError as err:
            with pytest.raises(OperatorError) as got:
                levy_stencil(grid, op, drift=scheme)
            assert str(got.value) == str(err)
            return
        got = levy_stencil(grid, op, drift=scheme)
        assert [(off, w.hex()) for off, w in got.kernel.items()] == \
            [(off, w.hex()) for off, w in want.kernel.items()]

    def test_origin_snap_names_the_first_live_atom(self):
        g = DyadicGrid(2, 1, box_radius=1.0)
        mu = LevyMeasure(np.array([[-0.1], [0.05], [0.5]]),
                         np.array([0.0, 1.0, 1.0]))
        op = LevyOperator(np.zeros((1, 1)), np.zeros(1), 0.0, mu)
        with pytest.raises(OperatorError) as err:
            levy_stencil(g, op)
        assert str(err.value) == "atom [0.05] snaps to the origin at spacing 0.25"
