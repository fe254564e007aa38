"""Sampled generalized differentials on small discrete operators.

The workhorse fixtures are a dense linear map (smooth everywhere) and the
componentwise max of two linear maps (kinks exactly where the pieces tie).
For piecewise linear maps every identity checked here holds exactly, so
tolerances only absorb the central-difference rounding (about 1e-11 at the
default step).
"""
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies

import levyminmax
from levyminmax import clarke, courrege, operators
from levyminmax.calculus import hessian_field
from levyminmax.clarke import (ClarkeError, ClarkeSet, coefficient_fields,
                               default_step, jacobian_at, mean_value_residual,
                               minmax_eval, representation_residual,
                               sample_differential, segment_differential)
from levyminmax.courrege import RowFunctional, decompose, reconstruct_residual
from levyminmax.grid import DyadicGrid
from levyminmax.levy import LevyMeasure, LevyOperator
from levyminmax.special import SClassFn


def linear_op(m):
    m = np.asarray(m, dtype=float)
    return lambda v: m @ v


def double_well_op():
    """Componentwise max(v, 2v): slope 1 below zero, 2 above, tie at 0."""
    return lambda v: np.maximum(v, 2.0 * v)


def laplacian_matrix(level=3):
    grid = DyadicGrid(level, 1)
    n = grid.node_count
    h = grid.spacing
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = -2.0 / h ** 2
        if i > 0:
            m[i, i - 1] = 1.0 / h ** 2
        if i + 1 < n:
            m[i, i + 1] = 1.0 / h ** 2
    return grid, m


class TestJacobian:
    def test_linear_map_recovered(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5))
        sample = jacobian_at(linear_op(m), rng.standard_normal(5))
        assert np.max(np.abs(sample.matrix - m)) < 1e-9
        assert not sample.kink

    def test_plain_callable_takes_column_loop(self):
        m = np.random.default_rng(7).standard_normal((6, 6))
        op = Counting(linear_op(m))
        jacobian_at(op, np.ones(6))
        assert op.calls == 4 * 6

    def test_kink_flag_near_tie(self):
        s = 1e-5
        v = np.array([s / 4.0])
        sample = jacobian_at(double_well_op(), v, step=s)
        assert sample.kink
        smooth = jacobian_at(double_well_op(), np.array([1.0]), step=s)
        assert not smooth.kink
        assert smooth.matrix == pytest.approx(np.array([[2.0]]), abs=1e-10)

    def test_step_scales_with_point(self):
        assert default_step(np.zeros(3)) == pytest.approx(1e-5)
        assert default_step(np.array([9.0])) == pytest.approx(1e-4)

    def test_bad_step_rejected(self):
        with pytest.raises(ClarkeError):
            jacobian_at(double_well_op(), np.zeros(2), step=0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ClarkeError):
            jacobian_at(lambda v: v[:1], np.zeros(3))

    def test_non_finite_drift_sets_kink(self):
        # Monge-Ampere is -inf off convexity: the measured rows there are NaN,
        # so the drift between the two steps is NaN, which is not small
        grid = DyadicGrid(2, 1, 1.0)
        v = np.sin(3.0 * grid.points()[:, 0])
        with np.errstate(invalid="ignore"):
            sample = jacobian_at(operators.monge_ampere(grid), v)
        assert np.isnan(sample.matrix).any()
        assert sample.kink


class TestDifferentialSampling:
    def test_smooth_point_gives_singleton(self):
        m = np.array([[1.0, 0.5], [0.0, 2.0]])
        diff = sample_differential(linear_op(m), np.array([3.0, -1.0]))
        assert len(diff) == 1
        assert not diff.kinked

    def test_tie_point_collects_both_slopes(self):
        diff = sample_differential(double_well_op(), np.zeros(2),
                                   samples=12, radius=1e-3)
        slopes = sorted(float(m[0, 0]) for m in diff.members)
        assert slopes[0] == pytest.approx(1.0, abs=1e-9)
        assert slopes[-1] == pytest.approx(2.0, abs=1e-9)
        # each sample sits far outside its own step, so no single measurement
        # straddles the tie even though the set spans both slopes
        assert not diff.kinked

    def test_segment_covers_activity_switch(self):
        diff = segment_differential(double_well_op(),
                                    np.array([-1.0]), np.array([1.0]))
        slopes = sorted(float(m[0, 0]) for m in diff.members)
        assert slopes[0] == pytest.approx(1.0, abs=1e-9)
        assert slopes[-1] == pytest.approx(2.0, abs=1e-9)

    def test_segment_needs_two_points(self):
        with pytest.raises(ClarkeError):
            segment_differential(double_well_op(), np.zeros(1), np.ones(1),
                                 count=1)

    def test_empty_set_refuses_to_stack(self):
        with pytest.raises(ClarkeError):
            ClarkeSet(point=np.zeros(1)).apply(np.zeros(1))


class TestMinMax:
    def test_reproduces_operator_with_test_point_among_probes(self):
        op = double_well_op()
        u = np.array([0.7, -0.4, 1.2])
        probes = [u, np.array([-1.0, -1.0, -1.0]), np.zeros(3)]
        rep = minmax_eval(op, u, probes)
        assert rep.gap <= 1e-8
        assert rep.values == pytest.approx(rep.direct, abs=1e-8)

    def test_probe_on_same_linear_piece_is_exact(self):
        op = double_well_op()
        u = np.array([2.0])
        rep = minmax_eval(op, u, [np.array([1.0])])
        assert rep.gap <= 1e-8

    def test_linearizations_overestimate_convex_map(self):
        op = double_well_op()
        u = np.array([1.5, -2.0])
        probes = [np.array([-3.0, 1.0]), np.array([0.5, 0.5])]
        rep = minmax_eval(op, u, probes)
        assert np.all(rep.values >= rep.direct - 1e-9)

    def test_needs_probes(self):
        with pytest.raises(ClarkeError):
            minmax_eval(double_well_op(), np.zeros(2), [])


class TestCoefficientFields:
    def test_laplacian_rows_decompose_to_unit_diffusion(self):
        grid, m = laplacian_matrix(level=3)
        fields = coefficient_fields(linear_op(m), grid, np.zeros(grid.node_count))
        inner = slice(1, grid.node_count - 1)
        assert fields.a_field[inner] == pytest.approx(
            np.ones((grid.node_count - 2, 1, 1)), abs=2e-6)
        assert fields.b_field[inner] == pytest.approx(
            np.zeros((grid.node_count - 2, 1)), abs=2e-2)
        assert fields.c_field[inner] == pytest.approx(
            np.zeros(grid.node_count - 2), abs=1e-3)
        assert fields.gcp
        mu = fields.decompositions[grid.node_count // 2].levy_measure()
        assert len(mu) == 2

    def test_representation_identity_is_exact_per_row(self):
        grid, m = laplacian_matrix(level=3)
        op = linear_op(m)
        fields = coefficient_fields(op, grid, np.zeros(grid.node_count))
        assert representation_residual(op, grid, np.zeros(grid.node_count),
                                       fields=fields) < 1e-10

    def test_matrix_grid_shape_mismatch(self):
        with pytest.raises(ClarkeError):
            coefficient_fields(lambda v: v, DyadicGrid(2, 1), np.zeros(17))

    def test_fields_are_checked_only_on_request(self, monkeypatch):
        # decompose returns the normal form unchecked, and so does
        # coefficient_fields: it runs no reconstruction
        calls = []

        def counted(row, dec, **kwargs):
            calls.append(row.base_point)
            return reconstruct_residual(row, dec, **kwargs)
        for module in ("courrege", "clarke"):
            monkeypatch.setattr(f"levyminmax.{module}.reconstruct_residual",
                                counted)
        grid, m = laplacian_matrix(level=3)
        op, v = linear_op(m), np.zeros(grid.node_count)
        fields = coefficient_fields(op, grid, v)
        assert calls == []
        assert representation_residual(op, grid, v, fields=fields) < 1e-10

    def test_a_defect_in_a_row_outside_the_first_of_its_class_is_caught(self):
        # every row is checked, not one per class: moving C at a row that
        # shares its class with an earlier row shows in the residual
        grid, m = laplacian_matrix(level=3)
        op, v = linear_op(m), np.zeros(grid.node_count)
        fields = coefficient_fields(op, grid, v)
        scale = float(np.abs(m).sum(axis=1).max())
        assert representation_residual(op, grid, v, fields=fields) <= 1e-9 * scale
        i = int(np.flatnonzero(fields.row_class != np.arange(grid.node_count))[-1])
        c = fields.c_field.copy()
        c[i] += 1e-6 * scale
        planted = replace(fields, c_field=c)
        assert representation_residual(op, grid, v, fields=planted) > 1e-7 * scale


# --- the measured (column-loop) Jacobian ----------------------------------


class Counting:
    """Forwards to op and counts the calls.

    A stencil or envelope wrapped this way hides its exact `jacobian`, so
    jacobian_at measures it by central differences, column by column.
    """

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.op(v)


def stencil(grid, atoms, seed=0):
    rng = np.random.default_rng(seed)
    d = grid.dim
    h = grid.spacing
    measure = LevyMeasure(np.array(atoms, dtype=float).reshape(-1, d) * h,
                          rng.uniform(0.5, 2.0, size=len(atoms)))
    a = np.diag(rng.uniform(0.5, 1.5, size=d))
    return operators.levy_stencil(
        grid, LevyOperator(a, rng.standard_normal(d), -0.25, measure))


def envelope_terms(grid, count, seed=0):
    """Shifted stencils; term k has a jump atom of reach k + 1."""
    rng = np.random.default_rng(seed)
    terms = [stencil(grid, [[k + 1, 0]], seed=seed + k) for k in range(count)]
    shifts = [10.0 * rng.standard_normal(grid.node_count) for _ in range(count)]
    return list(zip(terms, shifts))


# --- exact stencil Jacobians and shared rows (translation invariance) -------


def loop_matrix(st):
    """The kernel matrix entry by entry, reads outside the box dropped."""
    shape = st.grid.shape
    n = st.grid.node_count
    m = np.zeros((n, n))
    for i, idx in enumerate(np.ndindex(*shape)):
        for off, w in st.kernel.items():
            j = tuple(a + o for a, o in zip(idx, off))
            if all(0 <= c < s for c, s in zip(j, shape)):
                m[i, int(np.ravel_multi_index(j, shape))] += w
    return m


TRANSLATION_CASES = [
    (DyadicGrid(3, 1, 1.0), [[3], [-2]]),
    (DyadicGrid(2, 2, 1.0), [[2, -1], [0, 1]]),
    (DyadicGrid(1, 3, 1.5), [[1, 0, 0], [0, -2, 0], [1, 1, 0]]),
]


@pytest.fixture(params=TRANSLATION_CASES, ids=["1-d", "2-d", "3-d"])
def shift_case(request):
    grid, atoms = request.param
    st = stencil(grid, atoms, seed=grid.dim)
    v = np.random.default_rng(grid.dim).standard_normal(grid.node_count)
    return grid, st, v


def jacobian_rows(matrix, pts):
    """Each row of matrix as a RowFunctional at its node: the entries above
    DROP_TOL times the row's largest, and the diagonal."""
    rows = []
    for i, w in enumerate(matrix):
        keep = np.abs(w) > clarke.DROP_TOL * max(float(np.max(np.abs(w))), 1e-300)
        keep[i] = True
        rows.append(RowFunctional(pts[i], pts[keep] - pts[i], w[keep]))
    return rows


NORMAL_FORM = ("base_point", "a_matrix", "drift", "zero_order", "atoms",
               "atom_weights", "gcp", "delta_floor")


def same_decomposition(got, want):
    return all(np.asarray(getattr(got, name)).tobytes()
               == np.asarray(getattr(want, name)).tobytes()
               for name in NORMAL_FORM)


def assert_normal_form(fields, i, want):
    """Row i's fields are want's A, B, C, sign test and floor, bit for bit."""
    assert fields.a_field[i].tobytes() == want.a_matrix.tobytes()
    assert fields.b_field[i].tobytes() == want.drift.tobytes()
    assert fields.c_field[i] == want.zero_order
    assert fields.gcp_field[i] == want.gcp
    assert fields.delta_field[i] == want.delta_floor


def interior(grid, reach):
    idx = grid.indices()
    return np.flatnonzero(np.all(np.abs(idx) <= grid.half_count - reach, axis=1))


class TestTranslationInvariance:
    def test_exact_jacobian_is_the_loop_matrix(self, shift_case):
        grid, st, v = shift_case
        want = loop_matrix(st)
        assert np.array_equal(st.matrix(), want)
        matrix, kink = st.jacobian(v)
        assert np.array_equal(matrix, want) and kink is False
        sample = jacobian_at(st, v)
        assert np.array_equal(sample.matrix, want) and not sample.kink

    def test_jacobian_at_makes_no_operator_call(self, shift_case, monkeypatch):
        grid, st, v = shift_case
        calls = []
        monkeypatch.setattr(operators.StencilOperator, "__call__",
                            lambda self, w: calls.append(1))
        jacobian_at(st, v)
        assert calls == []

    def test_interior_rows_share_the_kernel_decomposition(self, shift_case):
        grid, st, v = shift_case
        fields = coefficient_fields(st, grid, v)
        reach = max(abs(o) for off in st.kernel for o in off)
        inner = interior(grid, reach)
        assert inner.size and np.unique(fields.row_class[inner]).size == 1
        want = decompose(st.row(grid.indices()[inner[0]]))
        scale = float(sum(abs(w) for w in st.kernel.values()))
        assert want.zero_order == pytest.approx(
            sum(st.kernel.values()), abs=1e-14 * scale)
        for i in inner:
            dec = fields.decompositions[i]
            assert np.array_equal(dec.base_point, grid.points()[i])
            for name in ("a_matrix", "drift", "atoms", "atom_weights"):
                assert np.array_equal(getattr(dec, name), getattr(want, name))
            assert dec.zero_order == want.zero_order == fields.c_field[i]
            assert np.array_equal(fields.a_field[i], want.a_matrix)
            assert np.array_equal(fields.b_field[i], want.drift)

    def test_every_row_reconstructs_at_its_own_node(self, shift_case):
        grid, st, v = shift_case
        fields = coefficient_fields(st, grid, v)
        bound = 1e-9 * float(sum(abs(w) for w in st.kernel.values()))
        assert representation_residual(st, grid, v, fields=fields) <= bound
        for dec in fields.decompositions:
            offs = np.vstack([np.zeros((1, grid.dim)), dec.atoms])
            wts = np.concatenate([[dec.zero_order - dec.atom_weights.sum()],
                                  dec.atom_weights])
            row = RowFunctional(dec.base_point, offs, wts)
            assert reconstruct_residual(row, dec) <= bound

    def test_each_distinct_row_is_decomposed_once(self, shift_case, monkeypatch):
        # the fields come from one batched call; decompositions are built
        # when read, each class's first row through decompose once, and
        # every row's normal form is decompose of that row, bit for bit
        grid, st, v = shift_case
        calls = []

        def counted(row):
            calls.append(row)
            return decompose(row)
        monkeypatch.setattr(clarke, "decompose", counted)
        fields = coefficient_fields(st, grid, v)
        assert calls == []
        decs = list(fields.decompositions) + list(fields.decompositions)
        distinct = np.unique(fields.row_class)
        assert len(calls) == distinct.size < grid.node_count
        # each class's first row is its own representative
        assert np.array_equal(fields.row_class[distinct], distinct)
        for i, row in enumerate(jacobian_rows(st.matrix(), grid.points())):
            assert_normal_form(fields, i, decompose(row))
            assert same_decomposition(decs[i], decompose(row))


# --- exact Clarke Jacobians of Bellman and Isaacs envelopes -----------------


def monotone_kernel(rng, dim, reach, h):
    """Comparison stencil: nonnegative off-centre weights, killing at the centre."""
    kernel = {}
    for off in np.ndindex(*(2 * reach + 1,) * dim):
        off = tuple(o - reach for o in off)
        if any(off) and rng.random() < 0.6:
            kernel[off] = float(rng.uniform(0.0, 2.0)) / h ** 2
    kernel[(0,) * dim] = -sum(kernel.values()) - float(rng.uniform(0.0, 1.0))
    return kernel


def random_term(rng, grid, as_matrix):
    st = operators.StencilOperator(grid, monotone_kernel(rng, grid.dim, 2,
                                                         grid.spacing))
    shift = 20.0 * rng.standard_normal(grid.node_count)
    return (st.matrix() if as_matrix else st), shift


def term_matrix(f):
    return f if isinstance(f, np.ndarray) else f.matrix()


def reference_rows(teams, v, matrix=term_matrix):
    """Active rows selected from each term's full matrix (matrix(f)), and
    the tie margin.

    The row of the first maximiser within each team, then of the first
    minimising team.  The margin at a row is the smallest gap between the
    winner and a runner-up at either level.
    """
    node = np.arange(v.size)
    vals, mats, margin = [], [], np.full(v.size, np.inf)
    for team in teams:
        t = np.stack([(f @ v if isinstance(f, np.ndarray) else f(v)) + s
                      for f, s in team])
        vals.append(t)
        mats.append(np.stack([matrix(f) for f, _ in team]))
        if len(team) > 1:
            top2 = np.sort(t, axis=0)[-2:]
            margin = np.minimum(margin, top2[1] - top2[0])
    inner = [np.argmax(t, axis=0) for t in vals]
    team_val = np.stack([t[k, node] for t, k in zip(vals, inner)])
    if len(teams) > 1:
        low2 = np.sort(team_val, axis=0)[:2]
        margin = np.minimum(margin, low2[1] - low2[0])
    outer = np.argmin(team_val, axis=0)
    rows = np.stack([mats[t][inner[t][i], i] for i, t in enumerate(outer)])
    scale = np.max([np.abs(m).sum(axis=2).max(axis=0) for m in mats], axis=0)
    return rows, margin, scale


def envelope_op(teams):
    return (operators.bellman(teams[0]) if len(teams) == 1
            else operators.isaacs(teams))


@strategies.composite
def envelopes(draw):
    """A Bellman (one team) or Isaacs family of stencil and matrix terms."""
    dim = draw(strategies.sampled_from([1, 2]))
    grid = DyadicGrid(3, 1, 1.0) if dim == 1 else DyadicGrid(2, 2, 1.0)
    rng = np.random.default_rng(draw(strategies.integers(0, 2 ** 32 - 1)))
    sizes = draw(strategies.lists(strategies.integers(1, 3), min_size=1,
                                  max_size=3))
    teams = [[random_term(rng, grid, draw(strategies.booleans()))
              for _ in range(k)] for k in sizes]
    v = rng.standard_normal(grid.node_count)
    return grid, teams, v, rng


ENVELOPE_SETTINGS = settings(max_examples=50, derandomize=True, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


class TestExactEnvelopeJacobian:
    @ENVELOPE_SETTINGS
    @given(envelopes())
    def test_rows_are_the_active_terms_rows(self, case):
        grid, teams, v, _ = case
        op = envelope_op(teams)
        matrix, _ = op.jacobian(v)
        want, _, _ = reference_rows(teams, v)
        assert matrix.toarray().tobytes() == want.tobytes()
        assert jacobian_at(op, v).matrix.toarray().tobytes() == want.tobytes()

    @ENVELOPE_SETTINGS
    @given(envelopes())
    def test_rows_agree_with_the_column_loop(self, case):
        grid, teams, v, _ = case
        op = envelope_op(teams)
        exact = jacobian_at(op, v)
        measured = jacobian_at(Counting(op), v)
        _, margin, scale = reference_rows(teams, v)
        clear = margin > 10.0 * scale * measured.step
        assert np.count_nonzero(clear) >= v.size // 2
        dev = np.abs(exact.matrix - measured.matrix)[clear].max(axis=1)
        assert np.all(dev <= 1e-6 * scale[clear])
        if np.all(clear):
            assert not exact.kink

    @ENVELOPE_SETTINGS
    @given(envelopes())
    def test_minmax_gap_with_u_among_probes_is_rounding(self, case):
        grid, teams, u, rng = case
        op = envelope_op(teams)
        probes = [u] + [u + 0.1 ** k * rng.standard_normal(u.size)
                        for k in (1, 2)]
        rep = minmax_eval(op, u, probes)
        scale = max(np.abs(term_matrix(f)).sum(axis=1).max()
                    * max(np.abs(p).max() for p in probes) + np.abs(s).max()
                    for team in teams for f, s in team)
        assert rep.gap <= 64 * np.finfo(float).eps * scale

    def test_exact_tie_keeps_the_first_term_and_sets_kink(self):
        # at v = 0 every term is 0 on every row: all rows tie exactly
        grid = DyadicGrid(3, 1, 1.0)
        a = stencil(grid, [[2]], seed=1)
        b = stencil(grid, [[-1]], seed=2)
        zero = np.zeros(grid.node_count)
        for first, second in ((a, b), (b, a)):
            for op in (operators.bellman([first, second.matrix()]),
                       operators.isaacs([[first], [second]])):
                matrix, kink = op.jacobian(zero)
                assert kink and np.array_equal(matrix, first.matrix())

    def test_tie_bound_is_the_rounding_of_the_two_terms(self):
        # the same stencil twice, shifted apart by d: the two computed
        # values differ by d to rounding, and each rounds by at most
        # gamma_(m+1) (rho |v|_inf + |s|)
        grid = DyadicGrid(3, 1, 1.0)
        a = stencil(grid, [[2]], seed=1)
        v = np.random.default_rng(0).standard_normal(grid.node_count)
        m, rho = len(a.kernel), sum(abs(w) for w in a.kernel.values())
        u = 0.5 * np.finfo(float).eps
        bound = (m + 1) * u / (1.0 - (m + 1) * u) * rho * np.max(np.abs(v))
        for d, tie in ((0.5 * bound, True), (4.0 * bound, False)):
            matrix, kink = operators.bellman([(a, 0.0), (a, d)]).jacobian(v)
            assert kink is tie and np.array_equal(matrix, a.matrix())

    @pytest.mark.parametrize("kind", ["stencil", "pucci"])
    def test_a_nan_node_leaves_every_finite_row_tied(self, kind):
        # the rounding bounds scale with max |v| over the finite entries, so
        # a NaN node switches off the tie test only on the rows that read it
        grid = DyadicGrid(3, 1, 1.0)
        f = (stencil(grid, [[2]], seed=1) if kind == "stencil"
             else operators.pucci(grid, 0.5, 2.0))
        op = operators.bellman([(f, 0.0), (f, 0.0)])
        v = np.random.default_rng(0).standard_normal(grid.node_count)
        v[0] = math.nan
        finite = np.isfinite(op(v))
        assert 0 < np.count_nonzero(finite) < v.size
        assert np.array_equal(op.active_terms(v)[1], finite)
        assert op.jacobian(v)[1]

    def test_tie_in_a_losing_team_is_no_kink(self):
        grid = DyadicGrid(3, 1, 1.0)
        a = stencil(grid, [[2]], seed=1)
        game = operators.isaacs([[(a, 1e6), (a, 1e6)], [(a, 0.0)]])
        matrix, kink = game.jacobian(np.ones(grid.node_count))
        assert not kink and np.array_equal(matrix, a.matrix())

    def test_one_call_per_term_and_no_term_matrix(self, monkeypatch):
        grid = DyadicGrid(3, 2, 1.0)
        terms = envelope_terms(grid, 4, seed=6)
        op = operators.isaacs([terms[2:], terms[:2]])
        v = np.random.default_rng(6).standard_normal(grid.node_count)
        want = op.jacobian(v)[0]
        calls = []
        call = operators.StencilOperator.__call__
        monkeypatch.setattr(operators.StencilOperator, "__call__",
                            lambda self, w: calls.append(1) or call(self, w))
        monkeypatch.setattr(operators.StencilOperator, "matrix", None)
        sample = jacobian_at(op, v)
        assert len(calls) == 4
        assert np.array_equal(sample.matrix, want)

    def test_callable_term_is_measured(self):
        grid = DyadicGrid(2, 1, 1.0)
        a = stencil(grid, [[1]])
        op = operators.bellman([a, lambda v: a(v) - 1.0])
        v = np.ones(grid.node_count)
        assert op.jacobian(v) is None
        assert operators.isaacs([[a], [lambda v: a(v)]]).jacobian(v) is None
        counted = Counting(op)
        sample = jacobian_at(counted, v)
        assert counted.calls == 4 * grid.node_count
        assert np.max(np.abs(sample.matrix - a.matrix())) < 1e-6

    def test_matrix_term_keeps_the_matrix(self):
        m = np.random.default_rng(8).standard_normal((5, 5))
        (term, shift), = operators.bellman([(m, 1.0)]).terms
        v = np.arange(5.0)
        assert np.array_equal(term(v), m @ v) and shift == 1.0
        matrix, kink = term.jacobian(v)
        assert np.array_equal(matrix, m) and not kink


def sampled_layer(op, v, u, count):
    """The max of J (u - v) over count Jacobians sampled along [v, u]."""
    diff = segment_differential(op, v, u, count=count)
    return np.max(diff.apply(u - v), axis=0)


def layer_tolerance(teams, v, u):
    peak = max(np.abs(v).max(), np.abs(u).max())
    scale = max(np.abs(term_matrix(f)).sum(axis=1).max() * peak + np.abs(s).max()
                for team in teams for f, s in team)
    return 64 * np.finfo(float).eps * scale


class TestExactSegmentLayer:
    @ENVELOPE_SETTINGS
    @given(envelopes(), strategies.sampled_from([0.01, 1.0, 10.0]))
    def test_never_below_the_dense_reference(self, case, size):
        grid, teams, v, rng = case
        u = v + size * rng.standard_normal(v.size)
        op = envelope_op(teams)
        exact = op.segment_max(v, u)
        assert np.all(exact >= sampled_layer(op, v, u, 65)
                      - layer_tolerance(teams, v, u))
        # two lines cross at most once, so 65 samples see both pieces
        pair = [term for team in teams for term in team][:2]
        if len(pair) == 2:
            op = operators.bellman(pair)
            dev = np.abs(op.segment_max(v, u) - sampled_layer(op, v, u, 65))
            assert np.all(dev <= layer_tolerance([pair], v, u))

    def test_term_active_between_two_samples_is_caught(self):
        # row t -> min(max(0, 50 t - 15), 1): the middle term is active on
        # (0.30, 0.32) only, between the samples at 1/4 and 3/8, and it has
        # the largest slope.  (In a Bellman row alone the slope at u is the
        # largest, so a missed middle term cannot change its max.)
        flat, steep, cap = np.zeros((1, 1)), np.array([[50.0]]), np.zeros((1, 1))
        op = operators.isaacs([[(flat, 0.0), (steep, -15.0)], [(cap, 1.0)]])
        v, u = np.zeros(1), np.ones(1)
        assert op.segment_max(v, u) == pytest.approx([50.0])
        assert sampled_layer(op, v, u, 9) == pytest.approx([0.0])
        # the sampled inner layer undercuts T(u), the exact one does not
        assert minmax_eval(op, u, [v]).values == pytest.approx([50.0])
        assert op(u) == pytest.approx([1.0])

    def test_a_tie_at_u_counts_as_active(self):
        # max(x, 2x): row 0 runs from 1 to the kink 0, where x joins 2x, so
        # its slope -1 counts beside -2; row 1 stays on 2x
        op = operators.bellman([np.eye(2), 2.0 * np.eye(2)])
        v, u = np.array([1.0, 1.0]), np.array([0.0, 2.0])
        assert np.array_equal(op.segment_max(v, u), [-1.0, 2.0])
        assert np.array_equal(op.segment_max(v, u + [0.25, 0.0]), [-1.5, 2.0])

    def test_non_affine_terms_have_no_exact_layer(self):
        grid = DyadicGrid(2, 2, 1.0)
        a = stencil(grid, [[1, 0]])
        v = np.zeros(grid.node_count)
        for op in (operators.bellman([a, operators.pucci(grid, 0.5, 2.0)]),
                   operators.bellman([a, lambda w: a(w) - 1.0]),
                   operators.isaacs([[a], [operators.monge_ampere(grid)]]),
                   operators.bellman([operators.bellman([a]), a])):
            assert op.segment_max(v, v + 1.0) is None

    def test_minmax_of_an_affine_envelope_takes_no_jacobian(self, monkeypatch):
        grid = DyadicGrid(3, 2, 1.0)
        terms = envelope_terms(grid, 4, seed=6)
        u = np.random.default_rng(6).standard_normal(grid.node_count)
        probes = [u + 0.1 * np.random.default_rng(k).standard_normal(u.size)
                  for k in range(3)]

        def measured(*args):
            raise AssertionError("took a Jacobian")
        monkeypatch.setattr(clarke, "jacobian_at", measured)
        for op in (operators.bellman(terms), operators.isaacs([terms[:2], terms[2:]])):
            rep = minmax_eval(op, u, probes)
            assert np.all(rep.values >= rep.direct - 1e-9 * np.abs(rep.direct).max())


def minmax_case(level, seed):
    """The `levymm minmax` envelope and its data u, and v = u + 0.01 noise."""
    grid = DyadicGrid(level, 1, 1.0)
    left, right = (operators.levy_stencil(grid, LevyOperator(
        np.eye(1), np.array([b]), -0.5, LevyMeasure.empty(1))) for b in (-1.0, 1.0))
    x = grid.points()[:, 0]
    rng = np.random.default_rng(seed)
    u = np.exp(-4.0 * x ** 2) + 0.05 * rng.standard_normal(x.size)
    return operators.bellman([left, right]), u, u + 0.01 * rng.standard_normal(x.size)


def assert_certified(op, u, v):
    """The witness reproduces T(u) - T(v) to 64 eps of its largest entry,
    with piece lengths that are positive and sum to 1."""
    rep = mean_value_residual(op, u, v)
    eps = np.finfo(float).eps
    assert rep.residual <= 64 * eps * np.abs(op(u) - op(v)).max()
    assert np.all(rep.weights > 0.0)
    assert rep.weights.sum() == pytest.approx(1.0, abs=64 * eps)
    return rep


class TestMeanValue:
    def test_linear_map_single_weight(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4))
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        rep = mean_value_residual(operators.bellman([m]), u, v)
        assert rep.residual == 0.0
        assert rep.weights.tolist() == [1.0]

    def test_piecewise_linear_increment_lies_in_hull(self):
        # max(x, 2x): row 0 crosses the tie at t = 1/4 of the segment, row 1
        # stays on 2x, so the pieces are [0, 1/4] and [1/4, 1]
        op = operators.bellman([np.eye(2), 2.0 * np.eye(2)])
        v = np.array([-1.0, 0.5])
        u = np.array([3.0, 0.75])
        rep = mean_value_residual(op, u, v)
        assert rep.residual == 0.0
        assert rep.weights.tolist() == [0.25, 0.75]

    @ENVELOPE_SETTINGS
    @given(envelopes(), strategies.sampled_from([0.01, 1.0, 10.0]))
    def test_exact_on_affine_envelopes(self, case, size):
        grid, teams, v, rng = case
        assert_certified(envelope_op(teams), v + size * rng.standard_normal(v.size), v)

    @pytest.mark.parametrize("level", range(4, 13))
    def test_exact_on_the_minmax_envelope(self, level):
        for seed in range(40):
            assert_certified(*minmax_case(level, seed))

    def test_a_swapped_piece_is_caught(self, monkeypatch):
        op, u, v = minmax_case(9, 7)
        assert assert_certified(op, u, v).weights.size == 62
        pieces = op.segment_pieces(v, u)
        # the piece where the other term's slope moves the row's sum most
        cost = np.diff(pieces.breaks, axis=0) * np.abs(pieces.e[0] - pieces.e[1])
        p, i = np.unravel_index(np.argmax(cost), cost.shape)
        term = pieces.term.copy()
        term[p, i] = 1 - term[p, i]
        monkeypatch.setattr(operators.BellmanOp, "segment_pieces",
                            lambda self, v, u: pieces._replace(term=term))
        assert mean_value_residual(op, u, v).residual == pytest.approx(
            cost[p, i], rel=1e-9)

    def test_operators_without_pieces_are_refused(self):
        grid = DyadicGrid(2, 2, 1.0)
        a = stencil(grid, [[1, 0]])
        v = np.zeros(grid.node_count)
        for op in (double_well_op(),
                   operators.bellman([a, operators.pucci(grid, 0.5, 2.0)]),
                   operators.isaacs([[a], [operators.monge_ampere(grid)]]),
                   operators.bellman([a, lambda w: a(w) - 1.0]),
                   operators.bellman([operators.bellman([a]), a])):
            with pytest.raises(ClarkeError, match="has no pieces along the segment"):
                mean_value_residual(op, v + 1.0, v)


class TestClarkeSetNaN:
    def test_equal_nan_samples_count_once(self):
        m = np.array([[1.0, np.nan], [np.inf, 2.0]])
        diff = ClarkeSet(point=np.zeros(2))
        sample = clarke.JacobianSample(np.zeros(2), m, 1e-5, True)
        assert diff.add(sample)
        assert not diff.add(sample)
        near = m + np.array([[1e-12, 0.0], [0.0, -1e-12]])
        assert not diff.add(clarke.JacobianSample(np.zeros(2), near, 1e-5, True))
        assert len(diff) == 1

    def test_nan_in_other_places_or_far_values_stay_distinct(self):
        m = np.array([[1.0, np.nan], [0.0, 2.0]])
        diff = ClarkeSet(point=np.zeros(2))
        diff.add(clarke.JacobianSample(np.zeros(2), m, 1e-5, True))
        moved = np.array([[np.nan, 1.0], [0.0, 2.0]])
        far = np.array([[1.0, np.nan], [0.0, 2.5]])
        minus = np.array([[1.0, np.nan], [-np.inf, 2.0]])
        for other in (moved, far, minus):
            assert diff.add(clarke.JacobianSample(np.zeros(2), other, 1e-5, True))
        assert len(diff) == 4


# --- exact Clarke Jacobians of Pucci and Monge-Ampere -----------------------


SECOND_ORDER_GRIDS = [DyadicGrid(4, 1, 1.0), DyadicGrid(2, 2, 1.0),
                      DyadicGrid(1, 3, 1.5)]


def centred_eigenvalues(grid, v):
    d = grid.dim
    return np.linalg.eigvalsh(hessian_field(grid, v).reshape(-1, d, d))


def convex_data(grid, seed, noise=0.0):
    """A rotated convex quadratic shifted well below the zero padding, so
    every centred Hessian, boundary rows included, is positive definite."""
    rng = np.random.default_rng(seed)
    x = grid.points()
    rot, _ = np.linalg.qr(rng.standard_normal((grid.dim, grid.dim)))
    q = rot @ np.diag(rng.uniform(0.5, 2.0, size=grid.dim)) @ rot.T
    v = (0.5 * np.einsum("pi,ij,pj->p", x, q, x)
         + x @ rng.normal(0.0, 0.5, size=grid.dim) - 40.0)
    return v + noise * grid.spacing ** 2 * rng.standard_normal(v.size)


def clear_rows(grid, v, step):
    """Rows whose eigenvalues stay away from 0 under any probe of size step.

    Moving one node by s moves the centred Hessian by at most s (d + 3)/h^2
    in 2-norm, and each eigenvalue by no more (Weyl), so a central
    difference across such a row never meets a switch of P+ and P-.
    """
    e = centred_eigenvalues(grid, v)
    return np.min(np.abs(e), axis=1) > 10.0 * step * (grid.dim + 3) / grid.spacing ** 2


class TestExactSecondOrderJacobian:
    @pytest.mark.parametrize("extremal", ["max", "min"])
    @pytest.mark.parametrize("grid", SECOND_ORDER_GRIDS, ids=["1-d", "2-d", "3-d"])
    def test_pucci_is_the_column_loop_off_kinks(self, grid, extremal):
        v = np.random.default_rng(grid.dim).standard_normal(grid.node_count)
        op = operators.pucci(grid, 0.5, 2.0, extremal)
        matrix, kink = op.jacobian(v)
        loop = jacobian_at(Counting(op), v)
        clear = clear_rows(grid, v, loop.step)
        assert not kink and np.count_nonzero(clear) >= v.size // 2
        # Pucci is linear near a clear row, so its central differences are
        # exact up to the rounding of T(v +- s e_j), about u |T| / s
        scale = float(np.max(np.abs(matrix)))
        assert np.max(np.abs(matrix - loop.matrix)[clear]) <= 1e-9 * scale
        assert np.array_equal(jacobian_at(op, v).matrix, matrix)

    @pytest.mark.parametrize("grid", SECOND_ORDER_GRIDS, ids=["1-d", "2-d", "3-d"])
    def test_monge_ampere_is_the_column_loop_on_convex_data(self, grid):
        v = convex_data(grid, seed=grid.dim, noise=0.05)
        op = operators.monge_ampere(grid)
        assert np.isfinite(op(v)).all()
        matrix, kink = op.jacobian(v)
        # Monge-Ampere is curved: central differences err by O(s^2), so
        # the loop takes a step below the default's 1e-5 (1 + |v|_inf)
        loop = jacobian_at(Counting(op), v, step=1e-6)
        assert not kink and not loop.kink
        scale = float(np.max(np.abs(matrix)))
        assert np.max(np.abs(matrix - loop.matrix)) <= 1e-7 * scale

    def test_monge_ampere_off_convexity_reads_like_the_measured_path(self):
        # a row where T is -inf is NaN across the whole row, as the column
        # loop reads it (inf - inf), and every other row is finite on both
        # paths
        grid = DyadicGrid(2, 2, 1.0)
        v = np.random.default_rng(9).standard_normal(grid.node_count)
        op = operators.monge_ampere(grid)
        bad = ~np.isfinite(op(v))
        assert bad.any() and not bad.all()
        matrix, kink = op.jacobian(v)
        matrix = matrix.toarray()
        with np.errstate(invalid="ignore"):
            loop = jacobian_at(Counting(op), v)
        assert kink and loop.kink
        assert np.isnan(loop.matrix[bad]).all()
        assert np.array_equal(np.isnan(matrix), np.isnan(loop.matrix))
        assert np.isfinite(matrix[~bad]).all()

    @pytest.mark.parametrize("factory", [
        lambda g: operators.pucci(g, 0.5, 2.0),
        lambda g: operators.pucci(g, 0.5, 2.0, "min"),
        operators.monge_ampere,
    ], ids=["pucci-max", "pucci-min", "monge-ampere"])
    def test_jacobian_at_makes_no_operator_call(self, factory, monkeypatch):
        grid = DyadicGrid(2, 2, 1.0)
        op = factory(grid)
        v = convex_data(grid, seed=4)
        calls = []
        monkeypatch.setattr(type(op), "__call__", lambda self, w: calls.append(1))
        sample = jacobian_at(op, v)
        assert calls == [] and not sample.kink
        assert np.array_equal(sample.matrix, op.jacobian(v)[0])

    @pytest.mark.parametrize("seed", range(5))
    def test_no_kink_and_exact_homogeneity_on_convex_data(self, seed):
        # the envelope benchmark's Pucci case: n = 729, convex data.  The
        # column loop (4n operator calls) runs at n = 729 for seed 0 and on
        # a level-2 grid (n = 169) for the others
        grid = DyadicGrid(3, 2, 1.625)
        v = convex_data(grid, seed)
        op = operators.pucci(grid, 0.5, 2.0)
        matrix, kink = op.jacobian(v)
        assert not kink
        tv = op(v)
        assert np.max(np.abs(matrix @ v - tv)) <= 1e-10 * np.max(np.abs(tv))
        if seed:
            grid = DyadicGrid(2, 2, 1.5)
            v = convex_data(grid, seed)
            op = operators.pucci(grid, 0.5, 2.0)
            matrix, kink = op.jacobian(v)
            assert not kink
        measured = jacobian_at(Counting(op), v)
        scale = float(np.max(np.abs(matrix.data)))
        assert np.max(np.abs(matrix.toarray() - measured.matrix)) <= 1e-8 * scale

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (1.0, 1.0), (1.0, -0.7)])
    def test_kink_at_a_zero_eigenvalue(self, direction):
        # u = (a.x)^2 has centred Hessian 2 a a^T: one eigenvalue 0 in exact
        # arithmetic, and within rounding of 0 as computed
        grid = DyadicGrid(3, 2, 1.0)
        v = (grid.points() @ np.array(direction)) ** 2 - 40.0
        for op in (operators.pucci(grid, 0.5, 2.0),
                   operators.pucci(grid, 0.5, 2.0, "min"),
                   operators.monge_ampere(grid)):
            assert op.jacobian(v)[1]
        # with lam == big Pucci is linear: nothing switches at 0
        assert not operators.pucci(grid, 1.5, 1.5).jacobian(v)[1]

    def test_kink_bound_is_the_rounding_of_the_eigenvalues(self):
        # interior Hessians 2 [[1 + t, 1], [1, 1 + t]] have eigenvalue 2t;
        # the bound is gamma_3 (d + 3)/h^2 |v|_inf + gamma_(4 d^2) |H|_F
        grid = DyadicGrid(2, 2, 1.0)
        x = grid.points()
        u = 0.5 * np.finfo(float).eps

        def gamma(m):
            return m * u / (1.0 - m * u)

        def data(t):
            return (x[:, 0] + x[:, 1]) ** 2 + t * np.sum(x ** 2, axis=1) - 40.0
        inner = interior(grid, 1)
        hess = hessian_field(grid, data(0.0)).reshape(-1, 2, 2)[inner]
        bound = (gamma(3) * 5.0 / grid.spacing ** 2 * np.max(np.abs(data(0.0)))
                 + gamma(16) * np.max(np.linalg.norm(hess, axis=(1, 2))))
        op = operators.pucci(grid, 0.5, 2.0)
        for eig, tie in ((0.0, True), (0.5 * bound, True), (4.0 * bound, False)):
            assert op.jacobian(data(0.5 * eig))[1] is tie


# --- exact Jacobians of envelopes with Pucci and Monge-Ampere terms --------


MIXED_GRIDS = {1: DyadicGrid(3, 1, 1.0), 2: DyadicGrid(2, 2, 1.0),
               3: DyadicGrid(1, 3, 1.0)}
MIXED_KINDS = ["stencil", "pucci max", "pucci min", "monge-ampere"]


def mixed_term(rng, grid, kind, v):
    """A term and a shift that centres its finite values at 0 (so every
    kind of term is active somewhere), plus noise."""
    if kind == "stencil":
        f = operators.StencilOperator(grid, monotone_kernel(rng, grid.dim, 1,
                                                            grid.spacing))
    elif kind == "monge-ampere":
        f = operators.monge_ampere(grid)
    else:
        lam = float(rng.uniform(0.3, 1.0))
        f = operators.pucci(grid, lam, lam * float(rng.uniform(1.0, 4.0)),
                            kind.split()[1])
    value = f(v)
    centre = float(np.median(value[np.isfinite(value)]))
    return f, 20.0 * rng.standard_normal(grid.node_count) - centre


@strategies.composite
def mixed_envelopes(draw):
    """A Bellman or Isaacs family of stencil, Pucci and Monge-Ampere terms
    on convex or on random data; each team's first term is finite."""
    grid = MIXED_GRIDS[draw(strategies.sampled_from([1, 2, 3]))]
    seed = draw(strategies.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    sizes = draw(strategies.lists(strategies.integers(1, 3), min_size=1,
                                  max_size=3))
    v = (convex_data(grid, seed % 1000, noise=0.05) if draw(strategies.booleans())
         else rng.standard_normal(grid.node_count))
    teams = [[mixed_term(rng, grid, draw(strategies.sampled_from(
        MIXED_KINDS[:3] if k == 0 else MIXED_KINDS)), v) for k in range(size)]
        for size in sizes]
    return grid, teams, v


def mixed_reference(grid, teams, v, step):
    """Active rows read off each term's own Jacobian, each row's largest
    absolute row sum over the terms, and the rows clear of ties and of
    every term's kinks for probes of size step.

    A Pucci row is clear when its eigenvalues stay away from 0 (see
    `clear_rows`).  A Monge-Ampere row is clear when it stays off
    convexity, or its least eigenvalue e is so far above 0 that central
    differences of its curved value err by (s (d + 3)/(h^2 e))^2 / 6 <
    1e-7 relatively.
    """
    node = np.arange(v.size)
    s = step * (grid.dim + 3) / grid.spacing ** 2
    e = centred_eigenvalues(grid, v)
    own = {operators.PucciOp: np.min(np.abs(e), axis=1) > 10.0 * s,
           operators.MongeAmpereOp: (e[:, 0] > 1e3 * s) | (e[:, 0] < -10.0 * s)}
    clear = np.ones(v.size, dtype=bool)
    scale = np.zeros(v.size)
    vals, mats, margin = [], [], np.full(v.size, np.inf)
    with np.errstate(invalid="ignore"):
        for team in teams:
            t = np.stack([f(v) + sh for f, sh in team])
            jac = np.stack([f.jacobian(v)[0].toarray() for f, _ in team])
            vals.append(t)
            mats.append(jac)
            for f, _ in team:
                clear &= own.get(type(f), True)
            sums = np.abs(jac).sum(axis=2)
            scale = np.maximum(scale, np.where(np.isfinite(sums), sums, 0.0).max(axis=0))
            if len(team) > 1:
                top2 = np.sort(t, axis=0)[-2:]
                margin = np.fmin(margin, top2[1] - top2[0])
        inner = [np.argmax(t, axis=0) for t in vals]
        team_val = np.stack([t[k, node] for t, k in zip(vals, inner)])
        if len(teams) > 1:
            low2 = np.sort(team_val, axis=0)[:2]
            margin = np.fmin(margin, low2[1] - low2[0])
        # a NaN margin is two values at -inf: not clear
        clear &= (margin > 10.0 * scale * step) & np.isfinite(team_val.min(axis=0))
    outer = np.argmin(team_val, axis=0)
    rows = np.stack([mats[t][inner[t][i], i] for i, t in enumerate(outer)])
    return rows, scale, clear


class TestMixedEnvelopeJacobian:
    @settings(max_examples=30, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mixed_envelopes())
    def test_rows_are_the_active_terms_rows_and_the_column_loop(self, case):
        grid, teams, v = case
        op = envelope_op(teams)
        matrix, kink = op.jacobian(v)
        matrix = matrix.toarray()
        # the loop's step is small enough for the curved Monge-Ampere value
        step = 1e-8 * (1.0 + float(np.max(np.abs(v))))
        want, scale, clear = mixed_reference(grid, teams, v, step)
        assert matrix.tobytes() == want.tobytes()
        assert np.count_nonzero(clear) >= v.size // 2
        loop = jacobian_at(Counting(op), v, step=step)
        dev = np.abs(matrix - loop.matrix)[clear].max(axis=1)
        assert np.all(dev <= 1e-6 * scale[clear])
        if np.all(clear):
            assert not kink

    @pytest.mark.parametrize("factory", [
        lambda g: operators.pucci(g, 0.5, 2.0),
        lambda g: operators.pucci(g, 0.5, 2.0, "min"),
        operators.monge_ampere,
    ], ids=["pucci-max", "pucci-min", "monge-ampere"])
    def test_tie_bound_is_the_rounding_of_the_two_terms(self, factory):
        # the same term twice, shifted apart by t: the two computed values
        # differ by t to rounding, and each rounds by at most its bound:
        # Pucci big d b + gamma_(d+2) big sum|e|, Monge-Ampere
        # M(e) - M(e - b) + gamma_(d+2) (1 + |sum ln e| / d) M(e), with b
        # the eigenvalues' bound and M(e) = d (prod e)^(1/d)
        grid = DyadicGrid(2, 2, 1.0)
        d, h = grid.dim, grid.spacing
        f = factory(grid)
        v = convex_data(grid, seed=3)
        u = 0.5 * np.finfo(float).eps

        def gamma(m):
            return m * u / (1.0 - m * u)
        hess = hessian_field(grid, v).reshape(-1, d, d)
        e = np.linalg.eigvalsh(hess)
        b = (gamma(3) * (d + 3) / h ** 2 * np.max(np.abs(v))
             + gamma(4 * d * d) * np.linalg.norm(hess, axis=(1, 2)))
        if isinstance(f, operators.PucciOp):
            bound = f.big * d * b + gamma(d + 2) * f.big * np.abs(e).sum(axis=1)
        else:
            def ma(x):
                return d * np.prod(x, axis=1) ** (1.0 / d)
            power = 1.0 + np.abs(np.log(e).sum(axis=1)) / d
            bound = ma(e) - ma(e - b[:, None]) + gamma(d + 2) * power * ma(e)
        top = float(np.max(bound))
        assert not f.jacobian(v)[1]
        for t, tie in ((0.5 * top, True), (4.0 * top, False)):
            matrix, kink = operators.bellman([(f, 0.0), (f, t)]).jacobian(v)
            assert kink is tie and np.array_equal(matrix, f.jacobian(v)[0])

    def test_kink_of_the_active_term_is_the_envelope_kink(self):
        # u = x^2 + 0 y^2 has a zero eigenvalue on every row: a Pucci or
        # Monge-Ampere kink, which the envelope keeps only where that term
        # is active
        grid = DyadicGrid(2, 2, 1.0)
        v = grid.points()[:, 0] ** 2 - 40.0
        a = stencil(grid, [[1, 0]], seed=1)
        pu, ma = operators.pucci(grid, 0.5, 2.0), operators.monge_ampere(grid)
        for f in (pu, ma):
            assert f.jacobian(v)[1]
            assert operators.bellman([f, (a, -1e6)]).jacobian(v)[1]
            assert operators.isaacs([[(a, 1e6)], [f, (a, -1e6)]]).jacobian(v)[1]
            # in a losing team
            assert not operators.isaacs([[(a, -1e6)], [f, (a, 1e6)]]).jacobian(v)[1]
        assert not operators.bellman([pu, (a, 1e6)]).jacobian(v)[1]
        # at the edge of convexity Monge-Ampere may be -inf or finite: its
        # bound is inf, so its rows tie with every other term
        assert np.isinf(ma.bound(v, 0.0)).any()
        assert operators.bellman([ma, (a, 1e6)]).jacobian(v)[1]

    def test_monge_ampere_bound_is_never_nan(self):
        # rows off convexity are -inf exactly (bound 0), rows at the edge
        # of convexity may be -inf or finite (bound inf)
        grid = DyadicGrid(2, 2, 1.0)
        f = operators.monge_ampere(grid)
        x = grid.points()
        for v in (np.random.default_rng(9).standard_normal(grid.node_count),
                  x[:, 0] ** 2 - 40.0, np.zeros(grid.node_count)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bound = f.bound(v, 1.0)
            off = ~np.isfinite(f(v))
            assert not np.isnan(bound).any() and np.all(bound >= 0.0)
            assert off.any()
            edge = np.min(np.abs(centred_eigenvalues(grid, v)), axis=1) <= bound
            assert np.all(bound[off & ~edge] == 0.0)
            assert np.all(np.isfinite(bound[~off & ~edge]))

    def test_jacobian_at_makes_no_column_loop_call(self, monkeypatch):
        grid = DyadicGrid(2, 2, 1.0)
        a = stencil(grid, [[1, 0]], seed=1)
        pu = operators.pucci(grid, 0.5, 2.0)
        pm = operators.pucci(grid, 0.5, 2.0, "min")
        ma = operators.monge_ampere(grid)
        v = np.random.default_rng(5).standard_normal(grid.node_count)

        def measured(*args):
            raise AssertionError("measured a Jacobian")
        monkeypatch.setattr(clarke, "_matrix", measured)
        for op in (operators.bellman([a, (pu, 1.0), ma]),
                   operators.isaacs([[a, ma], [pm], [(pu, -3.0), a]])):
            sample = jacobian_at(op, v)
            assert np.array_equal(sample.matrix, op.jacobian(v)[0],
                                  equal_nan=True)


class TestComparisonDefect:
    """The centred cross stencil carries -A*_kl/(2h^2) on the (+,-) and (-,+)
    corners, and nothing else touches the corners, so a row whose A* has an
    off-diagonal entry fails the sign test however dominant its diagonal.
    These tests state that defect of today's discretisation; they do not
    repair it."""

    @staticmethod
    def off_centre_min(matrix, rows):
        w = matrix.toarray()[rows]
        w[np.arange(rows.size), rows] = np.inf
        return w.min(axis=1)

    @pytest.mark.parametrize("grid", [DyadicGrid(3, 2, 1.0), DyadicGrid(2, 3, 1.0)],
                             ids=["2-d", "3-d"])
    def test_pucci_on_a_saddle_fails_the_sign_test(self, grid):
        x = grid.points()
        v = x[:, 0] * x[:, 1] + 0.3 * x[:, 0] ** 2
        op = operators.pucci(grid, 0.5, 2.0)
        fields = coefficient_fields(op, grid, v)
        inner = interior(grid, 1)
        assert not fields.gcp_field[inner].any()
        # A* = 2 P+ + 0.5 P- of the exact Hessian [[0.6, 1], [1, 0]] in the
        # (x, y) plane puts -A*_xy/(2h^2) on two corners: -23 at h^-2 = 64
        e, q = np.linalg.eigh(np.array([[0.6, 1.0], [1.0, 0.0]]))
        a = q @ np.diag(np.where(e > 0, 2.0, 0.5)) @ q.T
        want = -a[0, 1] / (2.0 * grid.spacing ** 2)
        matrix, kink = op.jacobian(v)
        got = self.off_centre_min(matrix, inner)
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)
        if grid.dim == 2:
            assert want == pytest.approx(-22.9878, abs=1e-4) and not kink
        else:
            assert kink    # the Hessian's z eigenvalue is 0

    def test_monge_ampere_on_skewed_convex_data_fails_the_sign_test(self):
        grid = DyadicGrid(3, 2, 1.0)
        x = grid.points()
        v = x[:, 0] ** 2 + x[:, 1] ** 2 + 1.8 * x[:, 0] * x[:, 1] - 40.0
        op = operators.monge_ampere(grid)
        fields = coefficient_fields(op, grid, v)
        inner = interior(grid, 1)
        assert not fields.gcp_field[inner].any()
        # A* = det(H)^(1/2) H^-1 with H = [[2, 1.8], [1.8, 2]]
        h = np.array([[2.0, 1.8], [1.8, 2.0]])
        a = math.sqrt(np.linalg.det(h)) * np.linalg.inv(h)
        want = a[0, 1] / (2.0 * grid.spacing ** 2)
        got = self.off_centre_min(op.jacobian(v)[0], inner)
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("factory", [
        lambda g: operators.pucci(g, 0.5, 2.0), operators.monge_ampere,
    ], ids=["pucci", "monge-ampere"])
    def test_axis_aligned_convex_data_passes_the_sign_test(self, factory):
        grid = DyadicGrid(3, 2, 1.0)
        x = grid.points()
        v = x[:, 0] ** 2 + 2.0 * x[:, 1] ** 2 - 40.0
        fields = coefficient_fields(factory(grid), grid, v)
        assert fields.gcp_field[interior(grid, 1)].all()


@pytest.mark.parametrize("grid", [DyadicGrid(3, 2, 1.0), DyadicGrid(2, 3, 1.0)],
                         ids=["2-d", "3-d"])
def test_pucci_rows_of_a_convex_quadratic_form_one_class_per_box_position(grid):
    # every A* is exactly 2 I, so rows differ only in the reads the box
    # drops: one class inside and 3^d in all, where measured rows gave 76
    # to 316 interior classes
    op = operators.pucci(grid, 0.5, 2.0)
    fields = coefficient_fields(op, grid, convex_data(grid, seed=1))
    assert np.unique(fields.row_class[interior(grid, 1)]).size == 1
    assert np.unique(fields.row_class).size == 3 ** grid.dim


def operator_classes():
    """Every class of `operators` whose instances are operators (callable)."""
    return {c for c in vars(operators).values() if isinstance(c, type)
            and c.__module__ == operators.__name__ and "__call__" in vars(c)}


def test_every_exported_operator_and_envelope_has_an_exact_jacobian(
        monkeypatch):
    # an operator, or an envelope of operators, without an exact `jacobian`
    # would be measured by finite differences without anyone noticing
    grid = DyadicGrid(2, 2, 1.0)
    a = stencil(grid, [[1, 0]], seed=1)
    b = stencil(grid, [[0, -2]], seed=2)
    pu = levyminmax.pucci(grid, 0.5, 2.0)
    ma = levyminmax.monge_ampere(grid)
    built = {
        "StencilOperator": a,
        "levy_stencil": levyminmax.levy_stencil(
            grid, LevyOperator(np.eye(2), np.zeros(2), 0.0, LevyMeasure.empty(2))),
        "pucci": pu,
        "pucci min": levyminmax.pucci(grid, 0.5, 2.0, "min"),
        "monge_ampere": ma,
        "bellman": levyminmax.bellman([a, (b, 1.0), b.matrix(), pu, ma]),
        "isaacs": levyminmax.isaacs([[a, pu], [(b, 1.0), ma], [b.matrix()]]),
    }
    built["bellman of envelopes"] = levyminmax.bellman(
        [built["bellman"], (built["isaacs"], 2.0), a])
    built["isaacs of envelopes"] = levyminmax.isaacs(
        [[built["bellman"]], [built["isaacs"], pu]])
    exported = {name.split()[0] for name in built} - {"StencilOperator"}
    assert exported <= set(levyminmax.__all__)
    # matrix terms enter through bellman and isaacs
    assert ({type(op) for op in built.values()} | {operators.MatrixTerm}
            == operator_classes())

    def measured(*args):
        raise AssertionError("measured a Jacobian")
    monkeypatch.setattr(clarke, "_matrix", measured)
    v = convex_data(grid, seed=2)
    for name, op in built.items():
        got = op.jacobian(v)
        assert got is not None, name
        assert got[0].shape == (v.size, v.size) and np.isfinite(got[0]).all(), name
        assert np.array_equal(jacobian_at(op, v).matrix, got[0]), name
    # only a plain callable term leaves an envelope without one
    for op in (levyminmax.bellman([a, lambda w: a(w)]),
               levyminmax.isaacs([[a], [built["bellman"], lambda w: a(w)]]),
               levyminmax.bellman([levyminmax.bellman([lambda w: a(w)]), a])):
        assert op.jacobian(v) is None


# --- sparse Jacobian rows against a dense scatter ---------------------------


def dense_scatter(out, shape, rows, offs, wts):
    """out[i, i + off] = weight for each row i and offset, reads outside
    the box dropped; wts is one weight per offset or (offsets, rows)."""
    for r, i in enumerate(rows):
        idx = np.array(np.unravel_index(i, shape))
        for k, off in enumerate(offs):
            j = idx + np.asarray(off)
            if np.all((j >= 0) & (j < np.array(shape))):
                w = wts[k]
                out[i, np.ravel_multi_index(tuple(j), shape)] = w[r] if np.ndim(w) else w


def second_order_matrix(op, v):
    """Pucci or Monge-Ampere densely: each row the centred stencil weighted
    by the row's A*, NaN across where the Hessian is not finite or, for
    Monge-Ampere, off convexity."""
    grid = op.grid
    d, n, h2 = grid.dim, grid.node_count, grid.spacing ** 2
    hess = hessian_field(grid, v).reshape(-1, d, d)
    e, q = np.linalg.eigh(hess)
    good = np.isfinite(hess).all(axis=(1, 2))
    if isinstance(op, operators.PucciOp):
        up, down = (op.big, op.lam) if op.extremal == "max" else (op.lam, op.big)
        w = np.where(e > 0.0, up, down)
        a = (q * w[:, None, :]) @ np.swapaxes(q, 1, 2)
        same = np.all(w == w[:, :1], axis=1)
        a[same] = w[same, :1, None] * np.eye(d)
    else:
        good &= np.all(e > 0.0, axis=1)
        w = np.prod(e[good], axis=-1, keepdims=True) ** (1.0 / d) / e[good]
        a = np.zeros((n, d, d))
        a[good] = (q[good] * w[:, None, :]) @ np.swapaxes(q[good], 1, 2)
    eye = np.eye(d, dtype=np.int64)
    offs = [np.zeros(d, dtype=np.int64)]
    wts = [-2.0 * np.trace(a, axis1=1, axis2=2) / h2]
    for k in range(d):
        offs += [eye[k], -eye[k]]
        wts += [a[:, k, k] / h2] * 2
        for l in range(k + 1, d):
            cross = a[:, k, l] / (2.0 * h2)
            offs += [eye[k] + eye[l], -eye[k] - eye[l], eye[k] - eye[l], eye[l] - eye[k]]
            wts += [cross, cross, -cross, -cross]
    out = np.zeros((n, n))
    rows = np.flatnonzero(good)
    dense_scatter(out, grid.shape, rows, offs, [w[rows] for w in wts])
    out[~good] = np.nan
    return out


def dense_matrix(f, v):
    """The test-local dense Jacobian of a stencil, matrix, Pucci or
    Monge-Ampere term at v."""
    if isinstance(f, np.ndarray):
        return f
    if isinstance(f, operators.StencilOperator):
        out = np.zeros((f.grid.node_count,) * 2)
        dense_scatter(out, f.grid.shape, range(f.grid.node_count), list(f.kernel),
                      list(f.kernel.values()))
        return out
    return second_order_matrix(f, v)


@strategies.composite
def sparse_cases(draw):
    """An operator, its grid and data, its terms as teams, and the reach of
    its rows: an envelope of
    stencil and matrix terms, Pucci max or min on convex or saddle data,
    Monge-Ampere on convex or random data, or a Levy stencil in 1-3 d."""
    kind = draw(strategies.sampled_from(["envelope", "pucci max", "pucci min",
                                         "monge-ampere", "stencil"]))
    if kind == "envelope":
        grid, teams, v, _ = draw(envelopes())
        return envelope_op(teams), grid, v, teams, 2
    seed = draw(strategies.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    grid = MIXED_GRIDS[draw(strategies.sampled_from([1, 2, 3]))]
    if kind == "stencil":
        atoms = rng.integers(-2, 3, size=(2, grid.dim))
        atoms[np.all(atoms == 0, axis=1), 0] = 1
        st = stencil(grid, atoms.tolist(), seed=seed % 1000)
        return st, grid, rng.standard_normal(grid.node_count), [[(st, 0.0)]], 2
    shape = draw(strategies.sampled_from(["convex", "other"]))
    v = convex_data(grid, seed % 1000, noise=0.05)
    if shape == "other":
        x = grid.points()
        v = (rng.standard_normal(grid.node_count) if kind == "monge-ampere" or grid.dim == 1
             else x[:, 0] * x[:, -1] + rng.uniform(-1.0, 1.0) * x[:, 0] ** 2)
    op = (operators.monge_ampere(grid) if kind == "monge-ampere"
          else operators.pucci(grid, 0.5, 2.0, kind.split()[1]))
    return op, grid, v, [[(op, 0.0)]], 1


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sparse_cases())
def test_densified_rows_are_the_dense_scatter_bit_for_bit(case):
    # the sparse rows read back as the dense matrix the terms' rows scatter
    # into, NaN rows included, and store at most the reach box per row
    op, grid, v, teams, reach = case
    matrix, _ = op.jacobian(v)
    want, _, _ = reference_rows(teams, v, lambda f: dense_matrix(f, v))
    assert matrix.toarray().tobytes() == want.tobytes()
    assert np.asarray(jacobian_at(op, v).matrix).tobytes() == want.tobytes()
    n, d = v.size, grid.dim
    assert matrix.indptr[-1] == matrix.data.size == matrix.indices.size
    assert matrix.data.size <= (2 * reach + 1) ** d * n
    for i in range(n):
        cols = matrix.indices[matrix.indptr[i]:matrix.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)


def test_fields_of_a_level_5_stencil_never_hold_a_dense_matrix():
    # n = 4,225: one dense n x n matrix alone is 143 MB; the sparse rows,
    # the kept entries and the class keys stay a few MB
    grid = DyadicGrid(5, 2, 1.0)
    st = stencil(grid, [[2, 0], [-1, 3]], seed=5)
    v = np.random.default_rng(5).standard_normal(grid.node_count)
    tracemalloc.start()
    try:
        fields = coefficient_fields(st, grid, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fields.row_class.size == grid.node_count
    assert peak < 16e6


# --- coefficient fields against the per-row loop ----------------------------


def reference_decompose(row, tol=courrege.SCHEDULE_TOL):
    """One row's schedule written out with courrege's cutoff moments, as
    `decompose` computed it before the batched normal forms."""
    offs, wts = row.jump_part()
    pitch = row.pitch
    k_diffusion = max(courrege.SCHEDULE_START, math.ceil(math.log2(1.0 / pitch)) - 1) \
        if pitch < 1.0 else courrege.SCHEDULE_START
    r = np.linalg.norm(offs, axis=1)
    inside = r < 1.0
    k_drift = courrege.SCHEDULE_START
    if np.any(inside):
        closest = float(np.max(r[inside]))
        k_drift = max(k_drift, min(56, math.ceil(math.log2(2.0 / (1.0 - closest)))))
    k_last = max(k_diffusion, k_drift + 1)
    before, last = (courrege.b_of(row, SClassFn.shrunk_unit(2.0 ** -k))
                    for k in (k_last - 1, k_last))
    b_exact = np.asarray((wts * inside) @ offs, dtype=float)
    scale = max(1.0, float(np.abs(wts) @ np.max(np.abs(offs), axis=1)))
    gap = float(np.max(np.abs(last - b_exact)))
    step = float(np.max(np.abs(last - before)))
    if not (gap <= tol * scale and step <= tol * scale):
        raise courrege.CourregeError("drift schedule did not stabilize")
    delta_floor = 2.0 ** -k_diffusion
    return courrege.CourregeDecomposition(
        base_point=row.base_point,
        a_matrix=courrege.a_of(row, SClassFn.shrunk_origin(delta_floor)),
        drift=b_exact, zero_order=courrege.c_of(row), atoms=offs,
        atom_weights=wts, gcp=courrege.is_gcp(row), delta_floor=delta_floor)


def reference_fields(matrix, pts):
    """The per-row loop: a dict of row bytes, one reference decomposition
    per class, rebased to the other rows of the class."""
    first: dict = {}
    row_class = np.empty(len(matrix), dtype=np.int64)
    decs = []
    for i, row in enumerate(jacobian_rows(matrix, pts)):
        j = first.setdefault((row.offsets.tobytes(), row.weights.tobytes()), i)
        row_class[i] = j
        decs.append(reference_decompose(row) if j == i
                    else replace(decs[j], base_point=pts[i]))
    return row_class, decs


@strategies.composite
def field_cases(draw):
    """An envelope of stencil and matrix terms, Pucci max or min on convex
    or saddle data, or Monge-Ampere on convex data."""
    kind = draw(strategies.sampled_from(["envelope", "pucci max", "pucci min",
                                         "monge-ampere"]))
    if kind == "envelope":
        grid, teams, v, _ = draw(envelopes())
        return envelope_op(teams), grid, v
    grid = MIXED_GRIDS[draw(strategies.sampled_from([1, 2, 3]))]
    seed = draw(strategies.integers(0, 2 ** 32 - 1))
    v = convex_data(grid, seed % 1000, noise=draw(strategies.sampled_from([0.0, 0.05])))
    if kind == "monge-ampere":
        return operators.monge_ampere(grid), grid, v
    if grid.dim > 1 and draw(strategies.booleans()):
        x = grid.points()
        rng = np.random.default_rng(seed)
        v = x[:, 0] * x[:, 1] + rng.uniform(-1.0, 1.0) * x[:, 0] ** 2
    lam = float(np.random.default_rng(seed).uniform(0.3, 1.0))
    return operators.pucci(grid, lam, 4.0 * lam, kind.split()[1]), grid, v


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field_cases())
def test_fields_are_the_per_row_loop_bit_for_bit(case):
    op, grid, v = case
    matrix = jacobian_at(op, v).matrix.toarray()
    row_class, decs = reference_fields(matrix, grid.points())
    fields = coefficient_fields(op, grid, v)
    assert np.array_equal(fields.row_class, row_class)
    for i, want in enumerate(decs):
        assert_normal_form(fields, i, want)
        assert same_decomposition(fields.decompositions[i], want)
    scale = float(np.abs(matrix).sum(axis=1).max())
    assert representation_residual(op, grid, v, fields=fields) <= 1e-9 * scale


@pytest.mark.parametrize("measured", [False, True], ids=["exact", "measured"])
def test_a_row_with_no_stored_diagonal_keeps_it_at_weight_zero(measured):
    # a kernel with no centre weight stores no diagonal entry; the fields
    # keep the diagonal at 0 among each row's entries, as the per-row loop
    # keeps every diagonal
    grid = DyadicGrid(3, 1, 1.0)
    st = operators.StencilOperator(grid, {(1,): 2.0, (-1,): 1.0, (2,): 0.5})
    op = Counting(st) if measured else st
    v = np.random.default_rng(3).standard_normal(grid.node_count)
    matrix = np.asarray(jacobian_at(op, v).matrix)
    assert not np.any(np.diag(matrix))
    row_class, decs = reference_fields(matrix, grid.points())
    fields = coefficient_fields(op, grid, v)
    assert np.array_equal(fields.row_class, row_class)
    for i, want in enumerate(decs):
        assert_normal_form(fields, i, want)
        assert same_decomposition(fields.decompositions[i], want)
    for i, row in enumerate(jacobian_rows(matrix, grid.points())):
        assert fields.row(i).offsets.tobytes() == row.offsets.tobytes()
        assert fields.row(i).weights.tobytes() == row.weights.tobytes()


def two_stencils(grid, seed):
    """Lévy stencils with diffusion, drift, killing and one atom, at +2h
    along the first axis in the first and -2h in the second."""
    rng = np.random.default_rng(seed)
    d, h = grid.dim, grid.spacing
    out = []
    for sign in (1.0, -1.0):
        atom = np.zeros((1, d))
        atom[0, 0] = 2.0 * sign * h
        a = np.diag(rng.uniform(0.5, 1.5, size=d))
        out.append(operators.levy_stencil(grid, LevyOperator(
            a, rng.standard_normal(d), -float(rng.uniform(0.1, 1.0)),
            LevyMeasure(atom, rng.uniform(0.5, 2.0, size=1)))))
    return out


@pytest.mark.parametrize("kind", ["bellman", "isaacs"])
@pytest.mark.parametrize("grid", [DyadicGrid(6, 1, 1.0), DyadicGrid(3, 2, 1.0),
                                  DyadicGrid(5, 2, 1.0)],
                         ids=["1-d level 6", "2-d level 3", "2-d level 5"])
def test_envelope_rows_are_their_terms_normal_forms(grid, kind):
    # the paper's theorem on the lattice: an envelope of operators that
    # commute with shifts linearizes, away from the boundary, to one of its
    # terms at every node, so each interior normal form is a term's own,
    # rebased, and the interior classes are at most the terms
    terms = two_stencils(grid, seed=grid.dim + grid.level)
    rng = np.random.default_rng(grid.level)
    pairs = [(t, 10.0 * rng.standard_normal(grid.node_count)) for t in terms]
    op = (operators.bellman(pairs) if kind == "bellman"
          else operators.isaacs([[p] for p in pairs]))
    v = rng.standard_normal(grid.node_count)
    fields = coefficient_fields(op, grid, v)
    inner = interior(grid, 2)
    idx = grid.indices()
    own = [decompose(t.row(idx[inner[0]])) for t in terms]
    for i in inner:
        want = [replace(dec, base_point=grid.points()[i]) for dec in own]
        dec = fields.decompositions[i]
        match = [k for k in range(2) if same_decomposition(dec, want[k])]
        assert match, i
        assert_normal_form(fields, i, want[match[0]])
    assert np.unique(fields.row_class[inner]).size == 2


class TestNonFiniteRows:
    """A row with a non-finite entry, kept or not, or NaN across has no
    normal form; the bits of its entries must not make a class of it."""

    @staticmethod
    def refused(op, grid, v, node):
        with pytest.raises(courrege.CourregeError,
                           match=f"row weights must be finite \\(node {node}\\)"):
            coefficient_fields(op, grid, v)

    def test_monge_ampere_off_convexity(self):
        grid = DyadicGrid(2, 2, 1.0)
        v = np.random.default_rng(9).standard_normal(grid.node_count)
        self.refused(operators.monge_ampere(grid), grid, v, 1)

    def test_pucci_with_a_nan_node(self):
        grid = DyadicGrid(2, 2, 1.0)
        v = np.random.default_rng(0).standard_normal(grid.node_count)
        v[40] = math.nan
        # the centred Hessians of the node and of its eight neighbours: the
        # cross stencil reads the corners
        self.refused(operators.pucci(grid, 0.5, 2.0), grid, v, 30)

    @staticmethod
    def nan_across(op, v, rows):
        """The rows, and only they, are NaN across and kinks."""
        matrix, kink = op.jacobian(v)
        dense = matrix.toarray()
        assert kink
        assert np.array_equal(np.flatnonzero(np.isnan(dense).all(axis=1)), rows)
        assert np.isfinite(np.delete(dense, rows, axis=0)).all()

    def test_pucci_with_a_nan_node_on_convex_data_1d(self):
        # eigh of a 1 x 1 NaN Hessian picks lam: the rows read 32, -64, 32
        # unless the non-finite Hessian is caught
        grid = DyadicGrid(3, 1, 1.0)
        v = grid.points()[:, 0] ** 2 - 40.0
        v[8] = math.nan
        op = operators.pucci(grid, 0.5, 2.0)
        self.nan_across(op, v, [7, 8, 9])
        self.refused(op, grid, v, 7)

    def test_pucci_with_a_nan_centre_on_convex_data_2d(self):
        # eigh returns finite eigenvalues for a Hessian with a NaN diagonal,
        # so only the Hessian's own finiteness finds these rows
        grid = DyadicGrid(2, 2, 1.0)
        v = convex_data(grid, seed=0)
        v[40] = math.nan
        for extremal in ("max", "min"):
            op = operators.pucci(grid, 0.5, 2.0, extremal)
            self.nan_across(op, v, [30, 31, 32, 39, 40, 41, 48, 49, 50])
            self.refused(op, grid, v, 30)
        self.nan_across(operators.monge_ampere(grid), v,
                        [30, 31, 32, 39, 40, 41, 48, 49, 50])

    @pytest.mark.parametrize("factory", [
        lambda grid: operators.pucci(grid, 0.5, 2.0),
        lambda grid: operators.pucci(grid, 0.5, 2.0, "min"),
        operators.monge_ampere], ids=["pucci-max", "pucci-min", "monge-ampere"])
    def test_value_is_nan_where_the_hessian_is_not_finite(self, factory):
        # eigvalsh returns finite eigenvalues for a NaN diagonal, where Pucci
        # read finite values and Monge-Ampere -inf; the rows that do not read
        # the node keep their bits
        grid = DyadicGrid(2, 2, 1.0)
        clean = np.random.default_rng(0).standard_normal(grid.node_count)
        v = clean.copy()
        v[40] = math.nan
        op = factory(grid)
        rows = [30, 31, 32, 39, 40, 41, 48, 49, 50]
        got = op(v)
        assert np.array_equal(np.flatnonzero(np.isnan(got)), rows)
        assert np.array_equal(np.delete(got, rows), np.delete(op(clean), rows))

    def test_non_finite_entry_off_the_diagonal(self):
        # row 0 measures as [1, nan, 0, ...]: its threshold is NaN, so a
        # filter on kept entries alone would keep the finite diagonal
        grid = DyadicGrid(2, 1, 1.0)
        v = np.ones(grid.node_count)
        v[1] = 0.0

        def op(w):
            out = w.copy()
            out[0] = w[0] + np.sqrt(w[1])
            return out
        with np.errstate(invalid="ignore"):
            sample = jacobian_at(op, v)
            assert sample.kink and np.isnan(sample.matrix[0, 1])
            assert np.isfinite(np.delete(sample.matrix[0], 1)).all()
            self.refused(op, grid, v, 0)

    def test_callable_returning_nan(self):
        grid = DyadicGrid(3, 1, 1.0)
        n = grid.node_count
        m = np.random.default_rng(1).standard_normal((n, n))
        self.refused(lambda w: np.where(np.arange(n) == 7, math.nan, m @ w),
                     grid, np.zeros(n), 7)


COLD_FIELDS = textwrap.dedent("""
    import sys

    import numpy as np

    import levyminmax
    from levyminmax import clarke, operators
    from levyminmax.grid import DyadicGrid
    from levyminmax.levy import LevyMeasure, LevyOperator

    import numpy.random
    before = set(sys.modules)
    grid = DyadicGrid(1, 3, 1.5)
    x = grid.points()
    st = operators.levy_stencil(grid, LevyOperator(
        np.eye(3), np.ones(3), -1.0, LevyMeasure(np.array([[0.5, 0.0, 0.0]]),
                                                  np.ones(1))))
    pu = operators.pucci(grid, 0.5, 2.0)
    for op, v in ((st, np.cos(x[:, 0])), (pu, np.sum(x * x, axis=1) - 40.0)):
        fields = clarke.coefficient_fields(op, grid, v)
        assert clarke.representation_residual(op, grid, v, fields=fields) < 1e-6
    back = operators.levy_stencil(grid, LevyOperator(
        np.eye(3), -np.ones(3), -1.0, LevyMeasure.empty(3)))
    env = operators.bellman([st, (back, 0.5)])
    u = np.cos(x[:, 0])
    w = u + np.sin(7.0 * x[:, 1])
    assert clarke.minmax_eval(env, u, [w, u]).gap < 1e-9
    assert clarke.mean_value_residual(env, u, w).residual < 1e-9
    loaded = sorted(set(sys.modules) - before)
    assert loaded == [], loaded
    assert "numpy.ma" not in sys.modules
""")


def test_cold_fields_load_nothing_beyond_numpy_random():
    # a fresh interpreter: numpy.random (the probe battery's generator) is
    # loaded first, and the fields and their check, and the segment path of
    # an affine envelope (its min-max layer and mean-value certificate), may
    # load nothing more; numpy.ma in particular costs about 8 ms on the
    # first np.unique
    src = str(pathlib.Path(levyminmax.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", COLD_FIELDS],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
