"""Operator zoo: stencil assembly, envelopes, fractional kernels, strip map."""
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import levyminmax

from levyminmax.calculus import hessian_field
from levyminmax.grid import DyadicGrid
from levyminmax.levy import LevyMeasure, LevyOperator, evaluate
from levyminmax.operators import (
    BellmanOp,
    MAReport,
    OperatorError,
    StencilOperator,
    StripProblem,
    bellman,
    boundary_derivative,
    dtn_apply,
    dtn_kernel,
    dtn_matrix,
    dtn_solve,
    fractional_constant,
    fractional_laplacian,
    isaacs,
    levy_stencil,
    ma_infimum,
    monge_ampere,
    pucci,
    pucci_extremal,
    strip_system,
)

P2 = np.array([[2.0, 0.5], [0.5, 1.0]])
Q2 = np.array([0.3, -0.7])


class Quad2:
    def value(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x @ P2 @ x + Q2 @ x + 0.25

    def grad(self, x):
        return P2 @ np.asarray(x, dtype=float) + Q2

    def hess(self, x):
        return P2.copy()


class Affine2:
    def value(self, x):
        return Q2 @ np.asarray(x, dtype=float) + 0.25

    def grad(self, x):
        return Q2.copy()

    def hess(self, x):
        return np.zeros((2, 2))


def sample_operator():
    a = np.array([[1.5, 0.25], [0.25, 0.75]])
    b = np.array([0.4, -1.1])
    atoms = np.array([[0.5, 0.25], [-0.75, 0.5], [1.5, 0.0]])
    masses = np.array([2.0, 1.0, 0.5])
    return LevyOperator(a, b, -0.3, LevyMeasure(atoms, masses))


def node_values(grid, fn):
    return np.array([fn.value(x) for x in grid.points()])


def center_value(grid, flat):
    half = grid.half_count
    return flat.reshape(grid.shape)[(half,) * grid.dim]


# --- stencil assembly -------------------------------------------------------


def test_stencil_exact_on_quadratic_with_central_drift():
    g = DyadicGrid(level=4, dim=2, box_radius=2.0)
    op = sample_operator()
    st = levy_stencil(g, op, drift="central")
    got = center_value(g, st(node_values(g, Quad2())))
    exact = evaluate(op, Quad2(), np.zeros(2))
    assert got == pytest.approx(exact, abs=1e-12)


def test_stencil_exact_on_affine_with_upwind_drift():
    g = DyadicGrid(level=4, dim=2, box_radius=2.0)
    op = sample_operator()
    st = levy_stencil(g, op, drift="upwind")
    got = center_value(g, st(node_values(g, Affine2())))
    exact = evaluate(op, Affine2(), np.zeros(2))
    assert got == pytest.approx(exact, abs=1e-12)


def test_upwind_monotone_under_diagonal_dominance():
    g = DyadicGrid(level=4, dim=2, box_radius=2.0)
    assert levy_stencil(g, sample_operator(), drift="upwind").is_monotone()


def test_central_drift_loses_monotonicity_when_drift_dominates():
    g = DyadicGrid(level=4, dim=2, box_radius=2.0)
    op = LevyOperator(0.01 * np.eye(2), np.array([5.0, 0.0]), 0.0,
                      LevyMeasure.empty(2))
    assert not levy_stencil(g, op, drift="central").is_monotone()
    assert levy_stencil(g, op, drift="upwind").is_monotone()


def test_non_dominant_diffusion_flagged_but_still_exact():
    g = DyadicGrid(level=4, dim=2, box_radius=2.0)
    a = np.array([[1.0, 1.5], [1.5, 3.0]])
    op = LevyOperator(a, np.zeros(2), 0.0, LevyMeasure.empty(2))
    st = levy_stencil(g, op, drift="upwind")
    assert not st.is_monotone()
    got = center_value(g, st(node_values(g, Quad2())))
    assert got == pytest.approx(evaluate(op, Quad2(), np.zeros(2)), abs=1e-12)


def test_stencil_matrix_matches_application():
    g = DyadicGrid(level=3, dim=1, box_radius=1.0)
    op = LevyOperator(np.array([[0.8]]), np.array([-0.6]), 0.1,
                      LevyMeasure(np.array([[0.375]]), np.array([1.5])))
    st = levy_stencil(g, op)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.node_count)
    assert np.allclose(st.matrix() @ v, st(v), atol=1e-12)


def test_stencil_row_drops_reads_outside_the_box():
    g = DyadicGrid(level=3, dim=1, box_radius=1.0)
    op = LevyOperator(np.array([[1.0]]), np.zeros(1), 0.0, LevyMeasure.empty(1))
    st = levy_stencil(g, op)
    corner = st.row(np.array([g.half_count]))
    interior = st.row(np.array([0]))
    assert len(corner.weights) == len(interior.weights) - 1


class Affine1:
    def value(self, x):
        return 0.7 * float(np.asarray(x).ravel()[0]) + 0.2

    def grad(self, x):
        return np.array([0.7])

    def hess(self, x):
        return np.zeros((1, 1))


def test_atom_snaps_to_nearest_lattice_point():
    g = DyadicGrid(level=4, dim=1, box_radius=2.0)
    op = LevyOperator(np.zeros((1, 1)), np.zeros(1), 0.0,
                      LevyMeasure(np.array([[0.507]]), np.array([2.0])))
    st = levy_stencil(g, op)
    assert (8,) in st.kernel
    snapped = LevyOperator(np.zeros((1, 1)), np.zeros(1), 0.0,
                           LevyMeasure(np.array([[0.5]]), np.array([2.0])))
    got = center_value(g, st(node_values(g, Affine1())))
    exact = evaluate(snapped, Affine1(), np.zeros(1))
    assert got == pytest.approx(exact, abs=1e-13)


def test_atom_below_resolution_is_rejected():
    g = DyadicGrid(level=2, dim=1, box_radius=1.0)
    op = LevyOperator(np.zeros((1, 1)), np.zeros(1), 0.0,
                      LevyMeasure(np.array([[0.05]]), np.array([1.0])))
    with pytest.raises(OperatorError):
        levy_stencil(g, op)


def test_stencil_rejects_bad_inputs():
    g = DyadicGrid(level=3, dim=1, box_radius=1.0)
    op1 = LevyOperator(np.zeros((1, 1)), np.zeros(1), 0.0, LevyMeasure.empty(1))
    with pytest.raises(OperatorError):
        levy_stencil(g, op1, drift="hybrid")
    op2 = LevyOperator(np.zeros((2, 2)), np.zeros(2), 0.0, LevyMeasure.empty(2))
    with pytest.raises(OperatorError):
        levy_stencil(g, op2)
    with pytest.raises(OperatorError):
        StencilOperator(grid=g, kernel={(0, 0): 1.0})


def test_kernel_drops_zero_weights():
    g = DyadicGrid(level=3, dim=1, box_radius=1.0)
    st = StencilOperator(grid=g, kernel={(0,): 1.0, (1,): 0.0})
    assert (1,) not in st.kernel


# --- envelopes --------------------------------------------------------------


def test_bellman_is_componentwise_max():
    rng = np.random.default_rng(2)
    m1 = rng.standard_normal((6, 6))
    m2 = rng.standard_normal((6, 6))
    s1 = rng.standard_normal(6)
    op = bellman([(m1, s1), m2])
    v = rng.standard_normal(6)
    assert np.array_equal(op(v), np.maximum(m1 @ v + s1, m2 @ v))


def test_bellman_rows_decouple():
    # the envelope picks rows independently: stitching the per-row argmax
    # choices into one matrix reproduces the output, any other row mix
    # can only fall below it
    rng = np.random.default_rng(3)
    m1 = rng.standard_normal((5, 5))
    m2 = rng.standard_normal((5, 5))
    op = bellman([m1, m2])
    v = rng.standard_normal(5)
    out = op(v)
    stack = np.stack([m1 @ v, m2 @ v])
    which = np.argmax(stack, axis=0)
    stitched = np.where(which[:, None] == 0, m1, m2)
    assert np.allclose(stitched @ v, out, atol=1e-12)
    for choice in ([0, 1, 0, 1, 0], [1, 1, 1, 1, 1]):
        mix = np.where(np.array(choice)[:, None] == 0, m1, m2)
        assert np.all(mix @ v <= out + 1e-12)


def test_isaacs_is_min_of_maxes():
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((4, 4)) for _ in range(4)]
    op = isaacs([[mats[0], mats[1]], [mats[2], mats[3]]])
    v = rng.standard_normal(4)
    expected = np.minimum(np.maximum(mats[0] @ v, mats[1] @ v),
                          np.maximum(mats[2] @ v, mats[3] @ v))
    assert np.array_equal(op(v), expected)


def test_envelopes_refuse_terms_on_grids_of_different_shapes():
    # such terms cannot be read node by node; the refusal names both shapes
    g = DyadicGrid(level=3, dim=2, box_radius=1.0)
    near = StencilOperator(g, {(0, 0): -1.0, (1, 0): 1.0})
    other = StencilOperator(DyadicGrid(level=2, dim=2, box_radius=1.0), near.kernel)
    for build in (lambda: bellman([near, (other, 1.0)]),
                  lambda: bellman([near, pucci(other.grid, 0.5, 2.0)]),
                  lambda: isaacs([[near], [monge_ampere(other.grid)]]),
                  lambda: bellman([bellman([near]), other])):
        with pytest.raises(OperatorError, match=r"\(17, 17\) and \(9, 9\)"):
            build()
    # one grid, a matrix term or a plain callable is fine
    bellman([near, pucci(g, 1.0, 1.0), np.eye(g.node_count), lambda v: v])
    isaacs([[near], [monge_ampere(g)]])


def test_envelope_of_monotone_stencils_keeps_comparison():
    g = DyadicGrid(level=3, dim=1, box_radius=1.0)
    a = LevyOperator(np.array([[1.0]]), np.array([0.5]), -0.2,
                     LevyMeasure.empty(1))
    b = LevyOperator(np.array([[0.5]]), np.array([-1.0]), -0.1,
                     LevyMeasure(np.array([[0.5]]), np.array([1.0])))
    op = bellman([levy_stencil(g, a), levy_stencil(g, b)])
    rng = np.random.default_rng(7)
    half = g.half_count
    for _ in range(20):
        v = rng.standard_normal(g.node_count)
        bump = rng.uniform(0.0, 1.0, g.node_count)
        bump[half] = 0.0
        assert op(v + bump)[half] >= op(v)[half] - 1e-12


def test_empty_envelopes_are_rejected():
    with pytest.raises(OperatorError):
        bellman([])
    with pytest.raises(OperatorError):
        isaacs([])
    with pytest.raises(OperatorError):
        bellman([("not callable", 0.0)])


# --- extremal and determinant operators -------------------------------------


def test_pucci_extremal_values():
    e = np.array([2.0, -1.0])
    assert pucci_extremal(e, 1.0, 3.0, "max") == 5.0
    assert pucci_extremal(e, 1.0, 3.0, "min") == -1.0


def test_pucci_brackets_traces():
    rng = np.random.default_rng(11)
    lam, big = 0.5, 2.5
    for _ in range(30):
        w = rng.standard_normal((3, 3))
        m = w + w.T
        e = np.linalg.eigvalsh(m)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = q @ np.diag(rng.uniform(lam, big, 3)) @ q.T
        tr = float(np.trace(a @ m))
        assert pucci_extremal(e, lam, big, "min") <= tr + 1e-10
        assert tr <= pucci_extremal(e, lam, big, "max") + 1e-10


def test_pucci_operator_exact_on_quadratic():
    g = DyadicGrid(level=3, dim=2, box_radius=1.0)
    p = np.diag([2.0, -1.0])
    v = np.array([0.5 * x @ p @ x for x in g.points()])
    out = pucci(g, 1.0, 3.0)(v).reshape(g.shape)
    half = g.half_count
    assert out[half, half] == pytest.approx(5.0, abs=1e-9)
    assert pucci(g, 1.0, 3.0, "min")(v).reshape(g.shape)[half, half] == \
        pytest.approx(-1.0, abs=1e-9)


def test_pucci_validates_bounds():
    g = DyadicGrid(level=2, dim=1, box_radius=1.0)
    with pytest.raises(OperatorError):
        pucci(g, 2.0, 1.0)
    with pytest.raises(OperatorError):
        pucci(g, 0.0, 1.0)
    with pytest.raises(OperatorError):
        pucci(g, 1.0, 2.0, extremal="avg")


def test_hessian_field_exact_on_quadratic():
    g = DyadicGrid(level=3, dim=2, box_radius=1.0)
    v = node_values(g, Quad2())
    hess = hessian_field(g, v)
    half = g.half_count
    assert np.allclose(hess[half, half], P2, atol=1e-9)


def test_determinant_infimum_closed_form():
    rep = ma_infimum(np.diag([1.0, 4.0]), samples=200, seed=1)
    assert rep.value == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(rep.a_star, np.diag([2.0, 0.5]), atol=1e-12)
    assert abs(np.linalg.det(rep.a_star) - 1.0) < 1e-12
    # sampling never beats the closed-form minimizer
    assert rep.sampled >= rep.value - 1e-12
    assert rep.sampled == pytest.approx(4.0, abs=1e-12)


def test_determinant_infimum_general_matrix():
    rep = ma_infimum(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert rep.value == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)


def test_determinant_infimum_diverges_off_convexity():
    rep = ma_infimum(np.diag([1.0, -1.0]))
    assert rep.value == -math.inf
    assert rep.a_star is None
    with pytest.raises(OperatorError):
        ma_infimum(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_determinant_operator_on_convex_data():
    g = DyadicGrid(level=3, dim=2, box_radius=1.0)
    v = node_values(g, Quad2())
    out = monge_ampere(g)(v).reshape(g.shape)
    half = g.half_count
    det = np.linalg.det(P2)
    assert out[half, half] == pytest.approx(2.0 * math.sqrt(det), abs=1e-9)


def test_determinant_operator_flags_non_convex_data():
    g = DyadicGrid(level=3, dim=2, box_radius=1.0)
    p = np.diag([1.0, -1.0])
    v = np.array([0.5 * x @ p @ x for x in g.points()])
    out = monge_ampere(g)(v).reshape(g.shape)
    half = g.half_count
    assert out[half, half] == -math.inf


# --- fractional kernel ------------------------------------------------------


def test_fractional_constant_known_values():
    assert fractional_constant(1, 1.0) == pytest.approx(1.0 / math.pi,
                                                        rel=1e-15)
    assert fractional_constant(2, 1.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                        rel=1e-15)
    with pytest.raises(OperatorError):
        fractional_constant(1, 2.0)
    with pytest.raises(OperatorError):
        fractional_constant(1, 0.0)


def test_fractional_quadrature_matches_poisson_semigroup():
    # u(x) = 1/(1+x^2) has closed-form half-Laplacian (x^2-1)/(1+x^2)^2
    class U:
        def value(self, x):
            t = float(np.asarray(x).ravel()[0])
            return 1.0 / (1.0 + t * t)

        def grad(self, x):
            t = float(np.asarray(x).ravel()[0])
            return np.array([-2.0 * t / (1.0 + t * t) ** 2])

    op = fractional_laplacian(1.0, dim=1, spacing=2.0 ** -6, radius=32.0)
    assert evaluate(op, U(), np.zeros(1)) == pytest.approx(-1.0, abs=6e-3)
    assert evaluate(op, U(), np.ones(1)) == pytest.approx(0.0, abs=2e-3)
    coarse = fractional_laplacian(1.0, dim=1, spacing=2.0 ** -4, radius=16.0)
    err_fine = abs(evaluate(op, U(), np.zeros(1)) + 1.0)
    err_coarse = abs(evaluate(coarse, U(), np.zeros(1)) + 1.0)
    assert err_fine < 0.5 * err_coarse


def test_fractional_kernel_shape():
    op = fractional_laplacian(0.5, dim=2, spacing=0.125, radius=4.0)
    assert op.measure.dim == 2
    assert np.all(op.measure.masses > 0)
    assert op.zero_order < 0
    assert np.max(np.linalg.norm(op.measure.atoms, axis=1)) <= 4.0
    with pytest.raises(OperatorError):
        fractional_laplacian(1.0, spacing=0.5, radius=0.25)


# --- strip Dirichlet-to-Neumann map ----------------------------------------


def strip_256():
    return StripProblem(width=2.0 * math.pi, height=10.0, nx=256, ny=128)


def test_dtn_constant_data_gives_exact_slope():
    p = strip_256()
    out = dtn_apply(p, np.ones(p.nx))
    assert np.max(np.abs(out + 1.0 / p.height)) < 1e-13
    row = dtn_kernel(p)
    assert row.sum() == pytest.approx(-1.0 / p.height, abs=1e-12)


def test_dtn_kernel_passes_comparison_sign_test():
    row = dtn_kernel(strip_256())
    assert row[0] < 0.0
    assert np.min(np.delete(row, 0)) >= 0.0


def test_dtn_modes_match_continuum_within_two_percent():
    p = strip_256()
    x = p.x_nodes()
    bounds = {1: 1e-3, 2: 4e-3, 4: 1.3e-2}
    for xi, bound in bounds.items():
        exact = -xi / math.tanh(xi * p.height) * np.cos(xi * x)
        rel = np.max(np.abs(dtn_apply(p, np.cos(xi * x)) - exact)) / xi
        assert rel < bound


def test_corrected_derivative_beats_naive_difference():
    p = strip_256()
    x = p.x_nodes()
    for xi in (1, 2, 4):
        g = np.cos(xi * x)
        exact = -xi / math.tanh(xi * p.height) * np.cos(xi * x)
        u = dtn_solve(p, g)
        naive = np.max(np.abs((u[1] - u[0]) / p.dy - exact))
        corrected = np.max(np.abs(boundary_derivative(p, u) - exact))
        assert corrected < naive / 3.0


def test_dtn_solvers_agree():
    p = StripProblem(width=4.0, height=2.0, nx=32, ny=16)
    g = np.random.default_rng(0).standard_normal(p.nx)
    um = dtn_solve(p, g, "modes")
    assert np.max(np.abs(um - dtn_solve(p, g, "direct"))) < 1e-12
    assert np.max(np.abs(um[-1])) == 0.0
    assert np.max(np.abs(um[0] - g)) < 1e-14


COLD_START = textwrap.dedent("""
    import sys

    import numpy as np

    import levyminmax
    from levyminmax import cli
    from levyminmax.operators import StripProblem, dtn_solve

    out = sys.argv[1]
    for argv in (["decompose", "--operator", "jump", "--level", "3"],
                 ["minmax", "--level", "3", "--seed", "7"],
                 ["converge", "--level", "5"],
                 ["dtn", "--level", "6"]):
        assert cli.main(argv + ["--out", out]) in (0, 1), argv
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert loaded == [], loaded

    p = StripProblem(width=4.0, height=2.0, nx=32, ny=16)
    g = np.random.default_rng(0).standard_normal(p.nx)
    gap = np.max(np.abs(dtn_solve(p, g, "modes") - dtn_solve(p, g, "direct")))
    assert gap < 1e-12, gap
""")


def test_cold_start_loads_no_scipy_until_the_direct_solve(tmp_path):
    # a fresh interpreter: this test process may have imported scipy already
    src = str(pathlib.Path(levyminmax.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "report.json")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr


def test_strip_system_is_m_matrix():
    p = StripProblem(width=4.0, height=2.0, nx=32, ny=16)
    mat, load = strip_system(p)
    dense = mat.toarray()
    off = dense - np.diag(np.diag(dense))
    assert np.min(np.diag(dense)) > 0.0
    assert np.max(off) <= 0.0
    assert np.min(dense.sum(axis=1)) >= -1e-9
    rhs = load(np.ones(p.nx))
    assert rhs[:p.nx] == pytest.approx(1.0 / p.dy ** 2)
    assert np.all(rhs[p.nx:] == 0.0)


def test_dtn_matrix_matches_solve_and_extract():
    p = StripProblem(width=4.0, height=2.0, nx=32, ny=16)
    e0 = np.zeros(p.nx)
    e0[0] = 1.0
    col = boundary_derivative(p, dtn_solve(p, e0, "direct"))
    assert np.max(np.abs(dtn_matrix(p)[:, 0] - col)) < 1e-12


def test_dtn_kernel_decays_like_inverse_square():
    p = StripProblem(width=32.0, height=4.0, nx=1024, ny=128)
    row = dtn_kernel(p)
    x = p.x_nodes()
    core = (x >= 0.25) & (x <= 2.0)
    slope = np.polyfit(np.log(x[core]), np.log(row[core]), 1)[0]
    assert abs(slope + 2.0) < 0.3
    # half-plane density: mass per node approaches dx / (pi x^2)
    near = (x >= 0.25) & (x <= 1.0)
    ratio = row[near] * math.pi * x[near] ** 2 / p.dx
    assert np.all((ratio > 0.9) & (ratio < 1.05))


def test_strip_validation():
    with pytest.raises(OperatorError):
        StripProblem(width=0.0, height=1.0, nx=8, ny=4)
    with pytest.raises(OperatorError):
        StripProblem(width=1.0, height=1.0, nx=2, ny=4)
    p = StripProblem(width=1.0, height=1.0, nx=8, ny=4)
    with pytest.raises(OperatorError):
        dtn_solve(p, np.ones(7))
    with pytest.raises(OperatorError):
        dtn_solve(p, np.ones(8), method="magic")
    with pytest.raises(OperatorError):
        dtn_apply(p, np.ones(9))
