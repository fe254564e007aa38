"""Self-tests of the benchmark: each check passes on real output and rejects a
planted fault, the tracer restores what it wraps, and BENCHMARK.json names the
metrics the benchmark prints."""
import json
from pathlib import Path

import numpy as np
import pytest

from levyminmax import clarke, cubes, operators
from levyminmax.grid import DyadicGrid
from levyminmax.levy import LevyMeasure, LevyOperator
from perfbench import checks, run, workloads
from perfbench.trace import Tracer

ROOT = Path(__file__).resolve().parents[2]


def test_partition_totals_reject_planted_totals():
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(40, 2))
    sums = cubes.partition_raw_sums(pts, 0.25)
    assert checks.partition_totals(sums) == []
    off = sums.copy()
    off[3, 1] += 1e-8
    assert checks.partition_totals(off)
    low = sums.copy()
    low[5, 0] = 0.99
    assert checks.partition_totals(low)


def test_cover_geometry_rejects_planted_cubes():
    x = np.array([0.3, -0.2])
    cover = cubes.cubes_at(x, 0.5)
    cubes_ = [(q.generation, q.index, q.cell) for q in cover.cubes]
    assert checks.cover_geometry(x, 0.5, cubes_) == []
    gen, index, cell = cubes_[0]
    far = [(gen, tuple(i + 3 for i in index), cell)]
    assert checks.cover_geometry(x, 0.5, cubes_ + far)
    touching = [(1, (0, 0), cell)]          # contains its node: ratio 0
    assert checks.cover_geometry(x, 0.5, cubes_ + touching)


def _extension_op(case):
    ops = workloads.extension(7, "")
    return next(op for op in ops if op.name == f"extend d=2 case={case}")


@pytest.mark.parametrize("case", [0, 2])
def test_extension_check_rejects_a_perturbed_value(case):
    op = _extension_op(case)
    out = op.call()
    assert op.check(out) == []
    bad = out.copy()
    bad[np.argmax(np.abs(out) < 0.9 * np.abs(out).max())] += 1e-6 if case else 1e3
    assert op.check(bad)


def _stencil(grid):
    op = LevyOperator(np.eye(grid.dim), np.full(grid.dim, 0.5), -0.3,
                      LevyMeasure(np.array([[2.0 * grid.spacing] + [0.0] * (grid.dim - 1)]),
                                  np.array([1.5])))
    return operators.levy_stencil(grid, op)


def test_linear_jacobian_rejects_one_wrong_entry():
    g = DyadicGrid(2, 2, 1.0)
    st = _stencil(g)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(g.node_count)
    jac = clarke.jacobian_at(st, rng.standard_normal(g.node_count)).matrix
    ref = checks.dense_matrix(st.kernel, g.shape)
    assert checks.linear_jacobian(jac, w, st(w), "J") == []
    assert checks.close(jac, ref, 1e-6, "J", 1.0) == []
    bad = jac.copy()
    bad[7, 8] += 1e-3
    assert checks.linear_jacobian(bad, w, st(w), "J")
    assert checks.close(bad, ref, 1e-6, "J", 1.0)


def test_active_rows_reject_one_wrong_entry():
    g = DyadicGrid(2, 1, 1.0)
    rng = np.random.default_rng(2)
    kernels = [workloads._monotone_kernel(rng, 1, g.spacing) for _ in range(4)]
    mats = [checks.dense_matrix(k, g.shape) for k in kernels]
    shifts = [10.0 * rng.standard_normal(g.node_count) for _ in range(4)]
    terms = [operators.StencilOperator(g, k) for k in kernels]
    game = operators.isaacs([list(zip(terms[:2], shifts[:2])),
                             list(zip(terms[2:], shifts[2:]))])
    teams = [list(zip(mats[:2], shifts[:2])), list(zip(mats[2:], shifts[2:]))]
    v = rng.standard_normal(g.node_count)
    jac = clarke.jacobian_at(game, v)
    assert checks.active_rows(jac.matrix, v, teams, jac.step, "isaacs") == []
    bad = jac.matrix.copy()
    bad[4, 4] += 1.0
    assert checks.active_rows(bad, v, teams, jac.step, "isaacs")


def test_kernel_fields_reject_a_wrong_c_and_b_field():
    g = DyadicGrid(2, 2, 1.0)
    st = _stencil(g)
    f = clarke.coefficient_fields(st, g, np.ones(g.node_count))
    assert checks.kernel_fields(f.c_field, f.b_field, st.kernel, g.shape,
                                g.spacing, "fields") == []
    centre = g.node_count // 2
    c = f.c_field.copy()
    c[centre] += 1e-3
    assert checks.kernel_fields(c, f.b_field, st.kernel, g.shape, g.spacing, "fields")
    b = f.b_field.copy()
    b[centre, 1] -= 1e-3
    assert checks.kernel_fields(f.c_field, b, st.kernel, g.shape, g.spacing, "fields")
    weights = [dec.atom_weights for dec in f.decompositions]
    assert checks.sign_test(weights, f.gcp_field, "fields") == []
    weights[centre] = weights[centre] - 2.0 * np.abs(weights[centre]).max()
    assert checks.sign_test(weights, f.gcp_field, "fields")


def test_fitted_rate_rejects_a_slow_rate():
    h = [2.0 ** -k for k in range(3, 7)]
    assert checks.fitted_rate(h, [0.3 * x for x in h], 0.9, "rate") == []
    assert checks.fitted_rate(h, [0.3 * x ** 0.5 for x in h], 0.9, "rate")


def test_tracer_counts_four_evaluations_per_column_and_restores_names():
    g = DyadicGrid(2, 1, 1.0)
    st = _stencil(g)
    before = clarke.jacobian_at
    tracer = Tracer()
    tracer.install()
    try:
        clarke.jacobian_at(st, np.ones(g.node_count))
        m = tracer.round_metrics()
    finally:
        tracer.uninstall()
    assert clarke.jacobian_at is before
    assert operators.StencilOperator.__call__.__name__ == "__call__"
    assert not hasattr(operators.StencilOperator.__call__, "__perfbench_wrapped__")
    assert m["clarke.jacobian.calls"] == 1
    assert m["clarke.op_evals_per_column"] == 4.0
    assert m["operators.op.calls"] == 4 * g.node_count
    assert m["clarke.jacobian_mb"] == g.node_count ** 2 * 8 / 1e6


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
