"""Acceptance gate: fifteen end-to-end criteria, one verdict line each.

Each test prints a single numbered PASS/FAIL line (visible with -s; under
-v the test outcome itself is the per-criterion line) and then asserts.
Timed criteria warm the code path up once before starting the clock, so
import cost and first-call set-up stay out of the budget.  Fixtures are
seeded; every frozen tolerance was measured against an independent oracle
before being pinned here.
"""
import json
import re
import time

import numpy as np

from levyminmax.approx import build_surrogate, probe_shift_regularity
from levyminmax.calculus import dgrad, dhess, fit_order
from levyminmax.cli import main as cli_main
from levyminmax.clarke import jacobian_at, minmax_eval, representation_residual
from levyminmax.courrege import (RowFunctional, decompose, is_gcp,
                                 reconstruct_residual)
from levyminmax.cubes import cubes_at, partition_raw_sums
from levyminmax.grid import (DyadicGrid, GridFunction, RegularityClass,
                             SmoothFn, restrict, translate)
from levyminmax.levy import LevyMeasure, LevyOperator
from levyminmax.operators import (StripProblem, bellman, boundary_derivative,
                                  dtn_kernel, dtn_matrix, dtn_solve,
                                  fractional_laplacian, isaacs, levy_stencil,
                                  ma_infimum)
from levyminmax.whitney import extend, order_preservation_defect, project

QUAD = RegularityClass(2.0)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _levy_op(dim, diffusion=None, drift=None, zero=0.0, atoms=None,
             masses=None) -> LevyOperator:
    a = np.zeros((dim, dim)) if diffusion is None \
        else np.asarray(diffusion, dtype=float)
    b = np.zeros(dim) if drift is None else np.asarray(drift, dtype=float)
    if atoms is None:
        measure = LevyMeasure(np.zeros((0, dim)), np.zeros(0))
    else:
        measure = LevyMeasure(np.asarray(atoms, dtype=float),
                              np.asarray(masses, dtype=float))
    return LevyOperator(a, b, zero, measure)


def test_01_partition_of_unity_off_lattice():
    spacings = (1.0, 0.5, 0.25, 0.0625)
    rng = np.random.default_rng(1)
    warm = np.array([0.3, 0.4])
    cubes_at(warm, 1.0)
    partition_raw_sums(warm[None, :], 1.0)

    t0 = time.perf_counter()
    worst_dev = 0.0
    min_raw = np.inf
    lo_ratio, hi_ratio = np.inf, 0.0
    for dim in (1, 2):
        pts = rng.uniform(-2.0, 2.0, size=(5000, dim))
        for j, s in enumerate(spacings):
            sums = partition_raw_sums(pts[j::4], s)
            assert np.min(sums[:, 0]) > 0.0, "point snapped to a node"
            min_raw = min(min_raw, float(np.min(sums[:, 0])))
            worst_dev = max(worst_dev, float(np.max(np.abs(sums[:, 1] - 1.0))))
        for k, x in enumerate(pts):
            cov = cubes_at(x, spacings[k % 4])
            for q in cov.cubes:
                lo_ratio = min(lo_ratio, q.ratio)
                hi_ratio = max(hi_ratio, q.ratio)
    dt = time.perf_counter() - t0

    ok = (worst_dev <= 1e-10 and min_raw >= 1.0 - 1e-12
          and lo_ratio >= 1.0 - 1e-12 and hi_ratio <= 4.0 + 1e-12
          and dt < 10.0)
    _verdict(1, "partition of unity off the lattice", ok,
             f"sum dev {worst_dev:.2e}, raw min {min_raw:.3f}, "
             f"ratios [{lo_ratio:.3f}, {hi_ratio:.3f}], {dt:.2f}s")


def test_02_node_exactness_and_shift_equivariance():
    data_fn = SmoothFn(lambda x: float(np.sin(1.3 * x[0]))
                       + 0.4 * float(np.sum(np.asarray(x) ** 2)))
    g_warm = DyadicGrid(2, 1, 1.0)
    extend(restrict(data_fn, g_warm), QUAD)(np.array([0.3]))

    t0 = time.perf_counter()
    worst_node = 0.0
    for dim in (1, 2):
        g = DyadicGrid(3, dim, 1.0)
        v = restrict(data_fn, g)
        ext = extend(v, QUAD)
        for idx in g.indices():
            got = ext(g.point_of(idx))
            worst_node = max(worst_node, abs(got - v.value(idx)))

    g = DyadicGrid(3, 1, 2.0)
    u = restrict(data_fn, g)
    z = np.array([3])
    zh = 3.0 * g.spacing
    p_base = extend(u, QUAD)
    p_shift = extend(translate(u, z), QUAD)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.8, 0.8, size=(1000, 1))
    worst_eq = max(abs(p_shift(x) - p_base(x + zh)) for x in pts)
    dt = time.perf_counter() - t0

    ok = worst_node <= 1e-12 and worst_eq <= 1e-12 and dt < 10.0
    _verdict(2, "extension restriction exactness and equivariance", ok,
             f"node dev {worst_node:.2e}, shift dev {worst_eq:.2e}, {dt:.2f}s")


def test_03_polynomial_reproduction():
    rng = np.random.default_rng(7)
    worst_affine = 0.0
    worst_quad = 0.0
    for dim in (1, 2):
        g = DyadicGrid(3, dim, 1.0)
        a = rng.normal(size=dim)
        aff = SmoothFn(lambda x, a=a: float(a @ np.asarray(x)) + 0.7)
        m = rng.normal(size=(dim, dim))
        m = m + m.T
        c = rng.normal(size=dim)
        quad = SmoothFn(lambda x, m=m, c=c: float(
            0.5 * np.asarray(x) @ m @ np.asarray(x) + c @ np.asarray(x)) - 0.2)
        pts = rng.uniform(-0.8, 0.8, size=(200, dim))
        ext_a = extend(restrict(aff, g), RegularityClass(1.5))
        ext_q = extend(restrict(quad, g), RegularityClass(2.5))
        worst_affine = max(worst_affine,
                           max(abs(ext_a(x) - aff.value(x)) for x in pts))
        worst_quad = max(worst_quad,
                         max(abs(ext_q(x) - quad.value(x)) for x in pts))
    ok = worst_affine <= 1e-12 and worst_quad <= 1e-12
    _verdict(3, "affine and quadratic reproduction", ok,
             f"affine {worst_affine:.2e}, quadratic {worst_quad:.2e}")


def test_04_discrete_derivative_rates():
    smooth = SmoothFn(lambda x: float(np.sin(x[0])))
    rough = SmoothFn(lambda x: float(np.abs(x[0])) ** 2.5)
    levels = range(2, 7)
    g_warm = DyadicGrid(2, 1, 2.0)
    dgrad(restrict(smooth, g_warm), np.array([0]))

    t0 = time.perf_counter()
    grad_errs, hess_errs, spacings = [], [], []
    for n in levels:
        g = DyadicGrid(n, 1, 2.0)
        spacings.append(g.spacing)
        vs = restrict(smooth, g)
        vr = restrict(rough, g)
        ge, he = 0.0, 0.0
        for idx in g.indices():
            x = g.point_of(idx)[0]
            if abs(x) <= 1.0 and g.contains_index(idx + 1) \
                    and g.contains_index(idx - 1):
                ge = max(ge, abs(dgrad(vs, idx)[0] - np.cos(x)))
            if abs(x) <= 0.25 and g.contains_index(idx + 2):
                he = max(he, abs(dhess(vr, idx)[0, 0]
                                 - 3.75 * abs(x) ** 0.5))
        grad_errs.append(ge)
        hess_errs.append(he)
    grad_order, _ = fit_order(spacings, grad_errs)
    hess_order, _ = fit_order(spacings, hess_errs)
    dt = time.perf_counter() - t0

    ok = (abs(grad_order - 2.0) <= 0.1 and abs(hess_order - 0.5) <= 0.2
          and dt < 30.0)
    _verdict(4, "derivative stencil convergence rates", ok,
             f"grad order {grad_order:.3f}, hess order {hess_order:.3f}, "
             f"{dt:.2f}s")


def test_05_projection_error_decays():
    f = SmoothFn(lambda x: float(np.sin(1.3 * x[0])) + 0.4 * float(x[0]) ** 2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.8, 0.8, size=(400, 1))
    errs, spacings = [], []
    for n in range(2, 6):
        g = DyadicGrid(n, 1, 2.0)
        p = project(f, g, QUAD)
        errs.append(max(abs(p.value(x) - f.value(x)) for x in pts))
        spacings.append(g.spacing)
    gamma, _ = fit_order(spacings, errs)
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    ok = gamma > 0.5 and decreasing
    _verdict(5, "projection sup error decays with a positive rate", ok,
             f"errors {errs[0]:.2e} -> {errs[-1]:.2e}, rate {gamma:.3f}")


def test_06_order_preservation():
    low = SmoothFn(lambda x: float(np.sin(x[0])) - 1.5)
    high = SmoothFn(lambda x: float(np.sin(1.3 * x[0])))
    d_low = order_preservation_defect(low, high, DyadicGrid(3, 1, 1.0),
                                      RegularityClass(0.5),
                                      samples=400, seed=1)

    zero = SmoothFn(lambda x: 0.0 * float(x[0]))
    root = SmoothFn(lambda x: float(np.abs(x[0])) ** 0.5)
    defects, spacings = [], []
    for n in range(2, 6):
        g = DyadicGrid(n, 1, 1.0)
        defects.append(order_preservation_defect(zero, root, g, QUAD,
                                                 samples=400, seed=0))
        spacings.append(g.spacing)
    gamma, _ = fit_order(spacings, defects)
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))

    ok = d_low <= 1e-12 and gamma > 0.1 and decreasing
    _verdict(6, "order preservation across regularity classes", ok,
             f"low-class defect {d_low:.2e}, rough-family rate {gamma:.3f}")


def test_07_normal_form_roundtrip():
    g2 = DyadicGrid(4, 2, 1.0)
    lap = levy_stencil(g2, _levy_op(2, diffusion=np.eye(2)))
    row = lap.row((0, 0))
    dec = decompose(row)
    a_dev = float(np.max(np.abs(dec.a_matrix - np.eye(2))))
    b_dev = float(np.max(np.abs(dec.drift)))
    c_dev = abs(dec.zero_order)
    lap_res = reconstruct_residual(row, dec)

    pitch = 1.0 / 16.0
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(100 + case)
        dim = 1 + case % 2
        count = int(rng.integers(3, 9))
        seen, offs = set(), []
        while len(offs) < count:
            cand = tuple(int(v) for v in rng.integers(-24, 25, size=dim))
            if cand == (0,) * dim or cand in seen:
                continue
            seen.add(cand)
            offs.append(cand)
        offsets = pitch * np.array(offs, dtype=float)
        weights = rng.uniform(0.0, 5.0, size=count)
        center = -float(weights.sum()) - rng.uniform(0.0, 5.0)
        fuzz = RowFunctional(np.zeros(dim),
                             np.vstack([np.zeros((1, dim)), offsets]),
                             np.concatenate([[center], weights]))
        fdec = decompose(fuzz)
        assert fdec.gcp
        worst = max(worst, reconstruct_residual(fuzz, fdec, seed=case))

    ok = (a_dev <= 1e-12 and b_dev <= 1e-12 and c_dev <= 1e-12
          and lap_res <= 1e-10 and worst <= 1e-10)
    _verdict(7, "normal form of rows reconstructs exactly", ok,
             f"laplace (A,B,C) dev {max(a_dev, b_dev, c_dev):.2e}, "
             f"fuzz residual {worst:.2e}")


def test_08_comparison_sign_classification():
    fixtures = []
    for dim in (1, 2):
        g = DyadicGrid(4, dim, 1.0)
        drift_vec = np.array([1.0, -0.5])[:dim]
        atoms = np.array([[0.5, 0.25], [-0.75, 0.5]])[:, :dim]
        fixtures += [
            ("upwind drift", levy_stencil(
                g, _levy_op(dim, drift=drift_vec), drift="upwind"), True),
            ("second difference", levy_stencil(
                g, _levy_op(dim, diffusion=np.eye(dim))), True),
            ("pure jump", levy_stencil(
                g, _levy_op(dim, atoms=atoms, masses=[1.0, 2.0])), True),
            ("central drift", levy_stencil(
                g, _levy_op(dim, drift=drift_vec), drift="central"), False),
        ]
    missed = []
    for name, op, want in fixtures:
        center = tuple([0] * op.grid.dim)
        if op.is_monotone() != want or is_gcp(op.row(center)) != want:
            missed.append(f"{name} d={op.grid.dim}")
    ok = not missed
    _verdict(8, "comparison sign test classification", ok,
             f"{len(fixtures)} fixtures, "
             f"misclassified {missed if missed else 'none'}")


def test_09_envelope_tightness_and_active_rows():
    g = DyadicGrid(3, 1, 1.0)
    xs = g.points()[:, 0]
    m1 = levy_stencil(g, _levy_op(1, [[1.0]], [1.0], -0.5),
                      drift="upwind").matrix()
    m2 = levy_stencil(g, _levy_op(1, [[0.5]], [-1.0], -0.25),
                      drift="upwind").matrix()
    m3 = levy_stencil(g, _levy_op(1, [[0.8]], [0.5], -0.4),
                      drift="upwind").matrix()
    m4 = levy_stencil(g, _levy_op(1, [[1.2]], [-0.5], -0.6),
                      drift="upwind").matrix()
    s1 = np.sin(3.0 * xs)
    s2 = 0.4 * np.cos(2.0 * xs)
    s3 = 0.2 * xs
    s4 = -0.3 + 0.5 * np.sin(2.0 * xs + 0.4)
    bell = bellman([(m1, s1), (m2, s2)])
    game = isaacs([[(m1, s1), (m2, s2)], [(m3, s3), (m4, s4)]])

    u = np.exp(-4.0 * xs ** 2) \
        + 0.05 * np.random.default_rng(0).standard_normal(xs.size)
    rng = np.random.default_rng(42)
    probes = [u] + [u + 0.3 * 0.7 ** k * rng.standard_normal(u.size)
                    for k in range(63)]
    minmax_eval(bell, u, probes[:2])

    t0 = time.perf_counter()
    gap_b = minmax_eval(bell, u, probes).gap
    gap_i = minmax_eval(game, u, probes).gap

    node = np.arange(xs.size)
    forms = np.stack([m1 @ u + s1, m2 @ u + s2])
    jac_b = jacobian_at(bell, u)
    active_b = np.stack([m1, m2])[np.argmax(forms, axis=0), node]
    dev_b = float(np.max(np.abs(jac_b.matrix - active_b)))

    mats = np.stack([np.stack([m1, m2]), np.stack([m3, m4])])
    srcs = np.stack([np.stack([s1, s2]), np.stack([s3, s4])])
    inner_forms = np.einsum("jkab,b->jka", mats, u) + srcs
    j_star = np.argmin(np.max(inner_forms, axis=1), axis=0)
    k_star = np.argmax(inner_forms[j_star, :, node], axis=1)
    jac_i = jacobian_at(game, u)
    dev_i = float(np.max(np.abs(jac_i.matrix - mats[j_star, k_star, node])))
    dt = time.perf_counter() - t0

    ok = (gap_b <= 1e-8 and gap_i <= 1e-8 and dev_b <= 1e-8 and dev_i <= 1e-8
          and not jac_b.kink and not jac_i.kink and dt < 60.0)
    _verdict(9, "envelope gap and active-row differentials", ok,
             f"gaps {gap_b:.2e}/{gap_i:.2e}, row devs {dev_b:.2e}/{dev_i:.2e}, "
             f"{dt:.2f}s")


def test_10_representation_identity_fuzz():
    g = DyadicGrid(3, 1, 1.0)
    n = g.node_count
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng(500 + case)
        mat = np.zeros((n, n))
        for i in range(n):
            cols = [o for o in range(-4, 5) if o != 0 and 0 <= i + o < n]
            count = int(rng.integers(1, 5))
            for j in rng.choice(len(cols), size=min(count, len(cols)),
                                replace=False):
                mat[i, i + cols[j]] = rng.uniform(0.0, 8.0)
            mat[i, i] = -mat[i].sum() - rng.uniform(0.0, 2.0)
        data = rng.standard_normal(n)
        for _ in range(case % 3):
            data = np.convolve(data, [0.25, 0.5, 0.25], mode="same")
        res = representation_residual(lambda w: mat @ w, g, data, seed=case)
        worst = max(worst, res)
    ok = worst <= 1e-10
    _verdict(10, "representation identity under fuzzing", ok,
             f"worst row residual {worst:.2e} over 100 cases")


def test_11_measure_moments_and_positivity():
    vals = [fractional_laplacian(1.0, dim=1, spacing=2.0 ** -n,
                                 radius=8.0).measure.moment(2.0, 1.0)
            for n in range(2, 6)]
    mean = float(np.mean(vals))
    moment_dev = max(abs(v - mean) / mean for v in vals)

    bump = SmoothFn(lambda x: max(0.0, (x[0] - 0.3) * (0.7 - x[0])) ** 2)
    sites = np.concatenate([np.linspace(0.23, 0.37, 40),
                            np.linspace(0.63, 0.77, 40)])
    negs, spacings = [], []
    for n in range(2, 8):
        g = DyadicGrid(n, 1, 1.0)
        ext = extend(restrict(bump, g), QUAD)
        low = min(ext(np.array([s])) for s in sites)
        negs.append(max(0.0, -low))
        spacings.append(g.spacing)
    expo, _ = fit_order(spacings, negs)

    ok = moment_dev <= 0.10 and expo > 0.3 and negs[-1] < negs[0]
    _verdict(11, "moment uniformity and vanishing negative part", ok,
             f"moment dev {moment_dev:.1%}, negative-part rate {expo:.3f}")


def test_12_trace_infimum_closed_form():
    ma_infimum(np.eye(2), samples=2, seed=0)
    t0 = time.perf_counter()
    worst_eq = 0.0
    lower_ok = True
    for case in range(100):
        rng = np.random.default_rng(900 + case)
        d = 2 + case % 2
        w = rng.standard_normal((d, d))
        m = w @ w.T + 0.1 * np.eye(d)
        rep = ma_infimum(m, samples=30, seed=case)
        closed = d * float(np.linalg.det(m)) ** (1.0 / d)
        worst_eq = max(worst_eq, abs(rep.sampled - closed))
        lower_ok = lower_ok and rep.sampled >= closed - 1e-10
    dt = time.perf_counter() - t0
    ok = worst_eq <= 1e-10 and lower_ok and dt < 5.0
    _verdict(12, "trace infimum matches determinant form", ok,
             f"worst gap {worst_eq:.2e} over 100 matrices, {dt:.2f}s")


def test_13_strip_boundary_map():
    dtn_kernel(StripProblem(2.0 * np.pi, 10.0, 32, 16))
    p = StripProblem(2.0 * np.pi, 10.0, 256, 128)

    t0 = time.perf_counter()
    row = dtn_kernel(p)
    const_dev = abs(float(row.sum()) + 1.0 / p.height)
    kernel_min = float(np.min(row[1:]))

    mat = dtn_matrix(p)
    xg = p.x_nodes()
    mode_errs = []
    for m in (1, 2, 4):
        g = np.cos(m * xg)
        target = -m / np.tanh(m * p.height)
        mode_errs.append(float(np.max(np.abs(mat @ g - target * g))
                               / abs(target)))
    u = dtn_solve(p, np.cos(xg), method="direct")
    t1 = -1.0 / np.tanh(p.height)
    solve_err = float(np.max(np.abs(boundary_derivative(p, u)
                                    - t1 * np.cos(xg))) / abs(t1))

    x = np.arange(1, p.nx // 2) * p.dx
    keep = (x >= 0.2) & (x <= 2.0)
    slope = float(np.polyfit(np.log(x[keep]),
                             np.log(row[1:p.nx // 2][keep]), 1)[0])
    dt = time.perf_counter() - t0

    ok = (max(mode_errs) <= 0.02 and solve_err <= 0.02
          and const_dev <= 1e-8 and kernel_min >= -1e-8
          and abs(slope + 2.0) <= 0.3 and dt < 120.0)
    _verdict(13, "strip boundary map against closed-form rates", ok,
             f"modes {max(mode_errs):.1%}, const dev {const_dev:.1e}, "
             f"kernel min {kernel_min:.1e}, tail slope {slope:.2f}, {dt:.2f}s")


def test_14_shift_equivariance_probe():
    g = DyadicGrid(5, 1, 2.0)
    u = restrict(SmoothFn(lambda x: float(np.sin(1.3 * x[0]))
                          + 0.4 * float(x[0]) ** 2), g)
    shifts = [[1], [2], [4], [8]]

    const_src = build_surrogate(lambda f, x: f.hess(x)[0, 0], g, QUAD)
    omega = probe_shift_regularity(const_src, u, shifts, margin=2).omega

    varying = build_surrogate(
        lambda f, x: (2.0 + np.sin(np.pi * x[0])) * f.hess(x)[0, 0], g, QUAD)
    probe = probe_shift_regularity(varying, u, shifts, margin=2)
    dist = g.spacing * np.array([1, 2, 4, 8], dtype=float)
    slope = float(np.polyfit(np.log(dist), np.log(probe.defects), 1)[0])

    ok = omega <= 1e-10 and abs(slope - 1.0) <= 0.1
    _verdict(14, "shift probe separates frozen from varying rows", ok,
             f"frozen omega {omega:.2e}, varying slope {slope:.3f}")


def test_15_report_determinism(tmp_path):
    def stripped(path):
        text = path.read_text()
        return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)

    pairs = []
    for k in range(2):
        out_d = tmp_path / f"dec{k}.json"
        assert cli_main(["decompose", "--operator", "jump",
                         "--out", str(out_d)]) == 0
        out_m = tmp_path / f"mm{k}.json"
        assert cli_main(["minmax", "--level", "4", "--seed", "7",
                         "--out", str(out_m)]) == 0
        json.loads(out_d.read_text())
        json.loads(out_m.read_text())
        pairs.append((stripped(out_d), stripped(out_m)))

    ok = pairs[0] == pairs[1]
    _verdict(15, "reports are byte stable up to the timestamp", ok,
             "decompose and minmax reruns identical" if ok
             else "rerun output drifted")
