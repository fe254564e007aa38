"""The four workloads: inputs from a seed, the timed operations, their checks.

Each workload function takes the seed, generates every input, and returns a
list of ``Op``.  One round runs every op once, in order; the worker times
whole rounds.  Ops look up the program's functions at call time (module
attribute, class method), so the tracer's wrappers see the same calls the
untraced run makes.  Each op also has a small warm-up call that runs once
during set-up, which loads lazy imports and, with numba, compiles kernels.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from perfbench import checks


@dataclass
class Op:
    """One timed operation: its call, a warm-up call, and its output check."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    warm: Callable[[], object]


# --- extension ---------------------------------------------------------------

# (dim, level, points per call, cubes_at queries); box [-1, 1]^dim throughout
EXTENSION_SIZES = ((1, 4, 2000, 100), (2, 3, 1000, 100), (3, 2, 300, 60))
CASES = ((0, 0.5), (1, 1.5), (2, 2.5))   # regularity case, class exponent


def extension(seed: int, workdir: str) -> list:
    from levyminmax import cubes, whitney
    from levyminmax.grid import DyadicGrid, GridFunction, RegularityClass

    rng = np.random.default_rng([seed, 1])
    ops = []
    for d, level, m, queries in EXTENSION_SIZES:
        g = DyadicGrid(level, d, 1.0)
        h = g.spacing
        nodes = g.points()
        pts = rng.uniform(-1.0, 1.0, size=(m, d))
        inner = np.all(np.abs(pts) <= 1.0 - 2.0 * h, axis=1)
        c0 = float(rng.standard_normal())
        grad = rng.standard_normal(d)
        hs = rng.standard_normal((d, d))
        hess = hs + hs.T
        polys = {
            0: None,
            1: lambda x, c0=c0, grad=grad: c0 + x @ grad,
            2: lambda x, c0=c0, grad=grad, hess=hess:
                c0 + x @ grad + 0.5 * np.einsum("pi,ij,pj->p", x, hess, x),
        }
        shift = rng.integers(-2, 3, size=d)
        for case, beta in CASES:
            poly = polys[case]
            flat = (rng.standard_normal(g.node_count) if poly is None
                    else poly(nodes))
            ext = whitney.extend(GridFunction(g, flat.reshape(g.shape)),
                                 RegularityClass(beta))
            ops.append(Op(
                f"extend d={d} case={case}",
                call=lambda ext=ext, pts=pts: ext.values(pts),
                check=_extension_check(ext, flat, nodes, pts, inner, poly,
                                       shift, beta, f"extend d={d} case={case}"),
                warm=lambda ext=ext, pts=pts: ext.values(pts[:4])))
        ops.append(Op(
            f"partition d={d}",
            call=lambda pts=pts, h=h: cubes.partition_raw_sums(pts, h),
            check=checks.partition_totals,
            warm=lambda pts=pts, h=h: cubes.partition_raw_sums(pts[:4], h)))
        qpts = pts[:queries]
        ops.append(Op(
            f"cubes_at d={d} x{queries}",
            call=lambda qpts=qpts, h=h: [cubes.cubes_at(p, h) for p in qpts],
            check=lambda covers, qpts=qpts, h=h: [
                f for p, cov in zip(qpts, covers)
                for f in checks.cover_geometry(
                    p, h, [(q.generation, q.index, q.cell) for q in cov.cubes])],
            warm=lambda qpts=qpts, h=h: cubes.cubes_at(qpts[0], h)))
    return ops


def _extension_check(ext, flat, nodes, pts, inner, poly, shift, beta, what):
    from levyminmax import whitney
    from levyminmax.grid import GridFunction, RegularityClass

    def check(out):
        fails = checks.close(ext.values(nodes), flat, 1e-12, f"{what}: node data")
        if poly is None:
            fails += checks.within_bounds(out, min(flat.min(), 0.0),
                                          max(flat.max(), 0.0), what)
        else:
            fails += checks.close(out[inner], poly(pts[inner]), 1e-10,
                                  f"{what}: polynomial reproduction")
        # shifted data u'(i) = u(i - z), zero outside the box
        g = ext.grid
        vals = flat.reshape(g.shape)
        moved = np.zeros_like(vals)
        n = vals.shape[0]
        src = tuple(slice(max(0, -z), n - max(0, z)) for z in shift)
        dst = tuple(slice(max(0, z), n - max(0, -z)) for z in shift)
        moved[dst] = vals[src]
        other = whitney.extend(GridFunction(g, moved), RegularityClass(beta))
        reach = g.box_radius - (int(np.max(np.abs(shift))) + 3) * g.spacing
        far = np.all(np.abs(pts) <= reach, axis=1)
        fails += checks.close(other.values(pts[far] + shift * g.spacing),
                              out[far], 1e-10, f"{what}: shift equivariance")
        return fails
    return check


# --- envelope ----------------------------------------------------------------

def _monotone_kernel(rng, d: int, h: float) -> dict:
    """Random comparison kernel on the 3^d neighbourhood plus one axis jump."""
    ker = {}
    for off in np.ndindex(*(3,) * d):
        off = tuple(int(o) - 1 for o in off)
        if any(off):
            ker[off] = float(rng.uniform(0.2, 1.0)) / h ** 2
    jump = [0] * d
    jump[int(rng.integers(d))] = int(rng.choice([-2, 2]))
    ker[tuple(jump)] = float(rng.uniform(0.2, 1.0)) / h ** 2
    ker[(0,) * d] = -sum(ker.values()) - float(rng.uniform(0.0, 1.0))
    return ker


def _levy_operator(rng, d: int, offsets, h: float):
    """Diagonally dominant diffusion, drift, killing and lattice atoms."""
    from levyminmax.levy import LevyMeasure, LevyOperator

    a = np.diag(rng.uniform(0.6, 1.4, size=d))
    for k in range(d):
        for l in range(k + 1, d):
            a[k, l] = a[l, k] = float(rng.uniform(-0.2, 0.2))
    atoms = np.array(offsets, dtype=float) * h
    masses = rng.uniform(0.5, 2.0, size=len(offsets))
    return LevyOperator(a, rng.standard_normal(d), -float(rng.uniform(0.1, 1.0)),
                        LevyMeasure(atoms, masses))


def envelope(seed: int, workdir: str) -> list:
    from levyminmax import clarke, operators
    from levyminmax.grid import DyadicGrid
    from levyminmax.levy import LevyMeasure, LevyOperator

    rng = np.random.default_rng([seed, 2])
    ops = []

    # Pucci on convex data: every discrete Hessian, boundary rows included,
    # is positive definite (the shift C keeps the zero padding above the data)
    g = DyadicGrid(3, 2, 1.625)
    x = g.points()
    rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    q = rot @ np.diag(rng.uniform(0.5, 2.0, size=2)) @ rot.T
    v_convex = (0.5 * np.einsum("pi,ij,pj->p", x, q, x)
                + x @ rng.normal(0.0, 0.5, size=2) - 40.0)
    tiny = DyadicGrid(1, 2, 1.0)
    pucci = operators.pucci(g, 0.5, 2.0)
    pucci_tiny = operators.pucci(tiny, 0.5, 2.0)

    def pucci_check(jac):
        fails = [] if not jac.kink else ["pucci: kink flagged on convex data"]
        return fails + checks.close(jac.matrix @ v_convex, pucci(v_convex), 1e-6,
                                    "pucci: J v vs T v (1-homogeneous)")
    ops.append(Op("jacobian pucci n=729",
                  call=lambda: clarke.jacobian_at(pucci, v_convex),
                  check=pucci_check,
                  warm=lambda: clarke.jacobian_at(pucci_tiny, np.ones(25))))

    # linear stencil: J equals the kernel's matrix, J w = op(w)
    g2 = DyadicGrid(3, 2, 1.0)
    lin = operators.levy_stencil(
        g2, _levy_operator(rng, 2, [(2, 0), (-1, 3)], g2.spacing))
    v2 = rng.standard_normal(g2.node_count)
    w2 = rng.standard_normal(g2.node_count)
    lin_ref = checks.dense_matrix(lin.kernel, g2.shape)
    ops.append(Op("jacobian stencil n=289",
                  call=lambda: clarke.jacobian_at(lin, v2),
                  check=lambda jac: (
                      checks.close(jac.matrix, lin_ref, 1e-6, "stencil: J vs kernel",
                                   float(np.abs(lin_ref).sum(axis=1).max()))
                      + checks.linear_jacobian(jac.matrix, w2, lin(w2), "stencil")),
                  warm=lambda: lin(v2)))

    # Bellman and Isaacs envelopes of four random comparison stencils
    kernels = [_monotone_kernel(rng, 2, g2.spacing) for _ in range(4)]
    terms = [operators.StencilOperator(g2, k) for k in kernels]
    mats = [checks.dense_matrix(k, g2.shape) for k in kernels]
    shifts = [100.0 * rng.standard_normal(g2.node_count) for _ in range(4)]
    bell = operators.bellman(list(zip(terms[:2], shifts[:2])))
    game = operators.isaacs([list(zip(terms[:2], shifts[:2])),
                             list(zip(terms[2:], shifts[2:]))])
    vb = rng.standard_normal(g2.node_count)
    for name, op, teams in (
            ("bellman", bell, [list(zip(mats[:2], shifts[:2]))]),
            ("isaacs", game, [list(zip(mats[:2], shifts[:2])),
                              list(zip(mats[2:], shifts[2:]))])):
        ops.append(Op(f"jacobian {name} n=289",
                      call=lambda op=op: clarke.jacobian_at(op, vb),
                      check=lambda jac, teams=teams, name=name: checks.active_rows(
                          jac.matrix, vb, teams, jac.step, name),
                      warm=lambda op=op: op(vb)))

    # the `levymm minmax` envelope: gap of the min-max form
    g1 = DyadicGrid(4, 1, 1.0)
    one = np.array([[1.0]])
    left = operators.levy_stencil(g1, LevyOperator(one, np.array([-1.0]), -0.5,
                                                   LevyMeasure.empty(1)))
    right = operators.levy_stencil(g1, LevyOperator(one, np.array([1.0]), -0.5,
                                                    LevyMeasure.empty(1)))
    mm = operators.bellman([left, right])
    x1 = g1.points()[:, 0]
    u1 = np.exp(-4.0 * x1 ** 2) + 0.05 * rng.standard_normal(x1.size)
    probes = [u1] + [u1 + 0.1 ** k * rng.standard_normal(x1.size) for k in (1, 2)]

    def gap_check(rep):
        # convex envelope: every probe's inner layer lies above T(u), and the
        # probe u itself reproduces T(u), so the gap is rounding only
        scale = float(np.max(np.abs(rep.direct)))
        fails = checks.close(rep.direct, mm(u1), 0.0, "minmax: direct vs T u")
        if rep.gap > 1e-9 * scale:
            fails.append(f"minmax: gap {rep.gap:.3e} > 1e-9 * max|T u| {scale:.3e}")
        if float(np.min(rep.values - rep.direct)) < -1e-9 * scale:
            fails.append("minmax: min-max value below T u")
        return fails
    ops.append(Op("minmax_eval levymm envelope n=33",
                  call=lambda: clarke.minmax_eval(mm, u1, probes),
                  check=gap_check,
                  warm=lambda: clarke.minmax_eval(mm, u1, probes[:1], count=2)))

    # coefficient fields of a 3-d Levy stencil, and the reconstruction identity
    g3 = DyadicGrid(1, 3, 1.5)
    st = operators.levy_stencil(
        g3, _levy_operator(rng, 3, [(1, 0, 0), (0, -2, 0), (1, 1, 0)], g3.spacing))
    v3 = rng.standard_normal(g3.node_count)
    fields_box = {}   # the residual op reuses this round's fields, as callers do

    def fields_call():
        fields_box["f"] = clarke.coefficient_fields(st, g3, v3)
        return fields_box["f"]

    def fields_check(f):
        return (checks.sign_test([dec.atom_weights for dec in f.decompositions],
                                 f.gcp_field, "fields")
                + checks.kernel_fields(f.c_field, f.b_field, st.kernel, g3.shape,
                                       g3.spacing, "fields"))
    scale3 = float(sum(abs(w) for w in st.kernel.values()))
    g3_tiny = DyadicGrid(1, 3, 0.5)
    st_tiny = operators.levy_stencil(g3_tiny, LevyOperator(
        np.eye(3), np.zeros(3), -1.0, LevyMeasure.empty(3)))
    v3_tiny = np.ones(g3_tiny.node_count)
    ops.append(Op("coefficient_fields 3-d n=343", call=fields_call,
                  check=fields_check,
                  warm=lambda: clarke.coefficient_fields(st_tiny, g3_tiny, v3_tiny)))
    ops.append(Op("representation_residual 3-d n=343",
                  call=lambda: clarke.representation_residual(
                      st, g3, v3, fields=fields_box["f"]),
                  check=lambda res: [] if res <= 1e-9 * scale3 else [
                      f"residual {res:.3e} > 1e-9 * {scale3:.3e}"],
                  warm=lambda: clarke.representation_residual(st_tiny, g3_tiny,
                                                              v3_tiny)))
    return ops


# --- surrogate ---------------------------------------------------------------

def _bell(rng, d: int):
    """Seeded Gaussian bump with exact derivatives and closed-form sources."""
    from levyminmax.grid import RegularityClass, SmoothFn

    amp = float(rng.uniform(0.5, 2.0))
    beta = float(rng.uniform(0.8, 1.2))
    centre = rng.uniform(-0.1, 0.1, size=d)

    def val(x):
        r = np.asarray(x, dtype=float) - centre
        return amp * math.exp(-beta * float(r @ r))

    def grad(x):
        return -2.0 * beta * (np.asarray(x, dtype=float) - centre) * val(x)

    def hess(x):
        r = np.asarray(x, dtype=float) - centre
        return (4.0 * beta ** 2 * np.outer(r, r) - 2.0 * beta * np.eye(d)) * val(x)

    def vals(pts):
        r = np.asarray(pts, dtype=float) - centre
        return amp * np.exp(-beta * np.sum(r * r, axis=1))

    def trace(pts):
        r = np.asarray(pts, dtype=float) - centre
        r2 = np.sum(r * r, axis=1)
        return (4.0 * beta ** 2 * r2 - 2.0 * beta * d) * vals(pts)

    fn = SmoothFn(val, grad, hess, RegularityClass(2.0), name="bell")
    return fn, vals, trace, centre, beta


JUMP_ATOMS = ((0.3, 1.0), (1.2, 0.5))   # (y, mass) of the `levymm converge` source


def _sources():
    """The three `levymm converge` sources, written against the public API."""
    from levyminmax.levy import LevyMeasure, LevyOperator, evaluate

    jump_op = LevyOperator(np.zeros((1, 1)), np.zeros(1), 0.0,
                           LevyMeasure(np.array([[y] for y, _ in JUMP_ATOMS]),
                                       np.array([m for _, m in JUMP_ATOMS])))

    def identity(fn, x):
        return fn.value(x)

    def trace(fn, x):
        return float(np.trace(fn.hess(x)))

    def jump(fn, x):
        return evaluate(jump_op, fn, x)

    return {"identity": identity, "trace": trace, "jump": jump}


SWEEP_LEVELS = (3, 4, 5, 6)
# source: (box radius, radius of the nodes the error is taken over)
SWEEPS = {"trace": (1.0, 0.5), "jump": (4.0, 0.5), "identity": (1.0, 1.0)}


def surrogate(seed: int, workdir: str) -> list:
    from levyminmax import approx, clarke
    from levyminmax.grid import DyadicGrid, restrict

    rng = np.random.default_rng([seed, 3])
    src = _sources()
    fn1, vals1, trace1, centre1, beta1 = _bell(rng, 1)
    fn2, _, trace2, _, _ = _bell(rng, 2)

    def jump_exact(pts):
        x = pts[:, 0]
        base = vals1(pts)
        slope = -2.0 * beta1 * (x - centre1[0]) * base
        out = np.zeros_like(base)
        for y, m in JUMP_ATOMS:
            out += m * (vals1(pts + y) - base - (abs(y) < 1.0) * slope * y)
        return out

    exact = {"trace": trace1, "jump": jump_exact, "identity": vals1}
    ops = []
    for name, (box, region) in SWEEPS.items():
        grids = [DyadicGrid(lv, 1, box) for lv in SWEEP_LEVELS]
        data = [restrict(fn1, g).flat() for g in grids]

        def sweep(name=name, grids=grids, data=data):
            return [approx.build_surrogate(src[name], g)(v)
                    for g, v in zip(grids, data)]

        def sweep_check(outs, name=name, grids=grids, data=data, region=region):
            errs, fails = [], []
            for g, v, out in zip(grids, data, outs):
                pts = g.points()
                mask = np.max(np.abs(pts), axis=1) <= region + 1e-12
                errs.append(float(np.max(np.abs(out[mask] - exact[name](pts[mask])))))
                if name == "identity":
                    fails += checks.close(out, v, 1e-13, "identity: node values")
            if name != "identity":
                fails += checks.fitted_rate([g.spacing for g in grids], errs, 0.9,
                                            f"{name} sweep")
            return fails
        ops.append(Op(f"surrogate sweep {name} levels 3-6", call=sweep,
                      check=sweep_check,
                      warm=lambda name=name, g=grids[0], v=data[0]:
                      approx.build_surrogate(src[name], g)(v)))

    study_levels = (2, 3, 4)

    def study_check(study):
        errs = []
        for lv in study_levels:
            g = DyadicGrid(lv, 2, 1.0)
            pts = g.points()
            out = approx.build_surrogate(src["trace"], g)(restrict(fn2, g).flat())
            mask = np.max(np.abs(pts), axis=1) <= 0.5 + 1e-12
            errs.append(float(np.max(np.abs(out[mask] - trace2(pts[mask])))))
        return (checks.close(study.errors, errs, 1e-8, "study: errors vs own",
                             max(errs))
                + checks.fitted_rate([2.0 ** -lv for lv in study_levels], errs, 0.9,
                                     "study trace 2-d"))
    ops.append(Op("convergence_study trace 2-d levels 2-4",
                  call=lambda: approx.convergence_study(
                      src["trace"], fn2, study_levels, dim=2, box_radius=1.0),
                  check=study_check,
                  warm=lambda: approx.convergence_study(
                      src["identity"], fn1, (1, 2, 3), dim=1, box_radius=1.0)))

    for name, g, fn in (("trace", DyadicGrid(4, 1, 1.0), fn1),
                        ("jump", DyadicGrid(2, 1, 2.0), fn1),
                        ("identity", DyadicGrid(4, 1, 1.0), fn1),
                        ("trace", DyadicGrid(1, 2, 1.0), fn2)):
        v = restrict(fn, g).flat()
        w = rng.standard_normal(g.node_count)
        what = f"jacobian {name} {g.dim}-d n={g.node_count}"

        # the surrogate is built inside the op, so traced runs see its source
        def jac_call(name=name, g=g, v=v):
            return clarke.jacobian_at(approx.build_surrogate(src[name], g), v)

        def jac_check(jac, name=name, g=g, w=w, what=what):
            fails = [f"{what}: kink flagged on a linear map"] if jac.kink else []
            s = approx.build_surrogate(src[name], g)
            return fails + checks.linear_jacobian(jac.matrix, w, s(w), what)
        ops.append(Op(what, call=jac_call, check=jac_check,
                      warm=lambda name=name, g=g, v=v:
                      approx.build_surrogate(src[name], g)(v)))
    return ops


# --- cli -----------------------------------------------------------------------

def _frac_row(beta: float, dim: int, level: int, radius: float = 2.0):
    """Atom count, row sum and absolute weight of the `frac` stencil row."""
    h = 2.0 ** -level
    n = int(radius / h)
    ax = np.arange(-n, n + 1)
    k = np.stack(np.meshgrid(*([ax] * dim), indexing="ij"), -1).reshape(-1, dim)
    k2 = np.sum(k * k, axis=1)
    k = k[(k2 > 0) & (k2 <= n * n)]
    c = (2.0 ** beta * math.gamma((dim + beta) / 2.0)
         / (math.pi ** (dim / 2.0) * abs(math.gamma(-beta / 2.0))))
    masses = c * h ** dim / (np.linalg.norm(k * h, axis=1) ** (dim + beta))
    surface = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    tail = c * surface / (beta * radius ** beta)
    return k.shape[0], -tail, 2.0 * float(masses.sum()) + tail


def cli_workload(seed: int, workdir: str) -> list:
    from levyminmax import cli, operators

    rng = np.random.default_rng([seed, 4])

    def run(args):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(args)

    def report(path):
        with open(path) as f:
            return json.load(f)

    ops = []
    for dim, level in ((2, 4), (3, 2)):
        beta = round(float(rng.uniform(0.5, 1.5)), 6)
        out = os.path.join(workdir, f"decompose{dim}.json")
        args = ["decompose", "--operator", "frac", "--dim", str(dim), "--level",
                str(level), "--beta", repr(beta), "--seed", str(seed), "--out", out]

        def dec_check(rc, out=out, beta=beta, dim=dim, level=level):
            if rc != 0:
                return [f"decompose frac {dim}-d: exit {rc}"]
            r = report(out)
            atoms, c_want, scale = _frac_row(beta, dim, level)
            fails = checks.close(r["C"], c_want, 1e-9, "decompose: C vs row sum",
                                 scale)
            fails += checks.close(r["B"], np.zeros(dim), 1e-9,
                                  "decompose: B of a symmetric row", scale)
            if r["atom_count"] != atoms:
                fails.append(f"decompose: {r['atom_count']} atoms, want {atoms}")
            if not (r["gcp"] and r["reconstruction"] <= 1e-8):
                fails.append(f"decompose: gcp {r['gcp']} reconstruction "
                             f"{r['reconstruction']:.3e}")
            return fails
        ops.append(Op(f"levymm decompose frac {dim}-d level {level}",
                      call=lambda args=args: run(args), check=dec_check,
                      warm=lambda out=out, dim=dim: run(
                          ["decompose", "--operator", "frac", "--dim", str(dim),
                           "--level", "1", "--out", out])))

    mm_out = os.path.join(workdir, "minmax.json")

    def minmax_check(rc):
        if rc != 0:
            return [f"minmax: exit {rc}"]
        r = report(mm_out)
        h = 2.0 ** -4
        bound = 4.0 / h ** 2 + 2.0 / h + 0.5   # largest row abs sum of a term
        fails = []
        if not (0.0 < r["rho_hat"] <= bound * (1.0 + 1e-12)):
            fails.append(f"minmax: rho_hat {r['rho_hat']} outside (0, {bound}]")
        if r["omega"] != r["gaps"][-1] or r["omega"] > 1e-8 or min(r["gaps"]) < 0.0:
            fails.append(f"minmax: gaps {r['gaps']}")
        return fails
    # the documented `--seed 7`, not the workload seed: the command's probe
    # test fails on some data seeds (27 at level 4), which CHANGES.md records
    ops.append(Op("levymm minmax level 4",
                  call=lambda: run(["minmax", "--level", "4", "--seed", "7",
                                    "--out", mm_out]),
                  check=minmax_check,
                  warm=lambda: run(["minmax", "--level", "2", "--out", mm_out])))

    for name, dim, level in (("trace", 2, 5), ("jump", 1, 6)):
        out = os.path.join(workdir, f"converge-{name}.json")

        def conv_check(rc, out=out, name=name, level=level):
            if rc != 0:
                return [f"converge {name}: exit {rc}"]
            r = report(out)
            levels = list(range(3, level + 1))
            h = [2.0 ** -lv for lv in levels]
            fails = [] if (r["levels"] == levels and r["spacings"] == h) else [
                f"converge {name}: levels/spacings {r['levels']} {r['spacings']}"]
            order = float(np.polyfit(np.log(h), np.log(r["errors"]), 1)[0])
            fails += checks.close(r["order"], order, 1e-9,
                                  f"converge {name}: order vs own fit")
            return fails + checks.fitted_rate(h, r["errors"], 0.9,
                                              f"converge {name}")
        ops.append(Op(f"levymm converge {name} {dim}-d level {level}",
                      call=lambda name=name, dim=dim, level=level, out=out: run(
                          ["converge", "--operator", name, "--dim", str(dim),
                           "--level", str(level), "--out", out]),
                      check=conv_check,
                      warm=lambda name=name, out=out: run(
                          ["converge", "--operator", name, "--level", "5",
                           "--out", out])))

    level = 11
    height = round(float(rng.uniform(6.0, 10.0)), 6)
    cfg = os.path.join(workdir, "dtn-config.json")
    with open(cfg, "w") as f:
        json.dump({"height": height}, f)
    dtn_out = os.path.join(workdir, "dtn.json")

    def dtn_check(rc):
        if rc != 0:
            return [f"dtn: exit {rc}"]
        r = report(dtn_out)
        p = operators.StripProblem(width=2.0 * math.pi, height=height,
                                   nx=2 ** level, ny=2 ** (level - 1))
        x = p.x_nodes()
        fails = []
        for k in (1, 2, 4):
            kappa = 2.0 * math.pi * k / p.width
            g = np.cos(kappa * x)
            want = -kappa / math.tanh(kappa * height) * g
            err = float(np.max(np.abs(operators.dtn_apply(p, g) - want)) / kappa)
            fails += checks.close(r["mode_errors"][str(k)], err, 1e-9,
                                  f"dtn: mode {k} error", err)
            if err > 0.02:
                fails.append(f"dtn: mode {k} error {err:.3e} > 0.02")
        row = operators.dtn_kernel(p)
        dev = abs(float(row.sum()) + 1.0 / height)
        if dev > 1e-10 or r["row_sum_deviation"] > 1e-10:
            fails.append(f"dtn: row sum off -1/H by {dev:.3e}")
        if float(np.min(row[1:])) < -1e-12 or r["kernel_min"] < -1e-12:
            fails.append("dtn: negative off-centre kernel entry")
        return fails
    ops.append(Op(f"levymm dtn level {level}",
                  call=lambda: run(["dtn", "--level", str(level), "--config", cfg,
                                    "--out", dtn_out]),
                  check=dtn_check,
                  warm=lambda: run(["dtn", "--level", "4", "--out", dtn_out])))
    return ops


WORKLOADS = {"extension": extension, "envelope": envelope,
             "surrogate": surrogate, "cli": cli_workload}
