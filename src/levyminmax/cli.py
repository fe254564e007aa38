"""Command line front end.

Four subcommands, each emitting a deterministic JSON report (identical
bytes for identical arguments, apart from the generated_at stamp) and a
one-line PASS/FAIL summary.  The exit code is 0 exactly when the
command's tolerance check passes.

    levymm decompose --operator jump --level 4 --dim 1
    levymm minmax --level 4 --seed 7
    levymm converge --operator trace --level 6
    levymm dtn --level 8 --tol 0.02
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .approx import convergence_study, probe_lipschitz, probe_tightness
from .courrege import RowFunctional, decompose, reconstruct_residual
from .grid import DyadicGrid, GridError, RegularityClass, SmoothFn
from .levy import LevyMeasure, LevyOperator
from .operators import (
    StripProblem,
    bellman,
    dtn_apply,
    dtn_kernel,
    fractional_laplacian,
    levy_stencil,
)

OPERATOR_NAMES = ("laplace", "advect", "jump", "frac")
SOURCE_NAMES = ("identity", "trace", "jump")


def _named_operator(name: str, dim: int, beta: float,
                    spacing: float) -> LevyOperator:
    eye = np.eye(dim)
    e1 = np.zeros(dim)
    e1[0] = 1.0
    if name == "laplace":
        return LevyOperator(eye, np.zeros(dim), 0.0, LevyMeasure.empty(dim))
    if name == "advect":
        return LevyOperator(np.zeros((dim, dim)), e1, 0.0,
                            LevyMeasure.empty(dim))
    if name == "jump":
        atoms = np.stack([0.5 * e1, -0.75 * e1, 1.5 * e1])
        masses = np.array([2.0, 1.0, 0.5])
        return LevyOperator(eye, 0.4 * e1, -0.3, LevyMeasure(atoms, masses))
    if name == "frac":
        return fractional_laplacian(beta, dim=dim, spacing=spacing, radius=2.0)
    raise GridError(f"unknown operator {name!r}; pick from {OPERATOR_NAMES}")


def _kernel_row(stencil) -> RowFunctional:
    """The full functional a stencil applies at an interior node."""
    h = stencil.grid.spacing
    offs = np.array([list(o) for o in stencil.kernel], dtype=float) * h
    wts = np.array(list(stencil.kernel.values()))
    return RowFunctional(np.zeros(stencil.grid.dim), offs, wts)


def _row_from_config(path: str) -> RowFunctional:
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise GridError(f"row config {path} must hold a JSON object, "
                        f"got {type(cfg).__name__}")
    return RowFunctional(np.asarray(cfg["base_point"], dtype=float),
                         np.asarray(cfg["offsets"], dtype=float),
                         np.asarray(cfg["weights"], dtype=float))


def _emit(report: dict, summary: str, out: str | None) -> None:
    report["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    print(summary)


def cmd_decompose(args) -> int:
    if args.config:
        row = _row_from_config(args.config)
        name = "config"
    else:
        grid = DyadicGrid(args.level, args.dim)
        op = _named_operator(args.operator, args.dim, args.beta, grid.spacing)
        row = _kernel_row(levy_stencil(grid, op))
        name = args.operator
    dec = decompose(row)
    residual = reconstruct_residual(row, dec, seed=args.seed)
    report = json.loads(dec.to_json())
    report.update({
        "operator": name,
        "level": args.level,
        "dim": args.dim,
        "pitch": row.pitch,
        "delta_floor": dec.delta_floor,
        "atom_count": len(dec.atom_weights),
        "reconstruction": residual,
    })
    ok = residual <= args.tol
    _emit(report, f"decompose {name} level={args.level}: residual "
                  f"{residual:.3e} gcp={dec.gcp} "
                  f"{'PASS' if ok else 'FAIL'}", args.out)
    return 0 if ok else 1


def cmd_minmax(args) -> int:
    grid = DyadicGrid(args.level, 1, box_radius=1.0)
    base = np.array([[1.0]])
    left = levy_stencil(grid, LevyOperator(base, np.array([-1.0]), -0.5,
                                           LevyMeasure.empty(1)))
    right = levy_stencil(grid, LevyOperator(base, np.array([1.0]), -0.5,
                                            LevyMeasure.empty(1)))
    op = bellman([left, right])
    x = grid.points()[:, 0]
    rng = np.random.default_rng(args.seed)
    u = np.exp(-4.0 * x ** 2) + 0.05 * rng.standard_normal(x.size)
    tight = probe_tightness(op, u, count=6, seed=args.seed)
    rho = probe_lipschitz(op, grid.node_count, samples=12, seed=args.seed)
    report = {
        "level": args.level,
        "seed": args.seed,
        "gaps": [float(g) for g in tight.gaps],
        "omega": float(tight.omega),
        "rho_hat": float(rho.rho_hat),
    }
    ok = tight.omega <= args.tol
    _emit(report, f"minmax level={args.level} seed={args.seed}: gap "
                  f"{tight.omega:.3e} {'PASS' if ok else 'FAIL'}", args.out)
    return 0 if ok else 1


def _bell(dim: int) -> SmoothFn:
    def val(x):
        return math.exp(-float(x @ x))

    def grad(x):
        return -2.0 * x * val(x)

    def hess(x):
        d = x.size
        return (4.0 * np.outer(x, x) - 2.0 * np.eye(d)) * val(x)

    return SmoothFn(val, grad, hess, RegularityClass(2.0), name="bell")


def _named_source(name: str):
    if name == "identity":
        return (lambda fn, x: fn.value(x)), 1.0, None
    if name == "trace":
        return (lambda fn, x: float(np.trace(fn.hess(x)))), 1.0, None
    if name == "jump":
        op = LevyOperator(np.zeros((1, 1)), np.zeros(1), 0.0,
                          LevyMeasure(np.array([[0.3], [1.2]]),
                                      np.array([1.0, 0.5])))
        from .levy import evaluate

        return (lambda fn, x: evaluate(op, fn, x)), 4.0, 0.5
    raise GridError(f"unknown source {name!r}; pick from {SOURCE_NAMES}")


def cmd_converge(args) -> int:
    if args.level < 5:
        raise GridError("need --level >= 5 for a three-point rate fit")
    source, box, region = _named_source(args.operator)
    study = convergence_study(source, _bell(args.dim), range(3, args.level + 1),
                              dim=args.dim, box_radius=box,
                              region_radius=region)
    report = {
        "operator": args.operator,
        "dim": args.dim,
        "levels": study.levels,
        "spacings": study.spacings,
        "errors": study.errors,
        "order": study.order,
        "exact": study.exact,
    }
    ok = study.exact or (study.order is not None and study.order >= args.tol)
    shown = "exact" if study.exact else f"order {study.order:.2f}"
    _emit(report, f"converge {args.operator} levels 3..{args.level}: {shown} "
                  f"{'PASS' if ok else 'FAIL'}", args.out)
    return 0 if ok else 1


def cmd_dtn(args) -> int:
    cfg = {"width": 2.0 * math.pi, "height": 10.0,
           "nx": 2 ** args.level, "ny": 2 ** (args.level - 1),
           "modes": [1, 2, 4]}
    if args.config:
        with open(args.config) as f:
            cfg.update(json.load(f))
    p = StripProblem(width=cfg["width"], height=cfg["height"],
                     nx=int(cfg["nx"]), ny=int(cfg["ny"]))
    x = p.x_nodes()
    errors = {}
    for k in cfg["modes"]:
        kappa = 2.0 * math.pi * k / p.width
        g = np.cos(kappa * x)
        exact = -kappa / math.tanh(kappa * p.height) * g
        rel = float(np.max(np.abs(dtn_apply(p, g) - exact)) / kappa)
        errors[str(k)] = rel
    row = dtn_kernel(p)
    row_sum_dev = float(abs(row.sum() + 1.0 / p.height))
    kernel_min = float(np.min(np.delete(row, 0)))
    report = {
        "width": p.width, "height": p.height, "nx": p.nx, "ny": p.ny,
        "mode_errors": errors,
        "row_sum_deviation": row_sum_dev,
        "kernel_min": kernel_min,
    }
    worst = max(errors.values())
    ok = (worst <= args.tol and row_sum_dev <= 1e-10 and kernel_min >= -1e-12)
    _emit(report, f"dtn nx={p.nx} ny={p.ny}: worst mode error {worst:.3e} "
                  f"{'PASS' if ok else 'FAIL'}", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levymm",
        description="decompose, verify and study monotone operator stencils")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol):
        p.add_argument("--level", type=int, default=4,
                       help="dyadic refinement level (spacing 2**-level)")
        p.add_argument("--dim", type=int, default=1)
        p.add_argument("--beta", type=float, default=1.0,
                       help="fractional order for the frac operator")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument("--operator", default="laplace")
        p.add_argument("--config", help="JSON file of extra inputs")
        p.add_argument("--tol", type=float, default=tol)

    p = sub.add_parser("decompose",
                       help="split a stencil row into drift, diffusion, jumps")
    common(p, 1e-8)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("minmax", help="probe the min-max gap of an envelope")
    common(p, 1e-8)
    p.set_defaults(func=cmd_minmax)

    p = sub.add_parser("converge", help="surrogate consistency rate study")
    common(p, 0.9)
    p.set_defaults(func=cmd_converge, operator="trace", level=6)

    p = sub.add_parser("dtn", help="strip boundary map against continuum modes")
    common(p, 0.02)
    p.set_defaults(func=cmd_dtn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GridError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
