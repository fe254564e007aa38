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
from .grid import (_NODE_CAPS, _STRIP_LEVEL_CAP, _STRIP_NODE_CAP, DyadicGrid,
                   GridError, RegularityClass, SmoothFn)
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
# converge source: (box radius, radius of the nodes the error is taken over;
# None for half the box).  The jump source's region keeps x + 1.2 e1 in the box.
SOURCE_BOXES = {"identity": (1.0, None), "trace": (1.0, None),
                "jump": (4.0, 0.5)}
# decompose's grid flags and their values when unset; a --config row builds
# no grid and refuses every one of them that is set
GRID_FLAGS = {"operator": "laplace", "level": 4, "dim": 1, "beta": 1.0}


def _grid(cmd: str, level: int, dim: int, box: float | None = None) -> DyadicGrid:
    """The command's grid; box None is the default radius 2**level.

    A --level whose grid would exceed the node cap is refused naming the
    flag and the largest level the cap allows in that dimension.
    """
    if dim in _NODE_CAPS and level >= 0:
        top = -1
        for k in range(level + 1):
            half = 4 ** k if box is None else round(box * 2 ** k)
            if (2 * half + 1) ** dim > _NODE_CAPS[dim]:
                raise GridError(f"{cmd} --level {level}: the {dim}-d grid "
                                f"exceeds the desk-scale node cap "
                                f"{_NODE_CAPS[dim]} above --level {top}")
            top = k
    return DyadicGrid(level, dim, -1.0 if box is None else box)


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


def _load_config(path: str, what: str) -> dict:
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise GridError(f"{what} config {path} must hold a JSON object, "
                        f"got {type(cfg).__name__}")
    return cfg


def _row_from_config(path: str) -> RowFunctional:
    cfg = _load_config(path, "row")
    keys = ("base_point", "offsets", "weights")
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise GridError(f"row config {path} lacks {', '.join(missing)}")
    fields = []
    for k in keys:
        try:
            fields.append(np.asarray(cfg[k], dtype=float))
        except (TypeError, ValueError):
            raise GridError(f"row config field {k} must be numeric: a "
                            f"rectangular list of numbers") from None
    return RowFunctional(*fields)


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
    # a config row comes with no grid: it has a dimension but no level
    if args.config:
        given = [k for k in GRID_FLAGS if getattr(args, k) is not None]
        if given:
            raise GridError(f"decompose --config builds no grid, so it takes "
                            f"no --{given[0]}: the row file fixes the row")
        row = _row_from_config(args.config)
        name, level = "config", None
    else:
        name, level, dim, beta = (
            GRID_FLAGS[k] if getattr(args, k) is None else getattr(args, k)
            for k in GRID_FLAGS)
        grid = _grid("decompose", level, dim)
        row = _kernel_row(levy_stencil(
            grid, _named_operator(name, dim, beta, grid.spacing)))
    dec = decompose(row)
    # the seed-0 check is the report's residual; another seed adds its own
    seed0 = reconstruct_residual(row, dec)
    residual = seed0 if args.seed == 0 else reconstruct_residual(
        row, dec, seed=args.seed)
    report = dec.report()
    report.update({
        "operator": name,
        "level": level,
        "dim": row.dim,
        "pitch": row.pitch,
        "delta_floor": dec.delta_floor,
        "atom_count": len(dec.atom_weights),
        "residual": seed0,
        "reconstruction": residual,
    })
    ok = residual <= args.tol
    shown = name if level is None else f"{name} level={level}"
    _emit(report, f"decompose {shown}: residual {residual:.3e} gcp={dec.gcp} "
                  f"{'PASS' if ok else 'FAIL'}", args.out)
    return 0 if ok else 1


def cmd_minmax(args) -> int:
    grid = _grid("minmax", args.level, 1, 1.0)
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
        "kink_rows": tight.kink_rows.tolist(),
        "rho_hat": float(rho.rho_hat),
    }
    ok = tight.omega <= args.tol
    _emit(report, f"minmax level={args.level} seed={args.seed}: gap "
                  f"{tight.omega:.3e} over {len(tight.gaps)} probes, "
                  f"{len(tight.kink_rows)} kink rows "
                  f"{'PASS' if ok else 'FAIL'}", args.out)
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


def _named_source(name: str, dim: int) -> LevyOperator:
    """The `converge` source of that name, one of SOURCE_BOXES, in dim."""
    zeros = np.zeros((dim, dim))
    if name == "identity":
        return LevyOperator(zeros, np.zeros(dim), 1.0, LevyMeasure.empty(dim))
    if name == "trace":
        return LevyOperator(np.eye(dim), np.zeros(dim), 0.0,
                            LevyMeasure.empty(dim))
    # jump: atoms along e1, as `decompose --operator jump` places them
    e1 = np.eye(1, dim)[0]
    return LevyOperator(zeros, np.zeros(dim), 0.0,
                        LevyMeasure(np.stack([0.3 * e1, 1.2 * e1]),
                                    np.array([1.0, 0.5])))


def cmd_converge(args) -> int:
    if args.level < 5:
        raise GridError("need --level >= 5 for a three-point rate fit")
    if args.operator not in SOURCE_BOXES:
        raise GridError(f"unknown source {args.operator!r}; pick from "
                        f"{tuple(SOURCE_BOXES)}")
    box, region = SOURCE_BOXES[args.operator]
    # the finest grid first: an oversized --level or a bad --dim fails
    # before any coarser level is studied
    _grid("converge", args.level, args.dim, box)
    source = _named_source(args.operator, args.dim)
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
    loaded = _load_config(args.config, "dtn") if args.config else {}
    # nx = 2**level and ny = 2**(level - 1) unless the config sets them; the
    # default strip grows fourfold per level: refuse before forming 2**level
    defaults = {k: power for k, power in (("nx", args.level),
                                          ("ny", args.level - 1))
                if k not in loaded}
    if defaults and args.level > _STRIP_LEVEL_CAP:
        raise GridError(f"dtn --level {args.level}: the default strip exceeds "
                        f"the strip node budget {_STRIP_NODE_CAP} = nx (ny + 1) "
                        f"above --level {_STRIP_LEVEL_CAP}")
    if defaults and args.level < 2:
        raise GridError(f"dtn --level {args.level}: the default strip "
                        f"(nx = 2**level, ny = 2**(level - 1)) needs "
                        f"--level 2 or above")
    cfg = {"width": 2.0 * math.pi, "height": 10.0, "modes": [1, 2, 4],
           **{k: 2 ** power for k, power in defaults.items()}}
    cfg.update(loaded)
    modes = cfg["modes"]
    if not (isinstance(modes, list) and modes and all(
            type(k) is int and k > 0 for k in modes)):
        raise GridError(f"dtn config field modes must be a non-empty list of "
                        f"positive integers, got {modes!r}")
    for name in ("width", "height"):
        # abs(x) <= max is False for nan and inf and compares huge ints exactly
        if not (type(cfg[name]) in (int, float)
                and abs(cfg[name]) <= sys.float_info.max):
            raise GridError(f"dtn config field {name} must be a finite number, "
                            f"got {cfg[name]!r}")
    for name in ("nx", "ny"):
        if type(cfg[name]) is not int:
            raise GridError(f"dtn config field {name} must be an integer, "
                            f"got {cfg[name]!r}")
    p = StripProblem(width=cfg["width"], height=cfg["height"],
                     nx=cfg["nx"], ny=cfg["ny"])
    # a mode above nx/2 is aliased by the lattice; Nyquist nx/2 is held
    where = "config field modes" if "modes" in loaded else f"default modes {modes}"
    for k in modes:
        if 2 * k > p.nx:
            raise GridError(f"dtn {where}: mode {k} is above nx/2 for nx = "
                            f"{p.nx}; the lattice aliases it to mode "
                            f"{min(k % p.nx, -k % p.nx)}")
    x = p.x_nodes()
    errors = {}
    for k in modes:
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


def _checked(convert, ok, what: str):
    """argparse type: convert the text, refuse it unless ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levymm",
        description="decompose, verify and study monotone operator stencils")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes --level, --out, --tol and only the flags it
    # reads, so a flag it would ignore exits 2 as unrecognized
    optional = {
        "--dim": dict(type=int, default=1),
        "--beta": dict(type=float,
                       help="fractional order for the frac operator"),
        "--seed": dict(default=0, type=_checked(
            int, lambda v: v >= 0, "a non-negative integer")),
        "--operator": dict(),
        "--config": dict(help="JSON file of extra inputs"),
    }

    def command(name, func, help, tol, flags, **defaults):
        p = sub.add_parser(name, help=help)
        p.add_argument("--level", type=int, default=4,
                       help="dyadic refinement level (spacing 2**-level)")
        for flag in flags:
            p.add_argument(flag, **optional[flag])
        p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument("--tol", default=tol, type=_checked(
            float, lambda v: math.isfinite(v) and v >= 0,
            "a finite non-negative number"))
        p.set_defaults(func=func, **defaults)

    command("decompose", cmd_decompose,
            "split a stencil row into drift, diffusion, jumps", 1e-8,
            ("--dim", "--beta", "--seed", "--operator", "--config"),
            **dict.fromkeys(GRID_FLAGS))
    command("minmax", cmd_minmax, "probe the min-max gap of an envelope",
            1e-8, ("--seed",))
    command("converge", cmd_converge, "surrogate consistency rate study",
            0.9, ("--dim", "--operator"), operator="trace", level=6)
    command("dtn", cmd_dtn, "strip boundary map against continuum modes",
            0.02, ("--config",), level=8)
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
