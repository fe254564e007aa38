"""Dyadic cube families adapted to a lattice, and the partition built on them.

The covering is lattice periodic: inside each unit cell the kept cubes are
dyadic, pairwise disjoint up to boundaries, tile the cell minus its node, and
satisfy 1 <= dist(Q, lattice)/diam(Q) < 4 exactly.  Cube supports are the
9/8-inflated boxes; the smooth bump of each cube is 1 on the cube itself, so
the raw weight sum at any off-lattice point is at least 1 by construction.
All geometry predicates live in _kernels and run in exact dyadic/integer
arithmetic; this module is the object layer above them.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import KMAX
from .grid import ON_LATTICE_TOL, GridError


class CubeError(GridError):
    """Raised for unusable cube queries (on-node points, depth overflow)."""


@dataclass(frozen=True)
class WhitneyCube:
    """One kept cube: generation, cell-local corner index, owning node.

    Coordinates are physical; `spacing` is the lattice pitch.  The corner
    index is relative to the owning node, so corner = (cell + index * side)
    * spacing with side = 2**-generation.
    """

    dim: int
    generation: int
    index: tuple
    cell: tuple
    spacing: float = 1.0

    def __post_init__(self):
        if not (1 <= self.generation <= KMAX):
            raise CubeError(f"generation {self.generation} outside [1, {KMAX}]")
        if len(self.index) != self.dim or len(self.cell) != self.dim:
            raise CubeError("index/cell length does not match dim")

    @property
    def side(self) -> float:
        return self.spacing * 2.0 ** (-self.generation)

    @property
    def diameter(self) -> float:
        return self.side * math.sqrt(self.dim)

    @property
    def corner(self) -> np.ndarray:
        s = 2.0 ** (-self.generation)
        return self.spacing * (np.array(self.cell, dtype=float)
                               + np.array(self.index, dtype=float) * s)

    @property
    def center(self) -> np.ndarray:
        return self.corner + 0.5 * self.side

    @property
    def lattice_distance(self) -> float:
        # nearest node of a cell-local cube is the owning node itself
        acc = 0
        for mi in self.index:
            lo, hi = mi, mi + 1
            if lo <= 0 <= hi:
                continue
            c = min(abs(lo), abs(hi))
            acc += c * c
        return math.sqrt(acc) * self.side

    @property
    def ratio(self) -> float:
        return self.lattice_distance / self.diameter

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        lo = self.corner
        return bool(np.all(x >= lo) and np.all(x <= lo + self.side))

    def support_contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        reach = _kernels.SUPPORT_FACTOR * self.side
        return bool(np.all(np.abs(x - self.center) < reach))

    def weight(self, x) -> float:
        """Smooth bump of this cube: 1 on the cube, 0 outside the inflation."""
        x = np.asarray(x, dtype=float)
        w = 1.0
        c = self.center
        for i in range(self.dim):
            w *= _kernels.bump1((x[i] - c[i]) / self.side)
            if w == 0.0:
                return 0.0
        return w


@dataclass(frozen=True)
class CubeCover:
    """All cubes active at one off-lattice point, with their weights."""

    point: tuple
    spacing: float
    cubes: tuple
    weights: tuple

    @property
    def raw_sum(self) -> float:
        return float(sum(self.weights))

    def partition_weights(self) -> np.ndarray:
        w = np.array(self.weights, dtype=float)
        return w / w.sum()


def base_family(dim: int, max_generation: int) -> list[WhitneyCube]:
    """All kept cubes of the origin cell up to the given generation.

    Enumerates candidate corner indices inside the shell reach (|index| is
    bounded by the outer shell radius in side units, independent of the
    generation) and keeps the ones passing the exact selection predicate.
    """
    if dim not in (1, 2, 3):
        raise CubeError(f"dim must be 1, 2 or 3, got {dim}")
    if not (1 <= max_generation <= KMAX):
        raise CubeError(
            f"max_generation {max_generation} outside [1, {KMAX}]")
    reach = int(math.ceil(4.0 * math.sqrt(dim))) + 1
    out = []
    for k in range(1, max_generation + 1):
        half = 1 << (k - 1)
        lo = max(-half, -reach)
        hi = min(half - 1, reach - 1)
        axis = range(lo, hi + 1)
        for m in itertools.product(axis, repeat=dim):
            if _kernels._selected(k, m):
                out.append(WhitneyCube(dim=dim, generation=k, index=m,
                                       cell=(0,) * dim))
    out.sort(key=lambda q: (q.generation, q.index))
    return out


def cubes_at(x, spacing: float = 1.0) -> CubeCover:
    """Every kept cube whose bump is positive at x (any cell, any generation).

    Raises CubeError when x sits on a lattice node (tolerance 1e-13) or so
    close to one that the generation cap cannot resolve the cover.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    if d not in (1, 2, 3):
        raise CubeError(f"dim must be 1, 2 or 3, got {d}")
    if spacing <= 0.0:
        raise CubeError("spacing must be positive")
    xi = x / spacing
    znear = np.floor(xi + 0.5)
    delta_unit = math.sqrt(float(np.sum((xi - znear) ** 2)))
    if delta_unit * spacing <= ON_LATTICE_TOL * max(1.0, float(np.max(np.abs(x)))):
        raise CubeError(f"point {x.tolist()} lies on a lattice node")
    if delta_unit < _kernels.SNAP_TOL_UNIT:
        raise CubeError(
            f"point {x.tolist()} is closer to a node than generation "
            f"{KMAX} resolves")
    found = _kernels.cover(xi.tolist(), d)
    cubes = tuple(WhitneyCube(dim=d, generation=k, index=m, cell=z, spacing=spacing)
                  for z, k, m, _ in found)
    return CubeCover(point=tuple(float(v) for v in x), spacing=spacing,
                     cubes=cubes, weights=tuple(w for *_, w in found))


def partition_raw_sums(points, spacing: float = 1.0) -> np.ndarray:
    """Raw and normalized weight totals for many points, shape (n, 2).

    Column 0 must be >= 1 for every covered off-lattice point; column 1 is
    the normalized total (1 up to float rounding).  Points snapping to a
    node carry the sentinel -1 in both columns.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _kernels.partition_sums(pts, float(spacing), pts.shape[1])


def uncovered_volume(dim: int, max_generation: int) -> float:
    """Exact volume of the cell not covered by generations <= max_generation.

    A point is uncovered exactly when its whole dyadic chain up to the cap
    misses every shell, so the uncovered set is a union of cubes at the cap
    generation and its volume is a count times a power of two.
    """
    if dim not in (1, 2, 3):
        raise CubeError(f"dim must be 1, 2 or 3, got {dim}")
    if not (1 <= max_generation <= KMAX):
        raise CubeError("max_generation out of range")
    k = max_generation
    # chain-miss cubes lie inside the innermost shell: |index| small
    reach = int(math.ceil(2.0 * math.sqrt(dim))) + 1
    half = 1 << (k - 1)
    lo = max(-half, -reach)
    hi = min(half - 1, reach - 1)
    count = 0
    for m in itertools.product(range(lo, hi + 1), repeat=dim):
        miss = True
        for j in range(k, 0, -1):
            anc = tuple(mi >> (k - j) for mi in m)
            if _kernels._ring_test(anc):
                miss = False
                break
        if miss:
            count += 1
    return count * 2.0 ** (-k * dim)


def partition_gradient_bound(dim: int, samples: int = 200, seed: int = 0,
                             spacing: float = 1.0) -> float:
    """Sampled sup of side(Q) * |grad of the normalized weight of Q|.

    Scale invariance of the construction makes this a dimension-only
    constant; it is estimated by central differences at random off-lattice
    points, maximized over the active cubes there.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    drawn = 0
    while drawn < samples:
        x = spacing * rng.uniform(-0.5, 0.5, size=dim)
        try:
            cov = cubes_at(x, spacing=spacing)
        except CubeError:
            continue
        drawn += 1
        for q in cov.cubes:
            step = q.side / 1024.0
            g2 = 0.0
            try:
                for i in range(dim):
                    xp = x.copy()
                    xm = x.copy()
                    xp[i] += step
                    xm[i] -= step
                    fp = _phi_of(q, xp, spacing)
                    fm = _phi_of(q, xm, spacing)
                    g = (fp - fm) / (2.0 * step)
                    g2 += g * g
            except CubeError:
                continue
            best = max(best, q.side * math.sqrt(g2))
    return best


def _phi_of(cube: WhitneyCube, x, spacing: float) -> float:
    """Normalized partition weight of one cube at x (0 when inactive)."""
    w = cube.weight(x)
    if w == 0.0:
        return 0.0
    cov = cubes_at(x, spacing=spacing)
    return w / cov.raw_sum


def family_to_csv(cubes, path) -> None:
    """Debug dump of a cube family: one row per cube, repr-formatted floats."""
    with open(path, "w", newline="") as fh:
        first = cubes[0]
        d = first.dim
        writer = csv.writer(fh)
        head = (["generation", "side"]
                + [f"corner_{i + 1}" for i in range(d)]
                + [f"center_{i + 1}" for i in range(d)]
                + [f"cell_{i + 1}" for i in range(d)]
                + ["lattice_distance", "ratio"])
        writer.writerow(head)
        for q in cubes:
            row = ([q.generation, repr(q.side)]
                   + [repr(float(v)) for v in q.corner]
                   + [repr(float(v)) for v in q.center]
                   + [int(v) for v in q.cell]
                   + [repr(q.lattice_distance), repr(q.ratio)])
            writer.writerow(row)
