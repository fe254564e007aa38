"""Dyadic cube families adapted to a lattice, and the partition built on them.

The covering is lattice periodic: inside each unit cell the kept cubes are
dyadic, pairwise disjoint up to boundaries, tile the cell minus its node, and
satisfy 1 <= dist(Q, lattice)/diam(Q) < 4 exactly.  Cube supports are the
9/8-inflated boxes; the smooth bump of each cube is 1 on the cube itself, so
the raw weight sum at any off-lattice point is at least 1 by construction.
All geometry predicates live in _kernels and run in exact dyadic/integer
arithmetic; this module is the object layer above them.  Both queries
refuse a point where the extension snaps to a node, closer than
SNAP_TOL_UNIT lattice units to it: `cubes_at` raises CubeError exactly
where `partition_raw_sums` returns the sentinel -1.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import KMAX
from .grid import GridError


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
        near2, _ = _kernels.corner_radii2(self.index)
        return math.sqrt(near2) * self.side

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


def base_family(dim: int, max_generation: int) -> list[WhitneyCube]:
    """All kept cubes of the origin cell up to the given generation.

    Reads the kept-index table of the cover kernel: generation k keeps the
    indices of the table inside its cell range [-2**(k-1), 2**(k-1) - 1].
    """
    if dim not in (1, 2, 3):
        raise CubeError(f"dim must be 1, 2 or 3, got {dim}")
    if not (1 <= max_generation <= KMAX):
        raise CubeError(
            f"max_generation {max_generation} outside [1, {KMAX}]")
    kept = sorted(_kernels._kept_indices(dim))
    out = []
    for k in range(1, max_generation + 1):
        half = 1 << (k - 1)
        out += [WhitneyCube(dim=dim, generation=k, index=m, cell=(0,) * dim)
                for m in kept if all(-half <= mi < half for mi in m)]
    return out


def _check_query(d: int, spacing) -> float:
    """The spacing of a cover query in dimension d, as a float.

    Raises CubeError naming the input unless d is 1, 2 or 3 (the cover's
    generation window is proved for d <= 3) and the spacing is positive and
    finite.
    """
    if d not in (1, 2, 3):
        raise CubeError(f"dim must be 1, 2 or 3, got {d}")
    spacing = float(spacing)
    if not (spacing > 0.0 and math.isfinite(spacing)):
        raise CubeError(f"spacing must be positive and finite, got {spacing}")
    return spacing


def _not_finite(x: list, spacing: float) -> CubeError:
    return CubeError(f"point {x} is not finite in lattice units "
                     f"of spacing {spacing}")


def cubes_at(x, spacing: float = 1.0) -> CubeCover:
    """Every kept cube whose bump is positive at x (any cell, any generation).

    Raises CubeError where the extension snaps to a node: when x lies
    closer than SNAP_TOL_UNIT lattice units to one (`_kernels.snapped_node`),
    exactly the points that `partition_raw_sums` marks -1.  Like it, raises
    for a dimension other than 1, 2 or 3, a spacing that is not positive and
    finite, or a point that is not finite in lattice units.
    """
    pt = np.asarray(x, dtype=float).ravel().tolist()
    d = len(pt)
    spacing = _check_query(d, spacing)
    xi = [v / spacing for v in pt]
    if not all(map(math.isfinite, xi)):
        raise _not_finite(pt, spacing)
    if _kernels.snapped_node(xi) is not None:
        raise CubeError(f"point {pt} lies within {_kernels.SNAP_TOL_UNIT} "
                        f"lattice units of a node")
    found = _kernels.cover(xi, d)
    cubes = tuple(WhitneyCube(dim=d, generation=k, index=m, cell=z, spacing=spacing)
                  for z, k, m, _ in found)
    return CubeCover(point=tuple(pt), spacing=spacing,
                     cubes=cubes, weights=tuple(w for *_, w in found))


def partition_raw_sums(points, spacing: float = 1.0) -> np.ndarray:
    """Raw and normalized weight totals for many points, shape (n, 2).

    Column 0 must be >= 1 for every covered off-lattice point; column 1 is
    the normalized total (1 up to float rounding).  Points snapping to a
    node carry the sentinel -1 in both columns.  Raises CubeError naming the
    input for points that do not form an (n, d) array with d = 1, 2 or 3, a
    spacing that is not positive and finite, or a point that is not finite
    in lattice units.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise CubeError(f"points must form an (n, d) array, got shape "
                        f"{pts.shape}")
    spacing = _check_query(pts.shape[1], spacing)
    with np.errstate(over="ignore"):
        finite = np.isfinite(pts / spacing)
    if not finite.all():
        raise _not_finite(pts[int(np.argmin(finite.all(axis=1)))].tolist(),
                          spacing)
    return _kernels.partition_batch(pts, spacing, pts.shape[1])


def uncovered_volume(dim: int, max_generation: int) -> float:
    """Exact volume of the cell not covered by generations <= max_generation.

    This is the coverage identity of the Whitney cover: the cubes of all
    generations cover the cell up to a null set, so this volume falls to 0
    as the cap grows.  A point is uncovered exactly when its whole
    dyadic chain up to the cap misses every shell, so the uncovered set is
    a union of cubes at the cap generation and its volume is a count times
    a power of two.
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
