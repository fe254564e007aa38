"""Levy-type operators with finite atomic jump measures.

An operator here is tr(A D2u) + B.grad u + C u plus a jump part
sum of mass * (u(x+y) - u(x) - 1_{|y|<1} grad u(x).y) over finitely many
atoms y with nonnegative mass.  The gradient compensation uses the open
Euclidean unit ball: atoms with |y| >= 1 enter uncompensated.  A must be
symmetric positive semidefinite; together with mass >= 0 this is exactly
what degenerate ellipticity / the comparison property requires.  A measure
keeps its atoms sorted and merged; what the pipeline reads of it is the
atoms and masses themselves, `moment` and `tv_distance`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridError

# atoms or row offsets this close (max norm) coincide; an offset this close
# to 0 is the centre of its row
OFFSET_TOL = 1e-12


class LevyError(GridError):
    """Raised for ill-formed measures or operators."""


def _canonical_atoms(atoms: np.ndarray, masses: np.ndarray):
    """Sort atoms lexicographically and merge duplicates (within OFFSET_TOL).

    A merge only happens where an atom lies within OFFSET_TOL of the last
    kept one, which is its predecessor as long as nothing has merged; so
    when no sorted neighbours are that close the sorted arrays are the
    answer, and the loop runs only on measures that do merge.
    """
    order = np.lexsort(atoms.T[::-1])
    atoms = atoms[order]
    masses = masses[order]
    if not np.any(np.max(np.abs(np.diff(atoms, axis=0)), axis=1) < OFFSET_TOL):
        return atoms, masses
    keep_a, keep_m = [], []
    for a, m in zip(atoms, masses):
        if keep_a and np.max(np.abs(keep_a[-1] - a)) < OFFSET_TOL:
            keep_m[-1] += m
        else:
            keep_a.append(a.copy())
            keep_m.append(float(m))
    return np.array(keep_a, dtype=float).reshape(len(keep_a), atoms.shape[1]), \
        np.array(keep_m, dtype=float)


@dataclass(frozen=True)
class LevyMeasure:
    """Finite nonnegative atomic measure on R^d minus the origin."""

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        masses = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if atoms.shape[0] != masses.size:
            raise LevyError(f"{atoms.shape[0]} atoms but {masses.size} masses")
        for name, arr in (("atoms", atoms), ("masses", masses)):
            if not np.all(np.isfinite(arr)):
                raise LevyError(f"{name} must be finite")
        if masses.size and np.min(masses) < 0.0:
            raise LevyError("masses must be nonnegative")
        if atoms.size and np.min(np.max(np.abs(atoms), axis=1)) <= 0.0:
            raise LevyError("atoms must avoid the origin")
        if atoms.shape[0]:
            atoms, masses = _canonical_atoms(atoms, masses)
        atoms.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)

    @staticmethod
    def empty(dim: int) -> "LevyMeasure":
        return LevyMeasure(np.zeros((0, dim)), np.zeros(0))

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def __len__(self) -> int:
        return self.atoms.shape[0]

    def moment(self, power: float = 2.0, radius: float = 1.0) -> float:
        """Levy-type moment: |y|^power inside the radius, constant 1 outside."""
        if not len(self):
            return 0.0
        r = np.linalg.norm(self.atoms, axis=1)
        integrand = np.where(r < radius, r ** power, 1.0)
        return float(np.dot(self.masses, integrand))


def tv_distance(m1: LevyMeasure, m2: LevyMeasure,
                tol: float = OFFSET_TOL) -> float:
    """Total variation distance |m1 - m2| of two atomic measures.

    The paper states the spatial regularity of a min-max representation in
    this distance: how far apart the Lévy measures at two base points are.
    Atoms are matched by location within tol; unmatched atoms contribute
    their full mass.
    """
    if m1.dim != m2.dim:
        raise LevyError("measures live in different dimensions")
    used = np.zeros(len(m2), dtype=bool)
    total = 0.0
    for y, m in zip(m1.atoms, m1.masses):
        hit = -1
        for j in range(len(m2)):
            if not used[j] and np.max(np.abs(m2.atoms[j] - y)) < tol:
                hit = j
                break
        if hit >= 0:
            used[hit] = True
            total += abs(m - m2.masses[hit])
        else:
            total += abs(m)
    total += float(np.sum(np.abs(m2.masses[~used])))
    return total


@dataclass(frozen=True)
class LevyOperator:
    """Constant-coefficient operator (A, B, C, measure); A PSD, masses >= 0.

    Construction derives whether the drift and the diffusion are nonzero.
    On first use the operator derives and keeps what every application
    needs: `jumps`, the (y, mass, compensated) triples of the atoms with
    nonzero mass, where compensated means |y| < 1; and `needs_grad`,
    whether the gradient is needed at all.  Code that only reads the
    measure (a stencil assembly) never builds them.
    """

    diffusion: np.ndarray
    drift: np.ndarray
    zero_order: float
    measure: LevyMeasure

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.diffusion, dtype=float))
        b = np.atleast_1d(np.asarray(self.drift, dtype=float))
        d = b.size
        if a.shape != (d, d):
            raise LevyError(f"diffusion shape {a.shape} does not match drift size {d}")
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise LevyError("diffusion matrix must be symmetric")
        if d and np.min(np.linalg.eigvalsh(a)) < -1e-10:
            raise LevyError("diffusion matrix must be positive semidefinite")
        if self.measure.dim != d:
            raise LevyError("measure dimension does not match coefficients")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "diffusion", a)
        object.__setattr__(self, "drift", b)
        object.__setattr__(self, "zero_order", float(self.zero_order))
        object.__setattr__(self, "has_drift", bool(np.any(b != 0.0)))
        object.__setattr__(self, "has_diffusion", bool(np.any(a != 0.0)))

    @cached_property
    def jumps(self) -> tuple:
        mu = self.measure
        return tuple((y, float(m), float(np.linalg.norm(y)) < 1.0)
                     for y, m in zip(mu.atoms, mu.masses) if m != 0.0)

    @cached_property
    def needs_grad(self) -> bool:
        return self.has_drift or any(c for _, _, c in self.jumps)

    @property
    def dim(self) -> int:
        return self.drift.size


def _point_values(u, pts: np.ndarray) -> np.ndarray:
    """Values of u at the rows of pts: one `values` call when u has one."""
    if hasattr(u, "values"):
        return np.asarray(u.values(pts), dtype=float)
    val = u.value if hasattr(u, "value") else u
    return np.array([float(val(p)) for p in pts], dtype=float)


def evaluate(op: LevyOperator, u, x):
    """Apply the operator to pointwise data at one point or at a batch.

    x is one point (shape (d,), or a scalar in 1-d), which returns a float,
    or an (m, d) batch of points, which returns an array of m values.  u
    must expose value (or values) and, as needed, grad and hess at single
    points: the gradient when the drift or any compensated atom is present,
    the Hessian when the diffusion is nonzero.  Jumps with |y| < 1
    (strictly) are gradient compensated.  The values at the points and at
    every shift x + y come from one `u.values` call when u has one.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim < 2
    d = op.dim
    if single and pts.size == d:
        pts = pts.reshape(1, d)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise LevyError(f"operator of dimension {d} applied at points of "
                        f"shape {np.shape(x)}")
    m = len(pts)
    stacked = np.concatenate([pts] + [pts + y for y, _, _ in op.jumps])
    vals = _point_values(u, stacked).reshape(len(op.jumps) + 1, m)
    out = apply(op, vals[0],
                lambda: np.array([u.grad(p) for p in pts],
                                 dtype=float).reshape(m, d),
                lambda: np.array([u.hess(p) for p in pts],
                                 dtype=float).reshape(m, d, d),
                vals[1:])
    return float(out[0]) if single else out


def apply(op: LevyOperator, u0: np.ndarray, grad, hess, shifted) -> np.ndarray:
    """The operator at m points from the data of u there.

    u0 holds the m values; grad() and hess() return the (m, d) gradients
    and (m, d, d) Hessians and are called only when the operator needs them;
    shifted yields, for each atom of `op.jumps` in order, the m values of u
    at the points shifted by the atom.  Terms are added in a fixed order
    (zero order, drift, diffusion, atoms), each dot product and trace
    summed left to right, so the result at a point does not depend on m.
    """
    out = op.zero_order * u0
    d = op.dim
    g = grad() if op.needs_grad else None
    if op.has_drift:
        out = out + _dot(op.drift, g)
    if op.has_diffusion:
        h = hess()
        tr = _dot(op.diffusion[0], h[:, :, 0])
        for k in range(1, d):
            tr = tr + _dot(op.diffusion[k], h[:, :, k])
        out = out + tr
    for (y, mass, compensated), vals in zip(op.jumps, shifted):
        jump = vals - u0
        if compensated:
            jump = jump - _dot(y, g)
        out = out + mass * jump
    return out


def _dot(c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """c . rows[i] for each i, summed left to right over the d entries."""
    acc = c[0] * rows[:, 0]
    for k in range(1, c.size):
        acc = acc + c[k] * rows[:, k]
    return acc
