"""Levy-type operators with finite atomic jump measures.

An operator here is tr(A D2u) + B.grad u + C u plus a jump part
sum of mass * (u(x+y) - u(x) - 1_{|y|<1} grad u(x).y) over finitely many
atoms y with nonnegative mass.  The gradient compensation uses the open
Euclidean unit ball: atoms with |y| >= 1 enter uncompensated.  A must be
symmetric positive semidefinite; together with mass >= 0 this is exactly
what degenerate ellipticity / the comparison property requires.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grid import GridError


class LevyError(GridError):
    """Raised for ill-formed measures or operators."""


def _canonical_atoms(atoms: np.ndarray, masses: np.ndarray):
    """Sort atoms lexicographically and merge duplicates (within 1e-12)."""
    order = np.lexsort(atoms.T[::-1])
    atoms = atoms[order]
    masses = masses[order]
    keep_a, keep_m = [], []
    for a, m in zip(atoms, masses):
        if keep_a and np.max(np.abs(keep_a[-1] - a)) < 1e-12:
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

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def support_radius(self) -> float:
        if not len(self):
            return 0.0
        return float(np.max(np.linalg.norm(self.atoms, axis=1)))

    def moment(self, power: float = 2.0, radius: float = 1.0) -> float:
        """Levy-type moment: |y|^power inside the radius, constant 1 outside."""
        if not len(self):
            return 0.0
        r = np.linalg.norm(self.atoms, axis=1)
        integrand = np.where(r < radius, r ** power, 1.0)
        return float(np.dot(self.masses, integrand))

    def restricted(self, rmin: float, rmax: float) -> "LevyMeasure":
        """Atoms with rmin <= |y| < rmax (Euclidean)."""
        if not len(self):
            return self
        r = np.linalg.norm(self.atoms, axis=1)
        keep = (r >= rmin) & (r < rmax)
        return LevyMeasure(self.atoms[keep], self.masses[keep])

    def to_json(self) -> str:
        payload = [{"mass": float(m), "y": [float(c) for c in y]}
                   for y, m in zip(self.atoms, self.masses)]
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "LevyMeasure":
        payload = json.loads(text)
        if not payload:
            raise LevyError("empty measure JSON needs an explicit dimension; "
                            "use LevyMeasure.empty")
        atoms = np.array([rec["y"] for rec in payload], dtype=float)
        masses = np.array([rec["mass"] for rec in payload], dtype=float)
        return LevyMeasure(atoms, masses)


def tv_distance(m1: LevyMeasure, m2: LevyMeasure, tol: float = 1e-12) -> float:
    """Total variation distance |m1 - m2| of two atomic measures.

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
    """Constant-coefficient operator (A, B, C, measure); A PSD, masses >= 0."""

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

    @property
    def dim(self) -> int:
        return self.drift.size


def evaluate(op: LevyOperator, u, x) -> float:
    """Apply the operator to pointwise data at x.

    u must expose value/grad/hess as needed: the gradient when the drift or
    any compensated atom is present, the Hessian when the diffusion is
    nonzero.  Jumps with |y| < 1 (strictly) are gradient compensated.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    val = u.value if hasattr(u, "value") else u
    u0 = float(val(x))
    out = op.zero_order * u0
    needs_grad = bool(np.any(op.drift != 0.0))
    mu = op.measure
    if len(mu):
        r = np.linalg.norm(mu.atoms, axis=1)
        needs_grad = needs_grad or bool(np.any((r < 1.0) & (mu.masses != 0.0)))
    g = None
    if needs_grad:
        g = np.asarray(u.grad(x), dtype=float)
        out += float(op.drift @ g)
    if np.any(op.diffusion != 0.0):
        h = np.asarray(u.hess(x), dtype=float)
        out += float(np.trace(op.diffusion @ h))
    for y, m in zip(mu.atoms, mu.masses):
        if m == 0.0:
            continue
        jump = float(val(x + y)) - u0
        if float(np.linalg.norm(y)) < 1.0:
            if g is None:
                g = np.asarray(u.grad(x), dtype=float)
            jump -= float(g @ y)
        out += m * jump
    return out
