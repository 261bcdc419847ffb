"""Dense symmetric eigenproblems for small nonnegative matrices.

Everything here runs a full symmetric eigendecomposition (LAPACK via
``numpy.linalg``); power iteration is deliberately avoided because the
enumeration layer needs all Perron roots resolved to ~1e-12 even when
eigenvalues nearly collide.  Every returned eigenpair is checked against the
residual contract ``|Mx - vx|_inf <= 1e-10 * max(1, |v|)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EigensolverError

__all__ = [
    "SymMatrix",
    "EigenResult",
    "RESIDUAL_TOL",
    "spectral_radius",
    "spectral_radius_many",
    "full_spectrum",
]

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Exactly-symmetric nonnegative matrix (upper triangle mirrored on build)."""

    k: int
    a: np.ndarray

    def __post_init__(self):
        self.a.setflags(write=False)

    @classmethod
    def from_array(cls, arr: np.ndarray | Sequence[Sequence[float]]) -> "SymMatrix":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if (a < 0).any():
            raise ValueError("entries must be nonnegative")
        upper = np.triu(a)
        sym = upper + np.triu(a, 1).T
        return cls(k=a.shape[0], a=sym)


@dataclass(frozen=True, eq=False)
class EigenResult:
    value: float
    vector: np.ndarray  # unit norm
    residual: float


def _check_residual(a: np.ndarray, value: float, vector: np.ndarray) -> float:
    residual = float(np.abs(a @ vector - value * vector).max())
    if residual > RESIDUAL_TOL * max(1.0, abs(value)):
        raise EigensolverError(
            f"eigenpair residual {residual:.3e} exceeds tolerance for value {value:.6g}"
        )
    return residual


def spectral_radius(m: SymMatrix) -> EigenResult:
    """Largest eigenvalue and a unit eigenvector, sign-flipped toward positivity."""
    values, vectors = np.linalg.eigh(m.a)
    value = float(values[-1])
    vector = vectors[:, -1].copy()
    pivot = int(np.argmax(np.abs(vector)))
    if vector[pivot] < 0:
        vector = -vector
    residual = _check_residual(m.a, value, vector)
    vector.setflags(write=False)
    return EigenResult(value=value, vector=vector, residual=residual)


def spectral_radius_many(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix in a (m, k, k) stack."""
    if mats.size == 0:
        return np.zeros(mats.shape[0])
    return np.linalg.eigvalsh(mats)[..., -1]


def full_spectrum(m: SymMatrix) -> list[float]:
    """All eigenvalues ascending, residual-checked."""
    values, vectors = np.linalg.eigh(m.a)
    residuals = np.abs(m.a @ vectors - vectors * values).max(axis=0)
    worst = int(np.argmax(residuals / np.maximum(1.0, np.abs(values))))
    if residuals[worst] > RESIDUAL_TOL * max(1.0, abs(values[worst])):
        raise EigensolverError(
            f"spectrum residual {residuals[worst]:.3e} exceeds tolerance"
        )
    return [float(v) for v in values]
