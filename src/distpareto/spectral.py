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


_SECULAR_ITERATIONS = 64  # Newton steps; 1-3 suffice on every graph tested
_SECULAR_TOL = 1e-13  # certified relative error at which the Newton loop stops


def _deletion_roots(d: np.ndarray) -> np.ndarray:
    """Perron root of ``d`` with row and column v removed, for every vertex v.

    ``d`` is the float64 distance matrix of a connected graph on n >= 2
    vertices.  One eigendecomposition d = Q diag(lam) Q^T serves every v: the
    eigenvalues of the deletion are the roots of the secular function
    sum_i Q_vi^2 / (x - lam_i) (Golub, SIAM Review 15, 1973), and by
    interlacing its Perron root r lies in [lam_{n-1}, lam_n].  There r is the
    root of

        H(x) = w / psi(x) - (lam_n - x),   w = Q_vn^2 > 0,
        psi(x) = sum_{i<n} Q_vi^2 / (x - lam_i),

    which is concave and increasing on x > lam_{n-1} with H' >= 1.  Newton's
    method on H therefore lands at or below r from any start and then climbs
    to it monotonically.  The first step starts at lam_n, where psi and psi'
    are two matrix-vector products shared by all vertices; each later step is
    O(n^2) over all vertices at once.  A step from x with H(x) = -h leaves an
    error of at most h^2 / (x - lam_{n-1}) (concavity gives r - x <= h, and
    |H''| <= 2 H' / (x - lam_{n-1})), so the loop stops once that bound is
    below ``_SECULAR_TOL`` relative for every vertex.  Estimates are kept just
    above lam_{n-1}, where psi has its pole, and returned clipped to
    [lam_{n-1}, lam_n]: where e_v has no weight on lam_{n-1}'s eigenvectors,
    lam_{n-1} itself is the deletion's Perron root.
    """
    lam, q = np.linalg.eigh(d)
    w = q * q
    top, low = float(lam[-1]), float(lam[-2])
    rest, wtop, wrest = lam[:-1], w[:, -1], w[:, :-1]
    u = 1.0 / (top - rest)
    psi = wrest @ u
    x = top - wtop * psi / (wtop * (wrest @ (u * u)) + psi * psi)
    x = np.maximum(x, low + 1e-14 * top)
    tol = _SECULAR_TOL * top
    for _ in range(_SECULAR_ITERATIONS):
        r = 1.0 / (x[:, None] - rest)
        t = wrest * r
        psi = t.sum(axis=1)
        gap = wtop / psi
        h = np.maximum(top - x - gap, 0.0)
        certified = (h * h / (x - low)).max() <= tol
        x = x + h / (gap * (t * r).sum(axis=1) / psi + 1.0)
        if certified:
            break
    return np.clip(x, low, top)


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
