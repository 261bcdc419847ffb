"""Dense symmetric eigenproblems for small nonnegative matrices.

Everything here runs a full symmetric eigendecomposition (LAPACK via
``numpy.linalg``); power iteration is deliberately avoided because the
enumeration layer needs all Perron roots resolved to ~1e-12 even when
eigenvalues nearly collide.  ``spectral_radius_many`` gives the largest
eigenvalue of each matrix in a stack (the spectrum's hot path),
``perron_pairs_many`` also a sign-normalized eigenvector (one stacked
``eigh``), ``_eigenvalues`` every eigenvalue of one matrix, and
``_deletion_roots`` the Perron root of every single-vertex deletion of each
matrix in a stack (the rho2 screen, for one graph or many).  The pairs
of ``perron_pairs_many`` and ``_eigenvalues`` are checked against the residual
contract ``|Mx - vx|_inf <= 1e-10 * max(1, |v|)``.
"""

from __future__ import annotations

import numpy as np

from .errors import EigensolverError

__all__ = [
    "RESIDUAL_TOL",
    "perron_pairs_many",
    "spectral_radius_many",
]

RESIDUAL_TOL = 1e-10


def _check_residuals(mats: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> None:
    """EigensolverError unless each pair (values[..., i], vectors[..., :, i]) meets the contract."""
    residuals = np.abs(mats @ vectors - vectors * values[..., None, :]).max(axis=-2)
    scale = np.maximum(1.0, np.abs(values))
    bad = np.argwhere(residuals > RESIDUAL_TOL * scale)
    if bad.size:
        at = tuple(bad[0])
        raise EigensolverError(
            f"eigenpair residual {residuals[at]:.3e} exceeds tolerance for value {values[at]:.6g}"
        )


def perron_pairs_many(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue (m,) and a unit eigenvector (m, k) of each matrix in a (m, k, k)
    stack, each vector flipped toward its largest-magnitude entry (the first, on a tie)."""
    values, vectors = np.linalg.eigh(mats)
    values, vectors = values[:, -1], vectors[:, :, -1]
    _check_residuals(mats, values[:, None], vectors[:, :, None])
    pivot = np.abs(vectors).argmax(axis=1)
    flip = np.take_along_axis(vectors, pivot[:, None], axis=1) < 0
    return values, np.where(flip, -vectors, vectors)


def spectral_radius_many(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix in a (m, k, k) stack."""
    if mats.size == 0:
        return np.zeros(mats.shape[0])
    return np.linalg.eigvalsh(mats)[..., -1]


_SECULAR_ITERATIONS = 64  # Newton steps; 1-3 suffice on every graph tested
_SECULAR_TOL = 1e-13  # certified relative error at which the Newton loop stops


def _deletion_roots(d: np.ndarray) -> np.ndarray:
    """Perron root of each matrix in ``d`` with row and column v removed, for every
    vertex v: shape (m, n) for a stack (m, n, n), or (n,) for one matrix.

    Each matrix is the distance matrix of a connected graph on n >= 2 vertices,
    integer or float (``eigh`` casts it to float64).  One eigendecomposition
    d = Q diag(lam) Q^T serves every v: the eigenvalues of the deletion are the
    roots of the secular function sum_i Q_vi^2 / (x - lam_i) (Golub, SIAM Review
    15, 1973), and by interlacing its Perron root r lies in [lam_{n-1}, lam_n].
    There r is the root of

        H(x) = w / psi(x) - (lam_n - x),   w = Q_vn^2 > 0,
        psi(x) = sum_{i<n} Q_vi^2 / (x - lam_i),

    which is concave and increasing on x > lam_{n-1} with H' >= 1.  Newton's
    method on H therefore lands at or below r from any start and then climbs
    to it monotonically.  The first step starts at lam_n, where psi and psi'
    are two matrix-vector products per matrix shared by all its vertices; each
    later step is O(n^2) per matrix over all vertices at once.  A step from x
    with H(x) = -h leaves an error of at most h^2 / (x - lam_{n-1}) (concavity
    gives r - x <= h, and |H''| <= 2 H' / (x - lam_{n-1})), so the loop stops
    once that bound is below ``_SECULAR_TOL`` relative for every vertex of
    every matrix.  Estimates are kept just above lam_{n-1}, where psi has its
    pole, and returned clipped to [lam_{n-1}, lam_n]: where e_v has no weight
    on lam_{n-1}'s eigenvectors, lam_{n-1} itself is the deletion's Perron root.
    """
    lam, q = np.linalg.eigh(d)
    w = q * q
    top, low = lam[..., -1:], lam[..., -2:-1]
    rest, wtop, wrest = lam[..., :-1], w[..., -1], w[..., :-1]
    u = 1.0 / (top - rest)
    psi = (wrest @ u[..., None])[..., 0]
    x = top - wtop * psi / (wtop * (wrest @ (u * u)[..., None])[..., 0] + psi * psi)
    x = np.maximum(x, low + 1e-14 * top)
    tol = _SECULAR_TOL * top
    for _ in range(_SECULAR_ITERATIONS):
        r = 1.0 / (x[..., None] - rest[..., None, :])
        t = wrest * r
        psi = t.sum(axis=-1)
        gap = wtop / psi
        h = np.maximum(top - x - gap, 0.0)
        certified = (h * h / (x - low) <= tol).all()
        x = x + h / (gap * (t * r).sum(axis=-1) / psi + 1.0)
        if certified:
            break
    return np.clip(x, low, top)


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the symmetric matrix ``a``, ascending."""
    values, vectors = np.linalg.eigh(a)
    _check_residuals(a, values, vectors)
    return values
