"""Dense symmetric eigenproblems for small nonnegative matrices.

Everything here runs a full symmetric eigendecomposition (LAPACK via
``numpy.linalg``); power iteration is deliberately avoided because the
enumeration layer needs all Perron roots resolved to ~1e-12 even when
eigenvalues nearly collide.  ``spectral_radius_many`` gives the largest
eigenvalue of each matrix in a stack (the spectrum's direct kernel),
``perron_pairs_many`` also a sign-normalized eigenvector (one stacked
``eigh``), and ``_eigenvalues`` every eigenvalue of one matrix.
``_parent_roots`` is the one route from an ``eigh`` to the Perron roots of
single-vertex deletions: one ``eigh`` of each parent in a stack gives its own
root and those of its chosen deletions, through the Newton solver of the
secular equation ``_secular_roots``, for the subset pass and the rho2 screen
(whose one parent is the whole vertex set).  Each root's Newton loop stops on
its own, so a root does not depend on what shares its stack, and raises
EigensolverError if it is still uncertified after ``_SECULAR_ITERATIONS``
steps.  The pairs of ``perron_pairs_many`` and ``_eigenvalues`` are checked
against the residual contract ``|Mx - vx|_inf <= 1e-10 * max(1, |v|)``.
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
_SECULAR_TOL = 1e-15  # certified error, relative to lam_n, at which an element's Newton loop stops


def _secular_roots(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Perron root (...) of the deletion of one vertex v from a symmetric matrix
    with ascending eigenvalues ``lam`` (..., n), n >= 2, and Perron root lam_n,
    where ``w`` (..., n) holds Q_vi^2, the squares of v's entries in the unit
    eigenvectors.

    The eigenvalues of the deletion are the roots of the secular function
    sum_i Q_vi^2 / (x - lam_i) (Golub, SIAM Review 15, 1973), and by interlacing
    its Perron root r lies in [lam_{n-1}, lam_n].  There r is the root of

        H(x) = w_n / psi(x) - (lam_n - x),   psi(x) = sum_{i<n} Q_vi^2 / (x - lam_i),

    which is concave and increasing on x > lam_{n-1} with H' >= 1 when w_n > 0
    (a Perron vector with no zero entry).  Newton's method on H therefore lands
    at or below r from any start and then climbs to it monotonically; the
    first step starts at lam_n.  A step from x with H(x) = -h leaves an error of
    at most h^2 / (x - lam_{n-1}) (concavity gives r - x <= h, and
    |H''| <= 2 H' / (x - lam_{n-1})), so each element stops once its own bound
    is below ``_SECULAR_TOL`` relative to lam_n: its root depends on its own
    ``lam`` and ``w`` alone, not on the elements beside it.  Estimates are kept
    just above lam_{n-1}, where psi has its pole, and returned clipped to
    [lam_{n-1}, lam_n]: where v has no weight on lam_{n-1}'s eigenvectors,
    lam_{n-1} itself is the deletion's Perron root.  EigensolverError if some
    element's bound is still above ``_SECULAR_TOL`` after ``_SECULAR_ITERATIONS``
    steps.
    """
    shape, n = lam.shape[:-1], lam.shape[-1]
    lam, w = lam.reshape(-1, n), w.reshape(-1, n)
    top, low, rest = lam[:, -1], lam[:, -2], lam[:, :-1]
    wtop, wrest = w[:, -1], w[:, :-1]
    u = 1.0 / (top[:, None] - rest)
    t = wrest * u
    psi = t.sum(axis=-1)
    x = top - wtop * psi / (wtop * (t * u).sum(axis=-1) + psi * psi)
    x = np.maximum(x, low + 1e-14 * top)
    tol = _SECULAR_TOL * top
    live = np.arange(x.size)
    for _ in range(_SECULAR_ITERATIONS):
        if not live.size:
            break
        at = x[live]
        r = 1.0 / (at[:, None] - rest[live])
        t = wrest[live] * r
        psi = t.sum(axis=-1)
        gap = wtop[live] / psi
        h = np.maximum(top[live] - at - gap, 0.0)
        x[live] = at + h / (gap * (t * r).sum(axis=-1) / psi + 1.0)
        live = live[h * h / (at - low[live]) > tol[live]]
    if live.size:
        raise EigensolverError(f"secular equation: {live.size} deletion roots not certified "
                               f"in {_SECULAR_ITERATIONS} Newton steps")
    return np.clip(x, low, top).reshape(shape)


def _parent_roots(mats: np.ndarray, use: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron roots from one eigendecomposition of each matrix of the stack
    ``mats`` (p, k, k), k >= 2, each with a positive Perron vector: its own (p,),
    and those of its deletions of vertex v where ``use[i, v]`` (p, k) holds, in
    the row-major order of ``use``, through ``_secular_roots``."""
    lam, q = np.linalg.eigh(mats)
    i, v = np.nonzero(use)
    return lam[:, -1], _secular_roots(lam[i], q[i, v] ** 2)


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the symmetric matrix ``a``, ascending."""
    values, vectors = np.linalg.eigh(a)
    _check_residuals(a, values, vectors)
    return values
