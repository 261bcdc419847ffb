"""Dense symmetric eigenproblems for small nonnegative matrices.

Everything here runs a full symmetric eigendecomposition (LAPACK via
``numpy.linalg``); power iteration is deliberately avoided because the
enumeration layer needs all Perron roots resolved to ~1e-12 even when
eigenvalues nearly collide.  ``spectral_radius_many`` gives the largest
eigenvalue of each matrix in a stack (the spectrum's direct kernel),
``perron_pairs_many`` also a sign-normalized eigenvector (one stacked
``eigh``), and ``_eigenvalues`` every eigenvalue of one matrix.
``_parent_roots`` is the one route from an ``eigh`` to the Perron roots of
one-vertex deletions and extensions: one ``eigh`` of each parent in a stack
gives its own root, those of its chosen deletions through the Newton solver
of the secular equation ``_secular_roots``, and those of its chosen
extensions (the parent bordered by one more row and column) through the
Newton solver of the bordered secular equation ``_bordered_roots``.  The
subset pass's codewords use both, and the rho2 screen (whose one parent is
the whole vertex set) the first.  Each root's Newton loop stops on its own,
once its stated error bound is below ``_SECULAR_TOL``, so a root does not
depend on what shares its stack, and raises EigensolverError if it is still
uncertified after ``_SECULAR_ITERATIONS`` steps.  The pairs of
``perron_pairs_many`` and ``_eigenvalues`` are checked against the residual
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
    bad = residuals > RESIDUAL_TOL * np.maximum(1.0, np.abs(values))
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise EigensolverError(
            f"eigenpair residual {residuals[at]:.3e} exceeds tolerance for value {values[at]:.6g}"
        )


def perron_pairs_many(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue (m,) and a unit eigenvector (m, k) of each matrix in a (m, k, k)
    stack, each vector flipped toward its largest-magnitude entry (the first, on a tie)."""
    values, vectors = np.linalg.eigh(mats)
    values, vectors = values[:, -1], vectors[:, :, -1]
    _check_residuals(mats, values[:, None], vectors[:, :, None])
    flip = vectors[np.arange(vectors.shape[0]), np.abs(vectors).argmax(axis=1)] < 0
    return values, np.where(flip[:, None], -vectors, vectors)


def spectral_radius_many(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each matrix in a (m, k, k) stack."""
    if mats.size == 0:
        return np.zeros(mats.shape[0])
    return np.linalg.eigvalsh(mats)[..., -1]


_SECULAR_ITERATIONS = 64  # Newton steps; on every graph tested 1-3 suffice, 1-4 for an extension
_SECULAR_TOL = 1e-15  # certified error, relative to lam_n, at which an element's Newton loop stops


def _secular_roots(lam: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Perron root (...) of the deletion of one vertex v from a symmetric matrix
    with ascending eigenvalues ``lam`` (..., n), n >= 2, and Perron root lam_n,
    where ``w`` (..., n) holds Q_vi^2, the squares of v's entries in the unit
    eigenvectors, and ``u`` (..., n - 1) the reciprocals 1 / (lam_n - lam_i).

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
    ``lam``, ``w`` and ``u`` alone, not on the elements beside it.  Estimates
    are kept just above lam_{n-1}, where psi has its pole, and returned clipped
    to [lam_{n-1}, lam_n]: where v has no weight on lam_{n-1}'s eigenvectors,
    lam_{n-1} itself is the deletion's Perron root.  EigensolverError if some
    element's bound is still above ``_SECULAR_TOL`` after ``_SECULAR_ITERATIONS``
    steps.
    """
    shape, n = lam.shape[:-1], lam.shape[-1]
    lam, w, u = lam.reshape(-1, n), w.reshape(-1, n), u.reshape(-1, n - 1)
    top, low, rest = lam[:, -1], lam[:, -2], lam[:, :-1]
    wtop, wrest = w[:, -1], w[:, :-1]
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


def _bordered_roots(lam: np.ndarray, w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Perron root (e,) of the bordered matrix [[A, b], [b^T, 0]], where the
    symmetric A has ascending eigenvalues ``lam`` (e, k) and Perron root lam_k,
    ``w`` (e, k) holds z_i^2 for z = Q^T b in its unit eigenvectors Q, and ``u``
    (e, k - 1) the reciprocals 1 / (lam_k - lam_i).

    The eigenvalues of the bordered matrix are the roots of the bordered
    secular function f(x) = x - sum_i z_i^2 / (x - lam_i) (Bunch, Nielsen and
    Sorensen, Numer. Math. 31, 1978), and its Perron root r is the one root
    above lam_k, which is simple when z_k != 0 (a positive Perron vector and a
    positive border).  On x > lam_k, f is increasing and concave with f' >= 1,
    so Newton's method from any x <= r climbs to r monotonically.  Each element
    starts at lam_k + y for the larger of two lower bounds on r - lam_k: the
    2x2 root y^2 + lam_k y = z_k^2 of the compression to (q_k, 0) and (0, 1),
    and the root of f with each 1 / (x - lam_i), i < k, replaced by its tangent
    u_i - (x - lam_k) u_i^2, which lies below it.  A step from x with
    f(x) = -h leaves an error of at most h^2 / (x - lam_k) (concavity gives
    r - x <= h, and |f''| <= 2 f' / (x - lam_k)), so each element stops once its
    own bound is below ``_SECULAR_TOL`` relative to lam_k: its root depends on
    its own ``lam``, ``w`` and ``u`` alone.  EigensolverError if some element's
    bound is still above ``_SECULAR_TOL`` after ``_SECULAR_ITERATIONS`` steps.
    """
    top, wtop, wrest = lam[:, -1], w[:, -1], w[:, :-1]
    square = 2.0 * wtop / (top + np.sqrt(top * top + 4.0 * wtop))
    b = top - (wrest * u).sum(axis=-1)
    a = 1.0 + (wrest * u * u).sum(axis=-1)
    root = np.sqrt(b * b + 4.0 * a * wtop)
    tangent = np.where(b > 0, 2.0 * wtop / (b + root), (root - b) / (2.0 * a))
    x = top + np.maximum(square, tangent)
    tol = _SECULAR_TOL * top
    live = np.arange(x.size)
    for _ in range(_SECULAR_ITERATIONS):
        if not live.size:
            break
        at = x[live]
        r = 1.0 / (at[:, None] - lam[live])
        t = w[live] * r
        h = np.maximum(t.sum(axis=-1) - at, 0.0)
        x[live] = at + h / ((t * r).sum(axis=-1) + 1.0)
        live = live[h * h / (at - top[live]) > tol[live]]
    if live.size:
        raise EigensolverError(f"secular equation: {live.size} extension roots not "
                               f"certified in {_SECULAR_ITERATIONS} Newton steps")
    return x


def _parent_roots(mats: np.ndarray, use: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron roots from one eigendecomposition of the leading square block A
    (p, k, k), k >= 2, of each matrix of the stack ``mats`` (p, k, c), c >= k, each
    A with a positive Perron vector: its own (p,), and, in the row-major order of
    ``use`` (p, c), those of its deletion of the vertex of column j where
    ``use[i, j]`` holds for j < k, through ``_secular_roots``, and of its
    extension by the vertex of border column j >= k (with a zero diagonal entry
    and a positive column) where it holds for j >= k, through ``_bordered_roots``.
    The reciprocals 1 / (lam_k - lam_i) are computed once per matrix for both."""
    k = mats.shape[1]
    lam, q = np.linalg.eigh(mats[:, :, :k])
    u = 1.0 / (lam[:, -1:] - lam[:, :-1])
    i, j = np.nonzero(use)
    roots = np.empty(i.size)
    grow, cut = j >= k, j < k
    z = np.swapaxes(q, 1, 2) @ mats[:, :, k:]  # (p, k, c - k): each border in the eigenbasis
    roots[grow] = _bordered_roots(lam[i[grow]], z[i[grow], :, j[grow] - k] ** 2, u[i[grow]])
    roots[cut] = _secular_roots(lam[i[cut]], q[i[cut], j[cut]] ** 2, u[i[cut]])
    return lam[:, -1], roots


def _eigenvalues(a: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the symmetric matrix ``a``, ascending."""
    values, vectors = np.linalg.eigh(a)
    _check_residuals(a, values, vectors)
    return values
