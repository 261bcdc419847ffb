"""Distance Pareto spectra by principal-submatrix enumeration.

The set of distance Pareto (complementarity) eigenvalues of a connected graph
equals the set of Perron roots of all nonempty principal submatrices of its
distance matrix.  ``pareto_spectrum`` enumerates every vertex subset in
canonical order (ascending cardinality, lexicographic within a cardinality),
computes each Perron root with a full symmetric eigendecomposition batched by
subset size, then deduplicates with a relative tolerance.  The witness kept
for each distinct value is the first subset in canonical order, i.e. the
lexicographically smallest one of smallest cardinality.  The spectrum keeps
the values and the witnesses' canonical flat indices as arrays; ``_decode``
turns the indices into vertex labels only when the witnesses are read.

``_perron_roots_for_rows`` is the one gather-and-solve kernel: it serves the
spectrum, the rho2 screen and the batched sweeps in ``verify``.
``_perron_pairs_for_rows`` adds the vectors, for ``pareto_eigenpair`` (one
row) and the convexity sweep in ``verify`` (every subset of a tree).  Both take
their submatrices from ``_gathered``, at most ``_GATHER_BYTES`` per block.
``_all_subset_values`` is the one pass over every subset, for one matrix (the
spectrum) or a stack (``_distinct_counts``, the extremal search's counts).

``_rho2_many`` is the one rho2 screen, for a stack of graphs: it screens all n
single-vertex deletions of each graph with one ``eigh`` of its distance matrix
and O(n^2) work per Newton step on the secular equation
(``spectral._deletion_roots``), instead of n deletion eigensolves at O(n^4),
and recomputes with the kernel only the few deletions screened near each
graph's top.  ``rho2_fast`` is its one-graph case, and the sweeps in
``verify`` run it on a whole stack.

rho2 and its witness are kept on the ``Graph`` instance beside its distances,
in the slot ``_rho2``.  ``pareto_spectrum`` fills it from its size n - 1 block,
which holds every deletion, through ``_rho2_of_deletions``, the rule of
``_rho2_many``; ``rho2_fast`` returns the slot when it is filled and otherwise
screens and fills it.  So a graph whose spectrum was enumerated never screens.

``jobs > 1`` splits the canonical subset range into contiguous chunks handled
by worker threads (LAPACK releases the GIL); the deduplication runs on the
merged value array, so results are identical for every worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import types
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, EigensolverError
from .graph import Graph, distance_matrix
from .spectral import _deletion_roots, perron_pairs_many, spectral_radius_many

__all__ = [
    "ParetoSpectrum",
    "ParetoEigenpair",
    "DEFAULT_DEDUP_TOL",
    "DEFAULT_MAX_ORDER",
    "pareto_spectrum",
    "pareto_count",
    "rho2_fast",
    "pareto_eigenpair",
]

DEFAULT_DEDUP_TOL = 1e-8
DEFAULT_MAX_ORDER = 20
_RHO2_MAX_ORDER = 400  # rho2 command and forms; K_400 solves all 400 deletions in about 4.5 s
_GATHER_BYTES = 16 << 20  # bytes of gathered work array per batched call
_SCREEN_WINDOW = 1e-9  # the rho2 screen recomputes deletions this close to a graph's top


@dataclass(frozen=True, eq=False)
class ParetoSpectrum:
    """Distinct distance Pareto eigenvalues of one graph, ascending, one witness each.

    The spectrum is held as read-only arrays: ``value_array`` (float64) and
    ``witness_index``, the canonical flat index of each witness subset.  The
    tuple forms ``values`` and ``witnesses`` are built on first read; two
    spectra are equal when those forms, the tolerance and the order are.
    """

    value_array: np.ndarray
    witness_index: np.ndarray
    dedup_tolerance: float
    graph_order: int

    @functools.cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(self.value_array.tolist())

    @functools.cached_property
    def witness_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The witnesses' vertex labels, concatenated in value order, and the size of each."""
        return _decode(self.witness_index, _subsets_by_size(self.graph_order))

    @functools.cached_property
    def witnesses(self) -> tuple[tuple[int, ...], ...]:
        labels, sizes = self.witness_rows
        ends = np.cumsum(sizes)
        rows = map(slice, (ends - sizes).tolist(), ends.tolist())
        return tuple(map(tuple, map(labels.tolist().__getitem__, rows)))

    @property
    def count(self) -> int:
        return self.value_array.size

    def rho_k(self, k: int) -> float:
        """k-th largest distinct value (k = 1 is the spectral radius)."""
        if not (1 <= k <= self.count):
            raise ValueError(f"k must be in 1..{self.count}, got {k}")
        return float(self.value_array[-k])

    def mu_k(self, k: int) -> float:
        """k-th smallest distinct value (k = 1 is always 0)."""
        if not (1 <= k <= self.count):
            raise ValueError(f"k must be in 1..{self.count}, got {k}")
        return float(self.value_array[k - 1])

    def __eq__(self, other):
        if not isinstance(other, ParetoSpectrum):
            return NotImplemented
        # equal flat indices at one order are equal witness subsets
        return (
            (self.dedup_tolerance, self.graph_order) == (other.dedup_tolerance, other.graph_order)
            and np.array_equal(self.value_array, other.value_array)
            and np.array_equal(self.witness_index, other.witness_index)
        )

    def __hash__(self):
        return hash((self.values, self.dedup_tolerance, self.graph_order))


@dataclass(frozen=True, eq=False)
class ParetoEigenpair:
    """One Pareto eigenvalue with its supported nonnegative unit eigenvector."""

    value: float
    support: tuple[int, ...]
    vector: np.ndarray  # length graph_order, zero exactly off the support

    def __post_init__(self):
        self.vector.setflags(write=False)


# ---------------------------------------------------------------------------
# Subset machinery


@functools.cache
def _subsets_by_size(n: int) -> Mapping[int, np.ndarray]:
    """Size -> (C(n,k), k) array of subsets, rows in lexicographic order.

    Built once per order and shared, so the mapping and its arrays are
    read-only.  The arrays are uint8, which holds every label up to the cap
    n <= ``DEFAULT_MAX_ORDER`` (20): 10.5 MB at n = 20 rather than 84 MB of intp.
    """
    out = {}
    for k in range(1, n + 1):
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
        rows = np.fromiter(flat, dtype=np.uint8, count=math.comb(n, k) * k).reshape(-1, k)
        rows.setflags(write=False)
        out[k] = rows
    return types.MappingProxyType(out)


def _gathered(stack: np.ndarray, rows: np.ndarray):
    """Yield (mats, part, subs): the submatrices ``subs`` of the stack (m, n, n)
    ``stack[mats]`` on the index rows ``rows[part]``, at most ``_GATHER_BYTES`` (or
    one submatrix) per block, so memory stays bounded whatever m and the rows are."""
    m = stack.shape[0]
    r, k = rows.shape
    per_row = max(1, _GATHER_BYTES // (k * k * 8 * max(1, m)))  # rows per block
    per_mat = max(1, _GATHER_BYTES // (k * k * 8 * per_row))  # matrices per block
    for i in range(0, m, per_mat):
        for lo in range(0, r, per_row):
            sel = rows[lo : lo + per_row]
            yield (slice(i, i + per_mat), slice(lo, lo + per_row),
                   stack[i : i + per_mat, sel[:, :, None], sel[:, None, :]])


def _perron_roots_for_rows(dmat: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Perron roots of ``dmat`` restricted to each index row of ``rows``.

    ``dmat`` is one (n, n) matrix or a stack (m, n, n); the result has shape
    (r,) or (m, r) for r rows.  Submatrices come in ``_gathered`` blocks.
    """
    d = dmat.astype(np.float64, copy=False)
    stack = d.reshape((-1,) + d.shape[-2:])
    r, k = rows.shape
    if k == 1:
        out = np.zeros((stack.shape[0], r))
    elif k == 2:
        out = stack[:, rows[:, 0], rows[:, 1]]
    else:
        out = np.empty((stack.shape[0], r))
        for mats, part, subs in _gathered(stack, rows):
            out[mats, part] = spectral_radius_many(subs.reshape(-1, k, k)).reshape(subs.shape[:2])
    return out.reshape(d.shape[:-2] + (r,))


def _perron_pairs_for_rows(d: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Perron values (r,) and vectors (r, n), zero off the row, of the (n, n) matrix
    ``d`` restricted to each index row of ``rows``, gathered in ``_gathered`` blocks.

    EigensolverError unless each vector x is positive on its row, D x >= value x
    (complementarity) and x^T D x = value (Rayleigh).
    """
    r = rows.shape[0]
    values = np.empty(r)
    vectors = np.zeros((r, d.shape[0]))
    low = np.empty(r)  # smallest vector entry on each row
    for _, part, subs in _gathered(d[None], rows):
        values[part], vecs = perron_pairs_many(subs[0])
        np.put_along_axis(vectors[part], rows[part], vecs, axis=1)
        low[part] = vecs.min(axis=1)
    tol = 1e-9 * np.maximum(1.0, np.abs(values))
    dx = vectors @ d  # row i is D x for x = vectors[i], as D is symmetric
    for bad, what in (
        (low <= 1e-12, "Perron vector not strictly positive"),
        ((dx - values[:, None] * vectors).min(axis=1) < -tol, "complementarity condition violated"),
        (np.abs(np.einsum("ij,ij->i", dx, vectors) - values) > tol, "Rayleigh identity violated"),
    ):
        if bad.any():
            raise EigensolverError(f"{what} on support {tuple(rows[bad.argmax()].tolist())}")
    return values, vectors


def _map_spans(fn, total: int, jobs: int) -> list:
    """``fn`` over ``jobs`` contiguous spans of range(total), results in span order.

    Spans run in worker threads (LAPACK and numpy release the GIL), at most one
    per CPU; the split depends only on ``jobs``.
    """
    jobs = max(1, int(jobs))
    if jobs == 1 or total < 2 * jobs:
        return [fn((0, total))]
    bounds = np.linspace(0, total, jobs + 1).astype(int)
    spans = [(int(bounds[i]), int(bounds[i + 1])) for i in range(jobs)]
    with ThreadPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as pool:
        return list(pool.map(fn, spans))


def _size_offsets(subsets: Mapping[int, np.ndarray]) -> np.ndarray:
    """Canonical flat index at which each subset size starts, then the total."""
    return np.concatenate([[0], np.cumsum([rows.shape[0] for rows in subsets.values()])])


def _all_subset_values(dmat: np.ndarray, subsets: Mapping[int, np.ndarray], jobs: int) -> np.ndarray:
    """Perron roots for every nonempty subset, in canonical flat order.

    ``dmat`` is one (n, n) matrix or a stack (m, n, n); the result has shape
    (2^n - 1,) or (m, 2^n - 1).
    """
    offsets = _size_offsets(subsets)
    total = int(offsets[-1])
    values = np.empty(dmat.shape[:-2] + (total,), dtype=np.float64)

    def fill(span: tuple[int, int]) -> None:
        lo, hi = span
        for k, rows in subsets.items():
            k_lo, k_hi = int(offsets[k - 1]), int(offsets[k])
            a, b = max(lo, k_lo), min(hi, k_hi)
            if a < b:
                values[..., a:b] = _perron_roots_for_rows(dmat, rows[a - k_lo : b - k_lo])

    _map_spans(fill, total, jobs)
    return values


def _breaks(s: np.ndarray, tol: float) -> np.ndarray:
    """Where ascending values (along the last axis) start a new distinct value.

    Two Perron roots a <= b belong to the same Pareto eigenvalue when
    b - a <= tol * max(1, b).
    """
    return (s[..., 1:] - s[..., :-1]) > tol * np.maximum(1.0, s[..., 1:])


def _dedup(values: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster near-equal values (at least one); return (representatives, witness
    flat indices).

    Clusters break where ``_breaks`` says so.  The representative of each
    cluster is the value at the smallest canonical index in the cluster.
    """
    order = np.argsort(values, kind="stable")
    s = values[order]
    starts = np.concatenate([[0], np.nonzero(_breaks(s, tol))[0] + 1])
    witness_idx = np.minimum.reduceat(order, starts)
    return values[witness_idx], witness_idx


def _distinct_counts(dmats: np.ndarray, tol: float, jobs: int = 1) -> np.ndarray:
    """Distinct Pareto eigenvalue count per distance matrix in a stack (m, n, n);
    ``jobs`` workers split the subset range, as for one matrix."""
    values = _all_subset_values(dmats, _subsets_by_size(dmats.shape[-1]), jobs)
    values.sort(axis=-1)
    return 1 + _breaks(values, tol).sum(axis=-1)


def _decode(witness_idx: np.ndarray, subsets: Mapping[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The labels of the subsets at the canonical flat indices ``witness_idx``,
    concatenated in the same order, and the size of each subset.

    Each size's rows come from one fancy index into ``subsets[k]`` and go to
    their places in the output with one scatter.
    """
    offsets = _size_offsets(subsets)
    sizes = np.searchsorted(offsets, witness_idx, side="right")  # offsets[k-1] <= idx < offsets[k]
    ends = np.cumsum(sizes)
    labels = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    order = np.argsort(witness_idx)  # grouped by size
    cuts = np.searchsorted(witness_idx[order], offsets)  # size k at order[cuts[k-1]:cuts[k]]
    for k, rows in subsets.items():
        sel = order[cuts[k - 1] : cuts[k]]
        labels[(ends[sel] - k)[:, None] + np.arange(k)] = rows[witness_idx[sel] - offsets[k - 1]]
    labels.setflags(write=False)
    sizes.setflags(write=False)
    return labels, sizes


# ---------------------------------------------------------------------------
# Public operations


def _check_order(n: int) -> None:
    """Raise CapExceededError if ``pareto_spectrum`` would refuse an n-vertex graph."""
    if n > DEFAULT_MAX_ORDER:
        raise CapExceededError(
            f"pareto_spectrum enumerates 2^n - 1 subsets; n={n} exceeds cap {DEFAULT_MAX_ORDER}"
        )


def _check_rho2_order(n: int) -> None:
    """Raise CapExceededError if the ``rho2`` command would refuse an n-vertex graph."""
    if n > _RHO2_MAX_ORDER:
        raise CapExceededError(
            f"rho2 solves up to n deletions of order n - 1; n={n} exceeds cap {_RHO2_MAX_ORDER}"
        )


def pareto_spectrum(
    g: Graph,
    *,
    jobs: int = 1,
    dedup_tolerance: float = DEFAULT_DEDUP_TOL,
) -> ParetoSpectrum:
    """All distinct distance Pareto eigenvalues of ``g`` with one witness each.

    At n >= 2 it also keeps rho2 and its witness on ``g``, from the same pass,
    for ``rho2_fast``.  Raises ValueError unless ``dedup_tolerance`` is finite
    and non-negative.
    """
    if not (math.isfinite(dedup_tolerance) and dedup_tolerance >= 0):
        raise ValueError(f"dedup tolerance must be finite and >= 0, got {dedup_tolerance}")
    _check_order(g.n)
    subsets = _subsets_by_size(g.n)
    values = _all_subset_values(distance_matrix(g), subsets, jobs)
    if g.n >= 2:
        # the size n - 1 block, the n subsets before the whole vertex set, holds
        # every deletion; its row i deletes vertex n - 1 - i
        value, vertex = _rho2_of_deletions(values[-1 - g.n : -1][::-1])
        _keep_rho2(g, (float(value), int(vertex)))
    reps, witness_idx = _dedup(values, dedup_tolerance)
    reps.setflags(write=False)
    witness_idx.setflags(write=False)
    return ParetoSpectrum(reps, witness_idx, dedup_tolerance, g.n)


def pareto_count(g: Graph, **kwargs) -> int:
    """Number of distinct distance Pareto eigenvalues."""
    return pareto_spectrum(g, **kwargs).count


def rho2_fast(g: Graph) -> tuple[float, int]:
    """Second largest distance Pareto eigenvalue without full enumeration.

    rho2 is the largest Perron root over the single-vertex deletions D - v.
    A pendant vertex p never attains it when n >= 3: for its neighbor q,
    D[V - q] with p relabelled q is >= D[V - p] entrywise, and strictly larger
    in p's row (d(p, x) = d(q, x) + 1), so by Perron-Frobenius the deletion of
    q has the strictly larger root.  So no filter is needed: the witness is
    never a pendant vertex, except in K_2, where both deletions are the 1x1
    zero matrix.

    The value comes from the screen ``_rho2_many`` on D alone.  Returns the
    value and the smallest vertex within 1e-12 of it.  The pair is kept on
    ``g``; when ``pareto_spectrum(g)`` or an earlier call has kept it, it is
    returned without screening.
    """
    if g.n < 2:
        raise ValueError("second largest Pareto eigenvalue needs n >= 2")
    d = distance_matrix(g)
    if "_rho2" in g.__dict__:
        return g.__dict__["_rho2"]
    value, vertex = _rho2_many(d[None])
    return _keep_rho2(g, (float(value[0]), int(vertex[0])))


def _keep_rho2(g: Graph, pair: tuple[float, int]) -> tuple[float, int]:
    """Keep ``pair``, rho2 and its witness, on ``g`` beside its distances, and return it."""
    object.__setattr__(g, "_rho2", pair)  # Graph is frozen; not a field, so not compared
    return pair


def _deletion_rows(n: int) -> np.ndarray:
    """(n, n - 1) index rows; row v keeps every vertex but v."""
    keep = np.arange(n - 1)
    return keep + (keep >= np.arange(n)[:, None])


def _rho2_of_deletions(roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho2 (...) and witness vertices (...) from the Perron roots ``roots``
    (..., n) of the single-vertex deletions of graphs: the largest root, and the
    first vertex within 1e-12 relative of it."""
    vmax = roots.max(axis=-1, keepdims=True)
    pick = np.argmax(roots >= vmax - 1e-12 * np.maximum(1.0, np.abs(vmax)), axis=-1)
    return np.take_along_axis(roots, pick[..., None], axis=-1)[..., 0], pick


def _rho2_many(dmats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho2 (m,) and witness vertices (m,) of a stack (m, n, n) of connected
    distance matrices, n >= 2, with the witness rule of ``rho2_fast``.

    ``_deletion_roots`` screens every deletion of every matrix from one
    eigendecomposition each, certified to 1e-13 relative (about 1e-15 in
    practice).  Only the deletions screened within ``_SCREEN_WINDOW`` (1e-9
    relative) of their graph's largest root are recomputed with
    ``_perron_roots_for_rows``, one call per deletion vertex over the graphs
    that keep it, so each value comes from the same kernel on the same
    submatrix as a sweep over every deletion, and the screen's error would
    have to reach the window to change the result.
    """
    screened = _deletion_roots(dmats)
    top = screened.max(axis=-1, keepdims=True)
    near = screened >= top - _SCREEN_WINDOW * np.maximum(1.0, top)
    rows = _deletion_rows(dmats.shape[-1])
    roots = np.full(near.shape, -np.inf)
    for v in np.flatnonzero(near.any(axis=0)).tolist():
        roots[near[:, v], v] = _perron_roots_for_rows(dmats[near[:, v]], rows[v : v + 1])[:, 0]
    return _rho2_of_deletions(roots)


def pareto_eigenpair(g: Graph, support: tuple[int, ...] | list[int]) -> ParetoEigenpair:
    """Pareto eigenpair for a given support set J.

    The value is the Perron root of the distance submatrix on J and the vector
    is its Perron eigenvector embedded at positions J (zeros elsewhere), both
    from ``_perron_pairs_for_rows``, which verifies the complementarity
    condition (Dx >= value * x) and the Rayleigh identity.
    """
    J = tuple(sorted(set(int(v) for v in support)))
    if not J:
        raise ValueError("support must be nonempty")
    d = distance_matrix(g)
    if J[0] < 0 or J[-1] >= g.n:
        raise ValueError(f"support {J} out of range [0, {g.n})")
    values, vectors = _perron_pairs_for_rows(d, np.array([J]))
    return ParetoEigenpair(value=float(values[0]), support=J, vector=vectors[0])
