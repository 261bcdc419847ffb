"""Distance Pareto spectra by principal-submatrix enumeration.

The set of distance Pareto (complementarity) eigenvalues of a connected graph
equals the set of Perron roots of all nonempty principal submatrices of its
distance matrix.  ``pareto_spectrum`` enumerates every vertex subset in
canonical order (ascending cardinality, lexicographic within a cardinality),
computes each Perron root with a full symmetric eigendecomposition batched by
subset size, then deduplicates with a relative tolerance.  The witness kept
for each distinct value is the first subset in canonical order, i.e. the
lexicographically smallest one of smallest cardinality.  The spectrum keeps
the values and the witnesses' canonical flat indices as arrays; the order's
``_subset_masks`` turns the indices into bit masks, which the CLI writes, and
bit shifts turn those into vertex labels, only when the witnesses are read.

Each order's subset tables, the rows of every size (``_subsets_by_size``) and
the flat bit masks (``_subset_masks``), are built once and shared read-only,
each size from the size below by the suffix recursion of lexicographic order
(``_suffix_blocks``), with no smaller order's tables.

``_perron_roots_for_rows`` is the one Perron-root kernel: the subset pass,
rho2 below the screen's order, the screen's recomputes and the coalescence
check in ``verify`` all call it.  ``_perron_pairs_for_rows`` adds the vectors,
for ``pareto_eigenpair`` (one row) and the convexity sweep in ``verify``
(every subset of a tree).  Both take their submatrices from ``_gathered``, at
most ``_GATHER_BYTES`` per block, each block one ``take`` at flat offsets into
its matrices (``_flat_offsets``); the plan's direct batches keep theirs, built
once per order.  On a stack the same small submatrices recur across the graphs
(99 distinct 3 x 3 ones stand for the 342,510 3-subsets of the order-7 classes
and their edge deletions), so on more than one int64 matrix and k >= 3 the
kernel gathers each submatrix's upper triangle alone, keys it by those
entries, and solves each distinct submatrix of a block once.  Within one
matrix few submatrices repeat, and it solves each as it is.
``_all_subset_values`` is the one pass over every subset, for one matrix (the
spectrum) or a stack (``_distinct_counts``, the extremal search's counts).

The subset pass follows the ``_plan`` of its matrix's order, built once per
order from the order alone: from order 11 on, the codewords of a radius-1
covering code of the subset cube are the parents.  One ``eigh`` of each
codeword J of size 3 to n - 2 gives J's own root and those of the neighbours
J - v and J + u the code assigns to it, through the secular equation of a
deletion and the bordered secular equation of an extension
(``spectral._parent_roots``, in ``_parent_batch``, whose ``_gathered`` blocks
hold J's rows by every column).  Every subset of size 3 to n - 2 but a few is
a codeword or one toggle from its codeword; the rest go to the kernel.  A
root from a parent is within ``_PARENT_ERR`` (E = 1e-13) relative of the
kernel's, a tested bound.  The output stays the kernel's byte for byte:
``_settle`` falls back to the kernel for every parent root of a matrix whose
clusters an error of E could change, and ``_exact_representatives`` takes
from the kernel each representative that is among the n largest, near an
integer, or whose ``%.12g`` text E could change; both hand their slots to
``_recompute``, which makes one kernel call per subset size over every matrix
it is given.  The rho2 block is always solved by the kernel.

``_rho2_many`` gives rho2 for a stack of graphs; ``rho2_fast`` is its
one-graph case, and the sweeps in ``verify`` run it on a whole stack.  Below
order ``_SCREEN_MIN_ORDER`` (7) the kernel solves every single-vertex
deletion, one solve per distinct deletion submatrix of a stack.  From that
order up the rho2 screen ``_rho2_screen`` runs: one parent batch
(``_parent_batch`` on the whole vertex set, in bounded ``_gathered`` blocks)
screens all n deletions of each graph with one ``eigh`` and O(n^2) work per
Newton step on the secular equation, instead of n deletion eigensolves at
O(n^4), and the kernel recomputes only the few deletions screened near each
graph's top, over the graphs that keep each (one solve per distinct
submatrix there too).  The screen's fixed cost per graph is above that of
the n small eigensolves below order 7 (measured on class and random stacks),
and both routes give the kernel's bits.

rho2 and its witness are kept on the ``Graph`` instance beside its distances,
in the slot ``_rho2``.  ``pareto_spectrum`` fills it from its size n - 1 block,
which holds every deletion, through ``_rho2_of_deletions``, the rule of
``_rho2_many``; ``rho2_fast`` returns the slot when it is filled and otherwise
computes and fills it.  So a graph whose spectrum was enumerated never
solves its deletions again.

``jobs > 1`` splits the plan's batches into contiguous spans handled by
worker threads (LAPACK releases the GIL); every root is computed alone, and
the deduplication runs on the merged value array, so results are identical
for every worker count.
"""

from __future__ import annotations

import functools
import math
import os
import types
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, EigensolverError
from .graph import Graph, distance_matrix
from .spectral import _parent_roots, perron_pairs_many, spectral_radius_many

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
_SCREEN_MIN_ORDER = 7  # measured: below it the kernel on every deletion is faster than the rho2 screen
_PARENT_ERR = 1e-13  # bound on |root from a parent - kernel root| / root, tested


@dataclass(frozen=True, eq=False)
class ParetoSpectrum:
    """Distinct distance Pareto eigenvalues of one graph, ascending, one witness each.

    The spectrum is held as read-only arrays: ``value_array`` (float64) and
    ``witness_index``, the canonical flat index of each witness subset.  The
    witnesses' bit masks ``witness_masks`` and the tuple forms ``values`` and
    ``witnesses`` (read off the masks) are built on first read; two spectra are
    equal when those forms, the tolerance and the order are.
    """

    value_array: np.ndarray
    witness_index: np.ndarray
    dedup_tolerance: float
    graph_order: int

    @functools.cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(self.value_array.tolist())

    @functools.cached_property
    def witness_masks(self) -> np.ndarray:
        """The witnesses as bit masks (bit v for vertex v), int32, in value order."""
        masks = _subset_masks(self.graph_order)[self.witness_index]
        masks.setflags(write=False)
        return masks

    @functools.cached_property
    def witnesses(self) -> tuple[tuple[int, ...], ...]:
        bits = (self.witness_masks[:, None] >> np.arange(self.graph_order)) & 1
        labels, ends = np.nonzero(bits)[1].tolist(), np.cumsum(bits.sum(axis=1)).tolist()
        return tuple(map(tuple, map(labels.__getitem__, map(slice, [0] + ends[:-1], ends))))

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


def _suffix_blocks(n: int, k: int):
    """Yield (i, at, tail) for each first vertex i of the k-subsets of range(n),
    k >= 2, by the suffix recursion of lexicographic order (Knuth, TAOCP 4A,
    7.2.1.3): the k-subsets that start at i fill the slice ``at`` of the size-k
    block, and their tails are the slice ``tail`` of the size k - 1 block, its
    last C(n - 1 - i, k - 1) subsets, those of i + 1..n - 1."""
    below, pos = math.comb(n, k - 1), 0
    for i in range(n - k + 1):
        count = math.comb(n - 1 - i, k - 1)
        yield i, slice(pos, pos + count), slice(below - count, below)
        pos += count


@functools.cache
def _subsets_by_size(n: int) -> Mapping[int, np.ndarray]:
    """Size -> (C(n,k), k) array of subsets, rows in lexicographic order.

    Each size is built from the size below by ``_suffix_blocks``.  Built once
    per order and shared, so the mapping and its arrays are read-only.  The
    arrays are uint8, which holds every label up to the cap n <=
    ``DEFAULT_MAX_ORDER`` (20): 10.5 MB at n = 20 rather than 84 MB of intp.
    """
    rows = np.arange(n, dtype=np.uint8)[:, None]
    out = {}
    for k in range(1, n + 1):
        if k > 1:
            prev, rows = rows, np.empty((math.comb(n, k), k), dtype=np.uint8)
            for i, at, tail in _suffix_blocks(n, k):
                rows[at, 0] = i
                rows[at, 1:] = prev[tail]
        rows.setflags(write=False)
        out[k] = rows
    return types.MappingProxyType(out)


def _subset_fold(n: int, op: np.ufunc, leaf: np.ndarray) -> np.ndarray:
    """``op`` folded over ``leaf[v]`` for v in each nonempty subset of range(n), in
    canonical flat order (2^n - 1,), of the dtype of ``leaf``: each size from the
    size below by ``_suffix_blocks``, one ``op`` call per first vertex."""
    out = np.empty((1 << n) - 1, dtype=leaf.dtype)
    out[:n] = leaf
    start = 0  # the slot at which size k - 1 starts
    for k in range(2, n + 1):
        prev = out[start : start + math.comb(n, k - 1)]
        start += prev.size
        block = out[start : start + math.comb(n, k)]
        for i, at, tail in _suffix_blocks(n, k):
            op(prev[tail], leaf[i], out=block[at])
    return out


@functools.cache
def _subset_masks(n: int) -> np.ndarray:
    """The bit mask (bit v for vertex v) of every nonempty subset of range(n), in
    canonical flat order: int32 (2^n - 1,), built once per order and read-only."""
    masks = _subset_fold(n, np.bitwise_or, np.left_shift(1, np.arange(n, dtype=np.int32)))
    masks.setflags(write=False)
    return masks


def _flat_offsets(rows: np.ndarray, n: int, lead: int | None = None) -> np.ndarray:
    """Offsets (r, lead, c) into a row-major n x n matrix of the submatrices on the
    index rows ``rows[:, :lead]`` by the columns ``rows`` (r, c), square when
    ``lead`` is None; intp, which numpy indexes with no cast."""
    rows = rows.astype(np.intp)
    return rows[:, :lead, None] * n + rows[:, None, :]


def _gathered(stack: np.ndarray, rows: np.ndarray, lead: int | None = None,
              pick: np.ndarray | None = None, flat: np.ndarray | None = None):
    """Yield (mats, part, subs): the submatrices ``subs`` of the matrices ``mats``
    of the stack (m, n, n), or of ``stack[pick]``, on the index rows
    ``rows[part, :lead]`` by the columns ``rows[part]`` (square when ``lead`` is
    None), at most ``_GATHER_BYTES`` (or one submatrix) per block, so memory
    stays bounded whatever m and the rows are.  Each block is one ``take`` from
    the (matrices, n * n) view of its matrices at the ``_flat_offsets`` of its
    rows, or at ``flat[part]`` when the caller holds them (a plan's batch, or
    the upper triangles alone, which give blocks (matrices, rows, k(k-1)/2)).
    A block holds at most ``_GATHER_BYTES // (8 k c)`` (matrix, row) pairs;
    offsets made here take as many bytes as one matrix's submatrices, so they
    count as one more matrix in the block's budget."""
    m = stack.shape[0] if pick is None else pick.size
    r, c = rows.shape
    k, n = c if lead is None else lead, stack.shape[-1]
    per_row = max(1, _GATHER_BYTES // (k * c * 8 * max(1, m + (flat is None))))
    per_mat = max(1, _GATHER_BYTES // (k * c * 8 * per_row))
    for i in range(0, m, per_mat):
        mats = slice(i, i + per_mat)
        block = (stack[mats] if pick is None else stack[pick[mats]]).reshape(-1, n * n)
        for lo in range(0, r, per_row):
            part = slice(lo, lo + per_row)  # offsets made here are freed before the yield
            yield mats, part, block.take(
                _flat_offsets(rows[part], n, lead) if flat is None else flat[part], axis=1)


def _perron_roots_for_rows(dmat: np.ndarray, rows: np.ndarray, pick: np.ndarray | None = None,
                           flat: np.ndarray | None = None) -> np.ndarray:
    """Perron roots of ``dmat`` restricted to each index row of ``rows``.

    ``dmat`` is one (n, n) matrix or a stack (m, n, n); the result has shape
    (r,) or (m, r) for r rows, or (p, r) for the p matrices ``dmat[pick]``.
    Submatrices come in ``_gathered`` blocks, at the offsets ``flat`` when
    given, so no copy of the stack is made; a 2 x 2 one's root is its entry
    off the diagonal, and a 1 x 1 one's is 0.

    When it solves more than one int64 matrix and k >= 3, the same small
    distance submatrices recur across them, and each block solves each
    distinct one once.  A distance submatrix is symmetric with a zero
    diagonal, so its strict upper triangle, gathered alone, fixes it; read as
    the digits of one integer in base 1 + the block's largest entry, it is
    the submatrix's key.  One matrix per distinct key is built from the key's
    digits and solved, and its root goes to every subset with that key; a
    block whose keys would not fit in int64 is built from its triangles and
    solved whole.  ``eigvalsh`` solves each matrix of a stack alone, so equal
    submatrices give equal bits, and the roots are those of each submatrix
    solved as it is.
    """
    stack = dmat.reshape((-1,) + dmat.shape[-2:])
    r, k = rows.shape
    out = np.zeros((stack.shape[0] if pick is None else pick.size, r))
    distinct = out.shape[0] > 1 and k > 2 and stack.dtype == np.int64
    if distinct:  # gather the strict upper triangles alone
        iu, ju = np.nonzero(np.arange(k)[:, None] < np.arange(k))
        flat = (_flat_offsets(rows, stack.shape[-1]) if flat is None else flat)[:, iu, ju]
    if k > 1:
        for mats, part, subs in _gathered(stack, rows, pick=pick, flat=flat):
            if k == 2:
                out[mats, part] = subs[:, :, 0, 1]
            elif not distinct:
                out[mats, part] = spectral_radius_many(subs.reshape(-1, k, k)).reshape(subs.shape[:2])
            else:
                tri, inverse = subs.reshape(-1, iu.size), slice(None)  # one matrix a triangle
                base = int(tri.max()) + 1
                if base ** iu.size <= 1 << 63:  # the largest key, base^digits - 1, fits in int64
                    powers = base ** np.arange(iu.size)
                    keys, inverse = np.unique(tri @ powers, return_inverse=True)
                    tri = keys[:, None] // powers % base
                reps = np.zeros((tri.shape[0], k, k))
                reps[:, iu, ju] = reps[:, ju, iu] = tri
                out[mats, part] = spectral_radius_many(reps)[inverse].reshape(subs.shape[:2])
    return out.reshape((dmat.shape[:-2] if pick is None else pick.shape) + (r,))


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
        vectors[part][np.arange(vecs.shape[0])[:, None], rows[part]] = vecs
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


@dataclass(frozen=True, eq=False)
class _Batch:
    """Subsets of one size k solved together: the index rows ``rows`` (r, k) of a
    direct batch, which the kernel solves at their ``_flat_offsets`` ``flat``
    (r, k, k), or the rows (r, n) of a codeword batch, each a codeword J's k
    members and then the other vertices, and ``at`` (r,) the canonical flat
    slot of each one's Perron root.  One eigendecomposition of each codeword
    gives its own root and, where ``use`` (r, n) holds, the root of its
    neighbour at the slot ``child_at`` (r, n): J less the member in column
    j < k, or J with the vertex in column j >= k."""

    k: int
    rows: np.ndarray
    at: np.ndarray
    use: np.ndarray | None = None
    child_at: np.ndarray | None = None
    flat: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class _Plan:
    """Where each Perron root of an order's subset pass comes from: ``batches``,
    in the order ``--jobs`` splits them, the place of each one's first subset in
    that order and then their total (``starts``), ``approx`` (2^n - 1,), true
    at the slots a codeword batch fills, and ``offsets`` (n + 1,), the canonical
    flat slot at which each subset size starts and then the total."""

    batches: tuple[_Batch, ...]
    starts: tuple[int, ...]
    approx: np.ndarray
    offsets: np.ndarray


_CODE_MIN_ORDER = 11  # measured: below it the direct kernel is faster than the small codeword batches


@functools.cache
def _plan(n: int) -> _Plan:
    """The subset pass of order n, built once per order from n alone.

    From order ``_CODE_MIN_ORDER`` on, the pass follows a covering code of
    radius 1 of the subset cube (a Hamming-type code: Hamming, Bell Syst. Tech.
    J. 29, 1950).  The syndrome of a subset S is the XOR of v + 1 over v in S,
    an m-bit number for m = n.bit_length(), and the codewords are the subsets
    whose syndrome lies in T = {0} when n = 2^m - 1 (the perfect Hamming code)
    and in T = {0, 2^m - 1} otherwise.  A subset of syndrome s outside T is one
    toggle of vertex u from exactly one codeword: u + 1 = s when s <= n, and
    otherwise u + 1 = s XOR (2^m - 1), which lies in 1..2^(m-1) - 1.  The
    syndromes come from ``_subset_fold`` and the slots of a codeword's
    neighbours from the order's ``_subset_masks``, not from the rows.  One
    eigendecomposition of each codeword J of size 3..n - 2 solves J and each
    neighbour J - v or J + u of size 3..n - 2 that the code assigns to it.
    Sizes 1, 2, n - 1 (the rho2 block) and n, the subsets whose codeword has
    size <= 2 or >= n - 1, and every subset of a smaller order are solved
    directly.
    """
    subsets = _subsets_by_size(n)
    offsets = np.cumsum([0] + [len(r) for r in subsets.values()], dtype=np.int32)  # every index is int32
    batches = []
    approx = np.zeros(int(offsets[-1]), dtype=bool)
    if n >= _CODE_MIN_ORDER:
        masks = _subset_masks(n)
        bit = masks[:n]  # the one-vertex subsets come first
        slot = np.empty(1 << n, dtype=np.int32)  # bit mask of a subset -> its flat slot
        slot[masks] = np.arange(masks.size, dtype=np.int32)
        syndrome = _subset_fold(n, np.bitwise_xor, np.arange(1, n + 1, dtype=np.uint8))
        full = (1 << n.bit_length()) - 1
        toggle = np.where(syndrome <= n, syndrome, syndrome ^ full)  # u + 1; 0 at a codeword
        for k in range(3, n - 1):
            code = np.flatnonzero(toggle[offsets[k - 1] : offsets[k]] == 0).astype(np.int32)
            at = offsets[k - 1] + code
            member = (masks[at][:, None] & bit) != 0
            rows = np.argsort(~member, axis=1, kind="stable").astype(np.uint8)  # J, then V - J
            child_at = slot[masks[at][:, None] ^ bit[rows]]
            size = np.where(np.arange(n) < k, k - 1, k + 1)
            use = (toggle[child_at] == rows + 1) & (size >= 3) & (size <= n - 2)
            batches.append(_Batch(k, rows, at, use, child_at))
            approx[at] = True
            approx[child_at[use]] = True
    for k in range(n, 0, -1):
        direct = np.flatnonzero(~approx[offsets[k - 1] : offsets[k]]).astype(np.int32)
        if direct.size:
            rows = subsets[k][direct]
            batches.append(_Batch(k, rows, offsets[k - 1] + direct, flat=_flat_offsets(rows, n)))
    for array in [approx, offsets] + [a for b in batches for a in (b.rows, b.at, b.use, b.child_at, b.flat)]:
        if array is not None:
            array.setflags(write=False)
    starts = np.cumsum([0] + [b.at.size for b in batches]).tolist()
    return _Plan(tuple(batches), tuple(starts), approx, offsets)


def _parent_batch(stack: np.ndarray, out: np.ndarray, rows: np.ndarray, k: int, use: np.ndarray,
                  at: np.ndarray, child_at: np.ndarray) -> None:
    """Write into ``out`` (m, s) the roots the parents on the index rows ``rows``
    (r, c), each its first k entries, give for the stack (m, n, n): each one's
    own at slot ``at`` (r,), and where ``use`` (r, c) holds, at the slot
    ``child_at`` (r, c), that of its deletion of the vertex in a column j < k or
    its extension by the vertex in a column j >= k; one ``_parent_roots`` call on
    the k by c blocks of each ``_gathered`` block."""
    c = rows.shape[1]
    for mats, sub, subs in _gathered(stack, rows, k):
        m, r = subs.shape[:2]
        uses = np.broadcast_to(use[sub], (m, r, c)).reshape(-1, c)  # the same for every matrix
        tops, roots = _parent_roots(subs.reshape(-1, k, c), uses)
        out[mats, at[sub]] = tops.reshape(m, r)
        out[mats, child_at[sub][use[sub]]] = roots.reshape(m, -1)


def _all_subset_values(dmat: np.ndarray, jobs: int, tol: float = DEFAULT_DEDUP_TOL) -> np.ndarray:
    """Perron roots for every nonempty subset, in canonical flat order, by the
    ``_plan`` of the matrix's order; ``jobs`` workers split its batches.

    ``dmat`` is one (n, n) matrix or a stack (m, n, n); the result has shape
    (2^n - 1,) or (m, 2^n - 1).  A root from a parent differs from the kernel's
    by at most ``_PARENT_ERR`` relative; where that could move a cluster at
    relative tolerance ``tol``, it is the kernel's (``_settle``).
    """
    plan = _plan(dmat.shape[-1])
    stack = dmat.reshape((-1,) + dmat.shape[-2:])
    out = np.empty((stack.shape[0], plan.approx.size))

    def fill(span: tuple[int, int]) -> None:
        lo, hi = span
        for batch, start in zip(plan.batches, plan.starts):
            part = slice(max(lo - start, 0), min(hi - start, batch.at.size))
            if part.start >= part.stop:
                continue
            if batch.use is None:
                out[:, batch.at[part]] = _perron_roots_for_rows(stack, batch.rows[part],
                                                                flat=batch.flat[part])
            else:
                _parent_batch(stack, out, batch.rows[part], batch.k, batch.use[part],
                              batch.at[part], batch.child_at[part])

    _map_spans(fill, plan.starts[-1], jobs)
    if plan.approx.any():
        _settle(stack, out, tol)
    return out.reshape(dmat.shape[:-2] + out.shape[-1:])


def _recompute(stack: np.ndarray, out: np.ndarray, pick: np.ndarray, slots: np.ndarray) -> None:
    """Replace the roots in ``out`` (m, 2^n - 1) at the canonical flat ``slots`` of
    the matrices ``pick`` of the stack (m, n, n) by the kernel's: one
    ``_perron_roots_for_rows`` call per subset size, over all of ``pick``."""
    n = stack.shape[-1]
    offsets, subsets = _plan(n).offsets, _subsets_by_size(n)
    sizes = np.searchsorted(offsets, slots, side="right")
    for k in np.unique(sizes).tolist():
        at = slots[sizes == k]
        out[pick[:, None], at] = _perron_roots_for_rows(stack, subsets[k][at - offsets[k - 1]], pick)


def _settle(stack: np.ndarray, out: np.ndarray, tol: float) -> None:
    """Recompute with the kernel every parent root (the plan's ``approx``) of each
    matrix whose clusters at ``tol`` an error of ``_PARENT_ERR`` could change.

    Every root v is >= 0 and its kernel value lies in [v (1 - E), v (1 + E)], so
    the j-th smallest kernel root lies in [s_j (1 - E), s_j (1 + E)] for the
    sorted roots s.  Where each gap is then surely above its ``_breaks``
    threshold or surely at or below it, the kernel's roots break at the same
    sorted positions, and every root left of a break stays below every root
    right of it: the clusters are the same subsets.
    """
    s = np.sort(out, axis=-1)
    lo, hi = s * (1 - _PARENT_ERR), s * (1 + _PARENT_ERR)
    sure = np.where(_breaks(s, tol),
                    lo[:, 1:] - hi[:, :-1] > tol * np.maximum(1.0, hi[:, 1:]),
                    hi[:, 1:] - lo[:, :-1] <= tol * np.maximum(1.0, lo[:, 1:]))
    pick = np.flatnonzero(~sure.all(axis=1))
    if pick.size:
        _recompute(stack, out, pick, np.flatnonzero(_plan(stack.shape[-1]).approx))


def _exact_representatives(d: np.ndarray, values: np.ndarray, witness_idx: np.ndarray) -> None:
    """Recompute with the kernel, in ``values``, each parent root among the
    representatives at ``witness_idx`` whose text an error of ``_PARENT_ERR``
    could change: the n largest (read one by one as rho_k), those within 2e-8
    relative of an integer (the integer ladder, and the writer's integer test at
    1e-11), and those whose ``%.12g`` text at v (1 - E) and v (1 + E) differs."""
    approx = _plan(d.shape[-1]).approx
    if not approx.any():
        return
    reps = values[witness_idx]
    # the roots from parents are >= 2, and every power of ten >= 1 is an integer
    scale = 10.0 ** (11 - np.floor(np.log10(np.maximum(reps, 1.0))))  # 12 digits a unit apart
    lo, hi = (reps * (1 + sign * _PARENT_ERR) * scale for sign in (-1, 1))
    redo = (np.abs(reps - np.rint(reps)) <= 2e-8 * np.maximum(1.0, reps)) | (
        np.floor(lo + 0.5 - 1e-3) != np.floor(hi + 0.5 + 1e-3))  # slack for the rounding of lo, hi
    redo[-d.shape[-1]:] = True
    at = witness_idx[redo]
    _recompute(d[None], values[None], np.zeros(1, dtype=np.intp), np.sort(at[approx[at]]))


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
    cluster is the value at the smallest canonical index in the cluster, which
    the minimum over the cluster finds whatever order its ties were sorted in.
    """
    order = np.argsort(values)
    s = values[order]
    starts = np.concatenate([[0], np.nonzero(_breaks(s, tol))[0] + 1])
    witness_idx = np.minimum.reduceat(order, starts)
    return values[witness_idx], witness_idx


def _distinct_counts(dmats: np.ndarray, tol: float, jobs: int = 1) -> np.ndarray:
    """Distinct Pareto eigenvalue count per distance matrix in a stack (m, n, n);
    ``jobs`` workers split the subset pass, as for one matrix."""
    values = _all_subset_values(dmats, jobs, tol)
    values.sort(axis=-1)
    return 1 + _breaks(values, tol).sum(axis=-1)


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
    d = distance_matrix(g)
    values = _all_subset_values(d, jobs, dedup_tolerance)
    if g.n >= 2:
        # the size n - 1 block, the n subsets before the whole vertex set, holds
        # every deletion; its row i deletes vertex n - 1 - i
        value, vertex = _rho2_of_deletions(values[-1 - g.n : -1][::-1])
        _keep_rho2(g, (float(value), int(vertex)))
    _, witness_idx = _dedup(values, dedup_tolerance)
    _exact_representatives(d, values, witness_idx)
    reps = values[witness_idx]
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

    The value comes from ``_rho2_many`` on D alone: the kernel on every
    deletion below order ``_SCREEN_MIN_ORDER``, the rho2 screen from it up.
    Returns the value and the smallest vertex within 1e-12 of it.  The pair is
    kept on ``g``; when ``pareto_spectrum(g)`` or an earlier call has kept it,
    it is returned without solving again.
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

    Below order ``_SCREEN_MIN_ORDER`` the kernel solves every deletion (one
    solve per distinct deletion submatrix of a stack), as the screen's fixed
    cost per graph is then above that of the n small eigensolves; from that
    order up ``_rho2_screen`` gives the kernel's root of every deletion near
    each graph's top.  Either way rho2 is read from the
    kernel's roots by ``_rho2_of_deletions``, so both give the same bits.
    """
    n = dmats.shape[-1]
    roots = (_perron_roots_for_rows(dmats, _deletion_rows(n)) if n < _SCREEN_MIN_ORDER
             else _rho2_screen(dmats))
    return _rho2_of_deletions(roots)


def _rho2_screen(dmats: np.ndarray) -> np.ndarray:
    """The kernel's roots (m, n) of the single-vertex deletions of a stack (m, n,
    n) of connected distance matrices, n >= 2, that lie near each graph's top,
    and -inf at every other deletion.

    ``_parent_batch``, with the whole vertex set as the one parent, screens every
    deletion of every matrix from one eigendecomposition each (Newton steps
    certified to 1e-15 relative, the screen within about 1e-15 of the kernel in
    practice).  Only the deletions screened within ``_SCREEN_WINDOW`` (1e-9
    relative) of their graph's largest root are recomputed with
    ``_perron_roots_for_rows``, one call per deletion vertex over the graphs
    that keep it (gathered in blocks, with no copy of the stack), so each
    value comes from the same kernel on the same submatrix as a sweep over
    every deletion, and the screen's error would have to reach the window to
    change the largest root or the deletions within 1e-12 of it.
    """
    m, n = dmats.shape[:2]
    every = np.arange(n)[None]  # the one parent; its deletion of v goes to slot v
    screened = np.empty((m, n + 1))  # and its own root to slot n
    _parent_batch(dmats, screened, every, n, np.ones((1, n), dtype=bool), np.array([n]), every)
    roots = screened[:, :n]
    top = roots.max(axis=-1, keepdims=True)
    near = roots >= top - _SCREEN_WINDOW * np.maximum(1.0, top)
    roots[~near] = -np.inf
    rows = _deletion_rows(n)
    for v in np.flatnonzero(near.any(axis=0)).tolist():
        pick = np.flatnonzero(near[:, v])
        roots[pick, v] = _perron_roots_for_rows(dmats, rows[v : v + 1], pick)[:, 0]
    return roots


def pareto_eigenpair(g: Graph, support: tuple[int, ...] | list[int]) -> ParetoEigenpair:
    """Pareto eigenpair for a given support set J.

    The value is the Perron root of the distance submatrix on J and the vector
    is its Perron eigenvector embedded at positions J (zeros elsewhere), both
    from ``_perron_pairs_for_rows``, which verifies the complementarity
    condition (Dx >= value * x) and the Rayleigh identity.  Raises ValueError
    unless ``support`` is nonempty and each entry is an integer (a Python or
    numpy integer, not a bool) in [0, n).
    """
    support = tuple(support)
    if not support:
        raise ValueError("support must be nonempty")
    d = distance_matrix(g)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < g.n
               for v in support):
        raise ValueError(f"support {support} out of range: its entries must be integers in [0, {g.n})")
    J = tuple(sorted(set(map(int, support))))
    values, vectors = _perron_pairs_for_rows(d, np.array([J]))
    return ParetoEigenpair(value=float(values[0]), support=J, vector=vectors[0])
