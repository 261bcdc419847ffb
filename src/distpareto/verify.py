"""Structural property checkers and exhaustive searches at desk scale.

The exhaustive machinery builds connected graphs as canonical edge bitmasks,
one per isomorphism class, by adding a vertex to each class of the order below
(``_class_masks``), and trees directly from center-rooted level sequences, one
per isomorphism class (``_free_tree_levels``).  Pareto counts are
isomorphism-invariant, so searches count each class once.  The labeled graphs
of ``connected_graphs_labeled`` are the vertex relabelings of the classes
(``_relabelings``, which also gives the canonical forms).  Bit j of every edge
mask is the j-th vertex pair of one table (``_pair_table``), which every
encoder, relabeling and decoder (``_mask_to_graph``) reads.

The rho2 sweeps (edge monotonicity over the classes, tree extremes) take rho2
of a whole stack of graphs from one ``pareto._rho2_many`` call, whose
one-graph case is ``rho2_fast``: below order 7 the kernel solves each
distinct deletion submatrix of the stack once, and from order 7 up the rho2
screen runs.  Only the one-edge ``check_edge_monotonicity`` calls
``rho2_fast``.  Each sweep does a distinct piece of work once: the
monotonicity sweep solves each distinct mask among the classes and their
edge deletions once, however many classes
share it (693 graphs for the 112 classes and 847 connected deletions of
order 6), and names the classes from their masks; the tree-extremes check
takes the distances of all trees of an order from one ``_hop_distances``
pass on their stacked adjacency.  The extremal search's subset pass solves
each distinct submatrix of its stack once, as the one Perron-root kernel
(``pareto._perron_roots_for_rows``) does on any stack.  Coalescence
quasiconvexity needs every deletion's root, so it runs the kernel on every
deletion of its stack of coalescences and reads rho2 from those roots.

The tree checkers read the paths i ~ j ~ k of a tree from one array
(``_tree_paths``), taken from its distance matrix: convexity tests every
support on them at once, and quasiconvexity tests every path and every
deletion vertex at once.

The ``verify`` suites of the command line are the entries of ``_SUITES``: each
holds its runner, which gives the suite's payload fields, and its order range.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, DisconnectedGraphError
from .graph import (Graph, _hop_distances, coalesce, delete_edge, distance_matrix, make_family,
                    make_graph)
from .laws import TIGHT_TOL, bound_report
from .pareto import (
    _GATHER_BYTES,
    DEFAULT_DEDUP_TOL,
    ParetoEigenpair,
    _deletion_rows,
    _distinct_counts,
    _perron_pairs_for_rows,
    _perron_roots_for_rows,
    _rho2_many,
    _rho2_of_deletions,
    _subsets_by_size,
    rho2_fast,
)

__all__ = [
    "PropertyReport",
    "ExtremalResult",
    "check_eigenvector_convexity",
    "check_edge_monotonicity",
    "check_coalescence_quasiconvexity",
    "check_tree_extremes",
    "extremal_search",
    "trees_upto_iso",
    "connected_graphs_labeled",
    "connected_graph_classes",
    "canonical_form",
    "is_isomorphic",
    "random_connected_graph",
]

_STRICT_TOL = 1e-9
_CONVEXITY_TOL = 1e-12
_ISO_MAX_ORDER = 8
_TREES_MAX_ORDER = 14
_TREE_SUPPORTS_MAX_ORDER = 10  # convexity and quasiconvexity sweep every support
_CLASSES_MAX_ORDER = 7  # the connected classes of _class_masks, for every class sweep
_LABELED_MAX_ORDER = 7  # connected_graphs_labeled: 251,548,592 graphs at n = 8
_RELABEL_BYTES = 256 << 10  # per relabeling block (of 16 masks at least), measured at n = 6..8


@dataclass(frozen=True)
class PropertyReport:
    property_id: str
    instance: str
    holds: bool
    counterexample: dict | None = None
    inconclusive: bool = False
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExtremalResult:
    order: int
    max_count: int
    witnesses: tuple[Graph, ...]
    graphs_scanned: int


def _describe(g: Graph) -> str:
    return g.name or f"n={g.n}, edges={g.sorted_edges()}"


def _is_connected(g: Graph) -> bool:
    try:
        distance_matrix(g)
    except DisconnectedGraphError:
        return False
    return True


# ---------------------------------------------------------------------------
# Tree enumeration (level sequences, one per free tree)


def _prufer_to_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def _next_rooted(levels: list[int], p: int) -> list[int]:
    """The rooted tree after ``levels`` that keeps positions before p (Beyer and
    Hedetniemi, SIAM J. Comput. 9, 1980): from p on, repeat the levels that start
    at q, the parent of vertex p (levels[p] >= 2)."""
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = levels[:p]
    for i in range(p, len(levels)):
        out.append(out[i - p + q])
    return out


def _free_tree_levels(n: int):
    """Yield the level sequence of one tree per isomorphism class on n >= 2 vertices.

    A level sequence lists each vertex's depth in preorder, every subtree's
    sequence no smaller than its right sibling's; the trees are rooted at a
    center, in decreasing lexicographic order, starting from the path.  This is
    the constant-time generator of Wright, Richmond, Odlyzko and McKay (SIAM J.
    Comput. 15, 1986).  Split a tree at its root's second child, at m: the first
    subtree ``levels[1:m]`` (height h1 below the child) and the rest, the root with
    its other subtrees (height h2).  The root is a center when h2 >= h1; when
    h2 == h1 it is one of two, and the root whose rest is the larger half, by size
    and then by level sequence, is kept.  A rejected tree stays rejected while its
    first subtree is unchanged, so the next candidate changes the first subtree's
    last vertex and, when that vertex lies deeper than 2, ends the sequence with a
    path down to depth h1 + 1, which makes the rest the higher half.
    """
    def second_child(levels: list[int]) -> int:
        return next((i for i in range(2, n) if levels[i] == 1), n)

    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = second_child(levels)
        first = [level - 1 for level in levels[1:m]]
        rest = [0] + levels[m:]
        h1, h2 = max(first), max(rest)
        if h2 > h1 or (h2 == h1 and (len(first), first) <= (len(rest), rest)):
            yield levels
            p = max((i for i in range(n) if levels[i] > 1), default=0)
            if p == 0:
                return
            levels = _next_rooted(levels, p)
        else:
            deep = levels[m - 1] > 2
            levels = _next_rooted(levels, m - 1)
            if deep:
                h = max(levels[1:second_child(levels)])
                levels[n - h:] = range(1, h + 1)


def _tree_from_levels(levels: list[int]) -> Graph:
    """The tree of a level sequence, vertex i at position i and joined to its
    parent: the last earlier vertex one level up."""
    last = [0] * len(levels)
    edges = []
    for i in range(1, len(levels)):
        edges.append((last[levels[i] - 1], i))
        last[levels[i]] = i
    return make_graph(len(levels), edges)


def trees_upto_iso(n: int) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices (n <= 14),
    labeled in preorder from a center, in the generator's deterministic order."""
    if not (1 <= n <= _TREES_MAX_ORDER):
        raise CapExceededError(f"tree enumeration limited to n <= {_TREES_MAX_ORDER}")
    if n == 1:
        return [make_graph(1, [])]
    return [_tree_from_levels(levels) for levels in _free_tree_levels(n)]


# ---------------------------------------------------------------------------
# Labeled / unlabeled connected graph enumeration


@functools.lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The one pair order of every edge mask: bit j is the j-th vertex pair
    (u, v), u < v, in lexicographic order.  Returns the pairs and the read-only
    (n, n) table whose entries (u, v) and (v, u) hold the bit of that pair; the
    diagonal holds C(n, 2), a bit no mask sets."""
    u, v = np.triu_indices(n, 1)
    bit = np.full((n, n), u.size, dtype=np.intp)
    bit[u, v] = bit[v, u] = np.arange(u.size)
    bit.setflags(write=False)
    return tuple(zip(u.tolist(), v.tolist())), bit


def _mask_to_graph(mask: int, n: int) -> Graph:
    """The graph on n vertices whose edges are the set bits of ``mask``."""
    pairs = _pair_table(n)[0]
    return make_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def _mask_bits(masks, width: int) -> np.ndarray:
    """(m, width) boolean matrix: bit j of each edge mask."""
    arr = np.asarray(masks, dtype=np.int64)
    return ((arr[:, None] >> np.arange(width)) & 1).astype(bool)


def _mask_distances(masks: np.ndarray, n: int) -> np.ndarray:
    """Hop distances (-1 if unreachable) of the graphs with these edge masks."""
    pairs, bit = _pair_table(n)
    return _hop_distances(_mask_bits(masks, len(pairs) + 1)[:, bit])  # diagonal: bit C(n,2), unset


def connected_graphs_labeled(n: int):
    """Yield every connected labeled graph on n vertices (n <= 7), by ascending
    edge mask: every vertex relabeling of every connected class."""
    if not (1 <= n <= _LABELED_MAX_ORDER):
        raise CapExceededError(f"labeled sweep limited to n <= {_LABELED_MAX_ORDER}")
    blocks = [np.unique(relabeled) for relabeled in _relabelings(_class_masks(n)[0], n)]
    for mask in np.unique(np.concatenate(blocks)).astype(np.int64).tolist():
        yield _mask_to_graph(mask, n)


@functools.lru_cache(maxsize=None)
def _perm_edge_columns(n: int) -> np.ndarray:
    """(C(n,2), n!) weights, read-only: entry (j, p) is 2^(column of pair j under
    the p-th vertex permutation), so ``bits @ weights`` relabels masks."""
    pairs, bit = _pair_table(n)
    u, v = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    weights = np.ldexp(1.0, bit[perms[:, u], perms[:, v]].T)
    weights.setflags(write=False)
    return weights


def _relabelings(masks, n: int):
    """Yield, block by block of at most ``_RELABEL_BYTES`` or 16 masks, the
    (block, n!) float matrix of every edge mask under every vertex relabeling,
    masks in order.

    Each block is one float matrix product; the packed values stay below 2^28,
    so float64 holds them exactly.  Blocks that stay in cache build the classes
    of orders 6 and 7 in about half the time 16 MB blocks take, and at order 8
    products of fewer than 16 masks are slower.
    """
    weights = _perm_edge_columns(n)
    bits = _mask_bits(masks, weights.shape[0]).astype(np.float64)
    step = max(16, _RELABEL_BYTES // (8 * weights.shape[1]))
    for lo in range(0, bits.shape[0], step):
        yield bits[lo : lo + step] @ weights


def _canonical_mask_values(masks, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical form of each edge mask, its least value over all vertex
    relabelings, and how many relabelings reach it: the graph's |Aut|."""
    best, aut = [], []
    for relabeled in _relabelings(masks, n):
        least = relabeled.min(axis=1)
        best.append(least.astype(np.int64))
        aut.append((relabeled == least[:, None]).sum(axis=1))
    return np.concatenate(best), np.concatenate(aut)


def canonical_form(g: Graph) -> tuple[tuple[int, int], ...]:
    """Edge set of the relabeling with the least edge mask, sorted (n <= 8).

    Two graphs are isomorphic exactly when their canonical forms are equal.
    """
    if g.n > _ISO_MAX_ORDER:
        raise CapExceededError(f"canonical_form limited to n <= {_ISO_MAX_ORDER}")
    bit = _pair_table(g.n)[1]
    mask = sum(1 << int(bit[e]) for e in g.edges)
    best = int(_canonical_mask_values([mask], g.n)[0][0])
    return tuple(_mask_to_graph(best, g.n).sorted_edges())


def is_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.size != b.size:
        return False
    return canonical_form(a) == canonical_form(b)


@functools.lru_cache(maxsize=None)
def _class_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical edge masks of the connected graphs on n vertices, ascending, and
    |Aut| of each (both read-only).

    Every connected graph has a non-cut vertex (a leaf of a spanning tree), so
    each class is a class on n - 1 vertices plus vertex n - 1 joined to a
    nonempty subset of the others.  Those candidates are canonicalised and
    deduplicated; the least mask of a class is its canonical form.
    """
    if n == 1:
        masks, aut = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    else:
        bit = _pair_table(n)[1]  # order n - 1 bit j, pair (u, v), lifts to bit[u, v]
        u, v = np.array(_pair_table(n - 1)[0], dtype=np.intp).reshape(-1, 2).T
        old = _mask_bits(_class_masks(n - 1)[0], u.size).astype(np.int64) @ (1 << bit[u, v])
        joins = _mask_bits(np.arange(1, 1 << (n - 1)), n - 1).astype(np.int64)
        new = joins @ (1 << bit[: n - 1, n - 1])
        best, counts = _canonical_mask_values((old[:, None] | new[None, :]).ravel(), n)
        masks, first = np.unique(best, return_index=True)
        aut = counts[first]
    masks.setflags(write=False)
    aut.setflags(write=False)
    return masks, aut


def connected_graph_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs (n <= 7):
    the canonical form of each, by ascending edge mask."""
    if not (1 <= n <= _CLASSES_MAX_ORDER):
        raise CapExceededError(f"isomorphism-class sweep limited to n <= {_CLASSES_MAX_ORDER}")
    return [_mask_to_graph(m, n) for m in _class_masks(n)[0].tolist()]


def random_connected_graph(n: int, rng: np.random.Generator, extra_edge_prob: float = 0.3) -> Graph:
    """Random spanning tree (uniform via Prufer) plus Bernoulli extra edges."""
    if n < 2:
        raise ValueError("random_connected_graph needs n >= 2")
    seq = tuple(int(x) for x in rng.integers(0, n, size=max(0, n - 2)))
    edges = set(_prufer_to_edges(seq, n)) if n > 2 else {(0, 1)}
    pairs = _pair_table(n)[0]  # one draw per pair, in mask bit order
    edges.update(itertools.compress(pairs, (rng.random(len(pairs)) < extra_edge_prob).tolist()))
    return make_graph(n, edges)


# ---------------------------------------------------------------------------
# Property checkers


def _tree_paths(t: Graph) -> np.ndarray:
    """(p, 3) array of the paths i ~ j ~ k of the tree t, each listed once, ordered
    by j and then (i, k): the geodesic 2-paths, j adjacent to both ends and
    d(i, k) = 2 with i < k, read from the distance matrix.  The (j, i, k) mask
    is built in blocks of middle vertices j, at most ``_GATHER_BYTES`` of
    booleans (or one j) per block, so memory stays O(n^2) and not n^3."""
    d = distance_matrix(t)
    adj = d == 1
    ends = np.triu(d == 2, 1)
    step = max(1, _GATHER_BYTES // ends.size)
    blocks = []
    for lo in range(0, t.n, step):
        j, i, k = np.nonzero(adj[lo : lo + step, :, None] & adj[lo : lo + step, None, :] & ends)
        blocks.append(np.stack([i, lo + j, k], axis=1))
    return np.concatenate(blocks)


def _convexity_reports(t: Graph, supports, values, vectors) -> list[PropertyReport]:
    """Convexity reports for the Pareto eigenpairs (values[s], vectors[s]) of the tree t
    on the sorted tuples ``supports[s]``, of any sizes; a support's first failing path
    of ``_tree_paths`` is its counterexample.
    """
    paths = _tree_paths(t)
    i, j, k = paths.T
    inside = np.zeros(vectors.shape, dtype=bool)
    inside[np.repeat(np.arange(len(supports)), [len(J) for J in supports]),
           np.fromiter(itertools.chain.from_iterable(supports), dtype=np.intp)] = True
    active = inside[:, i] & inside[:, j] & inside[:, k]
    margins = vectors[:, i] + vectors[:, k] - 2.0 * vectors[:, j]
    failed = active & (margins <= _CONVEXITY_TOL)
    checked = active.sum(axis=1).tolist()
    fails = failed.any(axis=1).tolist()
    # argmax over no paths raises; a tree without 2-paths (n <= 2) fails nowhere
    first = failed.argmax(axis=1).tolist() if len(paths) else []
    name = _describe(t)
    reports = []
    for s, (support, value) in enumerate(zip(supports, values.tolist())):
        holds, counterexample, details = True, None, {"paths_checked": checked[s]}
        if value <= _CONVEXITY_TOL:
            details = {"vacuous": True}
        elif fails[s]:
            f = first[s]
            holds, details = False, {}
            counterexample = {"path": tuple(paths[f].tolist()),
                              "values": tuple(vectors[s, paths[f]].tolist()),
                              "margin": float(margins[s, f])}
        reports.append(PropertyReport("eigenvector_convexity", f"{name}, support={support}",
                                      holds, counterexample, details=details))
    return reports


def check_eigenvector_convexity(t: Graph, pair: ParetoEigenpair) -> PropertyReport:
    """Strict convexity of a Pareto eigenvector on the forest induced by its support.

    For every path i ~ j ~ k inside the support, 2 x_j < x_i + x_k must hold
    strictly.  Zero Pareto value (singleton support) holds vacuously.  Raises
    ValueError unless t is a tree and ``pair`` an eigenpair of t on its support.
    """
    if t.size != t.n - 1 or not _is_connected(t):
        raise ValueError("convexity checker requires a tree")
    x, J = pair.vector, list(pair.support)
    if x.shape != (t.n,) or not all(0 <= v < t.n for v in J):
        raise ValueError(f"pair on {x.size} vertices, support {pair.support}, "
                         f"does not fit a tree of order {t.n}")
    residual = np.abs(distance_matrix(t)[J] @ x - pair.value * x[J]).max()
    if residual > 1e-9 * max(1.0, abs(pair.value)):
        raise ValueError(f"pair fails the tree's eigen-equation on support {pair.support}")
    return _convexity_reports(t, [tuple(map(int, J))], np.array([pair.value]), x[None])[0]


def _tree_convexity_reports(t: Graph) -> list[PropertyReport]:
    """Convexity reports for every nonempty support of the tree t, in canonical
    order, from one stacked eigenpair call per support size and one report pass."""
    d, sizes = distance_matrix(t), _subsets_by_size(t.n).values()
    values, vectors = map(np.concatenate, zip(*(_perron_pairs_for_rows(d, rows) for rows in sizes)))
    supports = [tuple(row) for rows in sizes for row in rows.tolist()]
    return _convexity_reports(t, supports, values, vectors)


def check_edge_monotonicity(g: Graph, e: tuple[int, int]) -> PropertyReport:
    """Deleting an edge (keeping the graph connected) cannot lower rho2."""
    g2 = delete_edge(g, e)
    before, _ = rho2_fast(g)
    after, _ = rho2_fast(g2)  # raises DisconnectedGraphError when g-e splits
    return _edge_monotonicity(_describe(g), e, before, after)


def _edge_monotonicity(name: str, e: tuple[int, int], before: float,
                       after: float) -> PropertyReport:
    """The report for rho2(g) = ``before`` and rho2(g - e) = ``after``; ``name`` is
    ``_describe(g)``, which sweeps compute once per graph, as ``before``."""
    scale = max(1.0, abs(before))
    holds = after >= before - _STRICT_TOL * scale
    relation = "equal" if abs(after - before) <= _STRICT_TOL * scale else (
        "strict_increase" if after > before else "decrease"
    )
    report = PropertyReport(
        property_id="edge_monotonicity",
        instance=f"{name}, e={tuple(sorted(e))}",
        holds=holds,
        counterexample=None
        if holds
        else {"edge": tuple(sorted(e)), "rho2_before": before, "rho2_after": after},
        details={"rho2_before": before, "rho2_after": after, "relation": relation},
    )
    return report


def _monotonicity_reports(order: int):
    """Yield the ``check_edge_monotonicity`` report of every edge of every connected
    class of order 2..``order`` whose deletion keeps the class connected: classes
    by ascending canonical mask, edges in ``sorted_edges`` order.

    The deletions (each mask with one set bit cleared) repeat across classes,
    and nearly every class is itself some class's deletion, so per order each
    distinct mask among the classes and their deletions gets one distance pass,
    and the connected ones one ``_rho2_many`` call.  A class's name,
    ``_describe`` of its graph, is its set bits' pairs, which are in
    ``sorted_edges`` order.
    """
    for n in range(2, order + 1):
        masks = _class_masks(n)[0]
        pairs = _pair_table(n)[0]
        cls, bit = np.nonzero(_mask_bits(masks, len(pairs)))  # class order, then pair order
        distinct, which = np.unique(np.concatenate([masks, masks[cls] ^ (np.int64(1) << bit)]),
                                    return_inverse=True)
        dist = _mask_distances(distinct, n)
        connected = (dist[:, 0] >= 0).all(axis=1)
        rho2 = np.zeros(distinct.size)
        rho2[connected] = _rho2_many(dist[connected])[0]
        before, deleted = rho2[which[: masks.size]].tolist(), which[masks.size :]
        edges = [pairs[j] for j in bit.tolist()]
        ends = np.cumsum(np.bincount(cls, minlength=masks.size)).tolist()
        names = [f"n={n}, edges={edges[a:b]}" for a, b in zip([0] + ends, ends)]
        keep = connected[deleted]
        for c, j, after in zip(cls[keep].tolist(), bit[keep].tolist(), rho2[deleted[keep]].tolist()):
            yield _edge_monotonicity(names[c], pairs[j], before[c], after)


def check_coalescence_quasiconvexity(t: Graph, h: Graph, w: int) -> PropertyReport:
    """Quasiconvexity of rho2 over the attachment vertex of a fixed graph.

    For every vertex i of the tree t, build the coalescence of t at i with h
    at w.  Asserts rho2 is strictly quasiconvex along t and, for every common
    deletion vertex u, the one-sided convexity
    rho(D(G^i) - u) + rho(D(G^k) - u) >= 2 rho(D(G^j) - u) on paths i ~ j ~ k.
    """
    if t.n < 3 or t.size != t.n - 1 or not _is_connected(t):
        raise ValueError("needs a tree with at least 3 vertices")
    if h.n < 2 or not _is_connected(h):
        raise ValueError("attachment graph must be connected with >= 2 vertices")
    total = t.n + h.n - 1
    dmats = np.stack([distance_matrix(coalesce(t, i, h, w)) for i in range(t.n)])
    # rho of every single-vertex deletion, per coalescence point
    deletion_rho = _perron_roots_for_rows(dmats, _deletion_rows(total))
    r2 = _rho2_of_deletions(deletion_rho)[0]

    instance = f"tree {_describe(t)} x attachment {_describe(h)} at {w}"
    paths = _tree_paths(t)
    i, j, k = paths.T
    scale = np.maximum(1.0, np.abs(r2[j]))
    gap = np.maximum(r2[i], r2[k]) - r2[j]
    sums = deletion_rho[i] + deletion_rho[k] - 2.0 * deletion_rho[j]  # (path, u)
    below = sums < -_STRICT_TOL * np.maximum(1.0, np.abs(deletion_rho[j]))
    peaks = gap <= -_STRICT_TOL * scale  # rho2 at j above both ends
    failed = peaks | below.any(axis=1)
    if failed.any():  # the first failing path; its rho2 gap before its deletions
        f = int(failed.argmax())
        path = tuple(paths[f].tolist())
        if peaks[f]:
            counterexample = {"path": path, "rho2": tuple(r2[paths[f]].tolist())}
        else:
            u = int(below[f].argmax())
            counterexample = {"path": path, "deletion_vertex": u,
                              "sum_minus_twice_middle": float(sums[f, u])}
        return PropertyReport("coalescence_quasiconvexity", instance, False, counterexample)
    return PropertyReport("coalescence_quasiconvexity", instance, True,
                          inconclusive=bool((gap <= _STRICT_TOL * scale).any()),
                          details={"paths_checked": len(paths), "rho2_by_vertex": r2.tolist()})


def check_tree_extremes(n: int) -> PropertyReport:
    """rho2 over all trees of order n: maximized by the path, minimized by the star.

    The distances of all the trees come from one ``_hop_distances`` pass on their
    stacked adjacency, and rho2 from one ``_rho2_many`` call."""
    if not (3 <= n <= _TREES_MAX_ORDER):
        raise CapExceededError(f"tree extremes need 3 <= n <= {_TREES_MAX_ORDER}")
    trees = trees_upto_iso(n)
    u, v = np.array([e for t in trees for e in t.edges]).T
    tree = np.repeat(np.arange(len(trees)), n - 1)
    adj = np.zeros((len(trees), n, n), dtype=bool)
    adj[tree, u, v] = adj[tree, v, u] = True
    values = _rho2_many(_hop_distances(adj))[0]
    top = adj.sum(axis=2).max(axis=1).tolist()
    path_idx, star_idx = top.index(2), top.index(n - 1)  # the same tree at n = 3
    instance = f"all {len(trees)} trees of order {n}"
    vmax, vmin = values.max(), values.min()
    others = np.arange(len(trees))
    at_max = (others != path_idx) & (values >= vmax - _STRICT_TOL * max(1.0, abs(vmax)))
    at_min = (others != star_idx) & (values <= vmin + _STRICT_TOL * max(1.0, abs(vmin)))
    kinds = ("max_not_unique_to_path", "min_not_unique_to_star")
    problems = [{"kind": kinds[c], "tree": _describe(trees[idx])}  # by tree, max before min
                for idx, c in zip(*np.nonzero(np.stack([at_max, at_min], axis=1)))]
    # when the path or the star misses its extreme, the tree at it is a problem
    return PropertyReport(
        property_id="tree_extremes",
        instance=instance,
        holds=not problems,
        counterexample={"problems": problems} if problems else None,
        details={
            "tree_count": len(trees),
            "path_rho2": float(values[path_idx]),
            "star_rho2": float(values[star_idx]),
        },
    )


# ---------------------------------------------------------------------------
# Extremal search over connected graphs


def extremal_search(n: int, jobs: int = 1) -> ExtremalResult:
    """Maximum number of distance Pareto eigenvalues over connected graphs of order n.

    The count is isomorphism-invariant, so it is taken once per isomorphism
    class, on the canonical forms built by vertex augmentation
    (``_class_masks``): distances come from one batched pass, Perron roots
    are batched by subset size, ``jobs`` workers split the subset range as in
    ``pareto_spectrum``, and counts use the standard dedup tolerance.
    Witnesses attaining the maximum are returned, one per isomorphism class,
    and ``graphs_scanned`` is the number of connected labeled graphs the
    classes cover, the sum of n!/|Aut|.
    """
    if not (2 <= n <= _CLASSES_MAX_ORDER):
        raise CapExceededError(f"extremal search limited to 2 <= n <= {_CLASSES_MAX_ORDER}")
    masks, aut = _class_masks(n)
    counts = _distinct_counts(_mask_distances(masks, n), DEFAULT_DEDUP_TOL, jobs)
    best = int(counts.max())
    graphs = tuple(_mask_to_graph(m, n) for m in masks[counts == best].tolist())
    scanned = sum(math.factorial(n) // a for a in aut.tolist())
    return ExtremalResult(order=n, max_count=best, witnesses=graphs, graphs_scanned=scanned)


# ---------------------------------------------------------------------------
# Verification suites


def _convexity_sweep(order: int):
    return (rep for n in range(2, order + 1) for t in trees_upto_iso(n)
            for rep in _tree_convexity_reports(t))


def _quasiconvex_sweep(order: int):
    attachments = [make_family("complete", [2]), make_family("complete", [3]),
                   make_family("path", [3])]
    return (check_coalescence_quasiconvexity(t, h, 0)
            for n in range(3, order + 1) for t in trees_upto_iso(n) for h in attachments)


def _bounds_sweep(order: int, random_count: int, seed: int):
    """One report per applicable bound, on every graph class of order 2..``order``
    and then on ``random_count`` random connected graphs of order 7..10; each
    counterexample holds the bound's id, ``k`` and slack."""
    classes = (g for n in range(2, order + 1) for g in connected_graph_classes(n))
    rng = np.random.default_rng(seed)
    randoms = (random_connected_graph(int(rng.integers(7, 11)), rng) for _ in range(random_count))
    for g in itertools.chain(classes, randoms):
        instance = _describe(g)
        for b in bound_report(g):
            if b.applicable:  # a NaN slack counts as no violation
                yield PropertyReport("bounds_sweep", instance, not b.slack < -TIGHT_TOL,
                                     {"bound_id": b.bound_id, "k": b.k, "slack": b.slack})


def _suite_extremal(order: int, jobs: int) -> dict:
    result = extremal_search(order, jobs=jobs)
    witnesses = [{"order": w.n, "edges": [list(e) for e in w.sorted_edges()]}
                 for w in result.witnesses]
    return {"checked": result.graphs_scanned, "max_count": result.max_count,
            "witnesses": witnesses, "violations": [], "holds": True}


def _verdict(reports, violation=lambda rep: {"instance": rep.instance,
                                             "counterexample": rep.counterexample}) -> dict:
    """The payload fields of a suite: how many reports it made and, in order,
    ``violation`` of each that does not hold.  Reports are read one at a time."""
    checked, violations = 0, []
    for checked, rep in enumerate(reports, 1):
        if not rep.holds:
            violations.append(violation(rep))
    return {"checked": checked, "violations": violations, "holds": not violations}


# suite name -> (runner, lowest order, cap).  A runner takes the order and the
# suite options ``random``, ``seed`` and ``jobs`` as keywords and gives the
# payload fields; it looks its sweep up when it runs.
_SUITES = {
    "convexity": (lambda order, **_: _verdict(_convexity_sweep(order)),
                  2, _TREE_SUPPORTS_MAX_ORDER),
    "monotonicity": (lambda order, **_: _verdict(_monotonicity_reports(order)),
                     2, _CLASSES_MAX_ORDER),
    "quasiconvex": (lambda order, **_: _verdict(_quasiconvex_sweep(order)),
                    3, _TREE_SUPPORTS_MAX_ORDER),
    "tree-extremes": (lambda order, **_: _verdict(map(check_tree_extremes, range(3, order + 1))),
                      3, _TREES_MAX_ORDER),
    "bounds-sweep": (lambda order, random, seed, **_: _verdict(
                         _bounds_sweep(order, random, seed),
                         lambda rep: {"instance": rep.instance, **rep.counterexample}),
                     2, _CLASSES_MAX_ORDER),
    "extremal": (lambda order, jobs, **_: _suite_extremal(order, jobs), 2, _CLASSES_MAX_ORDER),
}
