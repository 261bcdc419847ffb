"""Seeded workloads: the generated input graphs and the fixed CLI op list of each.

Inputs are generated here, not by the package, so that a change to the
package's own generators cannot change what the benchmark feeds it.  The
generator reproduces ``distpareto.verify.random_connected_graph`` draw for
draw (uniform Prufer tree, then one Bernoulli draw per vertex pair in
lexicographic order), so the first 500 ``bounds-sweep`` graphs are exactly the
acceptance set of ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("spectrum-cli", "bounds-sweep", "exhaustive", "rho2-large")

ACCEPTANCE_SEED = 20240601
ACCEPTANCE_COUNT = 500
SPECTRUM_BASE_SEED = 16


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``graph`` names the edge-list file it reads, if any."""

    kind: str  # "spectrum" | "rho2-bounds" | "rho2" | "verify"
    argv: tuple[str, ...]
    graph: str | None = None


@dataclass(frozen=True)
class Plan:
    graphs: dict[str, tuple[int, tuple[tuple[int, int], ...]]]  # file name -> (n, edges)
    ops: tuple[Op, ...]
    warmup: Op


def prufer_edges(seq, n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree with Prufer sequence ``seq``."""
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
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_connected(n: int, rng: np.random.Generator, extra_edge_prob: float = 0.3):
    """Uniform random spanning tree plus independent extra edges; sorted edge tuple."""
    seq = [int(x) for x in rng.integers(0, n, size=max(0, n - 2))]
    edges = set(prufer_edges(seq, n)) if n > 2 else {(0, 1)}
    iu, ju = np.triu_indices(n, 1)
    extra = rng.random(iu.size) < extra_edge_prob
    edges.update(zip(iu[extra].tolist(), ju[extra].tolist()))
    return n, tuple(sorted(edges))


def edge_list_text(n: int, edges) -> str:
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n"


def _graph_ops(kind: str, names: list[str], extra: tuple[str, ...] = ()) -> tuple[Op, ...]:
    command = "spectrum" if kind == "spectrum" else "rho2"
    return tuple(
        Op(kind, (command, "--edges", name) + extra + ("--jobs", "1"), graph=name)
        for name in names
    )


def relabel(graph, perm):
    n, edges = graph
    return n, tuple(sorted(tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in edges))


def _spectrum_cli(seed: int, tiny: bool) -> Plan:
    # One sparse (diameter 5-9) and one dense (diameter 2-3) graph per order.
    # The output volume, and with it the cost of an op, varies widely between
    # random graphs of one order, so the graph structures come from a fixed
    # stream and the seed relabels their vertices: each seed is a new input
    # with the same work.  The list is short so that a run makes several
    # passes and reports their median.
    orders = (6, 7, 8) if tiny else (14, 15, 16)
    base = np.random.default_rng(SPECTRUM_BASE_SEED)
    rng = np.random.default_rng(seed)
    graphs = {}
    for i in range(6):
        p = 0.05 if (i // 3) % 2 == 0 else 0.5
        g = random_connected(orders[i % 3], base, p)
        graphs[f"spectrum-{i:02d}.txt"] = relabel(g, rng.permutation(g[0]))
    names = list(graphs)
    ops = _graph_ops("spectrum", names)
    return Plan(graphs, ops, warmup=ops[0])


def _bounds_sweep(seed: int, tiny: bool) -> Plan:
    per_stream = 10 if tiny else ACCEPTANCE_COUNT
    graphs = {}
    for tag, stream_seed in (("acceptance", ACCEPTANCE_SEED), ("seeded", seed)):
        rng = np.random.default_rng(stream_seed)
        for i in range(per_stream):
            n = int(rng.integers(7, 11))
            graphs[f"bounds-{tag}-{i:03d}.txt"] = random_connected(n, rng)
    ops = _graph_ops("rho2-bounds", list(graphs), ("--bounds",))
    return Plan(graphs, ops, warmup=ops[0])


def _exhaustive(seed: int, tiny: bool) -> Plan:
    orders = {"extremal": 4, "tree-extremes": 5, "monotonicity": 4} if tiny else {
        "extremal": 6, "tree-extremes": 8, "monotonicity": 6}
    suites = list(orders)
    order = np.random.default_rng(seed).permutation(len(suites))
    ops = tuple(
        Op("verify", ("verify", suites[i], "--order", str(orders[suites[i]]), "--jobs", "1"))
        for i in order
    )
    warmup = Op("verify", ("verify", "extremal", "--order", "4" if tiny else "5", "--jobs", "1"))
    return Plan({}, ops, warmup=warmup)


def _rho2_large(seed: int, tiny: bool) -> Plan:
    # Orders are evenly spaced rather than drawn: the cost of an op grows
    # with n^3, so random orders would make the work per run depend on the seed.
    orders = range(20, 41, 5) if tiny else range(120, 221, 5)
    rng = np.random.default_rng(seed)
    graphs = {}
    for i, n in enumerate(orders):
        graphs[f"large-{i:02d}.txt"] = random_connected(n, rng, 2.0 / n)
    ops = _graph_ops("rho2", list(graphs))
    return Plan(graphs, ops, warmup=ops[0])


_PLANNERS = {
    "spectrum-cli": _spectrum_cli,
    "bounds-sweep": _bounds_sweep,
    "exhaustive": _exhaustive,
    "rho2-large": _rho2_large,
}


def plan(workload: str, seed: int, tiny: bool = False) -> Plan:
    """The inputs and op list of ``workload``; equal seeds give equal plans."""
    return _PLANNERS[workload](seed, tiny)
