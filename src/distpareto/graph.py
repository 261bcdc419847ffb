"""Undirected simple graphs, named families, parsers, and distance-based metrics.

Vertices are always labeled 0..n-1.  Canonical labelings of the built-in
families (see :func:`make_family`) are fixed so that vertex subsets appearing
in reports are reproducible across runs:

* ``path``: vertices in path order, edges (i, i+1)
* ``cycle``: vertices in cycle order, edges (i, i+1 mod n)
* ``complete``: all pairs
* ``star``: center = vertex 0, leaves 1..n-1
* ``complete_bipartite`` (a, b): first part 0..a-1, second part a..a+b-1
* ``complete_minus_edge``: K_n minus {0, 1}
* ``complete_minus_two_nonincident_edges``: K_n minus {0, 1} and {2, 3}
* ``complete_minus_two_incident_edges``: K_n minus {0, 1} and {0, 2}
* ``clique_plus_pendant_p`` (w, p): clique 0..w-1 plus vertex w joined to 0..p-1
* ``star_plus_edge``: star with center 0 plus the edge {1, 2}
* ``wheel``: hub = vertex 0, rim cycle 1..n-1
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import DisconnectedGraphError, GraphParseError

__all__ = [
    "Graph",
    "make_graph",
    "make_family",
    "FAMILY_NAMES",
    "parse_edge_list",
    "parse_graph6",
    "edge_list_text",
    "distance_matrix",
    "transmission",
    "wiener",
    "diameter",
    "delete_edge",
    "coalesce",
]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph order must be positive, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) not sorted or out of range for n={self.n}")

    @property
    def size(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists, each sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        label = self.name or f"G{self.n}"
        return f"Graph({label}, n={self.n}, m={self.size})"


def make_graph(n: int, edges: Iterable[tuple[int, int]], name: str = "") -> Graph:
    """Build a Graph, normalizing edge orientation and collapsing duplicates."""
    normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return Graph(n=n, edges=normalized, name=name)


# ---------------------------------------------------------------------------
# Families


def _path(n: int) -> Graph:
    return make_graph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


def _cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}")


def _complete(n: int) -> Graph:
    return make_graph(n, itertools.combinations(range(n), 2), name=f"K{n}")


def _star(n: int) -> Graph:
    if n < 2:
        raise ValueError("star needs n >= 2")
    return make_graph(n, [(0, i) for i in range(1, n)], name=f"S{n}")


def _complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete_bipartite needs both parts nonempty")
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)], name=f"K{a},{b}")


def _complete_minus_edge(n: int) -> Graph:
    if n < 3:
        raise ValueError("complete_minus_edge needs n >= 3 to stay connected")
    edges = set(itertools.combinations(range(n), 2)) - {(0, 1)}
    return make_graph(n, edges, name=f"K{n}-e")


def _complete_minus_two_nonincident_edges(n: int) -> Graph:
    if n < 4:
        raise ValueError("needs n >= 4 for two non-incident edges")
    edges = set(itertools.combinations(range(n), 2)) - {(0, 1), (2, 3)}
    return make_graph(n, edges, name=f"K{n}-2e")


def _complete_minus_two_incident_edges(n: int) -> Graph:
    if n < 4:
        raise ValueError("needs n >= 4 to stay connected")
    edges = set(itertools.combinations(range(n), 2)) - {(0, 1), (0, 2)}
    return make_graph(n, edges, name=f"K{n}-2e-inc")


def _clique_plus_pendant_p(w: int, p: int) -> Graph:
    if w < 1 or not (1 <= p <= w):
        raise ValueError("clique_plus_pendant_p needs 1 <= p <= w")
    edges = list(itertools.combinations(range(w), 2)) + [(i, w) for i in range(p)]
    return make_graph(w + 1, edges, name=f"K{w}^{p}")


def _star_plus_edge(n: int) -> Graph:
    if n < 3:
        raise ValueError("star_plus_edge needs n >= 3")
    edges = [(0, i) for i in range(1, n)] + [(1, 2)]
    return make_graph(n, edges, name=f"S{n}+")


def _wheel(n: int) -> Graph:
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    hub = [(0, i) for i in range(1, n)]
    return make_graph(n, rim + hub, name=f"W{n}")


_FAMILIES = {
    "path": (_path, 1),
    "cycle": (_cycle, 1),
    "complete": (_complete, 1),
    "star": (_star, 1),
    "complete_bipartite": (_complete_bipartite, 2),
    "complete_minus_edge": (_complete_minus_edge, 1),
    "complete_minus_two_nonincident_edges": (_complete_minus_two_nonincident_edges, 1),
    "complete_minus_two_incident_edges": (_complete_minus_two_incident_edges, 1),
    "clique_plus_pendant_p": (_clique_plus_pendant_p, 2),
    "star_plus_edge": (_star_plus_edge, 1),
    "wheel": (_wheel, 1),
}

FAMILY_NAMES = tuple(sorted(_FAMILIES))


# Vertex count of a family instance, for the families whose first parameter is not it.
_FAMILY_ORDERS = {
    "complete_bipartite": lambda a, b: a + b,
    "clique_plus_pendant_p": lambda w, p: w + 1,
}


def _family_params(family: str, params: Sequence[int]) -> list[int]:
    """``params`` as ints, after checking the family name and the parameter count."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILY_NAMES)}")
    arity = _FAMILIES[family][1]
    params = [int(p) for p in params]
    if len(params) != arity:
        raise ValueError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return params


def _family_order(family: str, params: Sequence[int]) -> int:
    """Vertex count of ``make_family(family, params)``, found without building it."""
    params = _family_params(family, params)
    return _FAMILY_ORDERS.get(family, lambda n: n)(*params)


def make_family(family: str, params: Sequence[int]) -> Graph:
    """Construct a named graph family instance with its canonical labeling."""
    params = _family_params(family, params)
    return _FAMILIES[family][0](*params)


# ---------------------------------------------------------------------------
# Parsers


# An edge list's integers are ASCII digits, optionally negative; int() would also
# take "1_0", "+3" and non-ASCII digits.  \s matches what str.split splits at.
_INTEGER = "-?[0-9]+"
_is_integer = re.compile(_INTEGER).fullmatch
_edge_line = re.compile(rf"({_INTEGER})\s+({_INTEGER})").fullmatch


def _file_lines(fh: TextIO) -> Iterator[str]:
    r"""The lines of the text file ``fh``, opened with universal newlines, as
    ``str.splitlines`` gives them, read at most 64 KiB at a time: the file's own
    reader ends a line only at "\n", so lines ending in "\x0c" would come whole.
    The pieces of a line that no read ends are joined once, when it ends."""
    rest = []
    for piece in iter(functools.partial(fh.readline, 1 << 16), ""):
        lines = (piece + "\0").splitlines()  # "\0" ends no line
        tail = lines.pop()[:-1]
        if lines and rest:
            lines[0] = "".join(rest + lines[:1])
            rest = []
        yield from lines
        if tail:
            rest.append(tail)
    if rest:
        yield "".join(rest)


# A byte that is not UTF-8, as the "surrogateescape" error handler reads it
_NOT_UTF8 = re.compile("[\udc80-\udcff]").search


def _utf8_line(lineno: int, raw: str) -> str:
    """``raw``, line ``lineno`` of an edge list, unless it holds a byte that is not
    UTF-8 (a file read with ``errors="surrogateescape"``)."""
    if not raw.isascii() and (bad := _NOT_UTF8(raw)):
        raise GraphParseError(f"line {lineno}: invalid UTF-8 byte 0x{ord(bad[0]) - 0xDC00:02x}")
    return raw


def _edge_list_order(text: str | TextIO):
    """The vertex count an edge list declares on its first line that is neither blank
    nor a comment, and an iterator over the (line number, line) pairs of such lines after it.

    ``text`` is the whole text or an open text file; a file is read only as far
    as the lines are taken.
    """
    raws = text.splitlines() if isinstance(text, str) else _file_lines(text)
    lines = ((lineno, line) for lineno, raw in enumerate(raws, start=1)
             if (line := _utf8_line(lineno, raw).strip()) and not line.startswith("#"))
    lineno, line = next(lines, (0, None))
    if line is None:
        raise GraphParseError("empty input: no vertex count line")
    if not _is_integer(line):
        raise GraphParseError(f"line {lineno}: expected vertex count, got {line!r}")
    n = int(line)
    if n < 1:
        raise GraphParseError(f"line {lineno}: vertex count must be positive, got {n}")
    return n, lines


def parse_edge_list(text: str | TextIO) -> Graph:
    """Parse the line-oriented edge-list format, given as the whole text or an
    open text file.

    First non-comment line is the order n; every following non-comment line is
    an edge ``u v``.  ``#`` starts a comment line.  Duplicate edges collapse.
    Lines end where ``str.splitlines`` ends them.
    """
    return _edge_list_graph(*_edge_list_order(text))


def _edge_list_graph(n: int, lines: Iterable[tuple[int, str]]) -> Graph:
    """The n-vertex graph whose edges are the (line number, line) pairs ``lines``
    that follow an edge list's order line, as ``_edge_list_order`` gives them."""
    edges: set[tuple[int, int]] = set()
    for lineno, line in lines:
        edge = _edge_line(line)
        if edge is None:
            if len(line.split()) != 2:
                raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
            raise GraphParseError(f"line {lineno}: non-integer vertex in {line!r}")
        u, v = int(edge[1]), int(edge[2])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {lineno}: vertex out of range [0, {n}) in {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        edges.add((u, v) if u < v else (v, u))
    return Graph(n=n, edges=frozenset(edges))


def edge_list_text(g: Graph) -> str:
    """Inverse of :func:`parse_edge_list` (labels preserved)."""
    lines = [str(g.n)] + [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"


def _graph6_values(text: str, start: int) -> list[int]:
    """The 6-bit values (byte - 63) of graph6 characters; a character outside
    63..126 is named with its code and its position, ``start`` + its index."""
    data = [ord(c) - 63 for c in text]
    bad = next((i for i, x in enumerate(data) if not 0 <= x <= 63), None)
    if bad is not None:
        raise GraphParseError(f"graph6 byte {text[bad]!r} (code {ord(text[bad])}) "
                              f"at position {start + bad} is outside 63..126")
    return data


def _graph6_order(line: str | bytes) -> tuple[int, str, int]:
    """The order declared by one graph6 line (after an optional ``>>graph6<<``
    header), the rest of the line and the number of order characters before it;
    only the order bytes are checked.  Positions in messages count from the
    first character after leading blanks and the header."""
    if isinstance(line, bytes):
        line = line.decode("ascii", errors="replace")
    line = line.strip().removeprefix(_G6_HEADER)
    if not line:
        raise GraphParseError("empty graph6 input")
    width = 4 if line[0] == "~" else 1  # "~" (63) opens the 18-bit long form
    data = _graph6_values(line[:width], 0)
    if len(data) < width:
        raise GraphParseError("truncated graph6 long-form order")
    n = data[0] if width == 1 else (data[1] << 12) | (data[2] << 6) | data[3]
    if n < 1:
        raise GraphParseError("graph6 order must be positive")
    return n, line[width:], width


def parse_graph6(line: str | bytes) -> Graph:
    """Parse one graph in graph6 format (optional ``>>graph6<<`` header).

    Bytes 63..126; upper triangle packed column-major, 6 bits per byte,
    big-endian within each byte.
    """
    n, rest, width = _graph6_order(line)
    body = _graph6_values(rest, width)
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphParseError(
            f"graph6 body length {len(body)} does not match order {n}"
        )
    bits = [(x >> shift) & 1 for x in body for shift in range(5, -1, -1)]
    pairs = ((i, j) for j in range(1, n) for i in range(j))  # column-major upper triangle
    return make_graph(n, itertools.compress(pairs, bits))


# ---------------------------------------------------------------------------
# Metrics


def _hop_distances(adj: np.ndarray) -> np.ndarray:
    """Hop distances for a stack (m, n, n) of boolean adjacency matrices; -1 if unreachable.

    Level by level, entry (i, j) of ``reach @ (adj | I)`` counts the vertices
    already reached from i that are j or a neighbor of j; counts are at most
    n, so the float32 product is exact for every n below 2^24.
    """
    n = adj.shape[-1]
    step = (adj | np.eye(n, dtype=bool)).astype(np.float32)
    reach = step > 0
    dist = np.where(reach, adj.astype(np.int64), -1)
    for level in range(2, n):
        nxt = (reach.astype(np.float32) @ step) > 0
        new = nxt & ~reach
        if not new.any():
            break
        dist[new] = level
        reach = nxt
    return dist


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances, the read-only (n, n) int64 array that
    ``_hop_distances`` gives for a stack of one; raises DisconnectedGraphError on
    disconnected input.

    The error names vertex 0 and the lowest vertex it cannot reach.  The array
    is kept on ``g`` itself, so each graph instance computes it once and the
    cache goes with the graph; a disconnected graph keeps nothing.
    """
    cached = g.__dict__.get("_distances")
    if cached is not None:
        return cached
    adj = np.zeros((1, g.n, g.n), dtype=bool)
    e = np.array(list(g.edges), dtype=np.intp).reshape(-1, 2)
    adj[0, e[:, 0], e[:, 1]] = adj[0, e[:, 1], e[:, 0]] = True
    d = _hop_distances(adj)[0]
    if (d[0] < 0).any():
        raise DisconnectedGraphError(0, int(np.argmin(d[0])))
    d.setflags(write=False)
    object.__setattr__(g, "_distances", d)  # Graph is frozen; not a field, so not compared
    return d


def transmission(d: np.ndarray, v: int) -> int:
    """Sum of distances from v to every other vertex of the distance matrix ``d``."""
    if not (0 <= v < d.shape[0]):
        raise IndexError(f"vertex {v} out of range")
    return int(d[v].sum())


def wiener(d: np.ndarray) -> int:
    """Half the sum of all pairwise distances."""
    return int(d.sum()) // 2


def diameter(d: np.ndarray) -> int:
    return int(d.max())


# ---------------------------------------------------------------------------
# Surgery


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Remove one edge; the result may be disconnected (validated on use)."""
    key = (min(e), max(e))
    if key not in g.edges:
        raise ValueError(f"edge {key} not in graph")
    return Graph(n=g.n, edges=g.edges - {key}, name=g.name and f"{g.name}-e")


def coalesce(g: Graph, u: int, h: Graph, w: int) -> Graph:
    """Identify vertex u of g with vertex w of h.

    The result has g.n + h.n - 1 vertices: g keeps its labels; the vertices of
    h other than w take labels g.n, g.n+1, ... in increasing label order.
    """
    if not (0 <= u < g.n):
        raise ValueError(f"vertex {u} not in first graph")
    if not (0 <= w < h.n):
        raise ValueError(f"vertex {w} not in second graph")
    mapping = {}
    nxt = g.n
    for x in range(h.n):
        if x == w:
            mapping[x] = u
        else:
            mapping[x] = nxt
            nxt += 1
    edges = list(g.edges) + [(mapping[a], mapping[b]) for a, b in h.edges]
    return make_graph(g.n + h.n - 1, edges)
