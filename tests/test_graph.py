import io
import itertools
import pathlib
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpareto import graph
from distpareto.errors import DisconnectedGraphError, GraphParseError
from distpareto.graph import (
    coalesce,
    delete_edge,
    diameter,
    distance_matrix,
    edge_list_text,
    make_family,
    make_graph,
    parse_edge_list,
    parse_graph6,
    transmission,
    wiener,
)
from distpareto.verify import is_isomorphic, random_connected_graph


def test_parse_path3():
    g = parse_edge_list("3\n0 1\n1 2")
    assert g.n == 3
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_parse_k2_and_star4():
    assert parse_edge_list("2\n0 1").sorted_edges() == [(0, 1)]
    s4 = parse_edge_list("4\n0 1\n0 2\n0 3")
    assert s4.sorted_edges() == [(0, 1), (0, 2), (0, 3)]


def test_parse_comments_and_duplicates():
    g = parse_edge_list("# a comment\n3\n0 1\n1 0\n# mid comment\n1 2\n")
    assert g.sorted_edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3\n0 1 2", "line 2"),
        ("3\n0 5", "out of range"),
        ("3\n1 1", "self-loop"),
        ("x", "vertex count"),
        ("", "empty"),
        # int() takes these; an edge list takes only ASCII digits with an optional "-"
        ("1_0\n0 1", "line 1: expected vertex count"),
        ("+3\n0 1", "line 1: expected vertex count"),
        ("\uff13\n0 1", "line 1: expected vertex count"),
        ("3\n0 1_0", "line 2: non-integer vertex"),
        ("3\n+0 1", "line 2: non-integer vertex"),
        ("3\n0 \uff12", "line 2: non-integer vertex"),
        ("-3\n0 1", "vertex count must be positive, got -3"),
        ("3\n-1 2", "out of range"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def test_edge_vertices_are_split_where_str_split_splits():
    assert parse_edge_list("3\n0\u00a01\n1 \t\u20032\n").sorted_edges() == [(0, 1), (1, 2)]


def test_edge_list_round_trip():
    g = make_family("wheel", [6])
    assert parse_edge_list(edge_list_text(g)).edges == g.edges


_BREAKS = ["\r\n", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_LINE_TEXT = st.lists(st.sampled_from(list("ab #0") + _BREAKS + ["\x1f", "\t"]),
                      max_size=20).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([0, 1, 8190, 8191, 8192, 65535, 65536, 70000, 140000]),
       st.sampled_from(_BREAKS), st.sampled_from(_BREAKS), _LINE_TEXT)
def test_line_splitter_matches_str_splitlines(pad, first, second, rest):
    # a comment line and an order line of pad bytes each put the following break on
    # the 8 KiB and 64 KiB read borders ("\r\n" split across them) or carry the line
    # over one or two reads
    text = "#" * pad + first + "1" + " " * pad + second + rest
    order, *edges = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), 1)
                     if line.strip() and not line.strip().startswith("#")]
    assert order[1] == "1"
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "g.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(path, "r", encoding="utf-8") as fh:  # as the CLI opens --edges
            n, lines = graph._edge_list_order(fh)
            assert (n, list(lines)) == (1, edges)
    n, lines = graph._edge_list_order(text)
    assert (n, list(lines)) == (1, edges)


def test_edge_list_in_chunks_is_read_only_up_to_the_order_line():
    taken = []

    class Recorded(io.StringIO):  # a text file that records every read
        def readline(self, size=-1):
            taken.append(line := super().readline(size))
            return line

    # the third file line holds the order line, ended by U+2028, and 30,000 edges
    # ended by U+2028 too: only its first 64 KiB are read before the order is known,
    # and the read ends inside an edge, "0" | " 1"
    text = "# comment\r\n\n 4\u2028" + "0 1\u2028" * 30_000 + "1 2\x0c2 3\n3 0"
    n, lines = graph._edge_list_order(Recorded(text, newline=None))
    assert n == 4 and taken == ["# comment\n", "\n", text[12 : 12 + (1 << 16)]]
    assert list(lines) == [(lineno, "0 1") for lineno in range(4, 30_004)] + [
        (30_004, "1 2"), (30_005, "2 3"), (30_006, "3 0")]
    assert parse_edge_list(Recorded(text, newline=None)).sorted_edges() == [
        (0, 1), (0, 3), (1, 2), (2, 3)]


def test_a_long_unended_line_is_read_in_linear_time(tmp_path):
    # the pieces of a line that no 64 KiB read ends are joined once: an 8 MiB
    # comment line costs about eight times a 1 MiB one, not 64 times
    def best_read(size):
        path = tmp_path / f"g{size}.txt"
        path.write_text("#" * size + "\n1\n", encoding="utf-8")
        times = []
        for _ in range(3):
            with open(path, "r", encoding="utf-8") as fh:
                start = time.perf_counter()
                n, lines = graph._edge_list_order(fh)
                assert (n, list(lines)) == (1, [])
                times.append(time.perf_counter() - start)
        return min(times)

    assert best_read(8 << 20) < 20 * best_read(1 << 20)


def test_family_complete():
    assert make_family("complete", [4]).size == 6


def test_family_clique_plus_pendant():
    g = make_family("clique_plus_pendant_p", [3, 1])
    assert g.n == 4
    assert (0, 3) in g.edges and (1, 3) not in g.edges
    assert {(0, 1), (0, 2), (1, 2)} <= g.edges


def test_family_complete_minus_two_nonincident():
    g = make_family("complete_minus_two_nonincident_edges", [5])
    assert g.size == 8
    assert (0, 1) not in g.edges and (2, 3) not in g.edges


def test_family_validation():
    with pytest.raises(ValueError):
        make_family("mystery", [3])
    with pytest.raises(ValueError):
        make_family("clique_plus_pendant_p", [3, 4])
    with pytest.raises(ValueError):
        make_family("path", [3, 3])


def test_distance_matrix_path3():
    d = distance_matrix(make_family("path", [3]))
    assert d.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def test_distance_matrix_k4_all_ones():
    d = distance_matrix(make_family("complete", [4]))
    expected = np.ones((4, 4), dtype=int) - np.eye(4, dtype=int)
    assert (d == expected).all()


def test_distance_matrix_star4():
    d = distance_matrix(make_family("star", [4]))
    for i, j in itertools.combinations(range(4), 2):
        assert d[i, j] == (1 if 0 in (i, j) else 2)


def test_distance_matrix_disconnected():
    g = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError) as err:
        distance_matrix(g)
    a, b = err.value.reachable_vertex, err.value.unreachable_vertex
    assert {a, b} <= {0, 1, 2, 3} and (a in (0, 1)) != (b in (0, 1))


def _networkx_distances(nx, g):
    """All-pairs hop distances from networkx; -1 where no path exists."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    ref = np.full((g.n, g.n), -1, dtype=np.int64)
    for s, lengths in nx.all_pairs_shortest_path_length(h):
        for t, d in lengths.items():
            ref[s, t] = d
    return ref


def test_distance_matrix_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(17)
    # K_{2,256}: 256 common neighbors per pair would wrap an 8-bit walk count
    graphs = [make_graph(1, []), make_family("complete_bipartite", [2, 256])]
    graphs += [random_connected_graph(n, rng, p) for n in range(2, 41) for p in (0.0, 0.05, 0.3)]
    for g in graphs:
        assert (distance_matrix(g) == _networkx_distances(nx, g)).all(), g


def test_distance_matrix_disconnected_names_lowest_unreachable_vertex():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(19)
    graphs = [make_graph(5, [(1, 2), (2, 3), (3, 4)]), make_graph(4, [(0, 2), (1, 3)])]
    for n in range(2, 41):
        pairs = list(itertools.combinations(range(n), 2))
        for p in (1.0 / n, 2.0 / n):
            graphs.append(make_graph(n, [e for e in pairs if rng.random() < p]))
    disconnected = 0
    for g in graphs:
        ref = _networkx_distances(nx, g)
        if (ref[0] >= 0).all():
            assert (distance_matrix(g) == ref).all(), g
            continue
        disconnected += 1
        with pytest.raises(DisconnectedGraphError) as err:
            distance_matrix(g)
        lowest = int(np.flatnonzero(ref[0] < 0)[0])
        assert (err.value.reachable_vertex, err.value.unreachable_vertex) == (0, lowest)
    assert disconnected >= 20


def test_transmission_wiener_diameter_path3():
    d = distance_matrix(make_family("path", [3]))
    assert transmission(d, 1) == 2
    assert wiener(d) == 4
    assert diameter(d) == 2


def test_transmission_wiener_k5():
    d = distance_matrix(make_family("complete", [5]))
    assert all(transmission(d, v) == 4 for v in range(5))
    assert wiener(d) == 10
    assert diameter(d) == 1


def test_transmission_wiener_star5():
    d = distance_matrix(make_family("star", [5]))
    assert transmission(d, 0) == 4
    assert all(transmission(d, v) == 7 for v in range(1, 5))
    assert wiener(d) == 16


@pytest.mark.parametrize("n", range(2, 9))
def test_diameter_path_and_complete(n):
    assert diameter(distance_matrix(make_family("path", [n]))) == n - 1
    assert diameter(distance_matrix(make_family("complete", [n]))) == 1


def test_delete_edge_k3_gives_path():
    g = delete_edge(make_family("complete", [3]), (0, 1))
    assert is_isomorphic(g, make_family("path", [3]))


def test_coalesce_two_edges_give_path():
    p2 = make_family("path", [2])
    g = coalesce(p2, 1, p2, 0)
    assert g.sorted_edges() == [(0, 1), (1, 2)]


def test_coalesce_labeling():
    # star attached at a leaf of a path: path keeps labels, star shifts
    p3 = make_family("path", [3])
    s3 = make_family("star", [3])
    g = coalesce(p3, 2, s3, 0)
    assert g.n == 5
    assert {(0, 1), (1, 2), (2, 3), (2, 4)} == set(g.sorted_edges())


def test_graph6_k4_and_path3():
    # n=4, all six upper-triangle bits set -> 'C~'; P3 packs bits 101 -> 'Bg'
    assert parse_graph6("C~").edges == make_family("complete", [4]).edges
    g = parse_graph6("Bg")
    assert g.n == 3 and is_isomorphic(g, make_family("path", [3]))


def test_graph6_header_and_oracle():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        edges = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        line = nx.to_graph6_bytes(h, header=True).decode().strip()
        g = parse_graph6(line)
        assert g.n == n
        assert g.edges == make_graph(n, edges).edges


def test_graph6_errors():
    with pytest.raises(GraphParseError):
        parse_graph6("")
    with pytest.raises(GraphParseError):
        parse_graph6("C")  # truncated body for n=4
    with pytest.raises(GraphParseError, match=r"^graph6 byte '!' \(code 33\) at position 0 "):
        parse_graph6("!A")  # order byte below 63
    with pytest.raises(GraphParseError, match="truncated graph6 long-form order"):
        parse_graph6("~AB")
    with pytest.raises(GraphParseError, match="graph6 order must be positive"):
        parse_graph6("?")
    assert parse_graph6(b"C~").edges == make_family("complete", [4]).edges
    # one bad body byte on an order-400 line is named alone, not the 13,300-byte body
    body = ["?"] * (400 * 399 // 2 // 6)  # after "~" and the three order bytes
    body[1000] = " "
    with pytest.raises(GraphParseError) as err:
        parse_graph6(">>graph6<<~?EO" + "".join(body))
    assert str(err.value) == "graph6 byte ' ' (code 32) at position 1004 is outside 63..126"


@pytest.mark.parametrize(
    "family,params",
    [("path", [8]), ("cycle", [8]), ("complete", [8]), ("star", [8]),
     ("complete_bipartite", [3, 5]), ("wheel", [8]), ("star_plus_edge", [8]),
     ("clique_plus_pendant_p", [7, 3]), ("complete_minus_two_incident_edges", [8])],
)
def test_family_distance_matrices_are_metrics(family, params):
    g = make_family(family, params)
    d = distance_matrix(g)
    assert (d == d.T).all() and (np.diag(d) == 0).all()
    assert (d[~np.eye(g.n, dtype=bool)] >= 1).all()
    for i, j, k in itertools.product(range(g.n), repeat=3):
        assert d[i, k] <= d[i, j] + d[j, k]
    assert 2 * wiener(d) == sum(transmission(d, v) for v in range(g.n))


@st.composite
def _random_graph(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    return make_graph(n, edges)


@settings(max_examples=120, deadline=None)
@given(_random_graph())
def test_distance_matrix_metric_properties(g):
    try:
        d = distance_matrix(g)
    except DisconnectedGraphError:
        return
    assert (d == d.T).all()
    assert (np.diag(d) == 0).all()
    off = d[~np.eye(g.n, dtype=bool)]
    assert (off >= 1).all()
    for i, j, k in itertools.product(range(g.n), repeat=3):
        assert d[i, k] <= d[i, j] + d[j, k]
    assert d.max() == diameter(d)
    assert 2 * wiener(d) == sum(transmission(d, v) for v in range(g.n))


def test_distance_matrix_is_kept_on_the_graph_instance():
    g, h = make_family("wheel", [7]), make_family("wheel", [7])
    d = distance_matrix(g)
    assert type(d) is np.ndarray and d.dtype == np.int64 and d.shape == (7, 7)
    assert distance_matrix(g) is d
    assert g == h and hash(g) == hash(h)  # the cache is not part of the value
    other = distance_matrix(h)
    assert other is not d and (other == d).all()
    assert not d.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        d[0, 1] = 5


def test_distance_matrix_of_a_disconnected_graph_raises_on_every_call():
    g = make_graph(4, [(0, 1), (2, 3)])
    for _ in range(3):
        with pytest.raises(DisconnectedGraphError):
            distance_matrix(g)
    assert "_distances" not in vars(g)
