import dataclasses
import itertools
import math

import numpy as np
import pytest

from distpareto.errors import CapExceededError, DisconnectedGraphError
from distpareto.graph import coalesce, delete_edge, distance_matrix, make_family, make_graph
from distpareto import pareto, verify
from distpareto.pareto import pareto_count, pareto_eigenpair
from distpareto.verify import (
    canonical_form,
    check_coalescence_quasiconvexity,
    check_edge_monotonicity,
    check_eigenvector_convexity,
    check_tree_extremes,
    connected_graph_classes,
    connected_graphs_labeled,
    extremal_search,
    is_isomorphic,
    random_connected_graph,
    trees_upto_iso,
)


def fam(name, *params):
    return make_family(name, list(params))


# ---------------------------------------------------------------------------
# enumeration machinery


def test_unlabeled_tree_counts():
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]  # OEIS A000055
    for n, want in enumerate(expected, 1):
        assert len(trees_upto_iso(n)) == want


def test_trees_are_connected_with_n_minus_1_edges():
    for n in range(1, 15):
        for t in trees_upto_iso(n):
            assert t.n == n and t.size == n - 1
            assert verify._is_connected(t)


def test_trees_against_networkx():
    nx = pytest.importorskip("networkx")
    for n in range(3, 11):
        ours = [nx.Graph(t.sorted_edges()) for t in trees_upto_iso(n)]
        theirs = list(nx.nonisomorphic_trees(n))
        assert len(ours) == len(theirs)
        for a, b in itertools.combinations(ours, 2):
            assert not nx.is_isomorphic(a, b)
        for ref in theirs:
            assert any(nx.is_isomorphic(h, ref) for h in ours)


def test_trees_are_deterministic():
    for n in (1, 2, 9, 12):
        first, second = trees_upto_iso(n), trees_upto_iso(n)
        assert [t.sorted_edges() for t in first] == [t.sorted_edges() for t in second]


def test_trees_are_labeled_in_preorder_from_vertex_0():
    # the parent of vertex i is the last vertex before i one level nearer vertex 0
    for n in (2, 5, 9):
        for t in trees_upto_iso(n):
            depth = distance_matrix(t)[0].tolist()
            adj = t.adjacency()
            for i in range(1, n):
                parent = max(j for j in range(i) if depth[j] == depth[i] - 1)
                assert parent in adj[i]


def test_tree_order_cap():
    with pytest.raises(CapExceededError):
        trees_upto_iso(15)
    with pytest.raises(CapExceededError):
        trees_upto_iso(0)


def test_connected_class_counts():
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349
    for n, want in expected.items():
        assert len(connected_graph_classes(n)) == want


def test_connected_classes_against_graph_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {n: [] for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() >= 1 and nx.is_connected(h):
            atlas[h.number_of_nodes()].append(make_graph(h.number_of_nodes(), h.edges()))
    for n, theirs in atlas.items():
        classes = connected_graph_classes(n)
        ours = {canonical_form(g) for g in classes}
        assert len(ours) == len(classes) == len(theirs)
        assert ours == {canonical_form(g) for g in theirs}


def test_connected_classes_are_canonical_and_ascending():
    for n in range(1, 8):
        classes = connected_graph_classes(n)
        assert all(g.sorted_edges() == list(canonical_form(g)) for g in classes)
        masks, _ = verify._class_masks(n)
        assert (np.diff(masks) > 0).all()


def test_class_automorphisms_cover_the_labeled_graphs():
    expected = [1, 1, 4, 38, 728, 26704, 1866256]  # OEIS A001187
    for n, want in enumerate(expected, 1):
        _, aut = verify._class_masks(n)
        assert sum(math.factorial(n) // int(a) for a in aut) == want
    _, aut = verify._class_masks(4)
    assert sorted(aut.tolist()) == [2, 2, 4, 6, 8, 24]  # P4, paw, K4 - e, K_{1,3}, C4, K4


def test_connected_labeled_counts():
    expected = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}  # OEIS A001187
    for n, want in expected.items():
        assert sum(1 for _ in connected_graphs_labeled(n)) == want


def _double_edge_swaps(g):
    """Graphs from g by one degree-preserving swap ab, cd -> ad, cb."""
    edges = set(g.sorted_edges())
    out = []
    for e, f in itertools.combinations(sorted(edges), 2):
        for (a, b), (c, d) in ((e, f), (e, f[::-1])):
            new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
            if len({a, b, c, d}) == 4 and not new & edges:
                out.append(make_graph(g.n, (edges - {e, f}) | new))
    return out


def test_is_isomorphic_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(7)
    same_degrees_not_iso = 0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        g = random_connected_graph(n, rng, extra_edge_prob=0.35)
        swaps = _double_edge_swaps(g)
        if trial % 2 and swaps:
            # same degree sequence, often not isomorphic
            h = swaps[int(rng.integers(len(swaps)))]
        else:
            perm = rng.permutation(n)
            h = make_graph(n, [(int(perm[u]), int(perm[v])) for u, v in g.sorted_edges()])
        assert sorted(g.degrees()) == sorted(h.degrees())
        gx, hx = nx.Graph(g.sorted_edges()), nx.Graph(h.sorted_edges())
        gx.add_nodes_from(range(n))
        hx.add_nodes_from(range(n))
        want = nx.is_isomorphic(gx, hx)
        assert is_isomorphic(g, h) == want
        same_degrees_not_iso += not want
    assert same_degrees_not_iso >= 5
    # both 3-regular on 6 vertices, not isomorphic
    prism = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    assert not is_isomorphic(prism, fam("complete_bipartite", 3, 3))


def test_canonical_form_detects_isomorphism():
    a = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = make_graph(4, [(2, 0), (0, 3), (3, 1)])
    assert canonical_form(a) == canonical_form(b)
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, fam("star", 4))


def test_random_connected_graph_is_connected():
    rng = np.random.default_rng(123)
    for _ in range(30):
        n = int(rng.integers(2, 11))
        g = random_connected_graph(n, rng)
        distance_matrix(g)  # raises if disconnected


def _random_connected_graph_by_pair(n, rng, extra_edge_prob=0.3):
    """``random_connected_graph`` with one ``rng.random()`` call per vertex pair."""
    seq = tuple(int(x) for x in rng.integers(0, n, size=max(0, n - 2)))
    edges = set(verify._prufer_to_edges(seq, n)) if n > 2 else {(0, 1)}
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < extra_edge_prob:
            edges.add((u, v))
    return make_graph(n, edges)


def test_random_connected_graph_matches_one_draw_per_pair():
    got_rng, want_rng = np.random.default_rng(20240601), np.random.default_rng(20240601)
    for _ in range(500):  # the acceptance batch
        n = int(got_rng.integers(7, 11))
        assert n == int(want_rng.integers(7, 11))
        assert random_connected_graph(n, got_rng) == _random_connected_graph_by_pair(n, want_rng)
    for n in range(2, 41):
        for p in (0.0, 0.05, 0.3):
            assert random_connected_graph(n, got_rng, p) == _random_connected_graph_by_pair(
                n, want_rng, p)
    assert got_rng.random() == want_rng.random()  # the generators end in one state


def _perm_edge_columns_by_dict(n):
    """The relabeling weights from a {pair: bit} dict, one permutation at a time."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    table = np.array([[index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs]
                      for perm in itertools.permutations(range(n))], dtype=np.intp)
    return np.ldexp(1.0, table.T)


def test_perm_edge_columns_match_the_pair_dict():
    for n in range(1, 8):
        got, want = verify._perm_edge_columns(n), _perm_edge_columns_by_dict(n)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


# ---------------------------------------------------------------------------
# eigenvector convexity


def test_convexity_path4_full_support():
    t = fam("path", 4)
    rep = check_eigenvector_convexity(t, pareto_eigenpair(t, range(4)))
    assert rep.holds and rep.details["paths_checked"] == 2


def test_convexity_vacuous_on_disconnected_support():
    t = fam("path", 3)
    rep = check_eigenvector_convexity(t, pareto_eigenpair(t, (0, 2)))
    assert rep.holds and rep.details["paths_checked"] == 0


def test_convexity_star5_center_below_leaf_midpoint():
    t = fam("star", 5)
    pair = pareto_eigenpair(t, range(5))
    rep = check_eigenvector_convexity(t, pair)
    assert rep.holds
    x = pair.vector
    assert 2 * x[0] < x[1] + x[2]


def test_convexity_requires_tree():
    with pytest.raises(ValueError):
        check_eigenvector_convexity(fam("cycle", 4), pareto_eigenpair(fam("cycle", 4), (0,)))


def test_convexity_rejects_a_pair_of_another_order():
    with pytest.raises(ValueError, match="on 5 vertices"):
        check_eigenvector_convexity(fam("path", 4), pareto_eigenpair(fam("path", 5), range(5)))


def test_convexity_rejects_a_pair_of_another_tree():
    # same order, but the star's Perron pair fails the path's eigen-equation
    with pytest.raises(ValueError, match="eigen-equation"):
        check_eigenvector_convexity(fam("path", 5), pareto_eigenpair(fam("star", 5), range(5)))


def _reference_convexity(t, support, value, x):
    """The per-support loop: paths i ~ j ~ k by j in the support, then neighbor pairs."""
    if value <= 1e-12:
        return True, None, {"vacuous": True}
    adj = t.adjacency()
    checked = 0
    for j in support:
        for i, k in itertools.combinations([w for w in adj[j] if w in support], 2):
            checked += 1
            margin = x[i] + x[k] - 2.0 * x[j]
            if margin <= 1e-12:
                values = (float(x[i]), float(x[j]), float(x[k]))
                return False, {"path": (i, j, k), "values": values, "margin": float(margin)}, {}
    return True, None, {"paths_checked": checked}


def test_stacked_convexity_rule_matches_the_per_support_loop():
    # random vectors make most supports fail, so the first violation is compared too
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 7):
        for t in trees_upto_iso(n):
            # every support size in one call, as the suite makes it
            supports = [tuple(row) for rows in pareto._subsets_by_size(n).values()
                        for row in rows.tolist()]
            vectors = np.zeros((len(supports), n))
            for x, row in zip(vectors, supports):
                x[list(row)] = rng.random(len(row))
            values = rng.choice([0.0, 1.0], size=len(supports), p=[0.1, 0.9])
            reports = verify._convexity_reports(t, supports, values, vectors)
            assert len(reports) == len(supports)
            for row, value, x, rep in zip(supports, values, vectors, reports):
                holds, counterexample, details = _reference_convexity(t, row, value, x)
                assert rep.instance == f"{verify._describe(t)}, support={row}"
                assert (rep.holds, rep.counterexample, rep.details) == (
                    holds, counterexample, details)


def _one_shot_tree_paths(g):
    """The paths i ~ j ~ k from one (n, n, n) mask, the table built in one piece."""
    d = distance_matrix(g)
    adj = d == 1
    j, i, k = np.nonzero(adj[:, :, None] & adj[:, None, :] & np.triu(d == 2, 1))
    return np.stack([i, j, k], axis=1)


def test_two_path_table_in_blocks_equals_the_one_shot_mask(monkeypatch):
    graphs = [t for n in range(1, 11) for t in trees_upto_iso(n)]
    graphs += [g for n in range(1, 8) for g in connected_graph_classes(n)]
    for g in graphs:
        want = _one_shot_tree_paths(g)
        # one middle vertex j per block, then two (several blocks from order 3 on)
        for budget in (1, 2 * g.n * g.n):
            monkeypatch.setattr(verify, "_GATHER_BYTES", budget)
            got = verify._tree_paths(g)
            assert got.dtype == want.dtype and np.array_equal(got, want), (g, budget)


def test_two_path_table_memory_is_bounded_by_the_gather_budget():
    import tracemalloc

    star = fam("star", 400)
    distance_matrix(star)
    tracemalloc.start()
    try:
        paths = verify._tree_paths(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(paths) == 399 * 398 // 2
    assert peak < 4 * verify._GATHER_BYTES  # the one-shot mask holds 400^3 bytes, twice


def test_convexity_suite_reports_equal_one_support_checks():
    for n in (2, 4, 6):
        for t in trees_upto_iso(n):
            expected = [check_eigenvector_convexity(t, pareto_eigenpair(t, J))
                        for k in range(1, n + 1) for J in itertools.combinations(range(n), k)]
            assert verify._tree_convexity_reports(t) == expected
    # a caller's support as a list, or of numpy integers, is reported as a tuple of ints
    t = trees_upto_iso(4)[0]
    pair = pareto_eigenpair(t, (0, 1, 2))
    for support in ([0, 1, 2], tuple(np.arange(3))):
        report = check_eigenvector_convexity(t, dataclasses.replace(pair, support=support))
        assert report == check_eigenvector_convexity(t, pair)
        assert "support=(0, 1, 2)" in report.instance


def test_convexity_sweep_builds_the_two_path_table_once_per_tree(monkeypatch):
    built = []
    tree_paths = verify._tree_paths

    def counted(t):
        built.append(t)
        return tree_paths(t)

    monkeypatch.setattr(verify, "_tree_paths", counted)
    reports = sum(1 for _ in verify._convexity_sweep(10))
    assert len(built) == sum(len(trees_upto_iso(n)) for n in range(2, 11)) == 200
    assert reports == sum(len(trees_upto_iso(n)) * (2**n - 1) for n in range(2, 11))


def test_convexity_all_supports_small_trees():
    for n in (4, 5, 6):
        for t in trees_upto_iso(n):
            for k in range(1, n + 1):
                for J in itertools.combinations(range(n), k):
                    rep = check_eigenvector_convexity(t, pareto_eigenpair(t, J))
                    assert rep.holds, rep


# ---------------------------------------------------------------------------
# edge monotonicity


def test_monotonicity_wheel_spoke_equality():
    w6 = fam("wheel", 6)
    rep = check_edge_monotonicity(w6, (0, 1))
    assert rep.holds
    assert rep.details["relation"] == "equal"
    assert rep.details["rho2_before"] == pytest.approx(6.0, abs=1e-9)
    assert rep.details["rho2_after"] == pytest.approx(6.0, abs=1e-9)


def test_monotonicity_complete4_strict():
    rep = check_edge_monotonicity(fam("complete", 4), (0, 1))
    assert rep.holds and rep.details["relation"] == "strict_increase"
    assert rep.details["rho2_after"] == pytest.approx(1 + math.sqrt(3), abs=1e-9)


def test_monotonicity_cycle4_to_path4():
    rep = check_edge_monotonicity(fam("cycle", 4), (0, 3))
    assert rep.holds and rep.details["relation"] == "strict_increase"


def test_monotonicity_disconnecting_edge_raises():
    with pytest.raises(DisconnectedGraphError):
        check_edge_monotonicity(fam("path", 4), (1, 2))


def test_monotonicity_sweep_with_strictness_rule(classes_by_order):
    """Strictness whenever some rho2-achieving deletion vertex avoids the edge."""
    for n in (4, 5, 6):
        for g in classes_by_order[n]:
            dmat = distance_matrix(g).astype(float)
            deg = g.degrees()
            candidates = [v for v in range(n) if deg[v] > 1] or list(range(n))
            rho = {}
            for v in candidates:
                keep = [u for u in range(n) if u != v]
                rho[v] = float(np.linalg.eigvalsh(dmat[np.ix_(keep, keep)])[-1])
            r2 = max(rho.values())
            achievers = {v for v, val in rho.items() if val >= r2 - 1e-9 * max(1.0, r2)}
            for e in g.sorted_edges():
                try:
                    rep = check_edge_monotonicity(g, e)
                except DisconnectedGraphError:
                    continue
                assert rep.holds, rep
                if any(v not in e for v in achievers):
                    assert rep.details["relation"] == "strict_increase", (g, e, rep)


def _rho2_fast_monotonicity_reports(order):
    """The monotonicity sweep with one ``rho2_fast`` per class and per connected edge deletion."""
    for n in range(2, order + 1):
        for g in connected_graph_classes(n):
            before, _ = pareto.rho2_fast(g)
            for e in g.sorted_edges():
                try:
                    after, _ = pareto.rho2_fast(delete_edge(g, e))
                except DisconnectedGraphError:
                    continue
                yield verify._edge_monotonicity(verify._describe(g), e, before, after)


def test_monotonicity_sweep_equals_rho2_fast_reference():
    reports = list(verify._monotonicity_reports(6))
    assert len(reports) == sum(
        1 for n in range(2, 7) for g in connected_graph_classes(n) for e in g.sorted_edges()
        if verify._is_connected(delete_edge(g, e)))
    for got, want in itertools.zip_longest(reports, _rho2_fast_monotonicity_reports(6)):
        assert got == want


# ---------------------------------------------------------------------------
# coalescence quasiconvexity


def test_coalescence_path3_middle_vs_end():
    rep = check_coalescence_quasiconvexity(fam("path", 3), fam("complete", 2), 0)
    assert rep.holds
    vals = rep.details["rho2_by_vertex"]
    assert vals[1] < max(vals[0], vals[2])


def test_coalescence_path5_triangle_quasiconvex():
    rep = check_coalescence_quasiconvexity(fam("path", 5), fam("complete", 3), 0)
    assert rep.holds
    vals = rep.details["rho2_by_vertex"]
    # decreases toward the middle and increases back out
    assert vals[0] > vals[1] > vals[2] < vals[3] < vals[4]


def test_coalescence_star4_leaf_beats_center():
    rep = check_coalescence_quasiconvexity(fam("star", 4), fam("complete", 2), 0)
    assert rep.holds
    vals = rep.details["rho2_by_vertex"]
    assert vals[1] > vals[0]


def test_coalescence_input_validation():
    with pytest.raises(ValueError):
        check_coalescence_quasiconvexity(fam("cycle", 4), fam("complete", 2), 0)
    with pytest.raises(ValueError):
        check_coalescence_quasiconvexity(fam("path", 3), make_graph(1, []), 0)


def test_checkers_reject_n_minus_1_edges_when_disconnected():
    triangle_plus_isolated = make_graph(4, [(0, 1), (1, 2), (0, 2)])  # 3 = n - 1 edges
    with pytest.raises(ValueError, match="requires a tree"):
        check_eigenvector_convexity(triangle_plus_isolated, pareto_eigenpair(fam("path", 4), (0,)))
    with pytest.raises(ValueError, match="needs a tree"):
        check_coalescence_quasiconvexity(triangle_plus_isolated, fam("complete", 2), 0)
    with pytest.raises(ValueError, match="attachment graph must be connected"):
        check_coalescence_quasiconvexity(fam("path", 3), triangle_plus_isolated, 0)


def _reference_quasiconvexity(t, h, w):
    """The per-path loops: paths i ~ j ~ k by j, then neighbor pairs, and on each
    path the rho2 gap first, then every deletion vertex u.  Returns (holds,
    counterexample, inconclusive, details)."""
    total = t.n + h.n - 1
    dmats = np.stack([distance_matrix(coalesce(t, i, h, w)) for i in range(t.n)])
    deletion_rho = verify._perron_roots_for_rows(dmats, pareto._deletion_rows(total))
    r2 = pareto._rho2_of_deletions(deletion_rho)[0]
    adj = t.adjacency()
    inconclusive, checked = False, 0
    for j in range(t.n):
        for i, k in itertools.combinations(adj[j], 2):
            checked += 1
            gap = max(r2[i], r2[k]) - r2[j]
            scale = max(1.0, abs(r2[j]))
            if gap <= -1e-9 * scale:
                rho2 = (float(r2[i]), float(r2[j]), float(r2[k]))
                return False, {"path": (i, j, k), "rho2": rho2}, False, {}
            if gap <= 1e-9 * scale:
                inconclusive = True
            for u in range(total):
                s = deletion_rho[i, u] + deletion_rho[k, u] - 2.0 * deletion_rho[j, u]
                if s < -1e-9 * max(1.0, abs(deletion_rho[j, u])):
                    return False, {"path": (i, j, k), "deletion_vertex": u,
                                   "sum_minus_twice_middle": float(s)}, False, {}
    return True, None, inconclusive, {"paths_checked": checked,
                                      "rho2_by_vertex": [float(v) for v in r2]}


def _fake_deletion_roots(t, total, mode, rng):
    """(t.n, total) deletion roots for the coalescences of t: affine in the tree
    distance to a random vertex with slopes >= 1 ("strict", every path passes
    strictly) or >= 0 ("ties"), small integers, or uniform floats."""
    if mode in ("strict", "ties"):
        depth = distance_matrix(t)[rng.integers(t.n)].astype(float)
        slope = rng.integers(1 if mode == "strict" else 0, 3, size=total)
        return rng.integers(0, 4, size=total) + np.outer(depth, slope)
    if mode == "integers":
        return rng.integers(0, 4, size=(t.n, total)).astype(float)
    return rng.random((t.n, total))


def test_quasiconvexity_matches_the_per_path_loops(monkeypatch):
    # seeded deletion roots reach every branch: both counterexample kinds, ties, clean holds
    rng = np.random.default_rng(11)
    attachments = [(fam("complete", 2), 0), (fam("complete", 3), 0), (fam("path", 3), 0)]
    outcomes = set()
    for n in range(3, 8):
        for t in trees_upto_iso(n):
            for h, w in attachments:
                for mode in ("strict", "ties", "integers", "uniform"):
                    roots = _fake_deletion_roots(t, t.n + h.n - 1, mode, rng)
                    monkeypatch.setattr(verify, "_perron_roots_for_rows", lambda d, rows: roots)
                    rep = check_coalescence_quasiconvexity(t, h, w)
                    want = _reference_quasiconvexity(t, h, w)
                    got = (rep.holds, rep.counterexample, rep.inconclusive, rep.details)
                    assert got == want and repr(got) == repr(want), (t, h, mode)
                    assert rep.instance == (f"tree {verify._describe(t)} x attachment "
                                            f"{verify._describe(h)} at {w}")
                    outcomes.add("inconclusive" if rep.inconclusive else "holds" if rep.holds
                                 else next(key for key in rep.counterexample if key != "path"))
    assert outcomes == {"holds", "inconclusive", "rho2", "deletion_vertex"}


# ---------------------------------------------------------------------------
# tree extremes and extremal search


def test_tree_extremes_n4():
    rep = check_tree_extremes(4)
    assert rep.holds
    assert rep.details["tree_count"] == 2
    assert rep.details["path_rho2"] > rep.details["star_rho2"] == pytest.approx(4.0, abs=1e-9)


def test_tree_extremes_n5():
    rep = check_tree_extremes(5)
    assert rep.holds
    assert rep.details["star_rho2"] == pytest.approx(6.0, abs=1e-9)


def test_tree_extremes_n3_single_tree():
    rep = check_tree_extremes(3)
    assert rep.holds and rep.details["tree_count"] == 1


def _reference_tree_extremes(n):
    """The per-tree loop: path and star found by sorted degree signature, then one
    max and one min test per tree."""
    trees = trees_upto_iso(n)
    values = verify._rho2_many(np.stack([distance_matrix(t) for t in trees]))[0].tolist()
    degs = [tuple(sorted(t.degrees())) for t in trees]
    path_idx = degs.index(tuple(sorted([1, 1] + [2] * (n - 2))))
    star_idx = degs.index(tuple(sorted([n - 1] + [1] * (n - 1))))
    vmax, vmin = max(values), min(values)
    problems = []
    for idx, v in enumerate(values):
        if idx != path_idx and v >= vmax - 1e-9 * max(1.0, abs(vmax)):
            problems.append({"kind": "max_not_unique_to_path", "tree": verify._describe(trees[idx])})
        if idx != star_idx and v <= vmin + 1e-9 * max(1.0, abs(vmin)):
            problems.append({"kind": "min_not_unique_to_star", "tree": verify._describe(trees[idx])})
    holds = values[path_idx] == vmax and values[star_idx] == vmin and not problems
    return holds, None if holds else {"problems": problems}, {
        "tree_count": len(trees), "path_rho2": float(values[path_idx]),
        "star_rho2": float(values[star_idx])}


def test_tree_extremes_match_the_per_tree_loop(monkeypatch):
    # crafted rho2 values tie at the maximum and the minimum, exactly and within tolerance
    rng = np.random.default_rng(5)
    kinds = set()
    for n in range(3, 9):
        trees = trees_upto_iso(n)
        degrees = [max(t.degrees()) for t in trees]
        path, star = degrees.index(2), degrees.index(n - 1)
        for case in range(8):
            values = rng.integers(0, 4, size=len(trees)).astype(float) * 10.0
            if case % 4 == 1:  # path strictly largest, star strictly smallest
                values[path], values[star] = 50.0, -10.0
            elif case % 4 == 2:  # a tolerance tie beside the path and beside the star
                values[path], values[star] = 50.0, -10.0
                values[rng.integers(len(trees))] = 50.0 - 1e-8
                values[rng.integers(len(trees))] = -10.0 + 1e-9
            elif case % 4 == 3:  # path and star just inside the tolerance of the extremes
                values[path], values[star] = values.max() - 1e-9, values.min() + 1e-9
            monkeypatch.setattr(verify, "_rho2_many", lambda d: (values, None))
            rep = check_tree_extremes(n)
            want = _reference_tree_extremes(n)
            assert (rep.holds, rep.counterexample, rep.details) == want, (n, values)
            assert type(rep.holds) is bool
            assert rep.instance == f"all {len(trees)} trees of order {n}"
            kinds |= {p["kind"] for p in (rep.counterexample or {"problems": []})["problems"]}
            kinds.add(rep.holds)
    assert kinds == {True, False, "max_not_unique_to_path", "min_not_unique_to_star"}


def test_tree_extremes_solve_no_pendant_deletion(monkeypatch):
    # a tree less a leaf is a tree: its distance submatrix holds n - 2 unit pairs;
    # less an inner vertex it is a forest, with fewer
    solved = []
    real = pareto.spectral_radius_many
    monkeypatch.setattr(pareto, "spectral_radius_many", lambda m: solved.append(m) or real(m))
    n = 10
    assert check_tree_extremes(n).holds
    mats = np.concatenate(solved)
    assert mats.shape[1:] == (n - 1, n - 1)
    assert ((mats == 1).sum(axis=(1, 2)) < 2 * (n - 2)).all()
    assert mats.shape[0] < 2 * len(trees_upto_iso(n)) == 2 * 106


def test_extremal_small_orders():
    for n, want in [(2, 2), (3, 4), (4, 7)]:
        res = extremal_search(n)
        assert res.max_count == want
        assert any(is_isomorphic(w, fam("path", n)) for w in res.witnesses)


def test_extremal_n4_witness_is_path_only():
    res = extremal_search(4)
    assert len(res.witnesses) == 1
    assert res.graphs_scanned == 38


def test_extremal_n5_witness_set():
    """Exactly the path, the 3-leg spider, and the triangle with a 2-tail."""
    res = extremal_search(5)
    spider = make_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    triangle_tail = make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    expected = [fam("path", 5), spider, triangle_tail]
    assert len(res.witnesses) == 3
    for target in expected:
        assert any(is_isomorphic(w, target) for w in res.witnesses), target


def test_extremal_jobs_agree():
    # jobs split the subset range, as in pareto_spectrum (order 2's 3 subsets stay whole)
    for n in range(2, 8):
        a = extremal_search(n, jobs=1)
        for jobs in (2, 3):
            b = extremal_search(n, jobs=jobs)
            assert a.max_count == b.max_count
            assert [w.edges for w in a.witnesses] == [w.edges for w in b.witnesses]
            assert a.graphs_scanned == b.graphs_scanned


def test_extremal_witnesses_attain_max():
    res = extremal_search(5)
    for w in res.witnesses:
        assert w.n == 5
        assert pareto_count(w) == res.max_count


def _labeled_extremal(n):
    """Reference maximum, witnesses (least labeled mask of each class) and count
    of connected labeled graphs, from a sweep over every labeled graph."""
    every = np.arange(1 << (n * (n - 1) // 2))
    dist = verify._mask_distances(every, n)
    connected = (dist[:, 0] >= 0).all(axis=1)
    counts = pareto._distinct_counts(dist[connected], pareto.DEFAULT_DEDUP_TOL)
    best, scanned = int(counts.max()), int(connected.sum())
    masks = every[connected][counts == best].tolist()
    values, _ = verify._canonical_mask_values(masks, n)
    _, first = np.unique(values, return_index=True)
    pairs = verify._pair_table(n)[0]
    witnesses = [[p for i, p in enumerate(pairs) if masks[f] >> i & 1] for f in sorted(first)]
    return best, witnesses, scanned


def test_extremal_matches_labeled_sweep():
    for n in range(2, 6):
        res = extremal_search(n)
        best, witnesses, scanned = _labeled_extremal(n)
        assert res.max_count == best
        assert [w.sorted_edges() for w in res.witnesses] == witnesses
        assert res.graphs_scanned == scanned


def test_extremal_order7():
    res = extremal_search(7)
    assert res.max_count == 64
    assert res.graphs_scanned == 1866256
    assert [w.sorted_edges() for w in res.witnesses] == [
        [(0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (2, 3), (2, 4)],
        [(0, 2), (0, 3), (0, 4), (0, 6), (1, 3), (1, 5), (2, 3), (2, 4)],
        [(0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 6), (2, 5), (3, 4)],
    ]


def test_extremal_cap():
    with pytest.raises(CapExceededError):
        extremal_search(8)
