import functools
import itertools
import math
import os

import numpy as np
import pytest

from distpareto.errors import CapExceededError, DisconnectedGraphError, EigensolverError
from distpareto.graph import delete_edge, distance_matrix, make_family, make_graph
from distpareto import pareto
from distpareto.pareto import pareto_count, pareto_eigenpair, pareto_spectrum, rho2_fast

SQ3 = math.sqrt(3)
SQ7 = math.sqrt(7)


def fam(name, *params):
    return make_family(name, list(params))


def enumeration_oracle(g, tol=1e-8):
    """Independent sequential enumeration: numeric bitmask order, one
    eigendecomposition per subset, plain-loop dedup."""
    d = distance_matrix(g).astype(float)
    values = []
    for mask in range(1, 1 << g.n):
        keep = [v for v in range(g.n) if mask >> v & 1]
        if len(keep) == 1:
            values.append(0.0)
        else:
            sub = d[np.ix_(keep, keep)]
            values.append(float(np.linalg.eigvalsh(sub)[-1]))
    values.sort()
    out = [values[0]]
    for v in values[1:]:
        if v - out[-1] > tol * max(1.0, v):
            out.append(v)
    return out


def test_spectrum_path3_exact():
    spec = pareto_spectrum(fam("path", 3))
    assert spec.values == pytest.approx([0.0, 1.0, 2.0, 1 + SQ3], abs=1e-9)
    assert spec.count == 4


def test_spectrum_complete_graphs():
    for n in range(2, 8):
        spec = pareto_spectrum(fam("complete", n))
        assert spec.values == pytest.approx(list(range(n)), abs=1e-9)


def test_spectrum_star4_against_oracle():
    g = fam("star", 4)
    spec = pareto_spectrum(g)
    assert list(spec.values) == pytest.approx(enumeration_oracle(g), abs=1e-9)
    assert spec.values == pytest.approx(
        [0.0, 1.0, 2.0, 1 + SQ3, 4.0, 2 + SQ7], abs=1e-9
    )
    assert spec.count == 2 * (4 - 1)


def test_witness_rule_smallest_cardinality_then_lex():
    spec = pareto_spectrum(fam("path", 3))
    assert spec.witnesses == ((0,), (0, 1), (0, 2), (0, 1, 2))


def test_counts_paths():
    assert [pareto_count(fam("path", n)) for n in (2, 3, 4, 5)] == [2, 4, 7, 13]


def test_count_path_with_triangle_graph():
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)])
    assert pareto_count(g) == 30


def test_rho_k_and_mu_k():
    s4 = pareto_spectrum(fam("star", 4))
    assert s4.rho_k(1) == pytest.approx(2 + SQ7, abs=1e-9)
    assert s4.mu_k(1) == 0.0
    for g in [fam("cycle", 5), fam("wheel", 6), fam("path", 4)]:
        assert pareto_spectrum(g).mu_k(1) == 0.0
    with pytest.raises(ValueError):
        s4.rho_k(7)
    with pytest.raises(ValueError):
        s4.mu_k(0)


def test_rho2_path4_deleted_vertex_oracle():
    # oracle: eigendecomposition of the path-4 distance matrix without row/col 1
    d = distance_matrix(fam("path", 4)).astype(float)
    keep = [0, 2, 3]
    expected = float(np.linalg.eigvalsh(d[np.ix_(keep, keep)])[-1])
    assert pareto_spectrum(fam("path", 4)).rho_k(2) == pytest.approx(expected, abs=1e-9)
    value, witness = rho2_fast(fam("path", 4))
    assert value == pytest.approx(expected, abs=1e-9)
    assert witness in (1, 2)


def test_rho2_fast_star4():
    value, witness = rho2_fast(fam("star", 4))
    assert value == pytest.approx(4.0, abs=1e-9)
    assert witness == 0  # the center is the only non-pendant vertex


def test_rho2_fast_wheel6():
    value, _ = rho2_fast(fam("wheel", 6))
    assert value == pytest.approx(6.0, abs=1e-9)


def test_rho2_fast_complete4():
    value, _ = rho2_fast(fam("complete", 4))
    assert value == pytest.approx(2.0, abs=1e-9)


def test_rho2_fast_k2_fallback():
    value, witness = rho2_fast(fam("complete", 2))
    assert value == 0.0 and witness == 0


def test_rho2_fast_matches_enumeration(classes_by_order):
    for n in (4, 5):
        for g in classes_by_order[n]:
            spec = pareto_spectrum(g)
            assert rho2_fast(g)[0] == pytest.approx(spec.rho_k(2), abs=1e-9)


def test_eigenpair_path3_pair_support():
    pair = pareto_eigenpair(fam("path", 3), (0, 2))
    assert pair.value == pytest.approx(2.0, abs=1e-10)
    assert pair.vector == pytest.approx([1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)], abs=1e-10)


def test_eigenpair_k3_full():
    pair = pareto_eigenpair(fam("complete", 3), (0, 1, 2))
    assert pair.value == pytest.approx(2.0, abs=1e-10)
    assert pair.vector == pytest.approx([1 / SQ3] * 3, abs=1e-10)


def test_eigenpair_path4_partial_support():
    d = distance_matrix(fam("path", 4)).astype(float)
    expected = float(np.linalg.eigvalsh(d[np.ix_([0, 2, 3], [0, 2, 3])])[-1])
    pair = pareto_eigenpair(fam("path", 4), (0, 2, 3))
    assert pair.value == pytest.approx(expected, abs=1e-9)
    assert pair.support == (0, 2, 3)
    assert pair.vector[1] == 0.0
    assert min(pair.vector[[0, 2, 3]]) > 0


def test_eigenpair_complementarity_everywhere(classes_by_order):
    for g in classes_by_order[5][:10]:
        d = distance_matrix(g).astype(float)
        for k in (1, 2, 4):
            for J in itertools.combinations(range(5), k):
                pair = pareto_eigenpair(g, J)
                slack = d @ pair.vector - pair.value * pair.vector
                assert slack.min() >= -1e-9 * max(1.0, pair.value)
                assert pair.vector @ d @ pair.vector == pytest.approx(
                    pair.value, abs=1e-9 * max(1.0, pair.value)
                )


def test_eigenpair_empty_support_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        pareto_eigenpair(fam("path", 3), ())


@pytest.mark.parametrize("support", [(-1, 0), (0, 3), (5,), [0.9, 2.7], [True, 2], (0, np.bool_(1))])
def test_eigenpair_out_of_range_support_rejected(support):
    # an entry that is not an integer is refused, not truncated (bools included)
    with pytest.raises(ValueError, match="out of range"):
        pareto_eigenpair(fam("path", 3), support)


def test_eigenpair_takes_numpy_integer_supports():
    g = fam("path", 4)
    pair = pareto_eigenpair(g, np.array([2, 0], dtype=np.int8))
    assert pair.support == (0, 2) and pair.value == pareto_eigenpair(g, (0, 2)).value


def _independent_pair(d, row):
    """Perron pair of d on ``row`` from its own eigh, flipped toward the largest entry."""
    values, vectors = np.linalg.eigh(d[np.ix_(row, row)])
    x = vectors[:, -1]
    if x[np.argmax(np.abs(x))] < 0:
        x = -x
    out = np.zeros(d.shape[0])
    out[list(row)] = x
    return values[-1], out


def _check_stacked_pairs(g, rows):
    d = distance_matrix(g).astype(float)
    values, vectors = pareto._perron_pairs_for_rows(d, rows)
    assert values.shape == (len(rows),) and vectors.shape == (len(rows), g.n)
    for row, value, vector in zip(rows.tolist(), values, vectors):
        one = pareto._perron_pairs_for_rows(d, np.array([row]))
        assert one[0].tobytes() == value.tobytes() and one[1][0].tobytes() == vector.tobytes()
        pair = pareto_eigenpair(g, row)
        assert pair.value == value and pair.vector.tobytes() == vector.tobytes()
        ref_value, ref_vector = _independent_pair(d, row)
        assert ref_value == value and ref_vector.tobytes() == vector.tobytes()


def test_stacked_pairs_match_one_row_and_independent_eigh_on_trees():
    from distpareto.verify import trees_upto_iso

    for n in range(2, 8):
        for t in trees_upto_iso(n):
            for rows in pareto._subsets_by_size(n).values():
                _check_stacked_pairs(t, rows)


def test_stacked_pairs_match_one_row_and_independent_eigh_on_random_graphs():
    from distpareto.verify import random_connected_graph

    rng = np.random.default_rng(20240601)
    for _ in range(40):
        g = random_connected_graph(int(rng.integers(2, 11)), rng)
        for k in range(1, g.n + 1):
            rows = np.array(sorted({tuple(sorted(rng.choice(g.n, size=k, replace=False).tolist()))
                                    for _ in range(6)}))
            _check_stacked_pairs(g, rows)


def test_stacked_pairs_check_every_pair(monkeypatch):
    d = distance_matrix(fam("path", 4)).astype(float)
    rows = np.array([[0, 1], [1, 2], [2, 3]])
    real = pareto.perron_pairs_many

    def negated_second(mats):
        values, vectors = real(mats)
        vectors[1] = -vectors[1]
        return values, vectors

    monkeypatch.setattr(pareto, "perron_pairs_many", negated_second)
    with pytest.raises(EigensolverError, match=r"support \(1, 2\)"):
        pareto._perron_pairs_for_rows(d, rows)


def test_jobs_do_not_change_results():
    for g in [fam("wheel", 7), fam("path", 6), fam("complete_bipartite", 2, 4)]:
        base = pareto_spectrum(g, jobs=1)
        for jobs in (2, 3, 4):
            other = pareto_spectrum(g, jobs=jobs)
            assert other.values == base.values
            assert other.witnesses == base.witnesses


def test_jobs_split_spans_but_threads_stay_at_cpu_count(monkeypatch):
    # The pool is replaced by one that records its size and runs the spans
    # serially, so the test starts no thread whatever jobs asks for.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(pareto, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    spans = pareto._map_spans(lambda span: span, 100_000, 10_000)
    assert len(spans) == 10_000 and spans[0][0] == 0 and spans[-1][1] == 100_000
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    g = fam("path", 8)
    base = pareto_spectrum(g, jobs=1)
    other = pareto_spectrum(g, jobs=100)  # 255 subsets in 100 spans
    assert (other.values, other.witnesses) == (base.values, base.witnesses)
    assert sizes == [2, 2]


def test_integer_ladder_and_top_value(classes_by_order):
    for n in (3, 4, 5):
        for g in classes_by_order[n]:
            dmat = distance_matrix(g)
            spec = pareto_spectrum(g)
            d = int(dmat.max())
            for target in range(d + 1):
                assert any(abs(v - target) <= 1e-9 for v in spec.values), (g, target)
            top = float(np.linalg.eigvalsh(dmat.astype(float))[-1])
            assert spec.values[-1] == pytest.approx(top, abs=1e-9)
            assert spec.witnesses[-1] == tuple(range(n))
            assert spec.values[0] == 0.0 and len(spec.witnesses[0]) == 1
            for a, b in zip(spec.values, spec.values[1:]):
                assert b - a > spec.dedup_tolerance


def test_count_lower_bound_small_orders(classes_by_order):
    for n in (2, 3, 4, 5):
        for g in classes_by_order[n]:
            d = int(distance_matrix(g).max())
            assert pareto_count(g) >= n + d - 1


def test_count_lower_equality_set(classes_by_order):
    """Graphs attaining |values| = n + d - 1 for n <= 6.

    Complete graphs and the 3-path attain it; so do the 4-cycle and the
    4-clique minus an edge, whose proper principal submatrices produce no
    Perron root outside the forced chain (every 3-subset of the 4-cycle is
    permutation similar to the 3-path's distance matrix).
    """
    from distpareto.verify import canonical_form

    for n in range(2, 7):
        attained = set()
        for g in classes_by_order[n]:
            d = int(distance_matrix(g).max())
            if pareto_count(g) == n + d - 1:
                attained.add(canonical_form(g))
        expected = {canonical_form(fam("complete", n))}
        if n == 3:
            expected.add(canonical_form(fam("path", 3)))
        if n == 4:
            expected.add(canonical_form(fam("cycle", 4)))
            expected.add(canonical_form(fam("complete_minus_edge", 4)))
        assert attained == expected, n


def test_rho_k_floor_equality_only_for_complete(classes_by_order):
    """rho_k >= n - k for every k, with equality at all k only on K_n."""
    for n in (3, 4, 5):
        for g in classes_by_order[n]:
            spec = pareto_spectrum(g)
            all_tight = True
            for k in range(1, n + 1):
                rk = spec.rho_k(k)
                assert rk >= n - k - 1e-9
                if abs(rk - (n - k)) > 1e-9:
                    all_tight = False
            assert all_tight == (g.size == n * (n - 1) // 2)


def test_oracle_identity_on_random_graphs():
    """Random graphs can have distinct Perron roots closer than the dedup
    tolerance (the roots then merge into one cluster, and the two enumeration
    orders may report different members of it), so values are compared at the
    dedup tolerance rather than at the eigensolver tolerance."""
    from distpareto.verify import random_connected_graph

    rng = np.random.default_rng(424242)
    for _ in range(200):
        n = int(rng.integers(7, 11))
        g = random_connected_graph(n, rng)
        spec = pareto_spectrum(g)
        oracle = enumeration_oracle(g)
        assert spec.count == len(oracle)
        for mine, theirs in zip(spec.values, oracle):
            assert abs(mine - theirs) <= 1e-8 * max(1.0, abs(theirs)), (g, mine, theirs)
        assert abs(rho2_fast(g)[0] - spec.rho_k(2)) <= 1e-8 * max(1.0, spec.rho_k(2))


def test_rho2_rayleigh_characterization(classes_by_order):
    """rho2 is the supremum of the quadratic form over nonnegative unit
    vectors vanishing at exactly one vertex, attained by the witness pair."""
    rng = np.random.default_rng(99)
    for n in (4, 5, 6):
        for g in classes_by_order[n]:
            d = distance_matrix(g).astype(float)
            rho2, witness = rho2_fast(g)
            best_sample = -np.inf
            for i in range(n):
                x = np.abs(rng.normal(size=(500, n)))
                x[:, i] = 0.0
                x /= np.linalg.norm(x, axis=1, keepdims=True)
                quad = np.einsum("ij,jk,ik->i", x, d, x)
                assert quad.max() <= rho2 + 1e-9, (g, i)
                best_sample = max(best_sample, float(quad.max()))
            support = tuple(v for v in range(n) if v != witness)
            pair = pareto_eigenpair(g, support)
            assert pair.value == pytest.approx(rho2, abs=1e-9)
            assert best_sample <= rho2 + 1e-9


def test_caps_and_errors():
    with pytest.raises(CapExceededError):
        pareto_spectrum(fam("path", pareto.DEFAULT_MAX_ORDER + 1))
    with pytest.raises(DisconnectedGraphError):
        pareto_spectrum(make_graph(3, [(0, 1)]))
    with pytest.raises(ValueError):
        rho2_fast(make_graph(1, []))


# ---------------------------------------------------------------------------
# the shared Perron kernel


def test_bulk_counts_match_pareto_count(classes_by_order):
    from distpareto.pareto import _distinct_counts

    for n in range(2, 7):
        graphs = classes_by_order[n]
        dmats = np.stack([distance_matrix(g) for g in graphs])
        counts = _distinct_counts(dmats, pareto.DEFAULT_DEDUP_TOL)
        assert counts.tolist() == [pareto_count(g) for g in graphs]


def test_bounded_gather_is_bitwise_identical(monkeypatch):
    from distpareto.verify import random_connected_graph

    wheel = fam("wheel", 12)
    big = random_connected_graph(60, np.random.default_rng(11), extra_edge_prob=0.05)
    others = [fam("path", 12), fam("star", 12), fam("cycle", 12), fam("complete_bipartite", 6, 6)]
    stack = np.stack([distance_matrix(g) for g in [wheel] + others])
    subsets = pareto._subsets_by_size(12).values()
    spectrum = pareto_spectrum(wheel)
    rho2 = [rho2_fast(wheel), rho2_fast(big)]
    # each matrix alone: the stacked call, which deduplicates, is under test
    stacked = [np.stack([pareto._perron_roots_for_rows(d, rows) for d in stack]) for rows in subsets]
    pairs = [pareto._perron_pairs_for_rows(stack[0], rows) for rows in subsets]
    split = stack[0].copy()  # two blocks: a support across them has no positive Perron vector
    split[:6, 6:] = split[6:, :6] = 0
    # sizes 2..6, eight copies of the supports inside the blocks before the first across them
    crossing = [np.concatenate([rows[(rows < 6).all(1) | (rows >= 6).all(1)]] * 8 + [rows])
                for rows in list(subsets)[1:6]]
    failures = []
    for rows in crossing:
        with pytest.raises(EigensolverError) as exc:
            pareto._perron_pairs_for_rows(split, rows)
        failures.append(str(exc.value))
    monkeypatch.setattr(pareto, "_GATHER_BYTES", 4096)
    chunked = pareto_spectrum(wheel)
    assert chunked.values == spectrum.values
    assert chunked.witnesses == spectrum.witnesses
    assert [rho2_fast(wheel), rho2_fast(big)] == rho2
    for rows, want in zip(subsets, stacked):
        assert np.array_equal(pareto._perron_roots_for_rows(stack, rows), want)
    for rows, (values, vectors) in zip(subsets, pairs):
        # the int64 distances as they are, and their float64 copy, give the same bits
        for d in (stack[0], stack[0].astype(np.float64)):
            got = pareto._perron_pairs_for_rows(d, rows)
            assert np.array_equal(got[0], values) and np.array_equal(got[1], vectors)
    for rows, failure in zip(crossing, failures):
        with pytest.raises(EigensolverError) as exc:
            pareto._perron_pairs_for_rows(split, rows)
        assert str(exc.value) == failure


def _gathered_whole(stack, rows, lead=None, pick=None, flat=None):
    """Every block ``_gathered`` yields, put back in one (m, r, lead, c) array."""
    m = stack.shape[0] if pick is None else pick.size
    k = rows.shape[1] if lead is None else lead
    whole = np.full((m, rows.shape[0], k, rows.shape[1]), -1, dtype=stack.dtype)
    for mats, part, subs in pareto._gathered(stack, rows, lead, pick, flat):
        whole[mats, part] = subs
    return whole


def test_flat_offset_gather_equals_the_broadcast_index(monkeypatch):
    # one matrix and a stack, square and with a lead, with and without a pick, every
    # subset size at n = 1..12 and, past the uint8 labels' range of offsets, n = 20
    rng = np.random.default_rng(36)
    cases = [(n, k, rows) for n in range(1, 13) for k, rows in pareto._subsets_by_size(n).items()]
    cases += [(20, k, pareto._subsets_by_size(20)[k]) for k in (1, 2, 19, 20)]
    for n, k, rows in cases:
        stack = rng.integers(0, 50, size=(4, n, n))
        codeword = np.argsort(rng.random((rows.shape[0], n)), axis=1).astype(np.uint8)
        for mats, pick in ((stack[:1], np.array([0, 0])), (stack, np.array([3, 0, 3]))):
            for choice in (None, pick):
                src = mats if choice is None else mats[choice]
                want = src[:, rows[:, :, None], rows[:, None, :]]
                assert np.array_equal(_gathered_whole(mats, rows, pick=choice), want), (n, k)
                flat = pareto._flat_offsets(rows, n)
                assert np.array_equal(_gathered_whole(mats, rows, pick=choice, flat=flat), want)
                want = src[:, codeword[:, :k, None], codeword[:, None, :]]  # k rows by n columns
                assert np.array_equal(_gathered_whole(mats, codeword, k, choice), want), (n, k)
    # the plan's direct batches keep the offsets of their rows, and small blocks split alike
    for n in (7, 12):
        for batch in pareto._plan(n).batches:
            if batch.use is None:
                assert np.array_equal(batch.flat, pareto._flat_offsets(batch.rows, n))
    stack = rng.integers(0, 50, size=(5, 9, 9))
    rows = pareto._subsets_by_size(9)[4]
    want = _gathered_whole(stack, rows)
    monkeypatch.setattr(pareto, "_GATHER_BYTES", 3 * 16 * 8)  # three 4 x 4 submatrices a block
    assert len(list(pareto._gathered(stack, rows))) > 5
    assert np.array_equal(_gathered_whole(stack, rows, flat=pareto._flat_offsets(rows, 9)), want)
    assert np.array_equal(_gathered_whole(stack, rows), want)


# ---------------------------------------------------------------------------
# rho2_fast's secular screen against the kernel on every deletion


def _kernel_rho2(g):
    """rho2 by the kernel on every candidate deletion: the non-pendant vertices,
    or every vertex when there is none; the witness is the first vertex within
    1e-12 of the maximum."""
    d = distance_matrix(g)
    deg = g.degrees()
    candidates = [v for v in range(g.n) if deg[v] > 1] or list(range(g.n))
    rows = np.array([[u for u in range(g.n) if u != v] for v in candidates], dtype=np.intp)
    vals = pareto._perron_roots_for_rows(d, rows)
    vmax = float(vals.max())
    pick = int(np.argmax(vals >= vmax - 1e-12 * max(1.0, abs(vmax))))
    return float(vals[pick]), candidates[pick]


def _screen_cases():
    from distpareto.verify import random_connected_graph

    rng = np.random.default_rng(20240607)
    for n in range(3, 81):
        for p in (0.02, 0.1, 0.3, 0.7):
            yield random_connected_graph(n, rng, extra_edge_prob=p)
    yield fam("complete", 2)
    for n in range(3, 31):
        for name in ("path", "star", "cycle", "complete", "complete_minus_edge"):
            yield fam(name, n)
    for n in range(4, 31):
        yield fam("wheel", n)
    for a in range(1, 9):
        for b in range(a, 13):
            yield fam("complete_bipartite", a, b)


def test_rho2_screen_matches_kernel_on_every_deletion():
    checked = 0
    for g in _screen_cases():
        assert rho2_fast(g) == _kernel_rho2(g), g
        d = distance_matrix(g).astype(np.float64)
        keep = np.arange(g.n - 1)
        every = keep + (keep >= np.arange(g.n)[:, None])  # row v omits vertex v
        kernel = pareto._perron_roots_for_rows(d, every)
        screened = _screened(d[None])[0]
        # 1e-12 relative is 1/1000 of the window rho2_fast recomputes
        assert np.all(np.abs(screened - kernel) <= 1e-12 * np.maximum(1.0, kernel)), g
        checked += 1
    assert checked == 78 * 4 + 1 + 28 * 5 + 27 + 68


@functools.cache
def _acceptance_graphs():
    """The 500 graphs of the acceptance sweep, in its order; shared, so a test
    that needs a graph with no rho2 slot or distances kept on it copies it."""
    from distpareto.verify import random_connected_graph

    rng = np.random.default_rng(20240601)
    return tuple(random_connected_graph(int(rng.integers(7, 11)), rng) for _ in range(500))


def test_rho2_from_the_spectrum_equals_the_screen(monkeypatch):
    # fresh copies, so the rho2 slot read below is the one the spectrum fills
    accepted = [make_graph(g.n, g.edges) for g in _acceptance_graphs()]
    graphs = [g for g in _screen_cases() if g.n <= 12] + accepted
    screened = [rho2_fast(make_graph(g.n, g.edges)) for g in graphs]  # fresh copies

    def refuse(*args):
        raise AssertionError("rho2 solved again after the spectrum")

    for g, pair in zip(graphs, screened):
        pareto_spectrum(g)
        with monkeypatch.context() as m:
            m.setattr(pareto, "_rho2_many", refuse)
            m.setattr(pareto, "spectral_radius_many", refuse)
            assert rho2_fast(g) == pair, g
    assert len(graphs) == 40 + 1 + 50 + 9 + 36 + 500


def _screened(dmats):
    """The roots ``_rho2_screen`` screens for every deletion of each matrix of the
    stack ``dmats`` (m, n, n), as (m, n): what its ``_parent_roots`` calls return."""
    blocks = []
    real = pareto._parent_roots

    def record(mats, use):
        tops, roots = real(mats, use)
        blocks.append(roots.reshape(mats.shape[0], -1))
        return tops, roots

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pareto, "_parent_roots", record)
        pareto._rho2_screen(dmats)
    return np.concatenate(blocks)


def _rho2_pairs(graphs):
    """``_rho2_many`` on the stacked distance matrices of ``graphs``, as (value, vertex) pairs."""
    values, witnesses = pareto._rho2_many(np.stack([distance_matrix(g) for g in graphs]))
    return list(zip(values.tolist(), witnesses.tolist()))


def _connected_edge_deletions(graphs):
    """Every one-edge deletion of ``graphs`` that stays connected, in graph then
    ``sorted_edges`` order."""
    deletions = []
    for g in graphs:
        for e in g.sorted_edges():
            h = delete_edge(g, e)
            try:
                distance_matrix(h)
            except DisconnectedGraphError:
                continue
            deletions.append(h)
    return deletions


def test_rho2_many_equals_kernel_on_classes_and_edge_deletions(classes_by_order):
    for n in range(2, 7):
        graphs = classes_by_order[n]
        assert _rho2_pairs(graphs) == [_kernel_rho2(g) for g in graphs], n
        deletions = _connected_edge_deletions(graphs)
        if deletions:
            assert _rho2_pairs(deletions) == [_kernel_rho2(h) for h in deletions], n


def _whole_matrix_screen(dmats):
    """Every deletion root of each matrix of the stack ``dmats`` from one ``eigh``
    of the whole stack, ungathered, and ``_secular_roots``: the reference that
    the screen's blocks must match bit for bit."""
    from distpareto.spectral import _secular_roots

    lam, q = np.linalg.eigh(dmats)
    u = 1.0 / (lam[..., -1:] - lam[..., :-1])
    return _secular_roots(np.broadcast_to(lam[..., None, :], q.shape), q * q,
                          np.broadcast_to(u[..., None, :], q.shape[:-1] + u.shape[-1:]))


@functools.cache
def _rho2_stacks():
    """The stacks of graphs the rho2 routes are checked on: the classes of orders
    2..7, their connected one-edge deletions (orders 3..7), the trees of orders
    3..12, and each of the 500 graphs of the acceptance sweep alone."""
    from distpareto.verify import connected_graph_classes, trees_upto_iso

    classes = [connected_graph_classes(n) for n in range(2, 8)]
    stacks = classes + [_connected_edge_deletions(graphs) for graphs in classes[1:]]
    stacks += [trees_upto_iso(n) for n in range(3, 13)]
    stacks += [[g] for g in _acceptance_graphs()]
    return tuple(map(tuple, stacks))


def test_rho2_screen_equals_the_whole_matrix_screen_bit_for_bit(monkeypatch):
    from distpareto.verify import trees_upto_iso

    stacks = list(_rho2_stacks())
    stacks += [[fam(name, n)] for name in ("path", "star", "cycle", "wheel") for n in (200, 400)]
    for graphs in stacks:
        d = np.stack([distance_matrix(g) for g in graphs])
        assert np.array_equal(_screened(d), _whole_matrix_screen(d)), graphs[0]
    assert len(stacks) == 6 + 5 + 10 + 500 + 8
    d = np.stack([distance_matrix(t) for t in trees_upto_iso(10)])
    monkeypatch.setattr(pareto, "_GATHER_BYTES", 16 * d[0].nbytes)  # 16 matrices per block
    assert len(list(pareto._gathered(d, np.arange(10)[None]))) == -(-d.shape[0] // 16) > 1
    assert np.array_equal(_screened(d), _whole_matrix_screen(d))


def test_rho2_many_screens_only_from_its_order_and_equals_the_screen_and_the_kernel(monkeypatch):
    # below _SCREEN_MIN_ORDER the kernel solves every deletion, from it up the
    # screen runs; either way rho2 is the kernel's, bit for bit
    stacks = list(_rho2_stacks())
    acceptance = [g for (g,) in stacks[-500:]]
    stacks += [[g for g in acceptance if g.n == n] for n in range(7, 11)]  # one stack per order
    stacks += [[g] for graphs in stacks[:5] for g in graphs]  # the classes below order 7 alone
    real, screened = pareto._parent_roots, []
    monkeypatch.setattr(pareto, "_parent_roots",
                        lambda mats, use: screened.append(mats.shape[-1]) or real(mats, use))
    sides = set()
    for graphs in stacks:
        d = np.stack([distance_matrix(g) for g in graphs])
        n = d.shape[-1]
        screened.clear()
        values, witnesses = pareto._rho2_many(d)
        assert screened == ([n] if n >= pareto._SCREEN_MIN_ORDER else []), (n, len(graphs))
        sides.add((n >= pareto._SCREEN_MIN_ORDER, len(graphs) > 1))
        screen = pareto._rho2_of_deletions(pareto._rho2_screen(d))
        assert np.array_equal(values, screen[0]) and np.array_equal(witnesses, screen[1]), n
        pairs = list(zip(values.tolist(), witnesses.tolist()))
        assert pairs == [_kernel_rho2(g) for g in graphs], (n, len(graphs))
    assert len(stacks) == 6 + 5 + 10 + 500 + 4 + 142 and sides == {(False, False), (False, True),
                                                                     (True, False), (True, True)}
    assert pareto._SCREEN_MIN_ORDER == 7


def test_rho2_kernel_route_memory_does_not_grow_with_the_stack():
    # below the screen's order every deletion goes to the kernel, which solves each
    # distinct deletion submatrix of a block once, and whose blocks bound memory: 2.5
    # times the stack, at most 1.1 times the traced peak beside the (m, 6) deletion roots
    import tracemalloc

    from distpareto.verify import _mask_distances

    rng = np.random.default_rng(8)
    d = _mask_distances(rng.integers(0, 1 << 15, 130_000), 6)  # random labeled graphs of order 6
    d = d[(d[:, 0] >= 0).all(axis=1)][:100_000]
    assert d.shape == (100_000, 6, 6) and d.shape[-1] < pareto._SCREEN_MIN_ORDER
    want = pareto._rho2_of_deletions(pareto._rho2_screen(d[:100]))
    peaks = []
    for m in (40_000, 100_000):
        tracemalloc.start()
        try:
            values, witnesses = pareto._rho2_many(d[:m])
            peaks.append(tracemalloc.get_traced_memory()[1] - m * 6 * 8)
        finally:
            tracemalloc.stop()
        assert np.array_equal(values[:100], want[0]) and np.array_equal(witnesses[:100], want[1])
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_rho2_screen_memory_does_not_grow_with_the_stack():
    # the screen runs in gather blocks: 2.5 times the stack, at most 1.1 times the traced peak
    import tracemalloc

    from distpareto.verify import _mask_distances

    rng = np.random.default_rng(8)
    d = _mask_distances(rng.integers(0, 1 << 28, 110_000), 8)  # random graphs of order 8
    d = d[(d[:, 0] >= 0).all(axis=1)][:100_000]
    assert d.shape == (100_000, 8, 8)
    peaks = []
    for m in (40_000, 100_000):
        tracemalloc.start()
        try:
            pareto._rho2_screen(d[:m])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_uncertified_secular_roots_raise(monkeypatch):
    # a Newton loop out of steps raises rather than return roots it has not certified
    from distpareto import spectral
    from distpareto.verify import random_connected_graph

    g = random_connected_graph(14, np.random.default_rng(5), 0.3)
    for cap in (0, 1):
        monkeypatch.setattr(spectral, "_SECULAR_ITERATIONS", cap)
        for run in (pareto_spectrum, rho2_fast):
            with pytest.raises(EigensolverError, match="not certified"):
                run(make_graph(g.n, g.edges))  # a fresh copy, with no rho2 kept


def test_uncertified_extension_roots_raise(monkeypatch, tmp_path, capsys):
    # the codewords' extension roots are solved first: with no Newton step their
    # routine raises, and the command exits 5
    from distpareto import cli, spectral
    from distpareto.verify import random_connected_graph

    g = random_connected_graph(12, np.random.default_rng(12), 0.3)
    f = tmp_path / "g.txt"
    f.write_text(f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.sorted_edges()))
    monkeypatch.setattr(spectral, "_SECULAR_ITERATIONS", 0)
    with pytest.raises(EigensolverError, match="extension roots not certified in 0 Newton steps"):
        pareto_spectrum(g)
    assert cli.main(["spectrum", "--edges", str(f)]) == cli.EXIT_EIGENSOLVER == 5
    err = capsys.readouterr().err
    assert err.startswith("eigensolver error: secular equation: ") and "extension roots" in err


def test_rho2_recompute_memory_does_not_grow_with_the_stack(monkeypatch):
    # every deletion of the 8-cycle ties, so the kernel recomputes all of them; with
    # a small gather budget that recompute dominates, and it runs in gather blocks
    import tracemalloc

    monkeypatch.setattr(pareto, "_GATHER_BYTES", 4 << 20)
    d = distance_matrix(fam("cycle", 8))
    want = pareto._perron_roots_for_rows(d, pareto._deletion_rows(8)[:1])[0]
    peaks = []
    for m in (10_000, 40_000):
        stack = np.broadcast_to(d, (m, 8, 8)).copy()
        tracemalloc.start()
        try:
            values, witnesses = pareto._rho2_of_deletions(pareto._rho2_screen(stack))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (values == want).all() and (witnesses == 0).all()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_rho2_many_equals_kernel_on_trees_and_symmetric_graphs():
    from distpareto.verify import trees_upto_iso

    for n in range(3, 11):
        trees = trees_upto_iso(n)
        assert _rho2_pairs(trees) == [_kernel_rho2(t) for t in trees], n
    k2 = fam("complete", 2)  # no non-pendant vertex: both deletions are candidates
    assert _rho2_pairs([k2]) == [_kernel_rho2(k2)] == [(0.0, 0)]
    # every deletion of these ties, so the witness is the smallest vertex
    for n in range(3, 13):
        for g in (fam("complete", n), fam("cycle", n)):
            assert _rho2_pairs([g]) == [_kernel_rho2(g)] and _kernel_rho2(g)[1] == 0, g
    for a in range(1, 7):
        for b in range(max(a, 2), 8):
            g = fam("complete_bipartite", a, b)
            pair = _kernel_rho2(g)
            assert _rho2_pairs([g]) == [pair], g
            if a == b:
                assert pair[1] == 0, g
    # tie-heavy graphs beside tie-free trees: a deletion vertex is recomputed
    # for some graphs of the stack only
    for n in (8, 9, 10):
        graphs = [fam("complete", n), fam("cycle", n), fam("complete_bipartite", n // 2, n - n // 2)]
        mixed = [graphs[0], *trees_upto_iso(n)[:12], graphs[1], graphs[2]]
        assert _rho2_pairs(mixed) == [_kernel_rho2(g) for g in mixed], n


def _pendant_gaps(d, roots):
    """Each pendant's deletion root's relative gaps below its neighbour's and
    below the graph's top, for distance matrices (m, n, n) and roots (m, n)."""
    pendant = (d == 1).sum(axis=-1) == 1
    g, p = np.nonzero(pendant)
    q = np.argmax(d[g, p] == 1, axis=-1)
    scale = np.maximum(1.0, roots.max(axis=-1))[g]
    return (roots[g, q] - roots[g, p]) / scale, (roots.max(axis=-1)[g] - roots[g, p]) / scale


def test_pendant_deletions_stay_below_their_neighbour_and_the_top(classes_by_order):
    # the Perron-Frobenius lemma of ``rho2_fast``: rho2 never needs a pendant
    # filter, and the screen never recomputes a pendant deletion (1e-6 is 1000
    # times ``_SCREEN_WINDOW``)
    from distpareto.verify import connected_graph_classes, trees_upto_iso

    stacks = [classes_by_order[n] for n in range(3, 7)] + [connected_graph_classes(7)]
    stacks += [trees_upto_iso(n) for n in range(3, 13)]
    checked = 0
    for graphs in stacks:
        d = np.stack([distance_matrix(g) for g in graphs])
        roots = pareto._perron_roots_for_rows(d, pareto._deletion_rows(d.shape[-1]))
        below_neighbour, below_top = _pendant_gaps(d, roots)
        assert (below_neighbour > 0).all() and (below_top >= 1e-6).all()
        checked += len(graphs)
    assert checked == 2 + 6 + 21 + 112 + 853 + 985
    assert 1000 * pareto._SCREEN_WINDOW == pytest.approx(1e-6)
    for g in (fam("star", 400), fam("path", 400), fam("clique_plus_pendant_p", 399, 1)):
        d = distance_matrix(g)[None]
        below_neighbour, below_top = _pendant_gaps(d, _screened(d))
        assert below_neighbour.size and (below_neighbour > 0).all(), g
        assert (below_top >= 1e-6).all(), g


def test_empty_stacks():
    for k in (1, 2, 3, 5):
        rows = np.array(list(itertools.combinations(range(6), k)), dtype=np.intp)
        assert pareto._perron_roots_for_rows(np.empty((0, 6, 6)), rows).shape == (0, rows.shape[0])
    values, witnesses = pareto._rho2_many(np.empty((0, 5, 5), dtype=np.int64))
    assert values.shape == witnesses.shape == (0,)


def _flat_witnesses(g):
    """Witnesses by looking up ``_dedup``'s flat indices in one flat subset list."""
    flat = list(
        itertools.chain.from_iterable(
            itertools.combinations(range(g.n), k) for k in range(1, g.n + 1)
        )
    )
    values = pareto._all_subset_values(distance_matrix(g), 1)
    _, idx = pareto._dedup(values, pareto.DEFAULT_DEDUP_TOL)
    return tuple(flat[i] for i in idx)


def test_witness_decode_matches_flat_reference():
    from distpareto.verify import random_connected_graph

    rng = np.random.default_rng(20240611)
    graphs = [fam("path", 1)]
    graphs += [random_connected_graph(n, rng, extra_edge_prob=p) for n in range(2, 13) for p in (0.1, 0.5)]
    for g in graphs:
        assert pareto_spectrum(g).witnesses == _flat_witnesses(g), g
    path16 = fam("path", 16)
    witnesses = pareto_spectrum(path16).witnesses
    assert witnesses == _flat_witnesses(path16)
    assert witnesses[-1] == tuple(range(16))  # the last canonical index


def test_witnesses_are_decoded_only_when_read(monkeypatch):
    from distpareto.laws import bound_report
    from distpareto.verify import random_connected_graph

    # the witnesses are read off their bit masks, which are built on first read
    decoded = []
    real = pareto.ParetoSpectrum.witness_masks.func
    masks = functools.cached_property(lambda spec: decoded.append(spec.count) or real(spec))
    masks.__set_name__(pareto.ParetoSpectrum, "witness_masks")
    monkeypatch.setattr(pareto.ParetoSpectrum, "witness_masks", masks)
    rng = np.random.default_rng(20240612)
    graphs = [fam("path", 1), random_connected_graph(2, rng)]
    graphs += [random_connected_graph(n, rng, extra_edge_prob=0.3) for n in (12, 16)]
    for g in graphs:
        specs = [pareto_spectrum(g, jobs=jobs) for jobs in (1, 2)]
        assert decoded == []
        flat = list(itertools.chain.from_iterable(
            itertools.combinations(range(g.n), k) for k in range(1, g.n + 1)))
        for spec in specs:
            values, idx = spec.value_array, spec.witness_index
            assert not values.flags.writeable and not idx.flags.writeable
            assert spec.values == tuple(float(v) for v in values)
            assert spec.count == len(spec.values)
            assert spec.witnesses == tuple(flat[i] for i in idx)  # the reference decode
            assert spec.witnesses is spec.witnesses
        assert decoded == [specs[0].count] * 2  # once per spectrum
        assert np.array_equal(specs[0].value_array, specs[1].value_array)
        assert np.array_equal(specs[0].witness_index, specs[1].witness_index)
        assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])
        decoded.clear()
    assert pareto_spectrum(fam("path", 5)) != pareto_spectrum(fam("star", 5))
    bound_report(fam("wheel", 8))  # the bound catalogue reads values only
    assert decoded == []


@pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan, math.inf, -math.inf])
def test_invalid_dedup_tolerance_rejected(tol):
    with pytest.raises(ValueError, match="tolerance"):
        pareto_spectrum(fam("path", 4), dedup_tolerance=tol)


def test_zero_dedup_tolerance_is_accepted():
    # every k-subset of K4 gives the same submatrix, so equal roots still merge
    assert pareto_spectrum(fam("complete", 4), dedup_tolerance=0.0).count == 4


# ---------------------------------------------------------------------------
# The per-order subset tables


def test_subset_tables_are_shared_read_only_and_canonical():
    for n in range(1, 15):
        tables = pareto._subsets_by_size(n)
        assert pareto._subsets_by_size(n) is tables
        assert list(tables) == list(range(1, n + 1))
        for k, rows in tables.items():
            assert rows.dtype == np.uint8
            assert rows.tolist() == [list(c) for c in itertools.combinations(range(n), k)]
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1
        with pytest.raises(TypeError):
            tables[1] = tables[n]


def test_subset_masks_are_shared_read_only_and_the_rows_bits():
    pareto._subset_masks.cache_clear()
    for n in range(1, 21):
        masks = pareto._subset_masks(n)
        assert pareto._subset_masks(n) is masks
        assert masks.dtype == np.int32 and masks.shape == ((1 << n) - 1,)
        want = np.concatenate([(1 << rows.astype(np.int64)).sum(axis=1)
                               for rows in pareto._subsets_by_size(n).values()])
        assert np.array_equal(masks, want), n
        with pytest.raises(ValueError, match="read-only"):
            masks[0] = 0
    # the plan and the witnesses read the same table: one build per order
    for g in (fam("wheel", 12), fam("path", 12)):
        spec = pareto_spectrum(g)
        assert np.array_equal(spec.witness_masks, pareto._subset_masks(12)[spec.witness_index])
        assert not spec.witness_masks.flags.writeable
        assert spec.witness_masks.tolist() == [sum(1 << v for v in w) for w in spec.witnesses]
    assert pareto._subset_masks.cache_info().misses == 20


def test_spectra_at_one_order_build_the_subset_table_once():
    # one build per order: the first spectrum builds the plan and its table, the
    # second reads the cached plan and asks for no table
    pareto._plan.cache_clear()
    pareto._subsets_by_size.cache_clear()
    pareto_spectrum(fam("wheel", 9))
    pareto_spectrum(fam("path", 9))
    assert pareto._subsets_by_size.cache_info().misses == 1
    assert pareto._plan.cache_info().misses == 1


# ---------------------------------------------------------------------------
# the parent pass: one eigh per parent, its children from the secular equation


def _kernel_values(d):
    """Every subset's Perron root from ``_perron_roots_for_rows`` on one matrix at
    a time, which solves each submatrix as it is, size by size, in canonical flat
    order: the subset pass before parents, of one matrix (n, n) or a stack (m, n, n)."""
    if d.ndim == 3:
        return np.stack([_kernel_values(one) for one in d])
    return np.concatenate([pareto._perron_roots_for_rows(d, rows)
                           for rows in pareto._subsets_by_size(d.shape[-1]).values()])


def _texts(values):
    """The spectrum values as the CLI writes them."""
    from distpareto import cli

    fmts, args = cli._float_args(np.asarray(values))
    return [fmt % (arg,) for fmt, arg in zip(fmts, args)]


def _parent_pass_cases():
    from distpareto.verify import random_connected_graph

    rng = np.random.default_rng(20261020)
    graphs = [random_connected_graph(n, rng, extra_edge_prob=(0.05, 0.5)[n % 2])
              for n in range(8, 17)]
    return graphs + [fam("path", 16), fam("cycle", 15), fam("star", 16), fam("wheel", 14),
                     fam("complete", 13), fam("complete_bipartite", 7, 8)]


_CODEWORDS = {12: 504, 14: 2039, 15: 2046, 16: 4092, 20: 65528}  # eigh per pass


def test_the_plan_solves_every_subset_once():
    # plans only: each subset of size 3..n - 2 is a codeword, one toggle from the
    # codeword that solves it, or a kernel root; sizes 1, 2, n - 1 and n, and every
    # subset below order 11, are the kernel's
    for n in range(9, 21):
        subsets = pareto._subsets_by_size(n)
        plan = pareto._plan(n)
        offsets = plan.offsets
        assert offsets.dtype == np.int32 and not offsets.flags.writeable
        assert offsets.tolist() == [sum(math.comb(n, k) for k in range(1, j + 1)) for j in range(n + 1)]
        masks = np.concatenate([(1 << rows.astype(np.int64)).sum(axis=1)
                                for rows in subsets.values()])
        syndrome = np.concatenate([np.bitwise_xor.reduce(rows.astype(np.int64) + 1, axis=1)
                                   for rows in subsets.values()])
        sizes = np.repeat(np.arange(1, n + 1), np.diff(offsets))
        codes = [b for b in plan.batches if b.use is not None]
        direct = np.concatenate([b.at for b in plan.batches if b.use is None])
        derived = np.concatenate([np.empty(0, int)]
                                 + [np.concatenate([b.at, b.child_at[b.use]]) for b in codes])
        assert np.array_equal(np.sort(np.concatenate([direct, derived])), np.arange(offsets[-1]))
        assert np.array_equal(np.flatnonzero(plan.approx), np.sort(derived))
        assert (sizes[derived] >= 3).all() and (sizes[derived] <= n - 2).all()
        assert set(range(1, 3)) | {n - 1, n} <= set(sizes[direct].tolist())
        assert bool(codes) == (n >= 11), n
        for b in codes:
            assert 3 <= b.k <= n - 2 and (sizes[b.at] == b.k).all()
            bits = 1 << b.rows.astype(np.int64)
            assert np.array_equal(masks[b.at], bits[:, : b.k].sum(axis=1))  # J, then V - J
            assert np.array_equal(masks[b.child_at], masks[b.at][:, None] ^ bits)
        if n in _CODEWORDS:
            assert sum(b.at.size for b in codes) == _CODEWORDS[n], n
        if codes:
            # the plan's syndromes are the XOR of v + 1 over each row: its codewords
            # are the subsets whose syndrome lies in T, and it uses each neighbour
            # from the codeword its syndrome names
            full = (1 << n.bit_length()) - 1
            labels = np.arange(1, n + 1, dtype=np.uint8)
            assert np.array_equal(pareto._subset_fold(n, np.bitwise_xor, labels), syndrome)
            toggle = np.where(syndrome <= n, syndrome, syndrome ^ full)
            code = np.flatnonzero((toggle == 0) & (sizes >= 3) & (sizes <= n - 2))
            assert np.array_equal(np.sort(np.concatenate([b.at for b in codes])), code), n
            for b in codes:
                assert np.array_equal(toggle[b.child_at[b.use]], b.rows[b.use] + 1)
    assert (direct.size, sum(b.use.sum() for b in codes)) == (1 + 20 + 190 + 20 + 79, 982737)


def _assert_spectrum_is_the_kernels(g, spec, ref, tol=pareto.DEFAULT_DEDUP_TOL):
    """``spec`` has the witnesses, count and written values of the kernel's roots
    ``ref``, and bit for bit its n largest values and the rho2 slot."""
    reps, witness_idx = pareto._dedup(ref, tol)
    assert np.array_equal(spec.witness_index, witness_idx), g
    assert spec.count == reps.size
    assert _texts(spec.value_array) == _texts(reps), g
    assert np.array_equal(spec.value_array[-g.n:], reps[-g.n:]), g
    value, vertex = pareto._rho2_of_deletions(ref[-1 - g.n : -1][::-1])
    assert g.__dict__["_rho2"] == (float(value), int(vertex)), g


def test_parent_pass_matches_the_kernel_on_every_subset():
    worst = 0.0
    for g in _parent_pass_cases():
        d = distance_matrix(g)
        ref = _kernel_values(d)
        values = pareto._all_subset_values(d, 1)
        assert pareto._plan(g.n).approx.any() == (g.n >= 11)
        # the stated bound E on |root from a parent - kernel root|, on every subset
        err = np.abs(values - ref) / values.clip(min=1.0)
        assert err.max() <= pareto._PARENT_ERR, g
        worst = max(worst, err.max())
        assert np.array_equal(pareto._all_subset_values(d, 2), values), g
        _assert_spectrum_is_the_kernels(g, pareto_spectrum(g), ref)
    assert 0 < worst < pareto._PARENT_ERR / 10  # the bound has a margin of ten at least


def test_distinct_counts_match_the_kernel(classes_by_order):
    from distpareto.verify import connected_graph_classes, random_connected_graph

    rng = np.random.default_rng(11)
    stacks = [np.stack([distance_matrix(g) for g in connected_graph_classes(7)])]
    stacks += [np.stack([distance_matrix(random_connected_graph(n, rng, extra_edge_prob=p))
                         for p in (0.05, 0.2, 0.5, 0.9)]) for n in (9, 10, 11, 12)]
    for dmats in stacks:
        ref = np.sort(_kernel_values(dmats), axis=-1)
        want = 1 + pareto._breaks(ref, pareto.DEFAULT_DEDUP_TOL).sum(axis=-1)
        assert np.array_equal(pareto._distinct_counts(dmats, pareto.DEFAULT_DEDUP_TOL), want)


def test_secular_roots_do_not_depend_on_their_batch(monkeypatch):
    # each element stops its Newton loop on its own: a root is the same bits
    # whatever shares its stack, its gather block or its --jobs span
    from distpareto.spectral import _parent_roots
    from distpareto.verify import random_connected_graph

    rng = np.random.default_rng(29)
    for n in (6, 9, 12, 16, 20, 30):
        stack = np.stack([distance_matrix(random_connected_graph(n, rng, extra_edge_prob=p))
                          for p in (0.05, 0.2, 0.5, 0.9) * 5])
        roots = _screened(stack)
        single = np.stack([_screened(d[None])[0] for d in stack])
        assert np.array_equal(roots, single), n
    stack = np.stack([distance_matrix(random_connected_graph(12, rng, extra_edge_prob=p))
                      for p in (0.05, 0.2, 0.5, 0.9) * 2])
    roots = _screened(stack)
    use = rng.random(stack.shape[:2]) < 0.5
    tops, kids = _parent_roots(stack, use)
    ends = np.cumsum(use.sum(axis=1))
    for i in range(stack.shape[0]):
        assert np.array_equal(roots[i], _screened(stack[i : i + 1])[0])
        top, own = _parent_roots(stack[i : i + 1], use[i : i + 1])
        assert top[0] == tops[i] and np.array_equal(own, kids[ends[i] - own.size : ends[i]])
        assert np.array_equal(own, roots[i][use[i]])
    values = pareto._all_subset_values(stack, 1)
    for i in range(stack.shape[0]):
        assert np.array_equal(pareto._all_subset_values(stack[i], 1), values[i])
    monkeypatch.setattr(pareto, "_GATHER_BYTES", 4096)  # a few parents per block
    assert np.array_equal(pareto._all_subset_values(stack, 3), values)


def _perturbed_parents(monkeypatch, scale, split=None):
    """Make every root from a parent (a codeword's own, its deletions' and its
    extensions') off by ``scale`` relative, so that the checks that keep the
    output exact are exercised: in alternating directions, or down below
    ``split`` and up above it."""
    real = pareto._parent_roots

    def shift(values):
        if split is None:
            return values * (1 + scale * (-1.0) ** np.arange(values.size))
        return values * np.where(values > split, 1 + scale, 1 - scale)

    def perturbed(mats, use):
        tops, roots = real(mats, use)
        return shift(tops), shift(roots)

    monkeypatch.setattr(pareto, "_parent_roots", perturbed)


def test_spectrum_output_is_exact_within_the_parent_bound(monkeypatch):
    _perturbed_parents(monkeypatch, 0.9 * pareto._PARENT_ERR)
    for g in _parent_pass_cases()[1::2]:
        ref = _kernel_values(distance_matrix(g))
        _assert_spectrum_is_the_kernels(g, pareto_spectrum(g), ref)


def _gap_at_the_tolerance(monkeypatch):
    """An order-11 graph, its distances and kernel roots, and a tolerance whose
    threshold lies E b / 2 above the gap of two of its roots from parents a < b:
    the kernel joins them, and the parent roots, pushed apart by 0.9 E each
    (down below (a + b) / 2, up above it), would cut them but for ``_settle``."""
    g = _parent_pass_cases()[3]  # order 11
    d = distance_matrix(g)
    ref = _kernel_values(d)
    approx = pareto._plan(g.n).approx
    order = np.argsort(ref, kind="stable")
    s = ref[order]
    j = next(j for j in range(s.size // 2, s.size - 1)
             if approx[order[j]] and approx[order[j + 1]] and s[j + 1] - s[j] > 1e-6 * s[j + 1])
    a, b = s[j], s[j + 1]
    _perturbed_parents(monkeypatch, 0.9 * pareto._PARENT_ERR, split=(a + b) / 2)
    return g, d, ref, (b - a) / b + pareto._PARENT_ERR / 2


def test_clusters_are_the_kernels_when_a_gap_meets_the_tolerance(monkeypatch):
    g, d, ref, tol = _gap_at_the_tolerance(monkeypatch)
    want = 1 + pareto._breaks(np.sort(ref), tol).sum()
    assert np.array_equal(pareto._distinct_counts(d[None], tol), [want])
    _assert_spectrum_is_the_kernels(g, pareto_spectrum(g, dedup_tolerance=tol), ref, tol)


def test_settle_recomputes_a_stack_with_one_kernel_call_per_size(monkeypatch):
    # the gap case beside a relabelled copy of its graph: _settle flags both
    # matrices, and _recompute solves the parent roots of each size for both in
    # one kernel call, which on two int64 matrices takes the deduplicating branch
    g, d, ref, tol = _gap_at_the_tolerance(monkeypatch)
    stack = np.stack([d, d[::-1, ::-1]])  # vertex v relabelled n - 1 - v
    want = _kernel_values(stack)
    assert np.array_equal(want[0], ref) and stack.dtype == np.int64
    calls = []
    real = pareto._perron_roots_for_rows

    def spy(dmat, rows, pick=None, flat=None):
        if pick is not None:
            calls.append((rows.shape[1], pick.tolist()))
        return real(dmat, rows, pick, flat)

    monkeypatch.setattr(pareto, "_perron_roots_for_rows", spy)
    assert np.array_equal(pareto._all_subset_values(stack, 1, tol), want)  # both rows
    plan = pareto._plan(g.n)
    sizes = np.repeat(np.arange(1, g.n + 1), np.diff(plan.offsets))
    assert calls == [(k, [0, 1]) for k in np.unique(sizes[plan.approx]).tolist()]
    assert len(calls) == g.n - 4  # sizes 3..n - 2
    counts = 1 + pareto._breaks(np.sort(want, axis=-1), tol).sum(axis=-1)
    assert np.array_equal(pareto._distinct_counts(stack, tol), counts)


# ---------------------------------------------------------------------------
# one eigensolve per distinct submatrix of a stack


def _class_and_deletion_stack(n):
    """The distances of the connected classes of order n and of their connected
    one-edge deletions, stacked."""
    from distpareto.verify import _class_masks, _mask_bits, _mask_distances, _pair_table

    masks = _class_masks(n)[0]
    cls, bit = np.nonzero(_mask_bits(masks, len(_pair_table(n)[0])))
    dist = _mask_distances(np.concatenate([masks, masks[cls] ^ (np.int64(1) << bit)]), n)
    return dist[(dist[:, 0] >= 0).all(axis=1)]


def _distinct_kernel_stacks():
    """Class stacks of orders 2..7 with their deletions, the trees of orders 3..12,
    and the 500 graphs of the acceptance sweep, one stack per order."""
    from distpareto.verify import trees_upto_iso

    stacks = [_class_and_deletion_stack(n) for n in range(2, 8)]
    stacks += [np.stack([distance_matrix(t) for t in trees_upto_iso(n)]) for n in range(3, 13)]
    stacks += [np.stack([distance_matrix(g) for g in _acceptance_graphs() if g.n == n])
               for n in range(7, 11)]
    return stacks


def _one_at_a_time(d, rows, pick=None, *, kernel=None):
    """``_perron_roots_for_rows`` (m, r) of the stack ``d`` (or ``d[pick]``) on
    ``rows``, one matrix at a time: the kernel then solves each submatrix as it
    is.  ``kernel`` is the kernel itself, for a test that replaces it by this."""
    kernel = kernel or pareto._perron_roots_for_rows
    return np.stack([kernel(one, rows) for one in (d if pick is None else d[pick])])


def test_distinct_kernel_equals_the_per_submatrix_kernel_bit_for_bit(monkeypatch):
    stacks = _distinct_kernel_stacks()
    assert [s.shape[0] for s in stacks[:6]] == [1, 5, 24, 129, 959, 9786]
    assert sum(s.shape[0] for s in stacks[-4:]) == 500
    # the kernel's roots on one matrix at a time first, in the default blocks: every
    # subset below the covering code's order, and the direct batches from it on
    want = []
    for s in stacks:
        if s.shape[-1] < pareto._CODE_MIN_ORDER:
            want.append(_kernel_values(s))
        else:
            want.append([(b, _one_at_a_time(s, b.rows))
                         for b in pareto._plan(s.shape[-1]).batches if b.use is None])
    # the stacked kernel, with its own offsets and with the plan's, and the subset pass:
    # one worker in the default blocks, then two in several blocks of matrices and rows
    for jobs, budget in ((1, pareto._GATHER_BYTES), (2, 1 << 16)):
        monkeypatch.setattr(pareto, "_GATHER_BYTES", budget)
        for s, ref in zip(stacks, want):
            subsets = pareto._subsets_by_size(s.shape[-1])
            if isinstance(ref, list):
                for b, roots in ref:
                    for flat in (None, b.flat):
                        got = pareto._perron_roots_for_rows(s, b.rows, flat=flat)
                        assert np.array_equal(got, roots), s.shape
            else:
                sizes = [pareto._perron_roots_for_rows(s, rows) for rows in subsets.values()]
                assert np.array_equal(np.concatenate(sizes, axis=-1), ref), s.shape
                assert np.array_equal(pareto._all_subset_values(s, jobs), ref), s.shape


def test_distinct_kernel_solves_a_block_whose_keys_overflow_with_the_kernel(monkeypatch):
    # a key's base is 1 + its block's largest entry: a 7-subset's 21 digits of the
    # path's distances need up to 14^21 > 2^63 keys, of the cycle's at most 8^21 =
    # 2^63, whose largest key 2^63 - 1 still fits, of the star's and K_14's fewer
    graphs = [fam("complete", 14), fam("path", 14), fam("cycle", 14), fam("star", 14)]
    stack = np.stack([distance_matrix(g) for g in graphs])
    rows = pareto._subsets_by_size(14)[7][::40]
    want = _one_at_a_time(stack, rows)
    solved = []
    real = pareto.spectral_radius_many
    monkeypatch.setattr(pareto, "spectral_radius_many", lambda mats: solved.append(len(mats)) or real(mats))
    monkeypatch.setattr(pareto, "_GATHER_BYTES", 7 * 7 * 8)  # one 7-subset a block
    assert np.array_equal(pareto._perron_roots_for_rows(stack, rows), want)
    assert solved == [1] * want.size
    monkeypatch.setattr(pareto, "_GATHER_BYTES", 16 << 20)  # one block, with the path in it
    solved.clear()
    assert np.array_equal(pareto._perron_roots_for_rows(stack, rows), want)
    assert solved == [want.size]  # solved whole: K_14's 86 equal submatrices are not merged
    # two copies of each graph, a block each pair of copies and row: the blocks
    # whose keys pass int64 are solved whole, the others once per distinct submatrix
    monkeypatch.setattr(pareto, "_GATHER_BYTES", 2 * 7 * 7 * 8)
    solved.clear()
    twice = np.repeat(stack, 2, axis=0)
    assert np.array_equal(pareto._perron_roots_for_rows(twice, rows), np.repeat(want, 2, axis=0))
    top = stack[:, rows[:, :, None], rows[:, None, :]].max(axis=(2, 3))  # (graph, row)
    assert solved == [2 if (t + 1) ** 21 > 1 << 63 else 1 for t in top.ravel().tolist()]
    assert {t for t in top[1].tolist() if (t + 1) ** 21 > 1 << 63} and 7 in top[2].tolist()


def test_distinct_kernel_memory_does_not_grow_with_the_stack():
    # triangles, keys and distinct submatrices come in gather blocks: 2.5 times the
    # stack, at most 1.1 times the traced peak beside the result, which holds a
    # root a subset
    import tracemalloc

    from distpareto.verify import _mask_distances

    rng = np.random.default_rng(8)
    d = _mask_distances(rng.integers(0, 1 << 28, 55_000), 8)  # random graphs of order 8
    d = d[(d[:, 0] >= 0).all(axis=1)][:50_000]
    assert d.shape == (50_000, 8, 8)
    rows = pareto._subsets_by_size(8)[4]
    peaks = []
    for m in (20_000, 50_000):
        tracemalloc.start()
        try:
            roots = pareto._perron_roots_for_rows(d[:m], rows)
            peaks.append(tracemalloc.get_traced_memory()[1] - roots.nbytes)
        finally:
            tracemalloc.stop()
        assert np.array_equal(roots[:100], _one_at_a_time(d[:100], rows))
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_distinct_kernel_serves_the_coalescence_check_and_the_screen_bit_for_bit(monkeypatch):
    # both call the kernel on a stack, so both solve each distinct submatrix once;
    # the reference is the kernel on one matrix at a time
    from distpareto import verify
    from distpareto.graph import coalesce
    from distpareto.verify import check_coalescence_quasiconvexity, trees_upto_iso

    alone = functools.partial(_one_at_a_time, kernel=pareto._perron_roots_for_rows)
    solved = []
    real = pareto.spectral_radius_many
    monkeypatch.setattr(pareto, "spectral_radius_many", lambda mats: solved.append(len(mats)) or real(mats))
    attachments = [(fam("complete", 2), 0), (fam("complete", 3), 0), (fam("path", 3), 1),
                   (fam("cycle", 4), 0)]
    checked = 0
    for t in [t for n in range(3, 8) for t in trees_upto_iso(n)]:
        for h, w in attachments:
            total = t.n + h.n - 1
            dmats = np.stack([distance_matrix(coalesce(t, i, h, w)) for i in range(t.n)])
            rows = pareto._deletion_rows(total)
            solved.clear()
            roots = pareto._perron_roots_for_rows(dmats, rows)
            if h.n == 2:  # deleting the pendant leaves the tree's distances: solved once
                assert sum(solved) <= t.n * total - (t.n - 1), t
            assert np.array_equal(roots, _one_at_a_time(dmats, rows)), (t, h)
            rep = check_coalescence_quasiconvexity(t, h, w)
            with monkeypatch.context() as m:
                m.setattr(verify, "_perron_roots_for_rows", alone)
                ref = check_coalescence_quasiconvexity(t, h, w)
            assert repr(rep) == repr(ref), (t, h)
            checked += 1
    assert checked == 4 * (1 + 2 + 3 + 6 + 11)
    # the screen's recompute over the graphs that keep each deletion near their top:
    # stacks from order 7 up, and copies of the 8-cycle, whose deletions all tie
    cycle = distance_matrix(fam("cycle", 8))
    stacks = [np.stack([distance_matrix(g) for g in graphs])
              for graphs in _rho2_stacks() if len(graphs) > 1 and graphs[0].n >= 7]
    stacks += [np.stack([distance_matrix(g) for g in [fam("complete", n), fam("cycle", n),
                                                      *trees_upto_iso(n)[:12]]]) for n in (8, 9)]
    assert len(stacks) == 1 + 1 + 6 + 2
    for d in stacks + [np.broadcast_to(cycle, (50, 8, 8)).copy()]:
        solved.clear()
        roots = pareto._rho2_screen(d)
        once = list(solved)
        with monkeypatch.context() as m:
            m.setattr(pareto, "_perron_roots_for_rows", alone)
            assert np.array_equal(roots, pareto._rho2_screen(d)), d.shape
    assert once == [1] * 8  # each deletion of the 8-cycle once for its 50 copies


def test_extremal_search_solves_each_distinct_submatrix_once(monkeypatch):
    from distpareto.verify import _class_masks, _mask_distances, extremal_search

    d = _mask_distances(_class_masks(6)[0], 6)
    subsets = pareto._subsets_by_size(6)
    distinct = sum(len(np.unique(d[:, rows[:, :, None], rows[:, None, :]].reshape(-1, k * k), axis=0))
                   for k, rows in subsets.items() if k >= 3)
    solved = []
    real = pareto.spectral_radius_many
    monkeypatch.setattr(pareto, "spectral_radius_many", lambda mats: solved.append(len(mats)) or real(mats))
    assert extremal_search(6).max_count == 30
    assert sum(solved) == distinct < 112 * sum(math.comb(6, k) for k in range(3, 7))


def _stable_dedup(values, tol):
    """``_dedup`` with a stable sort, the reference."""
    order = np.argsort(values, kind="stable")
    starts = np.concatenate([[0], np.nonzero(pareto._breaks(values[order], tol))[0] + 1])
    witness_idx = np.minimum.reduceat(order, starts)
    return values[witness_idx], witness_idx


def test_dedup_needs_no_stable_sort():
    # each cluster's smallest index is the same whatever order its ties sort in
    graphs = [g for n in range(2, 17) for g in
              [fam("complete", n), *(fam("complete_bipartite", a, n - a) for a in {1, n // 2}),
               *([fam("cycle", n)] if n >= 3 else []), *([fam("wheel", n)] if n >= 4 else [])]]
    ties = 0
    for g in graphs:
        values = pareto._all_subset_values(distance_matrix(g), 1)
        ties += values.size - np.unique(values).size
        for tol in (0.0, pareto.DEFAULT_DEDUP_TOL):
            got, want = pareto._dedup(values, tol), _stable_dedup(values, tol)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (g, tol)
    assert ties > 100_000
