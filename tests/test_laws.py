import itertools
import math
import pathlib
import re

import networkx as nx
import numpy as np
import pytest

from distpareto import laws, pareto
from distpareto.graph import distance_matrix, make_family, make_graph
from distpareto.laws import (
    BOUND_IDS,
    CLOSED_FORM_IDS,
    bound_report,
    closed_form,
    closed_form_brute_force,
    closed_form_surd,
    evaluate_bound,
    star_spectrum,
)
from distpareto.pareto import pareto_spectrum, rho2_fast
from distpareto.verify import is_isomorphic, random_connected_graph


def fam(name, *params):
    return make_family(name, list(params))


def test_closed_form_star_radius():
    assert closed_form("star_radius", 4) == pytest.approx(2 + math.sqrt(7), abs=1e-12)
    # (n-2)^2 + n - 1 = 21 at n = 6; enumeration agrees (see the sweep below)
    assert closed_form("star_radius", 6) == pytest.approx(4 + math.sqrt(21), abs=1e-12)


def test_closed_form_kn_minus_e():
    assert closed_form("kn_minus_e_radius", 4) == pytest.approx((3 + math.sqrt(17)) / 2, abs=1e-12)
    assert closed_form("rho2_kn_minus_e", 5) == pytest.approx((3 + math.sqrt(17)) / 2, abs=1e-12)
    assert closed_form("rho2_kn_minus_e", 4) == pytest.approx(1 + math.sqrt(3), abs=1e-12)


def test_closed_form_kab():
    assert closed_form("rho2_kab", 2, 3) == pytest.approx(2 + math.sqrt(7), abs=1e-12)
    assert closed_form("rho2_kab", 1, 4) == pytest.approx(6.0, abs=1e-12)  # star S5
    with pytest.raises(ValueError):
        closed_form("rho2_kab", 3, 2)


def test_closed_form_two_nonincident_validity_range():
    assert closed_form("rho2_two_nonincident", 5) == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        closed_form("rho2_two_nonincident", 4)


# The parent formulas of the three K_m - jK2 forms, written out per form
PARENT_MATCHING_SURDS = {
    "kn_minus_e_radius": (3, lambda n: (n - 1, (n - 1) ** 2 + 8, 2)),
    "rho2_kn_minus_e": (3, lambda n: (n - 2, n * n - 4 * n + 12, 2)),
    "rho2_two_nonincident": (5, lambda n: (n - 2, n * n - 4 * n + 20, 2)),
}


def test_matching_forms_keep_their_integers_strings_and_ranges():
    for ident, (low, formula) in PARENT_MATCHING_SURDS.items():
        for n in range(low, 401):
            a, b, c = formula(n)
            assert laws._surd(ident, (n,)) == (a, b, c), (ident, n)
            assert closed_form_surd(ident, n) == f"({a}+sqrt({b}))/{c}"
        with pytest.raises(ValueError, match=rf"^{ident} needs n >= {low}$"):
            closed_form(ident, low - 1)


def _complete_minus_matching(m, j):
    """K_m without the j disjoint edges (0, 1), (2, 3), ..."""
    missing = {(2 * i, 2 * i + 1) for i in range(j)}
    return make_graph(m, [e for e in itertools.combinations(range(m), 2) if e not in missing])


def _matching_surd(m, j, deleted):
    a, b, c = laws._kn_minus_matching("test", j, deleted)(m)
    return (a + math.sqrt(b)) / c


def test_one_surd_is_the_perron_root_and_rho2_of_k_minus_matching():
    checked = 0
    for j in range(1, 7):
        for m in range(max(3, 2 * j), 13):
            g = _complete_minus_matching(m, j)
            d = distance_matrix(g)
            root = float(pareto._perron_roots_for_rows(d, np.arange(m)[None])[0])
            assert abs(_matching_surd(m, j, 0) - root) <= 1e-12 * root, (m, j)
            if m >= 2 * j + 1:
                rho2 = rho2_fast(g)[0]
                assert abs(_matching_surd(m, j, 1) - rho2) <= 1e-12 * rho2, (m, j)
            checked += 1
    assert checked == 10 + 9 + 7 + 5 + 3 + 1


def test_cocktail_party_ties_the_matching_one_edge_short():
    # K_{2j+2} - (j+1)K2 has no vertex off the matching, yet its rho2 is that of
    # K_{2j+2} - jK2: C4 at j = 1 and K6 minus a perfect matching at j = 2 (5b)
    for j in range(1, 5):
        full = rho2_fast(_complete_minus_matching(2 * j + 2, j + 1))[0]
        short = rho2_fast(_complete_minus_matching(2 * j + 2, j))[0]
        assert abs(full - short) <= 1e-12 * short, j


def test_closed_form_complete_spectrum():
    assert closed_form("complete_spectrum", 4) == [0.0, 1.0, 2.0, 3.0]


def test_closed_form_unknown():
    with pytest.raises(ValueError):
        closed_form("mystery_radius", 4)


def test_surd_strings():
    assert closed_form_surd("kn_minus_e_radius", 4) == "(3+sqrt(17))/2"
    assert closed_form_surd("star_radius", 4) == "2+sqrt(7)"
    assert closed_form_surd("rho2_kab", 2, 3) == "2+sqrt(7)"


ENUMERATION_CASES = [
    ("complete_spectrum", [(n,) for n in range(1, 9)]),
    ("star_radius", [(n,) for n in range(2, 9)]),
    ("kn_minus_e_radius", [(n,) for n in range(3, 9)]),
    ("rho2_kn_minus_e", [(n,) for n in range(3, 9)]),
    ("rho2_kab", [(a, b) for a in range(1, 5) for b in range(a, 9 - a)]),
    ("rho2_k_pendant", [(n,) for n in range(3, 9)]),
    ("rho2_two_nonincident", [(n,) for n in range(5, 9)]),
]


def test_enumeration_cases_cover_every_closed_form():
    assert sorted(ident for ident, _ in ENUMERATION_CASES) == sorted(CLOSED_FORM_IDS)


@pytest.mark.parametrize("identifier,param_sets", ENUMERATION_CASES)
def test_closed_forms_match_enumeration(identifier, param_sets):
    for params in param_sets:
        formula = closed_form(identifier, *params)
        brute = closed_form_brute_force(identifier, *params)
        if isinstance(formula, list):
            assert formula == pytest.approx(brute, abs=1e-9)
        else:
            assert formula == pytest.approx(brute, abs=1e-9), (identifier, params)


def _kab_perron_quadratic(a, b):
    # Perron root of D(K_{p,q}) with p = a - 1, q = b; as a polynomial identity
    # it also holds at a = 1, where the surd is 2(b - 1), rho2 of the star K_{1,b}
    p, q = a - 1, b
    return 2 * (p + q - 2), p * q - 4 * (p - 1) * (q - 1)


# x solves x^2 - beta*x - gamma = 0; (beta, gamma) written out per form
REFERENCE_QUADRATICS = {
    "star_radius": lambda n: (2 * (n - 2), n - 1),
    "kn_minus_e_radius": lambda n: (n - 1, 2),
    "rho2_kn_minus_e": lambda n: (n - 2, 2),
    "rho2_kab": _kab_perron_quadratic,
    "rho2_k_pendant": lambda n: (n - 3, 4 * (n - 2)),
    "rho2_two_nonincident": lambda n: (n - 2, 4),
}


def test_closed_forms_solve_reference_quadratics():
    scalar = [(i, ps) for i, ps in ENUMERATION_CASES if i != "complete_spectrum"]
    assert sorted(i for i, _ in scalar) == sorted(REFERENCE_QUADRATICS)
    for identifier, param_sets in scalar:
        for params in param_sets:
            x = closed_form(identifier, *params)
            beta, gamma = REFERENCE_QUADRATICS[identifier](*params)
            assert abs(x * x - beta * x - gamma) <= 1e-9 * max(1.0, x * x), (identifier, params)


def test_closed_form_parameter_count():
    with pytest.raises(ValueError, match="takes 1 parameter"):
        closed_form("star_radius", 4, 5)
    with pytest.raises(ValueError, match="takes 2 parameter"):
        closed_form_brute_force("rho2_kab", 2)


def test_star_spectrum_closed_forms():
    for n in range(3, 8):
        enumerated = list(pareto_spectrum(fam("star", n)).values)
        assert enumerated == pytest.approx(star_spectrum(n), abs=1e-9)
        assert len(enumerated) == 2 * (n - 1)


def test_evaluate_bound_rho_k_on_complete():
    res = evaluate_bound("rho_k_lower", fam("complete", 4), k=2)
    assert res.applicable and res.direction == "lower"
    assert res.bound_value == 2.0
    assert res.actual_value == pytest.approx(2.0, abs=1e-9)
    assert res.tight


def test_evaluate_bound_count_lower_path3():
    res = evaluate_bound("count_lower", fam("path", 3))
    assert res.bound_value == 4.0 and res.actual_value == 4.0 and res.tight


def test_evaluate_bound_wiener_star5():
    # W = 16 and Tr(center) = 4 give the bound 2(16 - 4)/4 = 6 = rho2(S5)
    res = evaluate_bound("rho2_wiener_lower", fam("star", 5))
    assert res.bound_value == pytest.approx(6.0, abs=1e-12)
    assert res.actual_value == pytest.approx(6.0, abs=1e-9)
    assert res.tight


def test_bound_report_complete_inapplicable():
    report = {r.bound_id: r for r in bound_report(fam("complete", 5)) if r.k is None}
    res = report["rho2_noncomplete_lower"]
    assert not res.applicable and "complete" in res.reason
    assert not report["rho2_two_edges_lower"].applicable
    assert not report["rho2_bipartite_lower"].applicable


def test_bound_report_kn_minus_e_tight():
    report = {r.bound_id: r for r in bound_report(fam("complete_minus_edge", 5)) if r.k is None}
    res = report["rho2_noncomplete_lower"]
    assert res.applicable and res.tight


def test_bound_report_path5_no_violations():
    for res in bound_report(fam("path", 5)):
        if res.applicable:
            assert res.slack >= -1e-8, res


def test_bound_report_deterministic_order():
    a = bound_report(fam("wheel", 6))
    b = bound_report(fam("wheel", 6))
    assert a == b
    ids = [(r.bound_id, r.k) for r in a]
    assert ids == sorted(ids, key=lambda t: (t[0], t[1] if t[1] is not None else 0))
    assert {r.bound_id for r in a} == set(BOUND_IDS)


def test_bound_report_takes_a_known_rho2_without_recomputing(monkeypatch):
    # rho2 kept on the graph is read, not screened: at n <= 20 the report's own
    # spectrum keeps it, above the cap the first report's screen does
    from distpareto import pareto

    def refuse(*args):
        raise AssertionError("rho2 screened")

    for params in [("wheel", 6), ("path", 2), ("complete_minus_edge", 6), ("path", 21)]:
        g = fam(*params)
        expected = bound_report(g)
        with monkeypatch.context() as m:
            m.setattr(pareto, "_rho2_many", refuse)
            assert bound_report(g) == expected
            if g.n <= 20:
                assert bound_report(fam(*params)) == expected


def test_rho2_exceeds_lambda2_on_families():
    for g in [fam("path", 6), fam("complete", 5), fam("wheel", 7), fam("star", 8)]:
        res = evaluate_bound("rho2_vs_lambda2", g)
        assert res.slack > 1e-9


def test_second_component_upper_tight_on_uniform_tail_graphs():
    for g in [fam("complete", 5), fam("star", 6), fam("wheel", 6)]:
        res = evaluate_bound("rho2_second_component_upper", g)
        assert res.applicable
        assert res.slack >= -1e-8
        assert res.tight, (g.name, res)


def test_dominating_bounds_star_and_complete():
    up = evaluate_bound("rho2_dominating_upper", fam("star", 6))
    assert up.tight and up.bound_value == 8.0
    low = evaluate_bound("rho2_dominating_lower", fam("complete", 6))
    assert low.tight and low.bound_value == 4.0
    na = evaluate_bound("rho2_dominating_upper", fam("cycle", 6))
    assert not na.applicable


def test_simple_lower_tight_only_for_path3(classes_by_order):
    for n in (3, 4, 5):
        for g in classes_by_order[n]:
            res = evaluate_bound("rho2_simple_lower", g)
            if not res.applicable:
                continue
            if res.tight:
                assert is_isomorphic(g, fam("path", 3))


def test_bipartite_lower_applies_exactly_to_bipartite_graphs(classes_by_order):
    rng = np.random.default_rng(20240607)
    graphs = [g for n in range(2, 7) for g in classes_by_order[n]]
    graphs += [fam("complete_bipartite", a, b) for b in range(1, 9) for a in range(1, b + 1)]
    graphs += [fam("cycle", n) for n in range(3, 30)]
    graphs += [
        random_connected_graph(int(rng.integers(2, 13)), rng, extra_edge_prob=p)
        for p in (0.0, 0.03, 0.1, 0.3)
        for _ in range(50)
    ]
    for g in graphs:
        row = evaluate_bound("rho2_bipartite_lower", g)
        want = nx.is_bipartite(nx.Graph(list(g.edges)))
        assert row.applicable == want, g
        assert row.reason == ("" if want else "graph is not bipartite")
        assert row.slack >= -1e-8 or not want, g


def test_tmin_lower_examples():
    tight = evaluate_bound("rho2_tmin_lower", fam("complete", 6))
    assert tight.tight
    loose = evaluate_bound("rho2_tmin_lower", fam("path", 6))
    assert loose.applicable and loose.slack > 1e-6


def test_count_lower_never_carries_k():
    # only the per-k family rho_k_lower reports k, on both sides of the n <= 20 cap
    for n in (5, 21):
        res = evaluate_bound("count_lower", fam("path", n), k=3)
        assert res.k is None and res.bound_id == "count_lower"
    capped = evaluate_bound("rho_k_lower", fam("path", 21), k=3)
    assert capped.k == 3 and not capped.applicable


def test_bound_report_single_vertex():
    report = bound_report(fam("complete", 1))
    rho2_rows = [r for r in report if r.bound_id.startswith("rho2_")]
    assert len(rho2_rows) == 11 == len(BOUND_IDS) - 2
    assert all(not r.applicable and r.reason == "order < 2" for r in rho2_rows)
    # each row keeps the direction it has where it applies
    directions = {r.bound_id: r.direction for r in bound_report(fam("star", 5))}
    assert all(r.direction == directions[r.bound_id] for r in rho2_rows)
    rest = [r for r in report if not r.bound_id.startswith("rho2_")]
    assert [(r.bound_id, r.k) for r in rest] == [("count_lower", None), ("rho_k_lower", 1)]
    assert [(r.applicable, r.bound_value, r.actual_value) for r in rest] == [
        (True, 0.0, 1.0), (True, 0.0, 0.0)]


def test_rho_k_lower_beyond_spectrum():
    g = fam("path", 4)
    count = pareto_spectrum(g).count
    res = evaluate_bound("rho_k_lower", g, k=count + 1)
    assert not res.applicable and res.k == count + 1
    assert res.reason == f"k={count + 1} exceeds spectrum size"


def test_evaluate_bound_errors():
    g = fam("path", 4)
    with pytest.raises(ValueError, match=r"^unknown bound id 'nope'$"):
        evaluate_bound("nope", g)
    with pytest.raises(ValueError, match=r"^rho_k_lower requires k$"):
        evaluate_bound("rho_k_lower", g)
    for k in (0, -2, 1.5, 2.0, "2", True):
        with pytest.raises(ValueError, match=r"^rho_k_lower needs an integer k >= 1, got "):
            evaluate_bound("rho_k_lower", g, k=k)
    row = evaluate_bound("rho_k_lower", g, k=np.int64(2))
    assert row.applicable and row == evaluate_bound("rho_k_lower", g, k=2)


def test_readme_bound_catalogue_lists_every_bound():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Bound catalogue", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(BOUND_IDS)
