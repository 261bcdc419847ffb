"""Independent checks of CLI output, written with numpy only.

Nothing here imports ``distpareto``: distances come from Floyd-Warshall on the
edge lists the benchmark generated, and Perron roots from ``eigvalsh`` on
submatrices built here.  Each check returns a list of problems; an empty list
means the output is accepted.

The spectrum check deliberately leaves the dedup gap unchecked, so a change
to how near-equal values are merged (for example certified dedup) stays legal.
"""

from __future__ import annotations

import json

import numpy as np

VALUE_RTOL = 1e-9  # CLI prints 12 significant digits; distinct values differ by > 1e-8
SLACK_TOL = 1e-8
SPECTRUM_SAMPLE = 32
RHO2_SAMPLE = 8

# Connected labeled graphs on n vertices (OEIS A001187) and trees up to
# isomorphism (OEIS A000055).
CONNECTED_LABELED = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
TREES_UP_TO_ISO = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
# Maximum number of distinct Pareto eigenvalues and the number of witness
# classes attaining it, by order.
EXTREMAL = {3: (4, 1), 4: (7, 1), 5: (13, 3), 6: (30, 1)}


def distances(n: int, edges) -> np.ndarray:
    """All-pairs hop distances by Floyd-Warshall."""
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        d[u, v] = d[v, u] = 1.0
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def perron_root(d: np.ndarray, keep) -> float:
    keep = list(keep)
    if len(keep) == 1:
        return 0.0
    return float(np.linalg.eigvalsh(d[np.ix_(keep, keep)])[-1])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(b))


def pareto_count(d: np.ndarray, tol: float = 1e-8) -> int:
    """Distinct Perron roots over all nonempty principal submatrices."""
    n = d.shape[0]
    values = sorted(
        perron_root(d, [v for v in range(n) if mask >> v & 1]) for mask in range(1, 1 << n)
    )
    count = 1
    for a, b in zip(values, values[1:]):
        if b - a > tol * max(1.0, b):
            count += 1
    return count


def _summary_problems(doc: dict, n: int, edges, d: np.ndarray) -> list[str]:
    gs = doc.get("graph_summary") or {}
    problems = []
    if gs.get("order") != n:
        problems.append(f"graph_summary order {gs.get('order')} != {n}")
    if gs.get("diameter") != int(d.max()):
        problems.append(f"graph_summary diameter {gs.get('diameter')} != {int(d.max())}")
    if [tuple(e) for e in gs.get("edges", [])] != [tuple(e) for e in edges]:
        problems.append("graph_summary edges differ from the input file")
    return problems


def check_spectrum(doc: dict, n: int, edges, rng: np.random.Generator | None) -> list[str]:
    """Sampled witnesses reproduce their values; ladder and count bound hold.

    ``rng=None`` checks every witness instead of a sample.
    """
    d = distances(n, edges)
    diam = int(d.max())
    problems = _summary_problems(doc, n, edges, d)
    p = doc["payload"]
    values, witnesses = p["values"], p["witnesses"]
    if not (p["count"] == len(values) == len(witnesses)):
        problems.append("count, values and witnesses disagree in length")
        return problems
    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append("values are not strictly ascending")
    for t in range(diam + 1):
        if not any(abs(v - t) <= 1e-8 * max(1.0, t) for v in values):
            problems.append(f"integer {t} of the ladder 0..{diam} is missing")
    if p["count"] < n + diam - 1:
        problems.append(f"count {p['count']} < n + diam - 1 = {n + diam - 1}")
    if rng is None:
        picks = range(len(values))
    else:
        size = min(SPECTRUM_SAMPLE, len(values))
        picks = sorted(set(rng.choice(len(values), size=size, replace=False).tolist())
                       | {0, len(values) - 1})
    for i in picks:
        w = witnesses[i]
        if not w or any(not 0 <= v < n for v in w) or sorted(set(w)) != list(w):
            problems.append(f"witness {i} is not a sorted vertex subset: {w}")
            continue
        root = perron_root(d, w)
        if not _close(values[i], root):
            problems.append(f"value {i} = {values[i]!r} but its witness gives {root!r}")
    return problems


def _deletion_root(d: np.ndarray, v: int) -> float:
    return perron_root(d, [u for u in range(d.shape[0]) if u != v])


def check_rho2(doc: dict, n: int, edges, rng: np.random.Generator | None) -> list[str]:
    """rho2 equals the largest single-vertex-deletion Perron root.

    With ``rng=None`` every deletion is recomputed; otherwise the witness
    deletion and a seeded sample of others.  Every applicable bound in the
    report, if present, must hold (slack >= -1e-8).
    """
    d = distances(n, edges)
    problems = _summary_problems(doc, n, edges, d)
    p = doc["payload"]
    value, witness = p["value"], p["witness_vertex"]
    if not (isinstance(witness, int) and 0 <= witness < n):
        return problems + [f"witness vertex {witness!r} out of range"]
    if rng is None:
        best = max(_deletion_root(d, v) for v in range(n))
        if not _close(value, best):
            problems.append(f"rho2 {value!r} != max deletion root {best!r}")
    else:
        others = rng.choice(n, size=min(RHO2_SAMPLE, n), replace=False).tolist()
        for v in others:
            root = _deletion_root(d, v)
            if root > value + VALUE_RTOL * max(1.0, value):
                problems.append(f"deleting {v} gives {root!r} > rho2 {value!r}")
    root = _deletion_root(d, witness)
    if not _close(value, root):
        problems.append(f"rho2 {value!r} but deleting witness {witness} gives {root!r}")
    if "bounds" in p:
        if not p["bounds"]:
            problems.append("empty bound report")
        for b in p["bounds"]:
            if b["applicable"] and not (b["slack"] is not None and b["slack"] >= -SLACK_TOL):
                problems.append(f"bound {b['bound_id']} k={b['k']} violated: slack {b['slack']}")
    return problems


def check_verify(doc: dict, suite: str, order: int) -> list[str]:
    """Suite holds with no violations, with the known counts where stdout has them."""
    p = doc["payload"]
    problems = []
    if p.get("suite") != suite or p.get("params", {}).get("order") != order:
        problems.append(f"payload is for {p.get('suite')} {p.get('params')}")
    if p.get("holds") is not True or p.get("violations"):
        problems.append(f"suite reports violations: {p.get('violations')}")
    if suite == "extremal":
        want_max, want_witnesses = EXTREMAL[order]
        if p["max_count"] != want_max or len(p["witnesses"]) != want_witnesses:
            problems.append(
                f"extremal order {order}: max {p['max_count']} with {len(p['witnesses'])} "
                f"witnesses, expected {want_max} with {want_witnesses}"
            )
        if p["checked"] != CONNECTED_LABELED[order]:
            problems.append(f"scanned {p['checked']} graphs, expected {CONNECTED_LABELED[order]}")
        for w in p["witnesses"]:
            count = pareto_count(distances(w["order"], w["edges"]))
            if count != p["max_count"]:
                problems.append(f"witness {w['edges']} has {count} values, not {p['max_count']}")
    elif suite == "tree-extremes":
        if p["checked"] != order - 2:
            problems.append(f"tree-extremes checked {p['checked']} orders, expected {order - 2}")
    elif p.get("checked", 0) <= 0:
        problems.append("suite checked nothing")
    return problems


def check_op(op, rc, text: str, graphs: dict, rng: np.random.Generator | None) -> list[str]:
    """All checks for one op: exit code 0, parseable JSON, payload accepted."""
    if rc != 0:
        return [f"exit code {rc!r}, expected 0"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if op.kind == "verify":
        return check_verify(doc, op.argv[1], int(op.argv[3]))
    n, edges = graphs[op.graph]
    if op.kind == "spectrum":
        return check_spectrum(doc, n, edges, rng)
    # Small bound-report graphs get every deletion recomputed; large ones a sample.
    return check_rho2(doc, n, edges, None if op.kind == "rho2-bounds" else rng)
