"""Tests of the benchmark itself: oracle, tracer, and a tiny run of every workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from distpareto import cli  # noqa: E402
from distpareto.verify import random_connected_graph  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_op  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def test_generator_reproduces_acceptance_graphs():
    ours, theirs = np.random.default_rng(20240601), np.random.default_rng(20240601)
    for _ in range(40):
        n = int(ours.integers(7, 11))
        assert int(theirs.integers(7, 11)) == n
        g = random_connected_graph(n, theirs)
        assert workloads.random_connected(n, ours) == (n, tuple(g.sorted_edges()))


def test_plans_depend_only_on_seed():
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 7, tiny=True) == workloads.plan(w, 7, tiny=True)
    a = workloads.plan("spectrum-cli", 1, tiny=True).graphs
    b = workloads.plan("spectrum-cli", 2, tiny=True).graphs
    assert a != b


@pytest.fixture()
def graph_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    n, edges = workloads.random_connected(7, np.random.default_rng(3), 0.2)
    (tmp_path / "g.txt").write_text(workloads.edge_list_text(n, edges))
    return {"g.txt": (n, edges)}


def _op(kind, argv, graph="g.txt"):
    return workloads.Op(kind, tuple(argv), graph)


def _run(op):
    rc, text, _ = run_op(cli, op.argv)
    return rc, text


SPECTRUM = ("spectrum", ["spectrum", "--edges", "g.txt"])
BOUNDS = ("rho2-bounds", ["rho2", "--edges", "g.txt", "--bounds"])
RHO2 = ("rho2", ["rho2", "--edges", "g.txt"])


@pytest.mark.parametrize("kind,argv", [SPECTRUM, BOUNDS, RHO2])
def test_oracle_accepts_real_output(graph_file, kind, argv):
    op = _op(kind, argv)
    rc, text = _run(op)
    assert oracle.check_op(op, rc, text, graph_file, None) == []
    assert oracle.check_op(op, rc, text, graph_file, np.random.default_rng(0)) == []


def _corrupt(text, edit):
    doc = json.loads(text)
    edit(doc["payload"])
    return json.dumps(doc)


def _shift_value(p):
    if "values" in p:
        p["values"][len(p["values"]) // 2] += 1e-6
    else:
        p["value"] += 1e-6


def _swap_witnesses(p):
    p["witnesses"][-1], p["witnesses"][-2] = p["witnesses"][-2], p["witnesses"][-1]


def _break_bound(p):
    applicable = [b for b in p["bounds"] if b["applicable"]]
    applicable[0]["slack"] = -1e-6


@pytest.mark.parametrize("case,edit", [
    (SPECTRUM, _shift_value),
    (SPECTRUM, _swap_witnesses),
    (BOUNDS, _shift_value),
    (BOUNDS, _break_bound),
    (RHO2, _shift_value),
])
def test_oracle_rejects_corrupted_output(graph_file, case, edit):
    op = _op(*case)
    rc, text = _run(op)
    assert oracle.check_op(op, rc, _corrupt(text, edit), graph_file, None)


def test_oracle_rejects_wrong_exit_code(graph_file):
    op = _op(*RHO2)
    rc, text = _run(op)
    assert rc == 0
    assert oracle.check_op(op, 1, text, graph_file, None)


def test_oracle_verify_suites(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["verify", "extremal", "--order", "4"],
                 ["verify", "tree-extremes", "--order", "5"],
                 ["verify", "monotonicity", "--order", "4"]):
        op = _op("verify", argv, None)
        rc, text = _run(op)
        assert oracle.check_op(op, rc, text, {}, None) == []
        assert oracle.check_op(op, 1, text, {}, None)
    bad = _corrupt(text, lambda p: p.update(holds=False, violations=[{"x": 1}]))
    assert oracle.check_op(op, 0, bad, {}, None)
    op = _op("verify", ["verify", "extremal", "--order", "4"], None)
    rc, text = _run(op)
    bad = _corrupt(text, lambda p: p.update(max_count=p["max_count"] + 1))
    assert oracle.check_op(op, rc, bad, {}, None)


def test_corrupted_output_counts_as_failed_op(tmp_path, monkeypatch):
    plan = workloads.plan("bounds-sweep", 1, tiny=True)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for name, (n, edges) in plan.graphs.items():
        (inputs / name).write_text(workloads.edge_list_text(n, edges))
    monkeypatch.chdir(inputs)
    rcs, digests, texts = [], [], []
    for i, op in enumerate(plan.ops):
        rc, text = _run(op)
        if i == 3:
            text = _corrupt(text, _shift_value)
        if i == 5:
            rc = 4
        texts.append(json.dumps(text) + "\n")
        rcs.append(rc)
        digests.append(str(i))
    (tmp_path / "ops.jsonl").write_text("".join(texts))
    first = {"rcs": rcs, "digests": digests}
    second = {"rcs": rcs, "digests": digests[:-1] + ["changed"]}
    problems = run.check_outputs(plan, [first, second], str(tmp_path / "ops.jsonl"), seed=1)
    failed = [(p, i) for p, ops in enumerate(problems) for i, msgs in enumerate(ops) if msgs]
    last = len(plan.ops) - 1
    assert failed == [(0, 3), (0, 5), (1, 3), (1, 5), (1, last)]


def test_tracer_catches_calls_through_rebound_names(graph_file):
    from distpareto import laws, pareto
    from distpareto.graph import parse_edge_list

    original = pareto.rho2_fast
    with open("g.txt", encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    untraced = laws.bound_report(g)
    tracer = Tracer()
    tracer.install()
    try:
        assert laws.rho2_fast is not original and pareto.rho2_fast is not original
        traced = laws.bound_report(g)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert pareto.rho2_fast is original and laws.rho2_fast is original
    parents, names, _, _, _ = tracer.span_arrays()
    q = [tracer.qualnames[i] for i in names]
    parent_of = {name: q[p] if p >= 0 else None for name, p in zip(q, parents)}
    assert parent_of["laws.bound_report"] is None
    assert parent_of["pareto.pareto_spectrum"].startswith("laws.")
    assert parent_of["spectral.spectral_radius_many"].startswith("pareto.")
    summary = tracer.summarize()
    assert summary["calls"]["pareto.rho2_fast"] == 1
    assert summary["calls"]["graph.distance_matrix"] == 4
    assert summary["bypassed"] == {}
    assert run.trace_problems(summary) == []
    assert laws.bound_report(g) == untraced


def test_tracer_counts_calls_that_miss_a_wrapper(graph_file, monkeypatch):
    from distpareto import laws, pareto
    from distpareto.graph import parse_edge_list

    original = pareto.rho2_fast
    with open("g.txt", encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    untraced = laws.bound_report(g)
    tracer = Tracer()
    tracer.install()
    try:
        # A by-name import the tracer did not rebind.
        monkeypatch.setattr(laws, "rho2_fast", original)
        traced = laws.bound_report(g)
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    assert traced == untraced
    summary = tracer.summarize()
    assert summary["bypassed"] == {"pareto.rho2_fast": 1}
    assert summary["calls"]["pareto.rho2_fast"] == 0
    assert run.trace_problems(summary) == ["1 call(s) of pareto.rho2_fast missed its wrapper"]


def test_tracer_checks_tree_counts():
    summary = {"bypassed": {}, "counts": {"verify.labeled_trees.n6": 1296,
                                          "verify.tree_classes.n6": 6}}
    assert run.trace_problems(summary) == []
    summary["counts"].update({"verify.labeled_trees.n7": 16806, "verify.tree_classes.n7": 12})
    assert len(run.trace_problems(summary)) == 2


def _bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_traced_runs_are_deterministic():
    records = []
    for _ in range(2):
        proc = _bench("exhaustive", 1)
        assert proc.returncode == 0, proc.stderr
        path = os.path.join(ROOT, ".perfbench-out", "exhaustive-seed3-trace1-tiny", "record.json")
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    assert compare.diff_records(*records) == []
    assert records[0]["digests"] == records[0]["digests_traced"]
    assert records[0]["counts"]["verify.labeled_trees"] == 3 + 16 + 125


def test_refuses_to_run_without_sources(tmp_path):
    proc = _bench("bounds-sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
