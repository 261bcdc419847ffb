#!/usr/bin/env python3
"""Benchmark of the ``distpareto`` CLI: four seeded workloads, timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum-cli --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and prints the
per-layer metrics.  Every op's output is checked by ``oracle.py``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it give the run environment, each metric
with its sample count, and the stdout digests.  Each run also writes
``.perfbench-out/<workload>-seed<seed>-trace<t>/record.json`` (digests and
counts) for ``compare.py``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
# Each timed pass gets its own process, and a run reports the mean over
# processes.  On a shared 2-core VM, pass times wandered by up to half
# between two speed levels over seconds to minutes; over ten seeds the mean
# of a run's passes spread less than their median or minimum.  At least
# three processes run even where one pass takes longer than --seconds.
MIN_PROCESSES = 3
MAX_PROCESSES = 8
TIME_LIMIT_S = 170.0
# BLAS threads for every workload process: one client, --jobs 1, one BLAS
# thread (at most nproc).  On a 2-core VM two threads gave no gain and noisier timings.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    os.makedirs(cfg["out"], exist_ok=True)
    env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
        env=env, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(os.path.join(cfg["out"], "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_inputs(plan, inputs: str, plan_file: str) -> float:
    """Write the edge-list files and the op list; return the seconds it took."""
    start = time.perf_counter()
    os.makedirs(inputs, exist_ok=True)
    for name, (n, edges) in plan.graphs.items():
        with open(os.path.join(inputs, name), "w", encoding="utf-8") as fh:
            fh.write(workloads.edge_list_text(n, edges))
    with open(plan_file, "w", encoding="utf-8") as fh:
        json.dump({"ops": [op.argv for op in plan.ops], "warmup": plan.warmup.argv}, fh)
    return time.perf_counter() - start


def trace_problems(summary: dict) -> list[str]:
    """Checks of a traced pass that do not depend on the program's call structure."""
    problems = [f"{count} call(s) of {name} missed its wrapper"
                for name, count in sorted(summary["bypassed"].items())]
    for key, count in summary["counts"].items():
        if key.startswith("verify.tree_classes.n"):
            n = int(key.rsplit("n", 1)[1])
            if count != oracle.TREES_UP_TO_ISO[n]:
                problems.append(f"trees_upto_iso({n}) gave {count} classes, "
                                f"A000055 has {oracle.TREES_UP_TO_ISO[n]}")
        if key.startswith("verify.labeled_trees.n"):
            n = int(key.rsplit("n", 1)[1])
            if count != n ** (n - 2):
                problems.append(f"labeled_trees({n}) yielded {count} trees, "
                                f"Cayley's formula gives {n ** (n - 2)}")
    return problems


def check_outputs(plan, passes: list[dict], ops_file: str, seed: int) -> list[list[str]]:
    """Oracle problems for every op execution, indexed [pass][op].

    ``ops_file`` holds the first pass's stdout; later passes must match its digests.
    """
    first = passes[0]
    with open(ops_file, encoding="utf-8") as fh:
        texts = [json.loads(line) for line in fh]
    base = []
    for i, (op, text) in enumerate(zip(plan.ops, texts)):
        rng = np.random.default_rng([seed, i])
        base.append(oracle.check_op(op, first["rcs"][i], text, plan.graphs, rng))
    problems = [base]
    for p in passes[1:]:
        same = [(p["digests"][i], p["rcs"][i]) == (first["digests"][i], first["rcs"][i])
                for i in range(len(plan.ops))]
        problems.append([b + ([] if ok else ["output differs from the first pass"])
                         for b, ok in zip(base, same)])
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs for a quick smoke run (not comparable)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "distpareto", "cli.py")):
        print("perfbench: src/distpareto not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    out = os.path.join(root, ".perfbench-out", tag)
    shutil.rmtree(out, ignore_errors=True)
    # Inputs go to one directory per workload that every run overwrites:
    # creating and deleting thousands of files a run made set-up times vary.
    # They are written once, before any worker starts, so that file-system
    # load stays out of the timed set-up.
    inputs = os.path.join(root, ".perfbench-out", "inputs",
                          args.workload + ("-tiny" if args.tiny else ""))
    plan = workloads.plan(args.workload, args.seed, args.tiny)
    plan_file = os.path.join(out, "plan.json")
    os.makedirs(out)
    write_s = write_inputs(plan, inputs, plan_file)
    cfg = {"root": root, "inputs": inputs, "plan_file": plan_file}

    ops_file = os.path.join(out, "ops.jsonl")
    if args.trace:
        results = [spawn({**cfg, "mode": "trace", "out": out, "ops_file": ops_file}, deadline)]
        passes = results[0]["passes"]
    else:
        # One pass per process: at least MIN_PROCESSES, then more until the
        # next pass would end past --seconds.
        results, walls = [], []
        while len(results) < MIN_PROCESSES or (
                len(results) < MAX_PROCESSES
                and sum(walls) + statistics.median(walls) <= args.seconds):
            res = spawn({**cfg, "mode": "run", "out": os.path.join(out, f"run{len(results)}"),
                         "ops_file": None if results else ops_file}, deadline)
            results.append(res)
            walls.append(sum(res["passes"][0]["walls"]))
        passes = [r["passes"][0] for r in results]
        setups = [r["setup_s"] for r in results]
        while len(setups) < SETUP_SAMPLES:
            res = spawn({**cfg, "mode": "setup", "out": os.path.join(out, f"setup{len(setups)}"),
                         "ops_file": None}, deadline)
            setups.append(res["setup_s"])
    res = results[0]

    problems = check_outputs(plan, passes, ops_file, args.seed)
    os.remove(ops_file)  # saved stdout, up to tens of MB
    attempted = sum(len(p) for p in problems)
    failed = sum(1 for p in problems for op_problems in p if op_problems)
    checks = [f"warm-up op exited with {r['warmup_rc']!r}" for r in results if r["warmup_rc"] != 0]
    for i, op_problems in enumerate(problems[0]):
        for msg in op_problems:
            print(f"perfbench FAIL op {i} {' '.join(plan.ops[i].argv)}: {msg}", file=sys.stderr)

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": res["env"]["numpy"],
        "blas": blas_vendor(), "blas_threads": res["env"]["blas_threads"],
        "blas_threads_env": BLAS_THREADS, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(), "tiny": args.tiny,
    }
    print("perfbench env " + json.dumps(env, sort_keys=True))
    digests = passes[0]["digests"]
    digest_all = hashlib.sha256("".join(digests).encode()).hexdigest()
    n_ops = len(plan.ops)
    record = {"env": env, "digests": digests, "digest_all": digest_all}
    text_only = {"inputs_write_s": (write_s, "s", f"{len(plan.graphs)} edge-list files "
                                    "and the op list, written once before set-up")}

    if not args.trace:
        samples = [w for p in passes for w in p["walls"]]
        metrics = {
            "setup_s": (statistics.median(setups), "s",
                        f"median of {len(setups)} set-ups, each in a fresh process"),
            "wall_s": (statistics.mean(walls), "s",
                       f"mean of {len(walls)} passes over the {n_ops}-op list, "
                       "each in a fresh process"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB",
                            f"median peak RSS of {len(results)} workload processes"),
        }
        # Op latency percentiles are printed where at least ten samples lie
        # beyond them, but kept out of the result line, which must carry the
        # same metrics for every workload: exhaustive has three ops a run.
        deciles = (statistics.quantiles(samples, n=10, method="inclusive")
                   if len(samples) > 1 else [])
        for name, decile, needed in (("op_ms_p50", 4, 20), ("op_ms_p90", 8, 100)):
            if len(samples) >= needed:
                text_only[name] = (1000 * deciles[decile], "ms", f"{len(samples)} op samples")
            else:
                print(f"perfbench {args.workload} {name} not reported: "
                      f"{len(samples)} op samples, {needed} needed")
    else:
        trace = res["trace"]
        untraced, traced = sum(passes[0]["walls"]), sum(passes[1]["walls"])
        metrics = {k: (v, unit, "traced pass") for k, (v, unit) in trace["layers"].items()}
        metrics.update({
            "trace.untraced_wall_s": (untraced, "s", f"one pass over {n_ops} ops"),
            "trace.traced_wall_s": (traced, "s", f"one pass over {n_ops} ops"),
            "trace.overhead_s": (traced - untraced, "s", "traced minus untraced pass"),
            "trace.spans": (trace["summary"]["spans"], "count", "spans recorded"),
        })
        checks += trace_problems(trace["summary"])
        calls = sum(trace["summary"]["calls"].values())
        print(f"perfbench {args.workload} wrapped calls = {calls}, calls that missed "
              f"a wrapper = {sum(trace['summary']['bypassed'].values())}")
        record["counts"] = {"calls": trace["summary"]["calls"], **trace["summary"]["counts"]}
        record["digests_traced"] = passes[1]["digests"]

    for msg in checks:
        print(f"perfbench FAIL {msg}", file=sys.stderr)
    text_only["failed_frac"] = (failed / attempted, "ratio",
                                f"{failed} of {attempted} op executions")
    for name, (value, unit, how) in {**metrics, **text_only}.items():
        print(f"perfbench {args.workload} {name} = {value:.6g} {unit} ({how})")
    print(f"perfbench {args.workload} stdout sha256 over {n_ops} ops = {digest_all}")
    record["metrics"] = {k: v for k, (v, _, _) in {**metrics, **text_only}.items()}
    with open(os.path.join(out, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0 and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
