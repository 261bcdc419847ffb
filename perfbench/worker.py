"""One benchmark process: set-up, then one timed pass or the traced pass.

``run.py`` starts this script in a fresh interpreter for every set-up sample
and every measured pass, with the BLAS thread count fixed in its environment,
and reads the JSON it writes to ``<out>/result.json``.  Modes:

- ``setup``: import the package, read the op list, one warm-up op; report
  the set-up time.
- ``run``: set-up, then one pass over the op list with tracing off.
- ``trace``: set-up, one untraced pass, then one traced pass.

``run.py`` writes the input files and the op list (``plan_file``: the argv of
every op and of the warm-up op) once per run, before it starts any worker.
When ``ops_file`` is set, the first pass's stdout of each op is saved there,
one JSON string a line, for the oracle.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def run_op(cli, argv):
    """Call ``cli.main(argv)`` once; return (exit code or error, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), time.perf_counter() - start


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None when unavailable."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Pass:
    """Per-op record of one pass over the op list."""

    def __init__(self):
        self.rcs, self.digests, self.walls, self.sizes = [], [], [], []

    def record(self, rc, text, wall):
        data = text.encode()
        self.rcs.append(rc)
        self.digests.append(hashlib.sha256(data).hexdigest())
        self.walls.append(wall)
        self.sizes.append(len(data))


def run_pass(cli, ops, save=None, tracer=None):
    """One pass over the argv lists ``ops``; ``save`` gets each op's stdout as a JSON line."""
    p = Pass()
    marks = []
    for argv in ops:
        if tracer is not None:
            marks.append(tracer.mark())
        rc, text, wall = run_op(cli, argv)
        p.record(rc, text, wall)
        if save is not None:
            save.write(json.dumps(text) + "\n")
    if tracer is not None:
        marks.append(tracer.mark())
    return p, marks


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    from distpareto import cli

    with open(cfg["plan_file"], encoding="utf-8") as fh:
        plan = json.load(fh)
    ops = plan["ops"]
    out = cfg["out"]
    os.chdir(cfg["inputs"])
    warm_rc, _, _ = run_op(cli, plan["warmup"])
    result = {"setup_s": time.perf_counter() - T0, "warmup_rc": warm_rc}

    mode = cfg["mode"]
    if mode != "setup":
        if cfg["ops_file"]:
            with open(cfg["ops_file"], "w", encoding="utf-8") as saved:
                first, _ = run_pass(cli, ops, save=saved)
        else:
            first, _ = run_pass(cli, ops)
        passes = [first]
        if mode == "trace":
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
            try:
                traced, marks = run_pass(cli, ops, tracer=tracer)
            finally:
                tracer.uninstall()
            passes.append(traced)
            summary = tracer.summarize()
            tracer.save(os.path.join(out, "spans.npz"), marks)
            result["trace"] = {
                "summary": summary,
                "layers": layer_metrics(summary, len(ops), statistics.mean(first.sizes)),
            }
        result["passes"] = [vars(p) for p in passes]

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode != "setup":
        import numpy

        result["env"] = {"numpy": numpy.__version__, "blas_threads": blas_threads()}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
