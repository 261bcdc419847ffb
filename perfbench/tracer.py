"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` wraps every public function of the six package modules and
rebinds *every* module attribute that refers to one, not only the one in the
defining module: ``pareto`` imports ``spectral_radius_many`` by name, ``cli``,
``laws`` and ``verify`` import ``pareto_spectrum`` and ``rho2_fast`` by name,
and a call through such a name would otherwise bypass the wrapper.  While
installed, each original function object runs a stub that counts the call in
``Tracer.bypassed`` and forwards it; the wrappers call a copy of the original.
So a call that reaches a function without passing its wrapper (through a
binding that was missed, or a reference held in a container) is counted
rather than lost, whatever the program's structure.

Each call records a span (name, start, end, parent) in flat arrays held in
memory; ``save`` writes them out at the end.  A span's self time is its
duration minus the time its child spans cover, and a layer's self time is the
sum over its spans.  The package runs single-threaded here (``--jobs 1``), so
one stack gives every span its parent.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "graph", "pareto", "spectral", "laws", "verify")
PACKAGE = "distpareto"


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _count_stack(args, kwargs, result, c):
    mats = _first_arg(args, kwargs)
    m, k = mats.shape[0], mats.shape[-1]
    c["spectral.matrices"] += m
    c["spectral.bytes_in"] += m * k * k * 8
    c["spectral.flops_est"] += m * (4 / 3) * k**3


def _count_single(args, kwargs, result, c):
    k = _first_arg(args, kwargs).k
    c["spectral.matrices"] += 1
    c["spectral.bytes_in"] += k * k * 8
    c["spectral.flops_est"] += (4 / 3) * k**3


def _count_spectrum(args, kwargs, result, c):
    c["pareto.subsets"] += 2**result.graph_order - 1
    c["pareto.distinct"] += result.count


def _count_bound_report(args, kwargs, result, c):
    c["laws.bounds_evaluated"] += len(result)
    c["laws.bounds_applicable"] += sum(1 for r in result if r.applicable)


def _count_trees(args, kwargs, result, c):
    n = _first_arg(args, kwargs)
    c["verify.tree_classes"] += len(result)
    c[f"verify.tree_classes.n{n}"] = len(result)


def _count_extremal(args, kwargs, result, c):
    n = result.order
    c["verify.masks"] += 2 ** (n * (n - 1) // 2)
    c["verify.connected"] += result.graphs_scanned


# Counters derived from arguments and results, by wrapped function.
_HOOKS = {
    "spectral.spectral_radius_many": _count_stack,
    "spectral.spectral_radius": _count_single,
    "spectral.full_spectrum": _count_single,
    "pareto.pareto_spectrum": _count_spectrum,
    "laws.bound_report": _count_bound_report,
    "verify.trees_upto_iso": _count_trees,
    "verify.extremal_search": _count_extremal,
}
# Generator functions get no span, so the time spent producing items stays
# with the consumer's span.  Items yielded are counted for these, and each
# call that runs to the end records its count under "<name>.n<first arg>".
_COUNT_YIELDS = {"verify.labeled_trees"}


def _clone(fn):
    """A new function object with ``fn``'s code, globals, defaults and closure."""
    copy = types.FunctionType(fn.__code__, fn.__globals__, fn.__name__,
                              fn.__defaults__, fn.__closure__)
    copy.__kwdefaults__ = fn.__kwdefaults__
    copy.__qualname__ = fn.__qualname__
    copy.__dict__.update(fn.__dict__)
    return copy


def _bypass_stub(*args, _perfbench_bypass=None, **kwargs):
    # Installed as the code of each wrapped original; ``_perfbench_bypass``
    # comes from the original's keyword defaults.
    return _perfbench_bypass(args, kwargs)


class Tracer:
    def __init__(self):
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.qualnames: list[str] = []
        self.counts: Counter = Counter()
        self.bypassed: Counter = Counter()  # qualname -> calls that missed the wrapper
        self._wrappers: dict = {}  # original function -> wrapper
        self._rebound: list[tuple] = []  # (module, attribute, original)
        self._stubbed: list[tuple] = []  # (original, code, defaults, kwdefaults)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, qual: str, fn):
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            count_yields = qual in _COUNT_YIELDS

            def gen_wrapper(*args, **kwargs):
                counts[qual + ".calls"] += 1
                yielded = 0
                for item in fn(*args, **kwargs):
                    if count_yields:
                        counts[qual] += 1
                        yielded += 1
                    yield item
                if count_yields:
                    counts[f"{qual}.n{_first_arg(args, kwargs)}"] = yielded

            return gen_wrapper

        idx = len(self.qualnames)
        self.qualnames.append(qual)
        hook = _HOOKS.get(qual)
        parents, names, starts, ends, stack = (
            self.parents, self.names, self.starts, self.ends, self.stack)

        def wrapper(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(idx)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counts)
            return result

        return wrapper

    def _package_modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _stub(self, qual: str, fn, impl) -> None:
        """Make ``fn`` count a call in ``bypassed`` and forward it to ``impl``."""
        bypassed = self.bypassed

        def forward(args, kwargs):
            bypassed[qual] += 1
            return impl(*args, **kwargs)

        self._stubbed.append((fn, fn.__code__, fn.__defaults__, fn.__kwdefaults__))
        fn.__code__ = _bypass_stub.__code__
        fn.__defaults__ = None
        fn.__kwdefaults__ = {"_perfbench_bypass": forward}

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    qual = f"{layer}.{name}"
                    impl = _clone(obj)
                    self._wrappers[obj] = self._wrap(qual, impl)
                    self._stub(qual, obj, impl)
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()
        for fn, code, defaults, kwdefaults in reversed(self._stubbed):
            fn.__code__, fn.__defaults__, fn.__kwdefaults__ = code, defaults, kwdefaults
        self._stubbed.clear()

    # -- analysis ----------------------------------------------------------

    def mark(self) -> int:
        """Span count so far; marks op boundaries."""
        return len(self.starts)

    def span_arrays(self):
        parents = np.array(self.parents, dtype=np.int64)
        names = np.array(self.names, dtype=np.int64)
        starts = np.array(self.starts)
        duration = np.array(self.ends) - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=duration[has_parent],
                            minlength=len(parents))
        return parents, names, starts, duration, duration - child

    def summarize(self) -> dict:
        """Layer self times, inclusive times by function, calls and counts."""
        _, names, _, duration, self_time = self.span_arrays()
        layer_of = np.array([LAYERS.index(q.split(".")[0]) for q in self.qualnames] or [0])
        layer_self = np.bincount(layer_of[names], weights=self_time, minlength=len(LAYERS))
        nq = len(self.qualnames)
        inclusive = np.bincount(names, weights=duration, minlength=nq)
        calls = np.bincount(names, minlength=nq)
        return {
            "layer_self_s": {layer: float(t) for layer, t in zip(LAYERS, layer_self)},
            "inclusive_s": {q: float(t) for q, t in zip(self.qualnames, inclusive)},
            "calls": {**{q: int(c) for q, c in zip(self.qualnames, calls)},
                      **{k[:-len(".calls")]: v for k, v in self.counts.items()
                         if k.endswith(".calls")}},
            "counts": {k: v for k, v in self.counts.items() if not k.endswith(".calls")},
            "bypassed": dict(self.bypassed),
            "spans": int(len(names)),
        }

    def save(self, path: str, op_marks: list[int]) -> None:
        parents, names, starts, duration, self_time = self.span_arrays()
        op = np.searchsorted(np.asarray(op_marks), np.arange(len(names)), side="right") - 1
        np.savez_compressed(path, parent=parents, name=names, start=starts,
                            end=starts + duration, self_time=self_time, op=op,
                            qualnames=np.array(self.qualnames))


def layer_metrics(summary: dict, op_count: int, out_bytes: float) -> dict:
    """The per-layer metrics of one traced pass over ``op_count`` ops."""
    calls, counts, incl = summary["calls"], summary["counts"], summary["inclusive_s"]
    ls = summary["layer_self_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(name):
        return calls.get(name, 0) / op_count

    spectral_calls = sum(calls.get(f"spectral.{f}", 0) for f in
                         ("spectral_radius_many", "spectral_radius", "full_spectrum"))
    return {
        "cli.self_s": (ls["cli"], "s"),
        "cli.out_bytes": (out_bytes, "B/op"),
        "graph.self_s": (ls["graph"], "s"),
        "graph.distance_matrix.calls": (per_op("graph.distance_matrix"), "count/op"),
        "pareto.self_s": (ls["pareto"], "s"),
        "pareto.pareto_spectrum.calls": (per_op("pareto.pareto_spectrum"), "count/op"),
        "pareto.rho2_fast.calls": (per_op("pareto.rho2_fast"), "count/op"),
        "pareto.pareto_eigenpair.calls": (per_op("pareto.pareto_eigenpair"), "count/op"),
        "pareto.subsets": (counts.get("pareto.subsets", 0), "count"),
        "pareto.distinct_ratio": (
            ratio(counts.get("pareto.distinct", 0), counts.get("pareto.subsets", 0)), "ratio"),
        "spectral.self_s": (ls["spectral"], "s"),
        "spectral.calls": (spectral_calls / op_count, "count/op"),
        "spectral.matrices": (counts.get("spectral.matrices", 0), "count"),
        "spectral.bytes_in": (counts.get("spectral.bytes_in", 0), "B"),
        "spectral.flops_est": (counts.get("spectral.flops_est", 0.0), "flop"),
        "laws.self_s": (ls["laws"], "s"),
        "laws.bounds_evaluated": (counts.get("laws.bounds_evaluated", 0), "count"),
        "laws.bounds_applicable_ratio": (
            ratio(counts.get("laws.bounds_applicable", 0),
                  counts.get("laws.bounds_evaluated", 0)), "ratio"),
        "verify.self_s": (ls["verify"], "s"),
        "verify.trees_s": (incl.get("verify.trees_upto_iso", 0.0), "s"),
        "verify.extremal_s": (incl.get("verify.extremal_search", 0.0), "s"),
        "verify.labeled_trees": (counts.get("verify.labeled_trees", 0), "count"),
        "verify.tree_yield": (
            ratio(counts.get("verify.tree_classes", 0), counts.get("verify.labeled_trees", 0)),
            "ratio"),
        "verify.connected_ratio": (
            ratio(counts.get("verify.connected", 0), counts.get("verify.masks", 0)), "ratio"),
    }
