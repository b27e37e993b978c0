"""Per-layer tracing of ghl3 from outside the package.

A Tracer replaces every binding of every exported function of the ghl3
layers (each module's __all__, plus the public methods of
GeneralizedHalfLogistic and RngStream) across the loaded ghl3.* modules with
a span-recording wrapper, and puts the originals back on exit. Because the
module globals themselves are rebound, calls inside a module, such as
log_beta -> log_gamma, are caught too. Private helpers are not wrapped: their
time is self time of the exported function that called them.

Spans live in flat in-memory arrays (function, parent span, op, start, end)
while the run goes; the parent is the top of a stack of open spans. Self time
and the per-layer figures are computed from them after the run, with the
wrapper's own cost, measured by calibrate(), subtracted.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

# Lowest layer last; the names are the module names under src/ghl3.
PACKAGE = "ghl3"
LAYERS = ("cli", "tables", "sampling", "order_statistics", "distribution", "quadrature", "special")
TRACED_CLASSES = ("GeneralizedHalfLogistic", "RngStream")
QUADRATURE = "quadrature"


@dataclass
class FunctionStats:
    layer: str
    calls: int = 0
    self_ns: float = 0.0
    inclusive_ns: float = 0.0


def _exported_functions(module) -> list[tuple[object, str, object]]:
    """(owner, attribute, function) for each function the layer exports."""
    found = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found.append((module, name, obj))
        elif inspect.isclass(obj) and name in TRACED_CLASSES:
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    found.append((obj, attr, member))
    return found


class Tracer:
    """Context manager that installs span-recording wrappers into ghl3."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.fid = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current_op = 0
        self.quad_evals = 0
        self._quad_depth = 0
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        # Per-call wrapper cost outside / inside the span it records, in ns.
        self.outside_ns = 0.0
        self.inside_ns = 0.0

    # -- install / restore -------------------------------------------------

    def _modules(self) -> list:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def __enter__(self) -> Tracer:
        modules = self._modules()
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for owner, attr, fn in _exported_functions(module):
                wrapper = self._wrap(fn, f"{layer}.{fn.__name__}", layer)
                if inspect.isclass(owner):
                    self._rebind(owner, attr, fn, wrapper)
                    continue
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._rebind(m, name, fn, wrapper)
        return self

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @property
    def wrapped(self) -> list[tuple[object, str, object]]:
        """The (owner, attribute, original) bindings currently replaced."""
        return list(self._restore)

    # -- recording -----------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        fid = self._register(name, layer)
        fids, parents, ops, starts, ends = self.fid, self.parent, self.op, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        if layer != QUADRATURE:
            def wrapper(*args, **kwargs):
                i = len(starts)
                fids.append(fid)
                parents.append(stack[-1])
                ops.append(tracer.current_op)
                ends.append(0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
        else:
            # Evaluations are counted at the outermost quadrature span only,
            # since integrate_semi_infinite reports its inner calls' totals.
            def wrapper(*args, **kwargs):
                i = len(starts)
                fids.append(fid)
                parents.append(stack[-1])
                ops.append(tracer.current_op)
                ends.append(0)
                stack.append(i)
                outermost = tracer._quad_depth == 0
                tracer._quad_depth += 1
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                    if outermost:
                        tracer.quad_evals += result.evaluations
                    return result
                except Exception as exc:
                    best = getattr(exc, "best", None)
                    if outermost and best is not None:
                        tracer.quad_evals += best.evaluations
                    raise
                finally:
                    ends[i] = clock()
                    tracer._quad_depth -= 1
                    stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def calibrate(self, calls: int = 20000, repeats: int = 7) -> None:
        """Measure the wrapper's cost per call with an empty function.

        outside_ns is what one wrapped call adds to its caller beyond the
        span it records; inside_ns is what an empty function's span reads.
        Both are medians over repeats, and the calibration spans are dropped.
        """
        def noop():
            return None

        wrapped = self._wrap(noop, "calibration.noop", "calibration")
        mark = len(self.start)
        clock = time.perf_counter_ns
        totals, insides = [], []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                noop()
            direct = clock() - t0
            first = len(self.start)
            t0 = clock()
            for _ in range(calls):
                wrapped()
            traced = clock() - t0
            totals.append((traced - direct) / calls)
            insides.append(sum(self.end[i] - self.start[i]
                               for i in range(first, len(self.start))) / calls)
        for arr in (self.fid, self.parent, self.op, self.start, self.end):
            del arr[mark:]
        self.names.pop()
        self.layers.pop()
        self.inside_ns = statistics.median(insides)
        self.outside_ns = max(0.0, statistics.median(totals) - self.inside_ns)

    # -- analysis --------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def function_stats(self) -> dict[str, FunctionStats]:
        """Calls, self time and inclusive time per function, wrapper cost removed.

        A span's self time is its duration minus its children's durations,
        minus the wrapper cost of each child outside the child's own span,
        minus the empty-wrapper reading inside it. Inclusive time is self
        time plus the children's inclusive time.
        """
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        # Per-span scratch as flat arrays: float lists would cost 4x the memory.
        self_ns = array("d", bytes(8 * n))
        for i in range(n):
            duration = end[i] - start[i]
            self_ns[i] += duration - self.inside_ns
            p = parent[i]
            if p >= 0:
                self_ns[p] -= duration + self.outside_ns
        inclusive = array("d", self_ns)
        # Children are recorded after their parent, so one backward pass
        # folds every subtree into its root.
        for i in range(n - 1, -1, -1):
            p = self.parent[i]
            if p >= 0:
                inclusive[p] += inclusive[i]
        stats = {name: FunctionStats(layer) for name, layer in zip(self.names, self.layers)}
        for i in range(n):
            s = stats[self.names[self.fid[i]]]
            s.calls += 1
            s.self_ns += self_ns[i]
            s.inclusive_ns += inclusive[i]
        return stats

    def write_spans(self, path: Path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(f"# wrapper cost ns: outside={self.outside_ns:.1f} inside={self.inside_ns:.1f}\n")
            out.write("span\tparent\top\tfunction\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t{names[self.fid[i]]}\t"
                          f"{self.start[i]}\t{self.end[i]}\n")
