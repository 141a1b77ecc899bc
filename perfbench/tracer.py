"""Per-layer host-time attribution for one traced benchmark pass.

The tracer never edits the simulator's source. It wraps, from outside,
the public functions of every ``repro`` layer (a layer is a sub-package
of ``src/repro``; a few modules get a layer of their own so the
benchmark can see them separately), every event callback handed to the
scheduler, and every workload generator driven by an executor. Each
wrapped call is a span: name, start, end and the span that caused it.

A span's *self time* is its duration minus the part of it covered by
child spans, so the self times of all spans telescope exactly to the
summed duration of the top-level spans. The benchmark's own code opens
spans too (layer ``bench``), around each call it makes into a layer.
Time outside every span is *unattributed*; self times plus unattributed
time equal the traced wall time (the closure the benchmark reports).

Spans are aggregated as they close (per-layer self time, per-name
inclusive time and call count). The first ``keep_spans`` spans to close
are also kept in memory as raw records, each span's parent being the
innermost kept span that contains it, and can be written out in Chrome
trace format, viewable in Perfetto or ``chrome://tracing``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: modules that form a layer of their own; every other module maps to its
#: sub-package (``repro.core.engine`` -> ``core``)
_MODULE_LAYERS = {
    "repro.core.bloom": "core.bloom",
    "repro.mem.hierarchy": "mem.hierarchy",
    "repro.mem.cache": "mem.hierarchy",
    "repro.mem.tagstore": "mem.hierarchy",
    "repro.mem.timing": "mem.hierarchy",
    "repro.mem.wpq": "mem.wpq",
    "repro.mem.controller": "mem.wpq",
    "repro.mem.image": "mem.image",
}

#: sub-packages that are traced; the rest (analysis, explore, area) is
#: never reached by the benchmark's entry points
TRACED_PACKAGES = (
    "common", "core", "engine", "harness", "mem", "persist", "recovery",
    "runtime", "sim", "workloads",
)


def layer_of(module: str) -> str:
    """The layer a ``repro`` module belongs to ('' when untraced)."""
    if module in _MODULE_LAYERS:
        return _MODULE_LAYERS[module]
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in TRACED_PACKAGES:
        return parts[1]
    return ""


def _callable_module(fn) -> str:
    return getattr(fn, "__module__", None) or ""


class Tracer:
    """Span recorder with per-layer self-time aggregation."""

    def __init__(self, keep_spans: int = 50_000):
        self.keep_spans = keep_spans
        #: (name, start, end) of the first spans to close, plus every span
        #: the benchmark opens itself
        self.kept: List[Tuple[str, float, float]] = []
        # span name -> [self s, calls, inclusive s], shared by every wrapper
        # of that name (event callbacks get one wrapper per event)
        self._acc: Dict[str, list] = {}
        self._layer_of_name: Dict[str, str] = {}
        # Child time of each open span; the bottom entry sums the duration
        # of top-level spans.
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[object, str, object]] = []

    def _accumulator(self, name: str, layer: str) -> list:
        acc = self._acc.get(name)
        if acc is None:
            acc = self._acc[name] = [0.0, 0, 0.0]
            self._layer_of_name[name] = layer
        return acc

    # -- span primitive ------------------------------------------------------

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """Return ``fn`` wrapped so that each call is one span."""
        clock = time.perf_counter
        stack = self._stack
        acc = self._accumulator(name, layer)
        kept = self.kept
        keep = self.keep_spans

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                acc[0] += dur - stack.pop()
                acc[1] += 1
                acc[2] += dur
                stack[-1] += dur
                if len(kept) < keep:
                    kept.append((name, start, end))

        return traced

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A span opened by the benchmark's own code."""
        acc = self._accumulator(name, layer)
        stack = self._stack
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            dur = end - start
            acc[0] += dur - stack.pop()
            acc[1] += 1
            acc[2] += dur
            stack[-1] += dur
            self.kept.append((name, start, end))

    # -- aggregates ----------------------------------------------------------

    @property
    def top_level_s(self) -> float:
        """Summed duration of spans with no traced parent."""
        return self._stack[0]

    @property
    def self_s(self) -> Dict[str, float]:
        """Layer -> summed self time (s)."""
        out: Dict[str, float] = defaultdict(float)
        for name, acc in self._acc.items():
            out[self._layer_of_name[name]] += acc[0]
        return out

    @property
    def calls(self) -> Dict[str, int]:
        """Span name -> number of calls."""
        return {name: acc[1] for name, acc in self._acc.items()}

    @property
    def incl_s(self) -> Dict[str, float]:
        """Span name -> summed inclusive time (s)."""
        return {name: acc[2] for name, acc in self._acc.items()}

    @property
    def span_count(self) -> int:
        return sum(acc[1] for acc in self._acc.values())

    def self_total_s(self) -> float:
        return sum(acc[0] for acc in self._acc.values())

    # -- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the traced layers.

        Class methods are replaced on their class; module-level functions
        are replaced in their module and in every ``repro`` module that
        imported them by name. Scheduler callbacks and workload
        generators are wrapped as they are handed over.
        """
        modules = [
            (name, mod) for name, mod in list(sys.modules.items())
            if mod is not None and layer_of(name)
        ]
        replaced: Dict[int, Tuple[Callable, Callable]] = {}
        for mod_name, mod in modules:
            layer = layer_of(mod_name)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == mod_name:
                    self._wrap_class(value, layer)
                elif (
                    inspect.isfunction(value)
                    and value.__module__ == mod_name
                    and not inspect.isgeneratorfunction(value)
                ):
                    wrapped = self.wrap(value, f"{layer}:{value.__qualname__}", layer)
                    replaced[id(value)] = (value, functools.update_wrapper(wrapped, value))
        # Rebind module-level functions wherever they were imported by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        self._hook_scheduler()
        self._hook_spawn()

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or inspect.isgeneratorfunction(value)
            ):
                continue
            wrapped = self.wrap(value, f"{layer}:{cls.__qualname__}.{attr}", layer)
            self._patch(cls, attr, functools.update_wrapper(wrapped, value))

    def _hook_scheduler(self) -> None:
        """Each event callback becomes a span in the layer that defined it."""
        from repro.engine.scheduler import Scheduler

        tracer = self
        wrapped_at = Scheduler.at
        cache: Dict[str, Tuple[str, str]] = {}

        def at(sched, when, fn):
            module = _callable_module(fn)
            named = cache.get(module)
            if named is None:
                layer = layer_of(module) or "engine"
                named = cache[module] = (f"{layer}:event", layer)
            return wrapped_at(sched, when, tracer.wrap(fn, *named))

        functools.update_wrapper(at, wrapped_at)
        self._patch(Scheduler, "at", at)

    def _hook_spawn(self) -> None:
        """Workload generator steps become spans in the workloads layer."""
        from repro.sim.machine import Machine

        tracer = self
        wrapped_spawn = Machine.spawn

        class _TracedGenerator:
            __slots__ = ("send",)

            def __init__(self, gen, layer):
                self.send = tracer.wrap(gen.send, f"{layer}:generator.send", layer)

        def spawn(machine, gen_fn, core_id=None):
            layer = layer_of(_callable_module(gen_fn)) or "workloads"

            def traced_gen_fn(env):
                return _TracedGenerator(gen_fn(env), layer)

            return wrapped_spawn(machine, traced_gen_fn, core_id)

        functools.update_wrapper(spawn, wrapped_spawn)
        self._patch(Machine, "spawn", spawn)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as Chrome trace 'complete' events.

        Spans nest, so each one's parent is the innermost kept span that
        contains it; it is recovered here rather than tracked per call.
        """
        if not self.kept:
            return
        ordered = sorted(self.kept, key=lambda s: (s[1], -s[2]))
        origin = ordered[0][1]
        events = []
        open_spans: List[Tuple[int, float]] = []  # (index, end)
        for index, (name, start, end) in enumerate(ordered, 1):
            while open_spans and open_spans[-1][1] < end:
                open_spans.pop()
            parent = open_spans[-1][0] if open_spans else 0
            open_spans.append((index, end))
            events.append({
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
