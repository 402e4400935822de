"""Host-time tracing for the benchmark's traced runs.

Spans are recorded from outside the program: :meth:`Tracer.install`
wraps public functions of ``repro`` modules (at every module that
imported them by name) and restores the originals on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is changed.

Each wrapped call is one span.  A span's *self* time is its duration
minus the spans nested in it, so the self times of all layers plus
``unattributed`` add up to the traced wall time.  Garbage-collector
pauses, taken from ``gc.callbacks``, are a layer of their own: a pause
is subtracted from the span it interrupted.
"""

from __future__ import annotations

import collections
import functools
import gc
import sys
import time
from collections.abc import Callable
from typing import Any, Optional

perf_counter = time.perf_counter


def add_counts(total: dict, more: dict) -> dict:
    """Add ``more`` into ``total`` name by name; returns ``total``."""
    for name, value in more.items():
        total[name] = total.get(name, 0) + value
    return total


class Tracer:
    """Span timers plus counters, kept in memory for one traced sample."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.marks: dict[str, dict[str, float]] = {}
        self._marked: dict[str, float] = {}
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.inclusive_s: dict[str, float] = collections.defaultdict(float)
        self.counts: dict[str, int] = collections.defaultdict(int)
        self.top_s = 0.0  # time covered by outermost spans and GC pauses
        self._stack: list[list[float]] = []  # [child seconds] per span
        self._gc_start: Optional[float] = None
        self._restore: list[tuple[Any, str, Any, bool]] = []
        self._compile_depth = 0

    # -- spans ------------------------------------------------------------------

    def _close(self, layer: str, elapsed: float, children: float) -> None:
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.top_s += elapsed

    def wrap(self, layer: Any, fn: Callable, count: str = "") -> Callable:
        """``fn`` timed as a span of ``layer``, its calls counted under
        ``count`` when given.

        ``layer`` is a name, or a callable ``(args, before) -> name``
        whose ``before`` is ``layer.snapshot(args)`` taken at entry
        (used to split cache lookups by outcome).
        """
        tracer = self
        resolve = layer if callable(layer) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            before = resolve.snapshot(args) if resolve else None
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                name = resolve(args, before) if resolve else layer
                tracer._close(name, elapsed, frame[0])
        return wrapper

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        if self._gc_start is None:
            return
        pause = perf_counter() - self._gc_start
        self._gc_start = None
        self.self_s["python.gc_pause"] += pause
        self.counts[f"python.gc_collections.gen{info['generation']}"] += 1
        if self._stack:
            self._stack[-1][0] += pause
        else:
            self.top_s += pause

    # -- patching ---------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._restore.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, value)

    def patch_function(self, original: Callable, layer: Any,
                       count: str = "") -> None:
        """Replace ``original`` in every loaded ``repro`` module that
        binds it, so calls through any import site are timed."""
        wrapped = self.wrap(layer, original, count)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def patch_method(self, cls: type, attr: str, layer: Any) -> None:
        self._set(cls, attr, self.wrap(layer, getattr(cls, attr)))

    def mark(self, name: str) -> None:
        """Record the self time per layer since the previous mark, as
        the breakdown of the pass ``name`` that just ended."""
        if not self.enabled:
            return
        self.marks[name] = {layer: seconds - self._marked.get(layer, 0.0)
                            for layer, seconds in self.self_s.items()
                            if seconds != self._marked.get(layer, 0.0)}
        self._marked = dict(self.self_s)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on (a no-op
        when the tracer is disabled)."""
        if not self.enabled:
            return
        from repro.compilers import (TensorFlowCompiler, TensorRTCompiler,
                                     XLACompiler)
        from repro.core import AStitchCompiler
        from repro.gpu.costmodel import KernelCostModel
        from repro.ir import fingerprint, passes
        from repro.runtime import plan
        from repro.runtime.compile_cache import CompileCache
        from repro.runtime.compile_service import CompileService
        from repro.runtime.engine import Engine
        from repro.serving import loadgen, metrics
        from repro.serving.cluster import Cluster
        from repro.tuning.tuner import GroupTuner
        from repro.workloads import registry

        self.patch_function(registry.build, "workloads.build")
        self.patch_function(fingerprint.graph_fingerprint, "ir.fingerprint")
        self.patch_method(CompileService, "key_for", "compile_service.key")
        self.patch_method(CompileCache, "get", _by_outcome("compile_cache"))
        self.patch_method(CompileCache, "put", "compile_cache.put")
        for cls in (TensorFlowCompiler, XLACompiler, TensorRTCompiler,
                    AStitchCompiler):
            self._patch_compile(cls, "compile", "")
            self._patch_compile(cls, "compile_optimized", "-opt")
        self.patch_function(passes.optimize, "ir.simplify",
                            count="ir.simplify_runs")
        rewrites = passes.STANDARD_PASSES
        self._set(passes, "STANDARD_PASSES", tuple(
            (name, self._rewrite(name, fn, index == len(rewrites) - 1))
            for index, (name, fn) in enumerate(rewrites)))
        self.patch_method(GroupTuner, "tune_signatures", "tuning.tune")
        self.patch_function(plan.plan_key, "plan.key")
        self.patch_method(plan.PlanCache, "get", _by_outcome("plan"))
        self.patch_method(plan.PlanCache, "put", "plan.put")
        self.patch_method(Engine, "build_plan", "plan.build")
        self.patch_method(KernelCostModel, "price_batch", "gpu.price_batch")
        self.patch_function(loadgen.mixed_arrivals, "serving.arrivals")
        self.patch_method(Cluster, "run", "serving.cluster_run")
        self.patch_function(metrics.report, "serving.report")
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._restore:
            owner, attr, value, own = self._restore.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)  # inherited: unshadow the base

    def _patch_compile(self, cls: type, attr: str, suffix: str) -> None:
        """A cold compile: the pipeline layer's self time, plus the
        inclusive time per compiler configuration and per pass, the
        latter from the fresh module's pass reports.  Only outermost
        calls count: ``compile_optimized`` may call ``compile``."""
        original = getattr(cls, attr)
        timed = self.wrap("pipeline.self", original)
        tracer = self

        @functools.wraps(original)
        def wrapper(compiler, *args, **kwargs):
            tracer._compile_depth += 1
            start = perf_counter()
            try:
                module = timed(compiler, *args, **kwargs)
            finally:
                tracer._compile_depth -= 1
            if tracer._compile_depth == 0:
                label = f"compile.miss_s.{compiler.name}{suffix}"
                tracer.inclusive_s[label] += perf_counter() - start
                for report in getattr(module, "pass_reports", ()):
                    tracer.inclusive_s[f"pipeline.{report.pass_name}_s"] \
                        += report.seconds
            return module
        self._set(cls, attr, wrapper)

    def _rewrite(self, name: str, fn: Callable, last: bool) -> Callable:
        """One simplification rewrite: its inclusive time (a breakdown
        of ``ir.simplify``, not a span of its own) and its rewrite count.
        The fixpoint runs the rewrites in a fixed order, so the last one
        closes an iteration, which fired if any of its rewrites did."""
        tracer = self
        fired = [0]

        @functools.wraps(fn)
        def wrapper(graph):
            start = perf_counter()
            result = fn(graph)
            tracer.inclusive_s[f"ir.rewrite.{name}_s"] += \
                perf_counter() - start
            tracer.counts["ir.simplify_rewrites"] += result[1]
            fired[0] += result[1]
            if last:
                tracer.counts["ir.simplify_iterations"] += 1
                tracer.counts["ir.simplify_fired_iterations"] += \
                    fired[0] > 0
                fired[0] = 0
            return result
        return wrapper


def _by_outcome(prefix: str):
    """Layer resolver splitting a two-tier cache ``get`` by which tier
    answered, read off the cache's own counters."""
    def resolve(args, before):
        stats = args[0].stats
        if stats.hits != before[0]:
            return f"{prefix}.mem_hit"
        if stats.disk_hits != before[1]:
            return f"{prefix}.disk_hit"
        return f"{prefix}.miss"
    resolve.snapshot = lambda args: (args[0].stats.hits,
                                     args[0].stats.disk_hits)
    return resolve
