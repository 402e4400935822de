"""Parallel, deduplicating compilation service.

The front door to every compilation in this repository.  On top of the
content-addressed :class:`~repro.runtime.compile_cache.CompileCache` it
adds:

* a ``concurrent.futures`` worker pool so many ``(graph, compiler,
  spec)`` requests compile concurrently (cold benchmark sweeps submit
  all workloads × all compilers at once);
* single-flight coalescing — concurrent requests for the same key share
  one in-flight compilation instead of racing to duplicate it;
* ``warmup(workloads, compilers)`` to pre-populate the cache (and, when
  ``REPRO_COMPILE_CACHE_DIR`` is set, the persistent tier) before
  serving traffic.

``Session``, ``JitCache`` and ``compare_compilers`` all route through
the process-wide :func:`default_service`, so a workload compiled once —
by anyone — is free for everyone after.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import threading
import time
from collections.abc import Iterable, Sequence
from typing import Optional, Union

from repro.compilers.base import CompiledModule, Compiler
from repro.gpu.spec import GPUSpec, V100
from repro.ir.fingerprint import graph_fingerprint
from repro.ir.graph import Graph
from repro.runtime.compile_cache import (
    CacheKey,
    CompileCache,
    compiler_fingerprint,
    default_cache,
)

WORKERS_ENV = "REPRO_COMPILE_WORKERS"


def _default_workers() -> int:
    value = os.environ.get(WORKERS_ENV)
    if value is not None:
        return max(0, int(value))
    return min(8, os.cpu_count() or 1)


@dataclasses.dataclass
class ServiceStats:
    """Request accounting on top of the cache's own counters.

    Attributes:
        requests: Compile requests submitted.
        compiled: Requests that ran a compiler (cold path).
        coalesced: Requests attached to an already in-flight
            compilation of the same key (single-flight dedup).
        failed: Compilations that raised.
        pass_seconds: Cumulative wall time per pipeline pass across
            every cold compilation this service ran (pass name ->
            seconds); empty until a pipeline compiler compiles cold.
        pass_runs: Executions per pipeline pass, same keys.
    """

    requests: int = 0
    compiled: int = 0
    coalesced: int = 0
    failed: int = 0
    pass_seconds: dict[str, float] = dataclasses.field(
        default_factory=dict)
    pass_runs: dict[str, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class WarmupReport:
    """Outcome of one :meth:`CompileService.warmup` sweep.

    Attributes:
        pairs: (graph, compiler) pairs requested.
        compiled: Pairs that compiled cold.
        served_from_cache: Pairs that were already cached.
        failures: ``(graph name, compiler name, error)`` for pairs the
            compiler rejected (e.g. TensorRT on a training graph).
        seconds: Wall-clock time of the sweep.
    """

    pairs: int = 0
    compiled: int = 0
    served_from_cache: int = 0
    failures: list[tuple[str, str, str]] = dataclasses.field(
        default_factory=list)
    seconds: float = 0.0


class CompileService:
    """Shared compilation front-end: cache + worker pool + single-flight.

    Args:
        cache: Result store; defaults to the process-wide cache.
        max_workers: Worker-thread count; ``0`` compiles inline on the
            calling thread (deterministic, useful for timing).  Defaults
            to ``REPRO_COMPILE_WORKERS`` or ``min(8, cpu_count)``.
    """

    def __init__(self, cache: Optional[CompileCache] = None,
                 max_workers: Optional[int] = None):
        self.cache = cache if cache is not None else default_cache()
        self.max_workers = (_default_workers() if max_workers is None
                            else max_workers)
        self.stats = ServiceStats()
        self._inflight: dict[CacheKey, concurrent.futures.Future] = {}
        self._lock = threading.Lock()
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None

    # -- core -------------------------------------------------------------------

    def key_for(self, graph: Graph, compiler: Compiler,
                spec: GPUSpec = V100, optimize: bool = False) -> CacheKey:
        """The cache key a request addresses."""
        return CacheKey(compiler=compiler_fingerprint(compiler),
                        graph=graph_fingerprint(graph),
                        spec=spec, optimize=optimize,
                        pipeline=compiler.pipeline_fingerprint(optimize))

    def submit(self, graph: Graph, compiler: Compiler,
               spec: GPUSpec = V100, *,
               optimize: bool = False) -> concurrent.futures.Future:
        """Request a compilation; returns a future of the module.

        A cached result resolves immediately; a key already being
        compiled returns the in-flight future (single-flight); otherwise
        the compilation is dispatched to the worker pool (or run inline
        when ``max_workers == 0``).  Failed compilations are never
        cached — the exception propagates to every coalesced waiter.
        """
        key = self.key_for(graph, compiler, spec, optimize)
        run_inline = None
        with self._lock:
            self.stats.requests += 1
            module = self.cache.get(key)
            if module is not None:
                future: concurrent.futures.Future = \
                    concurrent.futures.Future()
                future.set_result(module)
                return future
            pending = self._inflight.get(key)
            if pending is not None:
                self.stats.coalesced += 1
                return pending
            self.stats.compiled += 1
            if self.max_workers == 0:
                future = concurrent.futures.Future()
                run_inline = future
            else:
                future = self._executor().submit(
                    self._compile, key, graph, compiler, spec, optimize)
            self._inflight[key] = future
        # Registered outside the lock: a future that is already done
        # runs the callback on this thread, and _finish re-locks.
        future.add_done_callback(lambda f, key=key: self._finish(key, f))
        if run_inline is not None:
            try:
                run_inline.set_result(
                    self._compile(key, graph, compiler, spec, optimize))
            except BaseException as error:  # noqa: BLE001 — relayed
                run_inline.set_exception(error)
        return future

    def _compile(self, key: CacheKey, graph: Graph, compiler: Compiler,
                 spec: GPUSpec, optimize: bool) -> CompiledModule:
        if optimize:
            module = compiler.compile_optimized(graph, spec)
        else:
            module = compiler.compile(graph, spec)
        self._record_pass_reports(module)
        self.cache.put(key, module)
        return module

    def _record_pass_reports(self, module: CompiledModule) -> None:
        reports = getattr(module, "pass_reports", None)
        if not reports:
            return
        with self._lock:
            for report in reports:
                self.stats.pass_seconds[report.pass_name] = \
                    self.stats.pass_seconds.get(report.pass_name, 0.0) \
                    + report.seconds
                self.stats.pass_runs[report.pass_name] = \
                    self.stats.pass_runs.get(report.pass_name, 0) + 1

    def _finish(self, key: CacheKey,
                future: concurrent.futures.Future) -> None:
        with self._lock:
            if self._inflight.get(key) is future:
                del self._inflight[key]
            if future.exception() is not None:
                self.stats.failed += 1

    def _executor(self) -> concurrent.futures.ThreadPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-compile")
        return self._pool

    def run_parallel(self, thunks: Sequence) -> list:
        """Run independent callables on the worker pool; results in order.

        The escape hatches keep this safe to call from anywhere: inline
        when the service is configured synchronous (``max_workers == 0``),
        when there is nothing to fan out, or when the caller *is* a
        worker thread (a compilation tuning its schedule groups must not
        wait on the pool it occupies — that deadlocks a full pool).
        """
        if (self.max_workers == 0 or len(thunks) <= 1
                or threading.current_thread().name.startswith(
                    "repro-compile")):
            return [thunk() for thunk in thunks]
        futures = [self._executor().submit(thunk) for thunk in thunks]
        return [future.result() for future in futures]

    # -- convenience ------------------------------------------------------------

    def compile(self, graph: Graph, compiler: Compiler,
                spec: GPUSpec = V100, *,
                optimize: bool = False) -> CompiledModule:
        """Blocking compile-through-cache (the ``Session`` hot path)."""
        return self.submit(graph, compiler, spec,
                           optimize=optimize).result()

    def compile_many(
            self,
            requests: Sequence[tuple[Graph, Compiler]],
            spec: GPUSpec = V100, *,
            optimize: bool = False) -> list[Optional[CompiledModule]]:
        """Fan out many requests; one ``None`` per rejected compilation."""
        futures = [self.submit(graph, compiler, spec, optimize=optimize)
                   for graph, compiler in requests]
        results: list[Optional[CompiledModule]] = []
        for future in futures:
            try:
                results.append(future.result())
            except RuntimeError:
                results.append(None)
        return results

    def warmup(self,
               workloads: Optional[Iterable[Union[str, Graph]]] = None,
               compilers: Optional[Sequence[Compiler]] = None,
               spec: GPUSpec = V100, *, training: bool = False,
               optimize: bool = False) -> WarmupReport:
        """Pre-compile ``workloads`` × ``compilers`` in parallel.

        Args:
            workloads: Registry names and/or already-built graphs;
                defaults to every registered workload.
            compilers: Strategies to warm; defaults to the Fig 11
                inference line-up (TF, XLA, TensorRT, AStitch).
            spec: Target device.
            training: Build the training variants of named workloads
                (names without one are skipped).
            optimize: Warm the optimized-pipeline variants instead.
        """
        from repro.workloads import registry
        started = time.perf_counter()
        graphs: list[Graph] = []
        report = WarmupReport()
        for item in (workloads if workloads is not None
                     else registry.WORKLOADS):
            if isinstance(item, Graph):
                graphs.append(item)
                continue
            spec_entry = registry.WORKLOADS[item]
            if training:
                if spec_entry.training is None:
                    continue
                graphs.append(spec_entry.training())
            else:
                graphs.append(spec_entry.inference())
        if compilers is None:
            from repro.compilers import (TensorFlowCompiler,
                                         TensorRTCompiler, XLACompiler)
            from repro.core import AStitchCompiler
            compilers = [TensorFlowCompiler(), XLACompiler(),
                         TensorRTCompiler(), AStitchCompiler()]

        dispatched_before = self.stats.compiled
        futures = []
        for graph in graphs:
            for compiler in compilers:
                futures.append(
                    (graph, compiler,
                     self.submit(graph, compiler, spec,
                                 optimize=optimize)))
        for graph, compiler, future in futures:
            report.pairs += 1
            try:
                future.result()
            except RuntimeError as error:
                report.failures.append(
                    (graph.name, compiler.name, str(error)))
        dispatched = self.stats.compiled - dispatched_before
        report.compiled = dispatched - len(report.failures)
        report.served_from_cache = report.pairs - dispatched
        report.seconds = time.perf_counter() - started
        return report

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool (the cache keeps its contents)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None

    def __repr__(self) -> str:
        return (f"CompileService(workers={self.max_workers}, "
                f"requests={self.stats.requests}, "
                f"compiled={self.stats.compiled}, "
                f"coalesced={self.stats.coalesced})")


# -- process-wide default ---------------------------------------------------------

_default_service: Optional[CompileService] = None
_service_lock = threading.Lock()


def default_service() -> CompileService:
    """The process-wide service (lazy; shares :func:`default_cache`)."""
    global _default_service
    with _service_lock:
        if _default_service is None:
            _default_service = CompileService()
        return _default_service


def set_default_service(service: Optional[CompileService]) -> None:
    """Replace the process-wide service (``None`` resets to lazy
    re-creation — used by tests to isolate themselves)."""
    global _default_service
    with _service_lock:
        _default_service = service
