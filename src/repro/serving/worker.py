"""Simulated GPU workers and the batch service-time oracle.

A worker is one GPU in the fleet: it owns a :class:`~repro.gpu.spec.
GPUSpec` and a virtual clock (``busy_until``).  Executing a batch
advances that clock by the *priced* step time of the batch's graph —
the same engine pricing every benchmark in this repository uses — so
the serving simulation inherits the whole cost model: a T4 worker is
genuinely slower than a V100 worker, and an AStitch fleet genuinely
faster than an XLA fleet, for exactly the per-kernel reasons the paper
measures.

:class:`ServiceTimeOracle` memoizes the priced time per (workload,
bucket, device, compiler).  The first lookup builds the batched graph
and compiles it through the shared
:class:`~repro.runtime.compile_service.CompileService`; every later
lookup — including from other workers and other load tests in the same
process — is a cache hit.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.compilers.base import Compiler
from repro.gpu.spec import GPUSpec
from repro.runtime.engine import Engine
from repro.serving.batcher import Batch


class ServiceTimeOracle:
    """Priced execution seconds per (workload, bucket, device, compiler).

    Pricing rides the execution-plan layer: a fresh oracle asking for a
    (workload, bucket, device) another oracle already priced — a later
    load test, a capacity search probe — hits the shared
    :class:`~repro.runtime.plan.PlanCache` instead of re-walking the
    cost model.  Devices are keyed by their full spec value, so two
    specs that share a name but differ in any field never share a time.

    Args:
        compiler: Compilation strategy the fleet runs.
        service: Compile service to route through; defaults to the
            process-wide shared one.
        plan_cache: Plan cache the oracle's engines share; defaults to
            the process-wide one.
    """

    def __init__(self, compiler: Compiler, service=None, plan_cache=None):
        if service is None:
            from repro.runtime.compile_service import default_service
            service = default_service()
        if plan_cache is None:
            from repro.runtime.plan import default_plan_cache
            plan_cache = default_plan_cache()
        self.compiler = compiler
        self.service = service
        self.plan_cache = plan_cache
        self._times: dict[tuple[str, int, GPUSpec], float] = {}
        self._engines: dict[GPUSpec, Engine] = {}

    def _engine(self, spec: GPUSpec) -> Engine:
        engine = self._engines.get(spec)
        if engine is None:
            engine = Engine(spec, plan_cache=self.plan_cache)
            self._engines[spec] = engine
        return engine

    def service_time(self, workload: str, bucket: int,
                     spec: GPUSpec) -> float:
        """Priced seconds to execute one ``bucket``-sized batch."""
        key = (workload, bucket, spec)
        cached = self._times.get(key)
        if cached is None:
            from repro.workloads import build_cached
            graph = build_cached(workload, batch=bucket)
            module = self.service.compile(graph, self.compiler, spec)
            cached = self._engine(spec).plan(module).total_time
            self._times[key] = cached
        return cached

    def warm(self, workloads: list[str], buckets: list[int],
             specs: list[GPUSpec]) -> None:
        """Pre-price every (workload, bucket, device) combination."""
        for workload in workloads:
            for bucket in buckets:
                for spec in specs:
                    self.service_time(workload, bucket, spec)

    def __repr__(self) -> str:
        return (f"ServiceTimeOracle(compiler={self.compiler.name}, "
                f"entries={len(self._times)})")


@dataclasses.dataclass
class Execution:
    """One batch execution on one worker (trace/utilization record).

    Attributes:
        batch: The executed batch.
        worker: Executing worker id.
        start: Virtual start time.
        end: Virtual completion time.
    """

    batch: Batch
    worker: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Execution seconds on the device."""
        return self.end - self.start


class Worker:
    """One simulated GPU advancing a private virtual clock.

    Args:
        uid: Worker id (trace track number).
        spec: Device model this worker prices batches on.
        oracle: Shared service-time oracle for the fleet's compiler.
    """

    def __init__(self, uid: int, spec: GPUSpec,
                 oracle: ServiceTimeOracle):
        self.uid = uid
        self.spec = spec
        self.oracle = oracle
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        self.executions: list[Execution] = []
        # Per-batch lookups skip the oracle: its key hashes every field
        # of the spec, and this worker's spec never changes.
        self._durations: dict[tuple[str, int], float] = {}

    def idle_at(self, now: float) -> bool:
        """True when the worker can start a batch at ``now``."""
        return self.busy_until <= now

    def execute(self, batch: Batch, now: float) -> Execution:
        """Run ``batch`` starting no earlier than ``now``.

        Stamps every member request's ``started``/``completed`` and
        returns the execution record.  The caller is responsible for
        only dispatching to an idle worker.
        """
        start = max(now, self.busy_until)
        key = (batch.workload, batch.bucket)
        duration = self._durations.get(key)
        if duration is None:
            duration = self.oracle.service_time(batch.workload,
                                                batch.bucket, self.spec)
            self._durations[key] = duration
        end = start + duration
        self.busy_until = end
        self.busy_seconds += duration
        for request in batch.requests:
            request.started = start
            request.completed = end
        record = Execution(batch=batch, worker=self.uid,
                           start=start, end=end)
        self.executions.append(record)
        return record

    def utilization(self, horizon: float) -> float:
        """Busy fraction of the virtual interval [0, horizon]."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / horizon)

    def __repr__(self) -> str:
        return (f"Worker(#{self.uid} {self.spec.name}, "
                f"batches={len(self.executions)}, "
                f"busy={self.busy_seconds:.3f}s)")


def make_fleet(specs: list[GPUSpec],
               oracle: ServiceTimeOracle) -> list[Worker]:
    """Build one worker per spec (mixed fleets are fine: [V100, T4])."""
    return [Worker(uid, spec, oracle)
            for uid, spec in enumerate(specs)]
