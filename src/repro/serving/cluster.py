"""The serving cluster: virtual-clock event loop and SLO-aware scheduling.

:class:`Cluster` ties the layer together — admission queue, dynamic
batcher and worker fleet — under a discrete-event simulation.  Three
event kinds drive the clock:

* **arrival** — a request enters its workload's admission bucket; a
  full bucket seals a batch immediately;
* **timer** — the batcher's ``max_wait`` expires for a queued request,
  forcing its (possibly partial) batch out;
* **complete** — a worker finishes a batch and the dispatcher tries to
  start the next one.

Events at equal timestamps resolve in a fixed order (completions, then
arrivals, then timers, then by sequence number), so a load test is a
pure function of its inputs — no wall-clock reads, no thread timing,
identical output on every run.

Scheduling policies (``policy=``):

* ``"fifo"`` — batches start in formation order; the worker that has
  been free longest executes.
* ``"edf"`` — earliest deadline first: the pending batch whose tightest
  member deadline is soonest starts next (classic SLO-aware ordering —
  it sacrifices already-doomed stragglers last).
* ``"least-loaded"`` — FIFO batch order, but the batch goes to the
  worker with the least accumulated busy time, balancing a mixed fleet
  (e.g. V100 + T4) by measured speed rather than round-robin.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Optional

from repro.serving.batcher import Batch, DynamicBatcher
from repro.serving.queue import AdmissionQueue
from repro.serving.request import Request
from repro.serving.worker import Execution, ServiceTimeOracle, Worker

POLICIES = ("fifo", "edf", "least-loaded")

_COMPLETE, _ARRIVAL, _TIMER = 0, 1, 2


@dataclasses.dataclass
class ServingResult:
    """Everything one simulated load test produced.

    Attributes:
        requests: Every generated request, with lifecycle timestamps
            (dropped ones carry ``dropped=True`` and no latency).
        executions: Every batch execution, in dispatch order.
        workers: The fleet, with per-worker accounting.
        policy: Scheduling policy the test ran under.
        compiler: Name of the compiler the fleet served with.
        offered_duration: Virtual seconds of generated load.
        makespan: Virtual time the last batch completed (>= the last
            arrival; exceeds ``offered_duration`` when the fleet is
            still draining its backlog — the overload signature).
        queue_samples: (time, total queue depth) after every event.
        dropped: Requests rejected by admission control.
    """

    requests: list[Request]
    executions: list[Execution]
    workers: list[Worker]
    policy: str
    compiler: str
    offered_duration: float
    makespan: float
    queue_samples: list[tuple[float, int]]
    dropped: int

    @property
    def completed(self) -> list[Request]:
        """Requests that finished executing."""
        return [r for r in self.requests if r.completed is not None]


class Cluster:
    """A fleet of simulated GPU workers behind one batching front door.

    Args:
        workers: The fleet (see :func:`~repro.serving.worker.make_fleet`).
        batcher: Dynamic batching configuration.
        queue: Admission queue; a fresh unbounded one when omitted.
        policy: One of ``"fifo"``, ``"edf"``, ``"least-loaded"``.
    """

    def __init__(self, workers: list[Worker], batcher: DynamicBatcher,
                 queue: Optional[AdmissionQueue] = None,
                 policy: str = "fifo"):
        if not workers:
            raise ValueError("a cluster needs at least one worker")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; "
                             f"choices: {', '.join(POLICIES)}")
        self.workers = workers
        self.batcher = batcher
        self.queue = queue if queue is not None else AdmissionQueue()
        self.policy = policy

    @property
    def oracle(self) -> ServiceTimeOracle:
        """The fleet's shared service-time oracle."""
        return self.workers[0].oracle

    # -- scheduling decisions ---------------------------------------------------

    def _next_batch(self, pending: list[Batch]) -> Batch:
        """Pop the batch the policy starts next (pending is non-empty)."""
        if self.policy == "edf":
            index = min(range(len(pending)),
                        key=lambda i: (pending[i].earliest_deadline,
                                       pending[i].uid))
        else:  # fifo and least-loaded keep formation order
            index = 0
        return pending.pop(index)

    def _pick_worker(self, now: float) -> Optional[Worker]:
        """The idle worker the policy assigns work to (None if busy)."""
        idle = [w for w in self.workers if w.idle_at(now)]
        if not idle:
            return None
        if self.policy == "least-loaded":
            return min(idle, key=lambda w: (w.busy_seconds, w.uid))
        # Longest-free first: smallest busy_until, then stable by id.
        return min(idle, key=lambda w: (w.busy_until, w.uid))

    # -- simulation -------------------------------------------------------------

    def run(self, requests: list[Request],
            offered_duration: Optional[float] = None) -> ServingResult:
        """Simulate serving ``requests`` to completion.

        Args:
            requests: The arrival stream (any order; sorted internally).
            offered_duration: Nominal load duration for throughput math;
                defaults to the last arrival time.
        """
        heap: list[tuple[float, int, int, object]] = []
        ticket = 0

        def push(time: float, kind: int, payload) -> None:
            nonlocal ticket
            ticket += 1
            heapq.heappush(heap, (time, kind, ticket, payload))

        for request in sorted(requests,
                              key=lambda r: (r.arrival, r.seq)):
            push(request.arrival, _ARRIVAL, request)

        pending: list[Batch] = []
        executions: list[Execution] = []
        queue_samples: list[tuple[float, int]] = []
        # Requests sealed into batches that no worker has started yet —
        # admission control counts these, otherwise a fleet in overload
        # would hide its entire backlog inside pending batches and the
        # depth cap would never fire.
        backlog: dict[str, int] = {}

        def dispatch(now: float) -> None:
            while pending:
                worker = self._pick_worker(now)
                if worker is None:
                    return
                batch = self._next_batch(pending)
                backlog[batch.workload] = \
                    backlog.get(batch.workload, 0) - batch.size
                record = worker.execute(batch, now)
                executions.append(record)
                push(record.end, _COMPLETE, record)

        def seal(batch: Batch) -> None:
            pending.append(batch)
            backlog[batch.workload] = \
                backlog.get(batch.workload, 0) + batch.size

        while heap:
            now, kind, _, payload = heapq.heappop(heap)
            if kind == _ARRIVAL:
                request = payload
                if self.queue.push(
                        request,
                        extra_depth=backlog.get(request.workload, 0)):
                    batch = self.batcher.try_form(
                        self.queue, request.workload, now)
                    if batch is not None:
                        seal(batch)
                    else:
                        push(now + self.batcher.max_wait, _TIMER,
                             request.workload)
            elif kind == _TIMER:
                batch = self.batcher.try_form(self.queue, payload, now)
                if batch is not None:
                    seal(batch)
            # _COMPLETE only frees a worker; dispatch below reacts.
            dispatch(now)
            queue_samples.append((now, self.queue.depth()))

        makespan = max((e.end for e in executions), default=0.0)
        if offered_duration is None:
            offered_duration = max(
                (r.arrival for r in requests), default=0.0)
        return ServingResult(
            requests=sorted(requests, key=lambda r: r.seq),
            executions=executions,
            workers=self.workers,
            policy=self.policy,
            compiler=self.oracle.compiler.name,
            offered_duration=offered_duration,
            makespan=makespan,
            queue_samples=queue_samples,
            dropped=self.queue.dropped,
        )

    def __repr__(self) -> str:
        specs = ", ".join(w.spec.name for w in self.workers)
        return (f"Cluster(workers=[{specs}], policy={self.policy}, "
                f"batcher={self.batcher!r})")
