"""Module execution pricing.

One iteration's time is the sum of three components (the paper does not
explore multi-stream execution, Sec 6.1.2):

* **MEM** — memory-intensive kernel durations from the cost model;
* **compute** — compute-intensive library-call durations (roofline);
* **OVERHEAD** — non-computation: kernel-launch latency, framework
  scheduling (full executor cost per op in framework mode, a small
  dispatch cost in compiled mode), and CUDA memcpy/memset activity.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.codegen.builder import kernel_cost_inputs
from repro.codegen.kernel import Kernel, LibraryCall, MemcpyCall
from repro.compilers.base import CompiledModule
from repro.gpu.costmodel import cost_model_for
from repro.gpu.counters import PerfCounters, aggregate
from repro.gpu.spec import GPUSpec, V100

# Per-step dispatch cost of a compiled engine (stream enqueue, no full
# framework executor round trip).
COMPILED_DISPATCH_LATENCY = 1.5e-6
# Launch latency that can never be hidden (driver serialization floor).
LAUNCH_FLOOR = 1.0e-6


@dataclasses.dataclass(frozen=True)
class EngineConfig:
    """The engine constants that shape a priced timeline.

    Frozen and hashable by value: the configuration is part of every
    execution plan's cache key, so overriding a constant (tests
    monkeypatch :data:`COMPILED_DISPATCH_LATENCY`) can never be served
    a plan priced under the old value.

    Attributes:
        compiled_dispatch_latency: Per-step dispatch cost of a compiled
            engine.
        launch_floor: Launch latency that can never be hidden.
    """

    compiled_dispatch_latency: float
    launch_floor: float

    @classmethod
    def current(cls) -> "EngineConfig":
        """Snapshot the module-level constants (honours monkeypatching)."""
        return cls(compiled_dispatch_latency=COMPILED_DISPATCH_LATENCY,
                   launch_floor=LAUNCH_FLOOR)


def _visible_launch_overhead(launch: float, duration: float,
                             floor: float = LAUNCH_FLOOR) -> float:
    """Launch cost visible on the timeline.

    CUDA streams pipeline: while a kernel runs, the host enqueues the
    next launch, so a kernel longer than the launch latency hides the
    following launch entirely.  Only kernels shorter than the launch
    latency leave the GPU idle — which is exactly why launch overhead
    dominates workloads made of thousands of microsecond kernels
    (Transformer) but not large-batch models (BERT).
    """
    return max(floor, launch - duration)


@dataclasses.dataclass
class StepProfile:
    """Timing record for one executed step.

    Attributes:
        name: Step name.
        category: "mem" (memory-intensive kernel), "compute" (library
            call) or "memcpy".
        duration: Device-side execution seconds.
        overhead: Non-computation seconds attributed to this step
            (launch + dispatch; the whole cost for memcpys).
        counters: nvprof counters (memory-intensive kernels only).
    """

    name: str
    category: str
    duration: float
    overhead: float
    counters: Optional[PerfCounters] = None


@dataclasses.dataclass(frozen=True)
class Profile:
    """The immutable priced timeline of one iteration.

    This is also the execution plan the
    :class:`~repro.runtime.plan.PlanCache` stores: one object per
    (module, spec, config), shared by every engine, session and serving
    oracle that prices the same module.

    Attributes:
        module_name: Compiler name that produced the module.
        graph_name: Source graph's display name.
        steps: Per-step timing records, in execution order.
    """

    module_name: str
    graph_name: str
    steps: tuple[StepProfile, ...]

    @property
    def mem_time(self) -> float:
        return sum(s.duration for s in self.steps if s.category == "mem")

    @property
    def compute_time(self) -> float:
        return sum(s.duration for s in self.steps
                   if s.category == "compute")

    @property
    def overhead_time(self) -> float:
        return sum(s.overhead for s in self.steps)

    @property
    def total_time(self) -> float:
        return self.mem_time + self.compute_time + self.overhead_time

    @property
    def mem_kernel_count(self) -> int:
        return sum(1 for s in self.steps if s.category == "mem")

    @property
    def compute_kernel_count(self) -> int:
        return sum(1 for s in self.steps if s.category == "compute")

    @property
    def memcpy_count(self) -> int:
        return sum(1 for s in self.steps if s.category == "memcpy")

    def mem_counters(self) -> list[PerfCounters]:
        return [s.counters for s in self.steps
                if s.category == "mem" and s.counters is not None]

    def aggregate_mem_counters(self) -> PerfCounters:
        return aggregate(self.mem_counters())


_DEFAULT_PLAN_CACHE = object()  # sentinel: resolve the process-wide cache


class Engine:
    """Prices compiled modules on a device model.

    Pricing is plan-based: :meth:`plan` prices a module once into an
    immutable :class:`Profile` keyed by (module pricing signature, graph
    fingerprint, spec, engine config) in a shared
    :class:`~repro.runtime.plan.PlanCache`; :meth:`run` returns the
    cached timeline.  The serving hot loops and the figure harnesses
    therefore pay the roofline arithmetic O(unique (module, spec,
    config)) times, not O(requests).  :meth:`price_profile` is the
    scalar reference the plan path must equal.

    Args:
        spec: Device model to price on.
        config: Engine constants override; snapshots the module-level
            constants when omitted.
        plan_cache: Execution-plan store.  Defaults to the process-wide
            cache (:func:`~repro.runtime.plan.default_plan_cache`);
            pass ``None`` to disable plan caching — every ``run``/
            ``plan`` then re-prices.
    """

    def __init__(self, spec: GPUSpec = V100,
                 config: Optional[EngineConfig] = None,
                 plan_cache=_DEFAULT_PLAN_CACHE):
        self.spec = spec
        self.cost_model = cost_model_for(spec)
        self.config = config if config is not None else EngineConfig.current()
        if plan_cache is _DEFAULT_PLAN_CACHE:
            from repro.runtime.plan import default_plan_cache
            plan_cache = default_plan_cache()
        self.plan_cache = plan_cache

    def dispatch_overhead(self, module: CompiledModule) -> float:
        """Per-step non-launch overhead for this module's execution mode."""
        if module.framework_mode:
            return self.spec.framework_op_latency
        return self.config.compiled_dispatch_latency

    def launch_costs(self, module: CompiledModule) -> tuple[float, float]:
        """(launch latency, per-step dispatch) for this module's mode."""
        dispatch = self.dispatch_overhead(module)
        launch = self.spec.kernel_launch_latency
        if module.graph_replay:
            # Captured-graph replay: one launch for the whole graph;
            # per-node cost is a small hardware dispatch.
            from repro.compilers.cudagraph import GRAPH_REPLAY_DISPATCH
            launch = 0.0
            dispatch = GRAPH_REPLAY_DISPATCH
        return launch, dispatch

    def price_step(self, step, launch: float,
                   dispatch: float) -> StepProfile:
        """Price a single step under the given launch/dispatch costs."""
        if isinstance(step, Kernel):
            counters = self.cost_model.price(kernel_cost_inputs(step))
            return self._kernel_profile(step, counters, launch, dispatch)
        if isinstance(step, LibraryCall):
            duration = self.cost_model.library_kernel_time(
                step.flops(), step.bytes_moved())
            return StepProfile(
                name=step.name,
                category="compute",
                duration=duration,
                overhead=_visible_launch_overhead(
                    launch, duration, self.config.launch_floor)
                + dispatch,
            )
        if isinstance(step, MemcpyCall):
            transfer = step.nbytes / (self.spec.dram_bandwidth / 4)
            return StepProfile(
                name=step.name,
                category="memcpy",
                duration=0.0,
                overhead=self.spec.memcpy_latency + transfer,
            )
        raise TypeError(f"unknown step type {type(step)}")

    def _kernel_profile(self, step: Kernel, counters: PerfCounters,
                        launch: float, dispatch: float) -> StepProfile:
        return StepProfile(
            name=step.name,
            category="mem",
            duration=counters.duration,
            overhead=_visible_launch_overhead(
                launch, counters.duration, self.config.launch_floor)
            + dispatch,
            counters=counters,
        )

    def plan(self, module: CompiledModule) -> Profile:
        """The priced timeline of ``module`` (priced on first use).

        Cache hits — including across engines, sessions, serving
        oracles, and (with ``REPRO_COMPILE_CACHE_DIR``) process runs —
        return the stored immutable profile without touching the cost
        model.
        """
        from repro.runtime.plan import plan_key
        cache = self.plan_cache
        if cache is None:
            return self.build_plan(module)
        key = plan_key(module, self.spec, self.config)
        plan = cache.get(key)
        if plan is None:
            plan = self.build_plan(module)
            cache.put(key, plan)
        return plan

    def build_plan(self, module: CompiledModule) -> Profile:
        """Price every step of one iteration into an immutable profile.

        Memory-intensive kernels are priced through the cost model's
        vectorized batch path — one NumPy pass over the whole module —
        which is bit-identical to the scalar per-step path.
        """
        launch, dispatch = self.launch_costs(module)
        kernel_steps = [s for s in module.steps if isinstance(s, Kernel)]
        priced = iter(self.cost_model.price_batch(
            [kernel_cost_inputs(k) for k in kernel_steps]))
        steps = []
        for step in module.steps:
            if isinstance(step, Kernel):
                steps.append(self._kernel_profile(step, next(priced),
                                                  launch, dispatch))
            else:
                steps.append(self.price_step(step, launch, dispatch))
        return Profile(module.compiler_name, module.graph.name,
                       tuple(steps))

    def run(self, module: CompiledModule) -> Profile:
        """Price every step of one iteration (served from the plan
        cache)."""
        return self.plan(module)

    def price_profile(self, module: CompiledModule) -> Profile:
        """The reference slow path: scalar per-step pricing, no plans.

        Kept as the oracle the plan path is checked against — tests,
        ``repro bench`` and the benchmark require equal output.
        """
        launch, dispatch = self.launch_costs(module)
        steps = tuple(self.price_step(step, launch, dispatch)
                      for step in module.steps)
        return Profile(module.compiler_name, module.graph.name, steps)
