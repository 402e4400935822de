"""Execution plans and the plan cache.

A module's priced timeline is a pure function of three things: the
module's pricing-relevant content (its steps' launch configurations,
traffic and instruction counts), the device spec, and the engine
configuration.  This module makes that purity pay: the
:class:`~repro.runtime.engine.Engine` prices a module once into an
immutable :class:`~repro.runtime.engine.Profile` — the module's
*execution plan*.  Every later request — from any engine, session,
serving oracle or figure harness in the process — is a cache hit that
returns that same object.  The serving capacity search, which runs
dozens of load tests over the same (workload, bucket, spec) modules,
goes from O(requests x steps) pricing work to O(unique modules).

The cache key never trusts object identity:

* the **module signature** digests every step's cost-model inputs
  (:func:`~repro.codegen.builder.kernel_cost_inputs` per kernel,
  flops/bytes per library call, bytes per memcpy) plus the execution
  mode, so two structurally identical modules share one plan and any
  pricing-relevant difference cannot alias;
* the **spec** and **engine config** participate as full frozen
  dataclass values — changing a single ``GPUSpec`` field or overriding
  ``COMPILED_DISPATCH_LATENCY`` is a guaranteed miss.

The store is the :class:`~repro.tiered_cache.TieredCache` the compile
cache of :mod:`repro.runtime.compile_cache` also uses: a bounded
in-memory LRU with hit/miss/eviction counters, and — when
``REPRO_COMPILE_CACHE_DIR`` is set — pickled plans next to the persisted
compiled modules, so a warm process leaves behind both the artifact and
its price.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from typing import Optional

from repro.codegen.builder import kernel_cost_inputs
from repro.codegen.kernel import Kernel, LibraryCall, MemcpyCall
from repro.compilers.base import CompiledModule
from repro.gpu.spec import GPUSpec
from repro.ir.fingerprint import graph_fingerprint
from repro.runtime.engine import EngineConfig, Profile
from repro.tiered_cache import TieredCache

# Bump on any change to the plan payload, the signature encoding or the
# key composition; invalidates every persisted plan at once.  It is
# folded into every module pricing signature.  A payload whose class no
# longer exists fails to unpickle and is a miss without a bump.
PLAN_FORMAT_VERSION = 2

# In-memory entry bound: a plan is a few KB of floats per step; even the
# 8k-step Transformer plans keep hundreds of entries comfortable.
DEFAULT_CAPACITY = 512


def module_pricing_signature(module: CompiledModule) -> str:
    """Content digest of everything pricing reads from a module.

    Covers the execution mode flags, the codegen tag (which tuning
    configuration decided the launch configs — a tuned and an untuned
    module with coincidentally equal step lists must not share a plan)
    and, per step, the cost-model inputs: a kernel's
    :class:`~repro.gpu.costmodel.KernelCostInputs`, a library call's
    flops/bytes, a memcpy's size.  Memoized on the module object
    (dropped on pickling) — the walk is O(steps) once.
    """
    cached = module.__dict__.get("_pricing_signature")
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(
        f"plan-sig-v{PLAN_FORMAT_VERSION}|{module.compiler_name}"
        f"|{module.framework_mode}|{module.graph_replay}"
        f"|{getattr(module, 'codegen_tag', '')}".encode("utf-8"))
    for step in module.steps:
        if isinstance(step, Kernel):
            entry = ("k", dataclasses.astuple(kernel_cost_inputs(step)))
        elif isinstance(step, LibraryCall):
            entry = ("l", step.flops(), step.bytes_moved())
        elif isinstance(step, MemcpyCall):
            entry = ("m", step.nbytes)
        else:  # priced by Engine.price_step, which will reject it
            entry = ("?", type(step).__name__)
        digest.update(repr(entry).encode("utf-8"))
    signature = digest.hexdigest()
    module.__dict__["_pricing_signature"] = signature
    return signature


@dataclasses.dataclass(frozen=True)
class PlanKey:
    """Full address of one execution plan.

    Attributes:
        module: Module pricing signature
            (:func:`module_pricing_signature`).
        graph: Structural graph fingerprint (cheap insurance on top of
            the signature; memoized per graph).
        spec: Device spec, by value — any field change is a miss.
        config: Engine configuration, by value.
        pipeline: The pipeline-composition fingerprint the module was
            compiled under ("" for modules from non-pipeline compilers).
            The pricing signature already covers everything the plan
            *reads*; this field additionally re-keys plans when the pass
            composition changes, mirroring the compile cache, so a
            recomposed pipeline can never serve a stale priced timeline.
    """

    module: str
    graph: str
    spec: GPUSpec
    config: EngineConfig
    pipeline: str = ""

    def digest(self) -> str:
        """Stable hex digest — the persistent tier's file name."""
        text = "|".join([
            f"plan-v{PLAN_FORMAT_VERSION}", self.module, self.graph,
            repr(dataclasses.astuple(self.spec)),
            repr(dataclasses.astuple(self.config)),
            self.pipeline,
        ])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def plan_key(module: CompiledModule, spec: GPUSpec,
             config: EngineConfig) -> PlanKey:
    """The cache key pricing ``module`` on ``spec`` under ``config``."""
    return PlanKey(module=module_pricing_signature(module),
                   graph=graph_fingerprint(module.graph),
                   spec=spec, config=config,
                   pipeline=getattr(module, "pipeline_fingerprint", ""))


class PlanCache(TieredCache[PlanKey, Profile]):
    """Two-tier store of priced profiles, persisted as
    ``plan_<digest>.pkl`` next to the compiled modules.

    Thread-safe: serving workers and session threads share the
    process-wide instance.
    """

    file_prefix = "plan_"
    format_version = PLAN_FORMAT_VERSION
    value_type = Profile
    default_capacity = DEFAULT_CAPACITY


# -- process-wide default -----------------------------------------------------

_default_plan_cache: Optional[PlanCache] = None
_default_lock = threading.Lock()


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache every engine shares by default
    (created lazily; honours ``REPRO_COMPILE_CACHE_DIR``)."""
    global _default_plan_cache
    with _default_lock:
        if _default_plan_cache is None:
            _default_plan_cache = PlanCache.from_env()
        return _default_plan_cache


def set_default_plan_cache(cache: Optional[PlanCache]) -> None:
    """Replace the process-wide plan cache (``None`` resets to lazy
    re-creation — used by tests and benches to isolate themselves)."""
    global _default_plan_cache
    with _default_lock:
        _default_plan_cache = cache
