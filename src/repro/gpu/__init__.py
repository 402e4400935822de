"""Analytical SIMT GPU model.

The paper measures effects on real NVIDIA GPUs; this package substitutes an
analytical model of the same mechanisms: occupancy-limited parallelism,
DRAM-bandwidth-bound kernels, kernel-launch and global-barrier latencies,
and the nvprof counters the evaluation reports.
"""

from repro.gpu.spec import GPUSpec, V100, T4, A100
from repro.gpu.occupancy import (OccupancyResult, clear_occupancy_cache,
                                 occupancy, occupancy_cache_info)
from repro.gpu.counters import PerfCounters
from repro.gpu.costmodel import (KernelCostInputs, KernelCostModel,
                                 cost_model_for)
from repro.gpu.barrier import global_barrier_latency
from repro.gpu.memory import MemorySpace, Buffer, GlobalMemoryPool


def clear_caches() -> None:
    """Reset every process-wide GPU-model memo in one call.

    Covers the occupancy calculator's LRU and the shared per-spec
    :class:`KernelCostModel` price memos — the single entry point tests
    and long-lived services use to drop modeled state without caring
    which module owns which cache.
    """
    from repro.gpu import costmodel
    clear_occupancy_cache()
    for model in costmodel._SHARED_MODELS.values():
        model.clear_memo()


__all__ = [
    "clear_caches",
    "clear_occupancy_cache",
    "occupancy_cache_info",
    "GPUSpec",
    "V100",
    "T4",
    "A100",
    "OccupancyResult",
    "occupancy",
    "PerfCounters",
    "KernelCostInputs",
    "KernelCostModel",
    "cost_model_for",
    "global_barrier_latency",
    "MemorySpace",
    "Buffer",
    "GlobalMemoryPool",
]
