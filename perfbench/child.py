"""One benchmark job in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py JOB --seed N --tmp DIR [--trace 0|1]
                               [--seconds S]

Jobs (see ``run.py`` for how they make up the workloads):

* ``cold``  — the sweep compiled cold into empty in-memory tiers, then
  persisted into the fresh disk tier ``DIR/tier``.
* ``warm``  — the restart and lookup passes over ``DIR/tier``.
* ``serve`` — the cold serve (set-up), then nominal/overload load-test
  pairs for ``S`` seconds.

Every compilation goes through an inline ``CompileService``
(``max_workers=0``): one thread, a deterministic order.  The job runs
with ``PYTHONPATH`` at the checkout's ``src`` and expects no
``REPRO_*`` variable in its environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import random
import resource
import sys
import time

import tracer as tracing
from reference import ReferenceClock
from repro.compilers import TensorFlowCompiler, TensorRTCompiler, XLACompiler
from repro.core import AStitchCompiler
from repro.gpu.spec import V100
from repro.runtime import compile_service
from repro.runtime.compile_cache import CompileCache
from repro.runtime.engine import Engine
from repro.runtime.plan import PlanCache, module_pricing_signature, plan_key
from repro.serving import ServiceTimeOracle, run_loadtest
from repro.tuning import default_tuning_cache
from repro.workloads import build_cached, registry

perf_counter = time.perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "pipeline_golden.json"

SWEEP_WORKLOADS = ("CRNN", "ASR", "BERT", "Transformer", "DIEN")
SWEEP_CONFIGS = (("TensorFlow", False), ("XLA", False), ("TensorRT", False),
                 ("AStitch", False), ("XLA", True), ("AStitch", True))

SERVE_WORKLOADS = ("Transformer", "CRNN")
SERVE_BUCKETS = (1, 2, 4, 8)
SERVE_SLO = 0.5
RATES = {  # name -> (per-workload qps, virtual seconds, throughput name)
    "nominal": ({"Transformer": 8.0, "CRNN": 600.0}, 40.0,
                "serve_req_per_s"),
    "overload": ({"Transformer": 16.0, "CRNN": 1200.0}, 20.0,
                 "overload_req_per_s"),
}

COMPILER_CLASSES = {"TensorFlow": TensorFlowCompiler, "XLA": XLACompiler,
                    "TensorRT": TensorRTCompiler, "AStitch": AStitchCompiler}


class Checks:
    """Correctness checks: each one run counts as attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Stack:
    """Fresh compile/plan tiers behind an inline compile service."""

    def __init__(self, tier=None):
        self.cache = CompileCache(cache_dir=tier)
        self.plans = PlanCache(cache_dir=tier)
        self.service = compile_service.CompileService(cache=self.cache,
                                                      max_workers=0)
        # The autotuner enumerates through the process-wide service.
        compile_service.set_default_service(self.service)
        self.engine = Engine(V100, plan_cache=self.plans)
        self.compilers = {name: cls() for name, cls
                          in COMPILER_CLASSES.items()}


def sweep(seed: int) -> list[tuple[str, str, bool]]:
    """The 30 (workload, compiler, optimize) requests, seed-permuted."""
    requests = [(w, c, opt) for w in SWEEP_WORKLOADS
                for c, opt in SWEEP_CONFIGS]
    random.Random(seed).shuffle(requests)
    return requests


def label(workload: str, compiler: str, optimize: bool) -> str:
    """The request's key in the pipeline golden file."""
    return f"{workload}|{compiler}" + ("|opt" if optimize else "")


def run_pass(stack: Stack, requests, clock: ReferenceClock) -> list:
    """Build (once per workload), compile and price every request.

    Returns one ``(request, graph, module, plan)`` per request.
    """
    graphs = {}
    served = []
    for workload, compiler, optimize in requests:
        graph = graphs.get(workload)
        if graph is None:
            graph = graphs[workload] = registry.build(workload)
        module = stack.service.compile(graph, stack.compilers[compiler],
                                       V100, optimize=optimize)
        served.append(((workload, compiler, optimize), graph, module,
                       stack.engine.plan(module)))
        clock.tick()
    return served


def check_golden(checks: Checks, served, golden: dict) -> None:
    for request, _, module, _ in served:
        key = label(*request)
        checks.check(module_pricing_signature(module)
                     == golden[key]["pricing_signature"],
                     f"{key}: pricing signature differs from golden")


def pass_counts(served) -> dict[str, int]:
    graphs = {id(graph): graph for _, graph, _, _ in served}
    return {
        "workloads.nodes": sum(len(g) for g in graphs.values()),
        "pipeline.kernels": sum(len(m.kernels()) for _, _, m, _ in served),
        "pipeline.steps": sum(len(m.steps) for _, _, m, _ in served),
        "plan.steps": sum(len(p.steps) for _, _, _, p in served),
    }


TIER_FIELDS = ("hits", "disk_hits", "misses", "disk_stores")


def tier_counts(stack: Stack) -> dict[str, int]:
    tiers = ((stack.cache.stats, "compile_cache", TIER_FIELDS),
             (stack.plans.stats, "plan", TIER_FIELDS),
             (default_tuning_cache().stats, "tuning", ("hits", "misses")))
    return {f"{prefix}.{field}": getattr(stats, field)
            for stats, prefix, fields in tiers for field in fields}


def gc_collections() -> list[int]:
    return [generation["collections"] for generation in gc.get_stats()]


def gc_counts(before: list[int]) -> dict[str, int]:
    return {f"python.gc_collections.gen{i}": after - earlier
            for i, (earlier, after)
            in enumerate(zip(before, gc_collections()))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def persist_items(stack: Stack, served) -> list:
    """Every module and plan of a pass with its cache keys."""
    items = []
    for (_, compiler, optimize), graph, module, plan in served:
        key = stack.service.key_for(graph, stack.compilers[compiler],
                                    V100, optimize)
        items.append((key, module, plan_key(module, V100,
                                            stack.engine.config), plan))
    return items


def write_tier(items, directory, clock: ReferenceClock) -> None:
    """Write ``items`` into a new disk tier at ``directory`` through the
    tiers' public ``put``."""
    cache = CompileCache(cache_dir=directory)
    plans = PlanCache(cache_dir=directory)
    for key, module, pkey, plan in items:
        cache.put(key, module)
        plans.put(pkey, plan)
        clock.tick()


def traced_result(tracer, sample_s: float) -> dict:
    if not tracer.enabled:
        return {}
    return {"self_s": dict(tracer.self_s),
            "inclusive_s": dict(tracer.inclusive_s),
            "trace_counts": dict(tracer.counts),
            "pass_self_s": tracer.marks,
            "unattributed_s": sample_s - tracer.top_s}


class Passes:
    """Runs a job's timed passes, traced when the tracer is enabled, and
    keeps each pass's host and reference seconds.

    Before each pass the heap is collected, outside the timing, so the
    pass starts the collector in the same state whatever ran before it:
    otherwise a gen-2 collection owed to earlier passes lands in
    whichever pass crosses the threshold, and which one does depends on
    the seed.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.host_s: dict[str, float] = {}
        self.reference_s: dict[str, float] = {}

    def run(self, name: str, fn, *args):
        """``fn(*args, clock)`` as the pass ``name``."""
        gc.collect()
        clock = ReferenceClock()
        self.tracer.install()
        try:
            return fn(*args, clock)
        finally:
            clock.tick(force=True)
            self.tracer.mark(name)
            self.tracer.uninstall()
            self.host_s[name] = clock.host_s
            self.reference_s[name] = clock.reference_s


# -- jobs ---------------------------------------------------------------------------

def job_result(passes: Passes, counts: dict, tracer) -> dict:
    sample_s = sum(passes.host_s.values())
    return {"passes": passes.host_s, "reference_s": passes.reference_s,
            "sample_s": sample_s, "counts": counts,
            "peak_rss_mb": peak_rss_mb(), **traced_result(tracer, sample_s)}


def job_cold(args, checks: Checks) -> dict:
    """The cold pass into empty in-memory tiers, then persist: every
    module and plan written into the fresh disk tier ``DIR/tier``."""
    golden = json.loads(GOLDEN.read_text())
    requests = sweep(args.seed)
    stack = Stack()
    tracer = tracing.Tracer(enabled=bool(args.trace))
    passes = Passes(tracer)
    gc_before = gc_collections()
    cold = passes.run("cold_compile_s", run_pass, stack, requests)
    misses = stack.cache.stats.misses
    items = persist_items(stack, cold)
    passes.run("persist_s", write_tier, items,
               pathlib.Path(args.tmp) / "tier")
    counts = gc_counts(gc_before)
    check_golden(checks, cold, golden)
    checks.check(misses == len(requests),
                 f"cold pass compiled {misses} of {len(requests)}")
    tracing.add_counts(counts, pass_counts(cold))
    counts.update(tier_counts(stack))
    return job_result(passes, counts, tracer)


def job_warm(args, checks: Checks) -> dict:
    """The restart pass from the disk tier ``DIR/tier``, then the lookup
    pass with fresh graph objects from the in-memory tiers."""
    golden = json.loads(GOLDEN.read_text())
    requests = sweep(args.seed)
    stack = Stack(pathlib.Path(args.tmp) / "tier")
    tracer = tracing.Tracer(enabled=bool(args.trace))
    passes = Passes(tracer)
    gc_before = gc_collections()
    restart = passes.run("restart_s", run_pass, stack, requests)
    lookup = passes.run("lookup_s", run_pass, stack, requests)
    counts = gc_counts(gc_before)
    check_golden(checks, restart, golden)
    check_golden(checks, lookup, golden)
    checks.check(stack.cache.stats.misses == 0,
                 f"restart/lookup passes compiled "
                 f"{stack.cache.stats.misses} modules")
    checks.check(stack.plans.stats.misses == 0,
                 f"restart/lookup passes priced "
                 f"{stack.plans.stats.misses} plans")
    tracing.add_counts(counts, pass_counts(restart))
    tracing.add_counts(counts, pass_counts(lookup))
    counts.update(tier_counts(stack))
    return job_result(passes, counts, tracer)


def loadtest(oracle, rate: str, seed: int, _clock: ReferenceClock):
    rates, duration, _ = RATES[rate]
    _, report = run_loadtest(
        rates, duration=duration, compiler=oracle.compiler,
        specs=(V100, V100), policy="fifo", max_batch=8, max_wait=0.005,
        slo=SERVE_SLO, seed=seed, oracle=oracle)
    return report


def serve_sample(oracle, seed: int, checks: Checks, first: dict,
                 tracer) -> dict:
    """One nominal plus one overload load test, each checked."""
    passes = Passes(tracer)
    counts: dict = {}
    gc_before = gc_collections()
    throughput = {}
    for rate in RATES:
        report = passes.run(f"{rate}_s", loadtest, oracle, rate, seed)
        throughput[RATES[rate][2]] = (report.completed
                                      / passes.reference_s[f"{rate}_s"])
        checks.check(report.completed + report.dropped == report.requests,
                     f"{rate}: completed + dropped != requests offered")
        summary = report.as_dict()
        checks.check(first.setdefault(rate, summary) == summary,
                     f"{rate}: report differs from the same seed's first")
        if rate == "nominal":
            checks.check(report.latency.p99 <= SERVE_SLO
                         and report.dropped == 0,
                         f"nominal: p99 {report.latency.p99:.3f} s, "
                         f"{report.dropped} dropped")
        tracing.add_counts(counts, {
            "serving.requests": report.requests,
            "serving.completed": report.completed,
            "serving.dropped": report.dropped,
            "serving.batches": sum(report.batch_histogram.values())})
    counts.update(gc_counts(gc_before))
    result = job_result(passes, counts, tracer)
    result["passes"] = {**passes.host_s, **throughput}
    return result


def job_serve(args, checks: Checks) -> dict:
    stack = Stack()
    oracle = ServiceTimeOracle(stack.compilers["AStitch"],
                               service=stack.service,
                               plan_cache=stack.plans)
    clock = ReferenceClock()
    for workload in SERVE_WORKLOADS:  # the cold serve, bucket by bucket
        for bucket in SERVE_BUCKETS:
            oracle.warm([workload], [bucket], [V100, V100])
            clock.tick()
    clock.tick(force=True)
    scalar = Engine(V100, plan_cache=None)
    for workload in SERVE_WORKLOADS:
        for bucket in SERVE_BUCKETS:
            module = stack.service.compile(
                build_cached(workload, batch=bucket), oracle.compiler, V100)
            checks.check(scalar.price_profile(module).total_time
                         == oracle.service_time(workload, bucket, V100),
                         f"{workload}@{bucket}: plan total_time differs "
                         f"from scalar pricing")
    first: dict = {}
    untraced = tracing.Tracer(enabled=False)
    serve_sample(oracle, args.seed, checks, first, untraced)  # warm-up
    samples = []
    start = perf_counter()
    while not samples or perf_counter() - start < args.seconds:
        samples.append(serve_sample(oracle, args.seed, checks, first,
                                    untraced))
    result = {"setup_s": clock.host_s, "setup_reference_s": clock.reference_s,
              "samples": samples, "peak_rss_mb": peak_rss_mb()}
    if args.trace:
        result["traced"] = serve_sample(oracle, args.seed, checks, first,
                                        tracing.Tracer())
    return result


JOBS = {"cold": job_cold, "warm": job_warm, "serve": job_serve}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=sorted(JOBS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    checks = Checks()
    result = JOBS[args.job](args, checks)
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: freeing a heap of restored modules
    # takes seconds that belong to no sample.
    os._exit(0)


if __name__ == "__main__":
    main()
