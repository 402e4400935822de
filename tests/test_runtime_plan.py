"""Tests for the execution-plan layer (plan cache, keys, determinism)."""

import dataclasses
import pickle

import pytest

from repro.compilers import XLACompiler
from repro.core import AStitchCompiler
from repro.gpu.spec import T4, V100
from repro.runtime import engine as engine_mod
from repro.runtime.engine import Engine, EngineConfig
from repro.runtime.plan import (
    PlanCache,
    PlanKey,
    default_plan_cache,
    module_pricing_signature,
    plan_key,
    set_default_plan_cache,
)
from repro.workloads import micro


def _module(graph=None, compiler=None, spec=V100):
    graph = graph if graph is not None else micro.softmax_graph(64, 32)
    return (compiler or AStitchCompiler()).compile(graph, spec)


class TestExecutionPlan:
    def test_totals_match_profile_bit_for_bit(self):
        # Full equality: every step, duration, overhead and counter; the
        # totals are derived from the steps.
        module = _module(micro.fig7_subgraph(128, 64))
        engine = Engine(plan_cache=PlanCache())
        assert engine.plan(module) == engine.price_profile(module)

    def test_profile_replay_matches_slow_path_per_step(self):
        module = _module()
        engine = Engine(plan_cache=PlanCache())
        assert engine.run(module) is engine.plan(module)
        assert engine.run(module) == engine.price_profile(module)

    def test_counters_aggregate_matches(self):
        module = _module()
        engine = Engine(plan_cache=PlanCache())
        assert (engine.plan(module).aggregate_mem_counters()
                == engine.price_profile(module).aggregate_mem_counters())

    def test_plan_immutable(self):
        plan = Engine(plan_cache=PlanCache()).plan(_module())
        assert isinstance(plan.steps, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.steps = ()


class TestPricingSignature:
    def test_structurally_identical_modules_share(self):
        a = _module(micro.softmax_graph(32, 16))
        b = _module(micro.softmax_graph(32, 16))
        assert module_pricing_signature(a) == module_pricing_signature(b)

    def test_compiler_strategy_differs(self):
        graph = micro.softmax_graph(32, 16)
        assert (module_pricing_signature(_module(graph))
                != module_pricing_signature(
                    _module(graph, compiler=XLACompiler())))

    def test_shape_differs(self):
        assert (module_pricing_signature(_module(micro.softmax_graph(32, 16)))
                != module_pricing_signature(
                    _module(micro.softmax_graph(32, 17))))

    def test_memoized_on_module(self):
        module = _module()
        first = module_pricing_signature(module)
        assert module.__dict__["_pricing_signature"] == first
        assert module_pricing_signature(module) is first


class TestPlanKeyInvalidation:
    def test_equal_inputs_hit(self):
        cache = PlanCache()
        module = _module()
        engine = Engine(plan_cache=cache)
        first = engine.plan(module)
        assert engine.plan(module) is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_structurally_equal_module_hits_across_objects(self):
        cache = PlanCache()
        engine = Engine(plan_cache=cache)
        first = engine.plan(_module(micro.softmax_graph(32, 16)))
        again = engine.plan(_module(micro.softmax_graph(32, 16)))
        assert again is first
        assert cache.stats.hits == 1

    def test_spec_field_change_misses(self):
        cache = PlanCache()
        module = _module()
        Engine(plan_cache=cache).plan(module)
        slower = dataclasses.replace(V100, dram_bandwidth=V100.dram_bandwidth / 2)
        slow_module = _module(spec=slower)
        Engine(spec=slower, plan_cache=cache).plan(slow_module)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_different_device_misses(self):
        cache = PlanCache()
        Engine(plan_cache=cache).plan(_module())
        Engine(spec=T4, plan_cache=cache).plan(_module(spec=T4))
        assert cache.stats.misses == 2

    def test_engine_config_override_misses(self, monkeypatch):
        cache = PlanCache()
        module = _module()
        Engine(plan_cache=cache).plan(module)
        monkeypatch.setattr(engine_mod, "COMPILED_DISPATCH_LATENCY",
                            engine_mod.COMPILED_DISPATCH_LATENCY * 10)
        overridden = Engine(plan_cache=cache)
        plan = overridden.plan(module)
        assert cache.stats.misses == 2
        # And the re-priced plan actually reflects the new constant.
        assert plan.total_time > cache.get(
            plan_key(module, V100, EngineConfig(
                compiled_dispatch_latency=engine_mod
                .COMPILED_DISPATCH_LATENCY / 10,
                launch_floor=engine_mod.LAUNCH_FLOOR))).total_time

    def test_graph_fingerprint_change_misses(self):
        cache = PlanCache()
        engine = Engine(plan_cache=cache)
        engine.plan(_module(micro.softmax_graph(32, 16)))
        engine.plan(_module(micro.softmax_graph(64, 16)))
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_key_digest_stable_and_distinct(self):
        module = _module()
        key = plan_key(module, V100, EngineConfig.current())
        assert key.digest() == plan_key(
            module, V100, EngineConfig.current()).digest()
        other = plan_key(module, T4, EngineConfig.current())
        assert key.digest() != other.digest()


class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        engine = Engine(plan_cache=cache)
        engine.plan(_module(micro.softmax_graph(8, 8)))
        engine.plan(_module(micro.softmax_graph(16, 8)))
        engine.plan(_module(micro.softmax_graph(32, 8)))
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The first plan was evicted: pricing it again misses.
        engine.plan(_module(micro.softmax_graph(8, 8)))
        assert cache.stats.misses == 4

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_disk_tier_round_trip(self, tmp_path):
        module = _module()
        store = PlanCache(cache_dir=tmp_path)
        plan = Engine(plan_cache=store).plan(module)
        assert store.stats.disk_stores == 1
        assert list(tmp_path.glob("plan_*.pkl"))
        # A fresh cache (fresh process, in spirit) loads from disk.
        load = PlanCache(cache_dir=tmp_path)
        loaded = Engine(plan_cache=load).plan(module)
        assert load.stats.disk_hits == 1
        assert load.stats.misses == 0
        assert loaded.total_time == plan.total_time
        assert [s.duration for s in loaded.steps] \
            == [s.duration for s in plan.steps]

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(tmp_path))
        cache = PlanCache.from_env()
        assert cache.cache_dir == tmp_path
        monkeypatch.delenv("REPRO_COMPILE_CACHE_DIR")
        assert PlanCache.from_env().cache_dir is None

    def test_default_cache_process_wide(self):
        try:
            set_default_plan_cache(None)
            first = default_plan_cache()
            assert default_plan_cache() is first
            replacement = PlanCache()
            set_default_plan_cache(replacement)
            assert default_plan_cache() is replacement
            assert Engine().plan_cache is replacement
        finally:
            set_default_plan_cache(None)

    def test_engine_without_cache_rebuilds(self):
        engine = Engine(plan_cache=None)
        module = _module()
        first = engine.plan(module)
        second = engine.plan(module)
        assert first is not second
        assert first.total_time == second.total_time


class TestPickleHygiene:
    def test_module_getstate_drops_derived_memos(self):
        module = _module()
        module.execute({p.name: __import__("numpy").zeros(p.shape.dims,
                        dtype=p.dtype.to_numpy())
                        for p in module.graph.parameters})
        module_pricing_signature(module)
        assert "_executor" in module.__dict__
        assert "_pricing_signature" in module.__dict__
        state = module.__getstate__()
        assert "_executor" not in state
        assert "_pricing_signature" not in state

    def test_kernel_getstate_drops_cost_inputs(self):
        from repro.codegen.builder import kernel_cost_inputs
        module = _module()
        kernel = module.kernels()[0]
        kernel_cost_inputs(kernel)
        assert "_cost_inputs" in kernel.__dict__
        assert "_cost_inputs" not in kernel.__getstate__()

    def test_pickled_module_reprices_identically(self):
        module = _module()
        engine = Engine(plan_cache=PlanCache())
        original = engine.plan(module)
        clone = pickle.loads(pickle.dumps(module))
        assert "_pricing_signature" not in clone.__dict__
        replanned = Engine(plan_cache=PlanCache()).plan(clone)
        assert replanned.total_time == original.total_time
