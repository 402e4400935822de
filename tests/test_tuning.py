"""The launch-config autotuner and its persistent decision cache.

Pins the three contracts the compiler builds on: tuned modules never
price worse than the heuristic ones, cache keys invalidate on every
input that matters (and only those), and tie-breaking is a total order
so repeated sweeps are bit-identical.
"""

import dataclasses

import pytest

from repro.codegen.schedule import MappingKind
from repro.core import AStitchCompiler, AStitchConfig
from repro.gpu.spec import T4, V100
from repro.runtime.engine import Engine
from repro.tuning import (
    GroupSignature,
    GroupTuner,
    TunedDecision,
    TuningCache,
    TuningKey,
    candidates_for,
    proxy_cost_inputs,
    set_default_tuning_cache,
)
from repro.workloads import WORKLOADS, build, micro


@pytest.fixture(autouse=True)
def _isolated_tuning_cache():
    """Each test gets a fresh memory-only process-wide cache."""
    set_default_tuning_cache(TuningCache())
    yield
    set_default_tuning_cache(None)


def row_reduce_sig(rows=200, width=200_000, needs_barrier=False,
                   max_block_size=1024):
    return GroupSignature(
        kind=MappingKind.ROW_REDUCE.value, rows=rows, width=width,
        num_elements=rows, bytes_read=float(rows * width * 4),
        bytes_written=float(rows * 4),
        fp_instructions=float(rows * width), needs_barrier=needs_barrier,
        max_block_size=max_block_size)


def elementwise_sig(n=1 << 20):
    return GroupSignature(
        kind=MappingKind.ELEMENTWISE.value, rows=1, width=1,
        num_elements=n, bytes_read=float(n * 8),
        bytes_written=float(n * 4), fp_instructions=float(3 * n),
        needs_barrier=False, max_block_size=1024)


class TestNeverWorse:
    """Candidate #0 is the heuristic, so the winner prices <= it."""

    @pytest.mark.parametrize("sig", [
        row_reduce_sig(),
        row_reduce_sig(needs_barrier=True),
        row_reduce_sig(rows=750_000, width=32),
        elementwise_sig(),
        dataclasses.replace(row_reduce_sig(rows=256, width=256),
                            kind=MappingKind.COLUMN_REDUCE.value),
    ], ids=["row-free", "row-barrier", "tall-rows", "elementwise",
            "column"])
    def test_tuned_time_bounded_by_heuristic(self, sig):
        decision = GroupTuner(V100).tune_signature(sig)
        assert decision.tuned_time <= decision.heuristic_time
        assert decision.heuristic_mapping == candidates_for(sig, V100)[0]
        assert decision.num_candidates >= 1
        assert decision.improvement >= 0.0

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_registry_workload_tuned_not_worse(self, name):
        graph = build(name)
        engine = Engine(V100)
        tuned = engine.run(AStitchCompiler().compile(graph))
        heuristic = engine.run(AStitchCompiler(
            AStitchConfig.heuristic_mappings()).compile(graph))
        assert tuned.total_time <= heuristic.total_time * (1 + 1e-12), name

    def test_irregular_row_reduce_improves(self):
        # The no-barrier case where the paper's always-pack-to-one-wave
        # rule leaves occupancy on the table.
        decision = GroupTuner(V100).tune_signature(row_reduce_sig())
        assert decision.improvement > 0.10

    def test_barrier_constrains_grid_to_one_wave(self):
        sig = row_reduce_sig(needs_barrier=True)
        for mapping in candidates_for(sig, V100):
            from repro.gpu.occupancy import occupancy
            wave = occupancy(V100, mapping.block_size).blocks_per_wave
            assert mapping.grid_size <= wave


class TestDeterminism:
    def test_repeated_sweeps_identical(self):
        winners = set()
        for _ in range(3):
            tuner = GroupTuner(V100, cache=TuningCache())
            winners.add(tuner.tune_signature(row_reduce_sig()).mapping)
        assert len(winners) == 1

    def test_all_tied_sweep_keeps_heuristic(self):
        # The incumbent rule: deviating must pay.  An all-tied sweep
        # returns candidate #0 (the heuristic) exactly.
        sig = elementwise_sig()

        class _Zero:
            def price_durations(self, probes):
                return [0.0] * len(probes)

        tuner = GroupTuner(V100, cache=TuningCache(), cost_model=_Zero())
        decision = tuner.tune_signature(sig)
        assert decision.mapping == candidates_for(sig, V100)[0]
        assert decision.mapping == decision.heuristic_mapping

    def test_tie_break_among_winners_is_total_order(self):
        # When several candidates beat the heuristic by the same margin,
        # the smallest sort_key wins regardless of enumeration order.
        sig = elementwise_sig()
        cands = candidates_for(sig, V100)

        class _HeuristicWorst:
            def price_durations(self, probes):
                return [1.0] + [0.5] * (len(probes) - 1)

        tuner = GroupTuner(V100, cache=TuningCache(),
                           cost_model=_HeuristicWorst())
        decision = tuner.tune_signature(sig)
        assert decision.mapping == min(cands[1:],
                                       key=lambda m: m.sort_key())

    def test_signature_digest_stable(self):
        assert row_reduce_sig().digest() == row_reduce_sig().digest()
        assert row_reduce_sig().digest() != elementwise_sig().digest()

    def test_batch_matches_one_by_one(self):
        sigs = [row_reduce_sig(), elementwise_sig(),
                row_reduce_sig(rows=96, width=100_000)]
        batched = GroupTuner(V100, cache=TuningCache()) \
            .tune_signatures(sigs)
        single = [GroupTuner(V100, cache=TuningCache()).tune_signature(s)
                  for s in sigs]
        assert [d.mapping for d in batched] == [d.mapping for d in single]


class TestTuningCache:
    def _key(self, sig=None, spec=V100, config="atm=1|block=1024"):
        sig = sig if sig is not None else row_reduce_sig()
        return TuningKey(group=sig.digest(), spec=spec, config=config)

    def _decision(self):
        sig = row_reduce_sig()
        mapping = candidates_for(sig, V100)[0]
        return TunedDecision(mapping=mapping, heuristic_mapping=mapping,
                             tuned_time=1e-4, heuristic_time=1e-4,
                             num_candidates=1)

    def test_memory_round_trip(self):
        cache = TuningCache()
        key = self._key()
        assert cache.get(key) is None
        cache.put(key, self._decision())
        assert cache.get(key) == self._decision()
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_spec_change_misses(self, tmp_path):
        cache = TuningCache(cache_dir=tmp_path)
        cache.put(self._key(), self._decision())
        assert cache.get(self._key(spec=T4)) is None
        tweaked = dataclasses.replace(V100, num_sms=V100.num_sms + 1)
        assert cache.get(self._key(spec=tweaked)) is None

    def test_config_change_misses(self, tmp_path):
        cache = TuningCache(cache_dir=tmp_path)
        cache.put(self._key(), self._decision())
        assert cache.get(self._key(config="atm=1|block=256")) is None

    def test_signature_change_misses(self):
        cache = TuningCache()
        cache.put(self._key(), self._decision())
        assert cache.get(self._key(sig=elementwise_sig())) is None

    def test_lru_eviction(self):
        cache = TuningCache(capacity=2)
        keys = [self._key(config=f"c{i}") for i in range(3)]
        for key in keys:
            cache.put(key, self._decision())
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert keys[0] not in cache and keys[2] in cache

    def test_tuner_reuses_cached_decision(self):
        cache = TuningCache()
        tuner = GroupTuner(V100, cache=cache)
        first = tuner.tune_signature(row_reduce_sig())
        assert cache.stats.misses == 1
        second = tuner.tune_signature(row_reduce_sig())
        assert second == first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_digest_depends_on_all_parts(self):
        base = self._key()
        assert base.digest() == self._key().digest()
        assert base.digest() != self._key(spec=T4).digest()
        assert base.digest() != self._key(config="x").digest()
        assert base.digest() != self._key(sig=elementwise_sig()).digest()


class TestCompilerIntegration:
    def test_tune_flag_changes_compiler_name(self):
        assert AStitchCompiler().name == "AStitch"
        assert AStitchCompiler(
            AStitchConfig.heuristic_mappings()).name == "AStitch-heuristic"

    def test_codegen_tag_reflects_tuning(self):
        graph = micro.softmax_graph(64, 64)
        tuned = AStitchCompiler().compile(graph)
        heuristic = AStitchCompiler(
            AStitchConfig.heuristic_mappings()).compile(graph)
        assert tuned.codegen_tag.startswith("tune:")
        assert heuristic.codegen_tag == ""

    def test_micro_row_reduce_tuned_not_worse(self):
        graph = micro.row_reduce(200, 200_000)
        engine = Engine(V100)
        tuned = engine.run(AStitchCompiler().compile(graph))
        heuristic = engine.run(AStitchCompiler(
            AStitchConfig.heuristic_mappings()).compile(graph))
        assert tuned.total_time <= heuristic.total_time

    def test_tuned_module_matches_numerics(self):
        import numpy as np
        from repro.ir.interpreter import evaluate, random_feeds
        graph = micro.softmax_graph(33, 700)
        feeds = random_feeds(graph, seed=7)
        want = evaluate(graph, feeds)
        module = AStitchCompiler().compile(graph)
        got = module.execute(feeds)
        for name, value in want.items():
            np.testing.assert_allclose(got[name], value, rtol=1e-5,
                                       atol=1e-6)


class TestRunParallel:
    def test_run_parallel_preserves_order(self):
        from repro.runtime.compile_service import CompileService
        service = CompileService(max_workers=4)
        try:
            thunks = [(lambda i=i: i * i) for i in range(16)]
            assert service.run_parallel(thunks) == [i * i
                                                   for i in range(16)]
        finally:
            service.shutdown()

    def test_run_parallel_inline_when_no_workers(self):
        import threading
        from repro.runtime.compile_service import CompileService
        service = CompileService(max_workers=0)
        names = []
        service.run_parallel([lambda: names.append(
            threading.current_thread().name)])
        assert names == [threading.main_thread().name]
