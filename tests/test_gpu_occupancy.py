"""Unit + property tests for the occupancy calculator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.occupancy import achieved_occupancy, occupancy, sm_efficiency
from repro.gpu.spec import A100, T4, V100


class TestOccupancyLimits:
    def test_block_size_1024_v100(self):
        # 2048 threads/SM / 1024 threads/block = 2 blocks/SM.
        res = occupancy(V100, 1024, regs_per_thread=32)
        assert res.blocks_per_sm == 2
        assert res.blocks_per_wave == 160  # the paper's V100 number
        assert res.theoretical_occupancy == 1.0

    def test_small_blocks_limited_by_block_count(self):
        # Block size 32: thread limit would allow 64 blocks, but the
        # hardware block limit is 32 -> only half the warps resident.
        res = occupancy(V100, 32)
        assert res.blocks_per_sm == 32
        assert res.limiting_resource == "blocks"
        assert res.theoretical_occupancy == 0.5

    def test_register_limit(self):
        res = occupancy(V100, 1024, regs_per_thread=128)
        # 65536 regs / (128 * 1024) = 0.5 -> 0 -> clamped to 1 resident.
        assert res.blocks_per_sm == 1

    def test_smem_limit(self):
        res = occupancy(V100, 256, regs_per_thread=32,
                        smem_per_block=48 * 1024)
        assert res.limiting_resource == "shared_memory"
        assert res.blocks_per_sm == 2

    def test_block_too_large_raises(self):
        with pytest.raises(ValueError):
            occupancy(V100, 2048)

    def test_smem_above_block_limit_raises(self):
        with pytest.raises(ValueError):
            occupancy(V100, 256, smem_per_block=100 * 1024)

    @given(st.integers(1, 1024), st.integers(1, 255),
           st.integers(0, 48 * 1024))
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, block_size, regs, smem):
        res = occupancy(V100, block_size, regs, smem)
        assert res.blocks_per_sm >= 1
        assert res.blocks_per_wave == res.blocks_per_sm * V100.num_sms
        assert 0.0 < res.theoretical_occupancy <= 1.0


class TestAchievedOccupancy:
    def test_fig6a_small_block_size(self):
        # XLA's <750000,32> row-reduce: 750k blocks of 32 threads.
        # Residency is block-count-limited -> occupancy stuck at 0.5.
        occ = achieved_occupancy(V100, 750_000, 32)
        assert occ == pytest.approx(0.5)

    def test_fig6b_small_block_count(self):
        # XLA's <64,30000> row-reduce: 64 blocks of 1024 on 80 SMs.
        occ = achieved_occupancy(V100, 64, 1024)
        assert occ < 0.5

    def test_packed_mapping_fills_machine(self):
        # AStitch packs to ~23.4k blocks of 1024: full occupancy.
        occ = achieved_occupancy(V100, 23_438, 1024)
        assert occ == pytest.approx(1.0)

    def test_zero_grid(self):
        assert achieved_occupancy(V100, 0, 256) == 0.0

    @given(st.integers(1, 10_000), st.sampled_from([32, 64, 128, 256, 512,
                                                    1024]))
    @settings(max_examples=60, deadline=None)
    def test_achieved_never_exceeds_theoretical(self, grid, block):
        theo = occupancy(V100, block).theoretical_occupancy
        achieved = achieved_occupancy(V100, grid, block)
        assert achieved <= theo + 1e-9

    @given(st.sampled_from([V100, T4, A100]), st.integers(1, 500_000))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_grid(self, spec, grid):
        a = achieved_occupancy(spec, grid, 256)
        b = achieved_occupancy(spec, grid + 1000, 256)
        assert b >= a - 1e-9


class TestSmEfficiency:
    def test_full_grid(self):
        assert sm_efficiency(V100, 160, 1024) == pytest.approx(1.0)

    def test_small_grid_covers_few_sms(self):
        assert sm_efficiency(V100, 40, 1024) == pytest.approx(0.5)

    def test_tail_wave_penalty(self):
        # One full wave + a 1-block tail is worse than exactly one wave.
        full = sm_efficiency(V100, 160, 1024)
        tail = sm_efficiency(V100, 161, 1024)
        assert tail < full

    def test_zero_grid(self):
        assert sm_efficiency(V100, 0, 256) == 0.0

    @given(st.integers(1, 1_000_000),
           st.sampled_from([32, 128, 256, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, grid, block):
        eff = sm_efficiency(V100, grid, block)
        assert 0.0 < eff <= 1.0


class TestSpecs:
    def test_wave_cap_helper(self):
        assert V100.blocks_per_wave(1024) == 160

    def test_a100_compute_memory_ratio(self):
        # The paper: A100(TF32)/V100 compute-to-bandwidth ratio ~5.6x.
        v100_ratio = V100.fp32_throughput / V100.dram_bandwidth
        a100_ratio = A100.fp32_throughput / A100.dram_bandwidth
        assert a100_ratio / v100_ratio == pytest.approx(5.75, rel=0.05)

    def test_max_resident_blocks(self):
        assert V100.max_resident_blocks == 80 * 32


class TestOccupancyCacheControls:
    """The bounded occupancy memo (a memory-only ``TieredCache``)."""

    def setup_method(self):
        from repro.gpu.occupancy import clear_occupancy_cache
        clear_occupancy_cache()

    def test_cache_info_counts(self):
        from repro.gpu.occupancy import occupancy_cache_info
        occupancy(V100, 256)
        occupancy(V100, 256)
        info = occupancy_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        assert info["entries"] == 1

    def test_clear_resets_entries_and_counters(self):
        from repro.gpu.occupancy import (clear_occupancy_cache,
                                         occupancy_cache_info)
        occupancy(V100, 256)
        clear_occupancy_cache()
        info = occupancy_cache_info()
        assert info["entries"] == 0
        assert info["hits"] == 0 and info["misses"] == 0

    def test_keys_on_full_spec_value(self):
        # Two specs differing in any field must not share entries.
        import dataclasses
        from repro.gpu.occupancy import occupancy_cache_info
        tweaked = dataclasses.replace(V100, num_sms=V100.num_sms + 1)
        a = occupancy(V100, 256)
        b = occupancy(tweaked, 256)
        assert occupancy_cache_info()["entries"] == 2
        assert b.blocks_per_wave != a.blocks_per_wave

    def test_gpu_clear_caches_covers_occupancy(self):
        from repro.gpu import clear_caches
        from repro.gpu.occupancy import occupancy_cache_info
        occupancy(V100, 256)
        clear_caches()
        assert occupancy_cache_info()["entries"] == 0

    def test_exceptions_not_cached(self):
        from repro.gpu.occupancy import occupancy_cache_info
        with pytest.raises(ValueError):
            occupancy(V100, 4096)
        assert occupancy_cache_info()["entries"] == 0
