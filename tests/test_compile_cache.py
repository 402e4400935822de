"""Tests for the content-addressed compilation cache."""

import numpy as np
import pytest

from repro.compilers import XLACompiler
from repro.core import AStitchCompiler
from repro.core.config import AStitchConfig
from repro.gpu.spec import T4, V100
from repro.ir.fingerprint import graph_fingerprint
from repro.ir.interpreter import random_feeds
from repro.runtime import Engine
from repro.runtime.compile_cache import (
    CacheKey,
    CompileCache,
    compiler_fingerprint,
)
from repro.workloads import micro


def _key(graph, compiler=None, spec=V100, optimize=False):
    compiler = compiler or AStitchCompiler()
    return CacheKey(compiler=compiler_fingerprint(compiler),
                    graph=graph_fingerprint(graph),
                    spec=spec, optimize=optimize)


def _compile(graph, compiler=None, spec=V100):
    return (compiler or AStitchCompiler()).compile(graph, spec)


class TestCompilerFingerprint:
    def test_distinct_strategies_differ(self):
        assert (compiler_fingerprint(AStitchCompiler())
                != compiler_fingerprint(XLACompiler()))

    def test_config_is_part_of_identity(self):
        full = AStitchCompiler()
        ablated = AStitchCompiler(AStitchConfig.adaptive_mapping_only())
        assert (compiler_fingerprint(full)
                != compiler_fingerprint(ablated))

    def test_same_strategy_same_fingerprint(self):
        assert (compiler_fingerprint(AStitchCompiler())
                == compiler_fingerprint(AStitchCompiler()))


class TestCacheKey:
    def test_every_field_distinguishes(self):
        graph = micro.softmax_graph(8, 8)
        base = _key(graph)
        assert base != _key(graph, compiler=XLACompiler())
        assert base != _key(micro.softmax_graph(8, 9))
        assert base != _key(graph, spec=T4)
        assert base != _key(graph, optimize=True)

    def test_digest_stable_and_distinct(self):
        graph = micro.softmax_graph(8, 8)
        assert _key(graph).digest() == _key(graph).digest()
        assert _key(graph).digest() != _key(graph, spec=T4).digest()


class TestMemoryTier:
    def test_roundtrip_and_counters(self):
        cache = CompileCache(capacity=4)
        graph = micro.softmax_graph(8, 8)
        key = _key(graph)
        assert cache.get(key) is None
        module = _compile(graph)
        cache.put(key, module)
        assert cache.get(key) is module
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert len(cache) == 1

    def test_lru_evicts_least_recently_used(self):
        cache = CompileCache(capacity=2)
        graphs = [micro.row_reduce(4, n) for n in (4, 5, 6)]
        keys = [_key(g) for g in graphs]
        modules = [_compile(g) for g in graphs]
        cache.put(keys[0], modules[0])
        cache.put(keys[1], modules[1])
        cache.get(keys[0])              # refresh 0; 1 becomes LRU
        cache.put(keys[2], modules[2])  # evicts 1
        assert keys[0] in cache and keys[2] in cache
        assert keys[1] not in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)


class TestPersistentTier:
    """Compile-tier specifics; the contract every persistent tier shares
    (restart, corrupt file, version/key/type checks) lives in
    ``tests/test_tiered_cache.py``."""

    def test_disk_served_module_is_equivalent(self, tmp_path):
        """The acceptance bar: a persisted module prices and computes
        exactly like a fresh compilation."""
        graph = micro.fig7_subgraph(32, 16)
        key = _key(graph)
        CompileCache(cache_dir=tmp_path).put(key, _compile(graph))
        served = CompileCache(cache_dir=tmp_path).get(key)
        fresh = _compile(micro.fig7_subgraph(32, 16))
        engine = Engine(V100)
        assert engine.run(served) == engine.run(fresh)
        feeds = random_feeds(graph, seed=13)
        got, want = served.execute(feeds), fresh.execute(feeds)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = CompileCache(capacity=1, cache_dir=tmp_path)
        g1, g2 = micro.row_reduce(4, 4), micro.row_reduce(4, 5)
        k1, k2 = _key(g1), _key(g2)
        cache.put(k1, _compile(g1))
        cache.put(k2, _compile(g2))   # evicts k1 from memory
        assert cache.stats.evictions == 1
        assert cache.get(k1) is not None
        assert cache.stats.disk_hits == 1
