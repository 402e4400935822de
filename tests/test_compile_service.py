"""Tests for the parallel, deduplicating compile service."""

import dataclasses
import threading
import time

import pytest

from repro.compilers import XLACompiler
from repro.compilers.base import Compiler
from repro.core import AStitchCompiler
from repro.gpu.spec import V100
from repro.runtime import JitCache, Session
from repro.runtime.compile_cache import CompileCache
from repro.runtime.compile_service import CompileService
from repro.runtime.plan import module_pricing_signature
from repro.workloads import micro


class CountingCompiler(Compiler):
    """XLA wrapper that counts compilations (optionally slowly)."""

    name = "XLA"

    def __init__(self, delay: float = 0.0):
        self.inner = XLACompiler()
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def compile(self, graph, spec=V100):
        """Delegate to XLA after counting the invocation."""
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return self.inner.compile(graph, spec)


class FailingCompiler(Compiler):
    """A strategy that always rejects its input."""

    name = "failing"
    calls = 0

    def compile(self, graph, spec=V100):
        """Raise, as e.g. TensorRT does on training graphs."""
        type(self).calls += 1
        raise RuntimeError("rejected")


def _service(max_workers=2):
    return CompileService(cache=CompileCache(), max_workers=max_workers)


class TestCaching:
    def test_second_request_is_a_hit(self):
        service = _service()
        compiler = CountingCompiler()
        m1 = service.compile(micro.softmax_graph(8, 8), compiler)
        m2 = service.compile(micro.softmax_graph(8, 8), compiler)
        assert m1 is m2
        assert compiler.calls == 1
        assert service.cache.stats.hits == 1

    def test_same_name_specs_compile_apart(self):
        # Two specs sharing the name "V100" but not the SM count must not
        # share an artifact: the key holds the whole spec.
        service = _service()
        graph = micro.softmax_graph(64, 32)
        fewer_sms = dataclasses.replace(V100, num_sms=20)
        full = service.compile(graph, AStitchCompiler(), V100)
        small = service.compile(graph, AStitchCompiler(), fewer_sms)
        assert small is not full
        direct = AStitchCompiler().compile(graph, fewer_sms)
        assert (module_pricing_signature(small)
                == module_pricing_signature(direct))
        assert (module_pricing_signature(small)
                != module_pricing_signature(full))

    def test_inline_mode_compiles_and_caches(self):
        service = _service(max_workers=0)
        compiler = CountingCompiler()
        graph = micro.softmax_graph(8, 8)
        assert service.compile(graph, compiler) \
            is service.compile(graph, compiler)
        assert compiler.calls == 1

    def test_distinct_keys_compile_separately(self):
        service = _service()
        compiler = CountingCompiler()
        service.compile(micro.softmax_graph(8, 8), compiler)
        service.compile(micro.softmax_graph(8, 9), compiler)
        service.compile(micro.softmax_graph(8, 8), compiler,
                        optimize=True)
        assert compiler.calls == 3

    def test_failures_are_not_cached(self):
        service = _service(max_workers=0)
        compiler = FailingCompiler()
        graph = micro.softmax_graph(8, 8)
        before = FailingCompiler.calls
        for _ in range(2):
            with pytest.raises(RuntimeError):
                service.compile(graph, compiler)
        assert FailingCompiler.calls == before + 2
        assert len(service.cache) == 0
        assert service.stats.failed == 2


class TestSingleFlight:
    def test_concurrent_requests_compile_once(self):
        service = _service(max_workers=4)
        compiler = CountingCompiler(delay=0.15)
        graph = micro.softmax_graph(32, 32)
        futures = [service.submit(graph, compiler) for _ in range(8)]
        modules = {id(f.result()) for f in futures}
        assert len(modules) == 1
        assert compiler.calls == 1
        assert service.stats.coalesced == 7

    def test_compile_many_fans_out(self):
        service = _service(max_workers=4)
        compiler = CountingCompiler(delay=0.05)
        graphs = [micro.row_reduce(8, n) for n in (8, 9, 10, 11)]
        started = time.perf_counter()
        modules = service.compile_many([(g, compiler) for g in graphs])
        elapsed = time.perf_counter() - started
        assert all(m is not None for m in modules)
        assert compiler.calls == 4
        # Four 50 ms sleeps on four workers overlap; serial would be
        # >= 200 ms.  Generous bound to stay robust on loaded CI.
        assert elapsed < 0.2 + 0.15

    def test_compile_many_maps_failures_to_none(self):
        service = _service(max_workers=0)
        graph = micro.softmax_graph(8, 8)
        results = service.compile_many(
            [(graph, CountingCompiler()), (graph, FailingCompiler())])
        assert results[0] is not None
        assert results[1] is None


class TestWarmup:
    def test_warmup_populates_cache(self):
        service = _service(max_workers=2)
        compiler = CountingCompiler()
        graphs = [micro.softmax_graph(8, 8), micro.row_reduce(8, 8)]
        report = service.warmup(graphs, [compiler])
        assert report.pairs == 2
        assert report.compiled == 2
        assert report.served_from_cache == 0
        assert not report.failures
        again = service.warmup(graphs, [compiler])
        assert again.compiled == 0
        assert again.served_from_cache == 2
        assert compiler.calls == 2

    def test_warmup_records_rejections(self):
        service = _service(max_workers=0)
        report = service.warmup([micro.softmax_graph(8, 8)],
                                [FailingCompiler()])
        assert report.pairs == 1
        assert report.compiled == 0
        assert len(report.failures) == 1
        graph_name, compiler_name, message = report.failures[0]
        assert compiler_name == "failing"
        assert "rejected" in message


class TestFrontEnds:
    """Session and JitCache ride the same service/cache."""

    def test_sessions_share_compilations(self):
        service = _service()
        compiler = CountingCompiler()
        s1 = Session(compiler=compiler, optimize_graphs=False,
                     service=service)
        s2 = Session(compiler=compiler, optimize_graphs=False,
                     service=service)
        g1, g2 = micro.softmax_graph(8, 8), micro.softmax_graph(8, 8)
        assert s1.module(g1) is s2.module(g2)
        assert compiler.calls == 1

    def test_session_unoptimized_keeps_graph_identity(self):
        # With a private cold cache, the unoptimized path compiles the
        # exact graph object handed in.
        graph = micro.softmax_graph(16, 8)
        session = Session(optimize_graphs=False, service=_service())
        assert session.module(graph).graph is graph

    def test_session_fingerprint_keying_defeats_id_reuse(self):
        # id(graph) of a collected graph can be recycled by a new
        # graph; fingerprint keys cannot alias.  Simulate the hazard
        # directly: two structurally different graphs must never share
        # an entry, and the cache entry pins its graph against GC.
        service = _service()
        session = Session(compiler=CountingCompiler(),
                          optimize_graphs=False, service=service)
        m1 = session.module(micro.softmax_graph(8, 8))
        m2 = session.module(micro.row_reduce(8, 8))
        assert m1 is not m2
        held = {id(g) for g, _ in session._modules.values()}
        assert len(held) == 2

    def test_jit_cache_factory_qualname_keying(self):
        # Two factories that share a bare __name__ must not alias.
        def build(rows=8, cols=8):
            return micro.softmax_graph(rows, cols)

        def build2(rows=8, cols=8):
            return micro.row_reduce(rows, cols)

        build2.__name__ = "build"
        build2.__qualname__ = build.__qualname__
        build2.__module__ = "somewhere.else"

        cache = JitCache(AStitchCompiler(), policy="exact",
                         service=_service())
        m1 = cache.get(build, {"rows": 8, "cols": 8})
        m2 = cache.get(build2, {"rows": 8, "cols": 8})
        assert m1 is not m2
        assert cache.stats.misses == 2

    def test_jit_caches_share_service_compilations(self):
        service = _service()
        compiler = CountingCompiler()
        c1 = JitCache(compiler, policy="exact", service=service)
        c2 = JitCache(compiler, policy="exact", service=service)
        dims = {"rows": 16, "cols": 16}
        assert (c1.get(micro.softmax_graph_factory, dims)
                is c2.get(micro.softmax_graph_factory, dims))
        assert compiler.calls == 1
        # Each JitCache still accounts its own (modeled) stats.
        assert c1.stats.misses == 1 and c2.stats.misses == 1
