"""Serving through the plan layer: same numbers, fewer pricings.

The plan cache is a pure wall-clock optimization — every service time
the oracle serves must equal the scalar reference pricing
(``Engine(spec, plan_cache=None).price_profile``) bit for bit.
"""

import dataclasses

import pytest

from repro.core import AStitchCompiler
from repro.gpu.spec import T4, V100
from repro.runtime.engine import Engine
from repro.runtime.plan import PlanCache
from repro.serving.batcher import DynamicBatcher
from repro.serving.cluster import Cluster
from repro.serving.worker import ServiceTimeOracle, make_fleet
from repro.workloads import build_cached


class TestOracleMatchesScalarPricing:
    @pytest.mark.parametrize("bucket", [1, 2, 4])
    @pytest.mark.parametrize("spec", [V100, T4], ids=lambda s: s.name)
    @pytest.mark.parametrize("workload", ["CRNN", "Transformer"])
    def test_service_time_equals_price_profile(self, workload, spec,
                                               bucket):
        oracle = ServiceTimeOracle(AStitchCompiler(), plan_cache=PlanCache())
        module = oracle.service.compile(build_cached(workload, batch=bucket),
                                        oracle.compiler, spec)
        reference = Engine(spec, plan_cache=None).price_profile(module)
        assert oracle.service_time(workload, bucket, spec) \
            == reference.total_time


class TestOracleSharing:
    def test_oracle_prices_each_bucket_once(self):
        cache = PlanCache()
        oracle = ServiceTimeOracle(AStitchCompiler(), plan_cache=cache)
        first = oracle.service_time("CRNN", 4, V100)
        again = oracle.service_time("CRNN", 4, V100)
        assert first == again
        # One plan built for the (workload, bucket, spec) triple; the
        # repeat lookup is served by the oracle's own memo or the cache.
        assert cache.stats.misses <= 1

    def test_same_name_specs_priced_apart(self):
        # A half-bandwidth "V100" shares V100's name, never its time.
        half = dataclasses.replace(V100,
                                   dram_bandwidth=V100.dram_bandwidth / 2)
        oracle = ServiceTimeOracle(AStitchCompiler(), plan_cache=PlanCache())
        full_time = oracle.service_time("CRNN", 1, V100)
        half_time = oracle.service_time("CRNN", 1, half)
        fresh = ServiceTimeOracle(AStitchCompiler(), plan_cache=PlanCache())
        assert half_time == fresh.service_time("CRNN", 1, half)
        assert half_time > full_time

    def test_cluster_exposes_oracle_plan_cache(self):
        cache = PlanCache()
        oracle = ServiceTimeOracle(AStitchCompiler(), plan_cache=cache)
        cluster = Cluster(make_fleet([V100], oracle),
                          DynamicBatcher(max_batch=4))
        assert cluster.oracle.plan_cache is cache
