"""BENCH: cold vs. warm pricing through the execution-plan layer.

PR 1 amortized compilation; this PR amortizes pricing.  A module's
priced timeline is a pure function of (module content, spec, engine
config), so the plan cache turns the serving hot path from
O(requests x steps) cost-model work into O(unique modules): a 10k-request
mixed loadtest on a cold process state (fresh compile cache, fresh plan
cache, fresh oracle) is compared against the same test with warm caches
(only the oracle is fresh), and the per-module plan build/replay
micro-timings and the Fig 11 figure-harness pricing loop are recorded
alongside.  Results go to ``BENCH_hotpath.json`` (repo root and
``benchmarks/results/``).

Acceptance bars asserted here: >= 10,000 requests, >= 5x warm-vs-cold
wall clock, identical cold and warm metrics, and every service time
equal to the scalar reference pricing.
"""

from __future__ import annotations

from repro.analysis.hotpath import render_hotpath_report, run_hotpath_bench

from benchmarks.conftest import record_bench, save_report

SPEEDUP_FLOOR = 5.0
REQUEST_FLOOR = 10_000


def test_bench_hotpath():
    """Cold-vs-warm hot-path wall time; asserts the >=5x warm speedup."""
    payload = run_hotpath_bench()

    record_bench("hotpath", payload)
    save_report("BENCH_hotpath", render_hotpath_report(payload))

    load = payload["loadtest"]
    assert load["requests"] >= REQUEST_FLOOR, (
        f"loadtest offered only {load['requests']} requests "
        f"(floor {REQUEST_FLOOR})")
    assert load["speedup"] >= SPEEDUP_FLOOR, (
        f"warm loadtest only {load['speedup']:.1f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR}x)")
    assert payload["figure_harness"]["speedup"] >= SPEEDUP_FLOOR
    # The fast path must be invisible in the numbers: cold and warm
    # reports are identical, and every service time equals scalar
    # ``Engine.price_profile`` bit for bit.
    assert payload["deterministic"]
    # Warm passes replay cached plans instead of re-pricing.
    assert payload["plan_cache"]["hits"] >= payload["plan_cache"]["misses"]
    for row in payload["plans"]:
        assert row["replay_seconds"] < row["build_seconds"]
