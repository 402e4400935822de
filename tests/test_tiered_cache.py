"""The shared two-tier store and the contract of its three persistent
tiers (compiled modules, execution plans, tuning decisions).

Every persistent-tier case runs once per tier, against the tier's real
file name, so a change to one tier's prefix, format version or value
type cannot slip past a test written for another.
"""

import dataclasses
import pickle
import sys
import threading
from typing import Any, Callable, Optional

import pytest

from repro import tiered_cache
from repro.core import AStitchCompiler
from repro.gpu.spec import T4, V100
from repro.runtime.compile_cache import (
    CACHE_FORMAT_VERSION,
    CacheKey,
    CompileCache,
    compiler_fingerprint,
)
from repro.runtime.engine import Engine, EngineConfig
from repro.runtime.plan import (
    PLAN_FORMAT_VERSION,
    PlanCache,
    module_pricing_signature,
    plan_key,
)
from repro.ir.fingerprint import graph_fingerprint
from repro.tiered_cache import TieredCache
from repro.tuning import TUNING_FORMAT_VERSION, TuningCache, TuningKey
from repro.workloads import micro


@dataclasses.dataclass
class Tier:
    """One persistent tier and a real entry for it.

    Attributes:
        cls: The cache class.
        prefix: Expected file-name prefix (``<prefix><digest>.pkl``).
        version: The tier's format version.
        legacy_field: The value field of the payload written before the
            tiers shared one store.
        key: A key for ``value``.
        other_key: A different key of the same tier.
        value: A value the tier stores.
        wrong_value: A value of the wrong type (None for the tuning
            tier, which stores any object).
        same: Whether a loaded value equals ``value``.
    """

    cls: type
    prefix: str
    version: int
    legacy_field: str
    key: Any
    other_key: Any
    value: Any
    wrong_value: Any
    same: Callable[[Any, Any], bool]


def _compile_tier(module, plan) -> Tier:
    def key(spec):
        return CacheKey(compiler=compiler_fingerprint(AStitchCompiler()),
                        graph=graph_fingerprint(module.graph),
                        spec=spec, optimize=False)
    return Tier(CompileCache, "", CACHE_FORMAT_VERSION, "module",
                key(V100), key(T4), module, plan,
                lambda a, b: (module_pricing_signature(a)
                              == module_pricing_signature(b)))


def _plan_tier(module, plan) -> Tier:
    config = EngineConfig.current()
    return Tier(PlanCache, "plan_", PLAN_FORMAT_VERSION, "plan",
                plan_key(module, V100, config),
                plan_key(module, T4, config), plan, module,
                lambda a, b: a == b)


def _tuning_tier(module, plan) -> Tier:
    def key(spec):
        return TuningKey(group="row-reduce-200x200000", spec=spec,
                         config="atm=1|block=1024")
    return Tier(TuningCache, "tune_", TUNING_FORMAT_VERSION, "decision",
                key(V100), key(T4), "tuned", None, lambda a, b: a == b)


@pytest.fixture(scope="module")
def entry():
    module = AStitchCompiler().compile(micro.softmax_graph(16, 8), V100)
    return module, Engine(V100, plan_cache=None).plan(module)


@pytest.fixture(params=[_compile_tier, _plan_tier, _tuning_tier],
                ids=["compile", "plan", "tuning"])
def tier(request, entry) -> Tier:
    return request.param(*entry)


@pytest.fixture(params=[_compile_tier, _plan_tier], ids=["compile", "plan"])
def typed_tier(request, entry) -> Tier:
    return request.param(*entry)


def _path(tier: Tier, directory):
    return directory / f"{tier.prefix}{tier.key.digest()}.pkl"


def _write(tier: Tier, directory, payload: dict) -> None:
    _path(tier, directory).write_bytes(pickle.dumps(payload))


def _payload(tier: Tier, **changes) -> dict:
    payload = {"version": tier.version, "key": tier.key,
               "value": tier.value}
    payload.update(changes)
    return payload


def _fresh_get(tier: Tier, directory) -> Optional[Any]:
    cache = tier.cls(cache_dir=directory)
    value = cache.get(tier.key)
    assert cache.stats.misses == (value is None)
    return value


class TestPersistentTiers:
    def test_restart_round_trip(self, tier, tmp_path):
        first = tier.cls(cache_dir=tmp_path)
        first.put(tier.key, tier.value)
        assert first.stats.disk_stores == 1
        assert [p.name for p in tmp_path.iterdir()] \
            == [_path(tier, tmp_path).name]
        # A fresh cache over the same directory models a new process.
        second = tier.cls(cache_dir=tmp_path)
        served = second.get(tier.key)
        assert tier.same(served, tier.value)
        assert second.stats.disk_hits == 1
        # Promoted into memory: the next lookup is a memory hit.
        assert second.get(tier.key) is served
        assert second.stats.hits == 1

    def test_hand_built_payload_is_served(self, tier, tmp_path):
        """Control for the cases below: a hand-written payload in the
        current layout is a hit, so each of their misses comes from the
        one field they change."""
        _write(tier, tmp_path, _payload(tier))
        assert tier.same(_fresh_get(tier, tmp_path), tier.value)

    def test_corrupt_file_is_a_miss(self, tier, tmp_path):
        _path(tier, tmp_path).write_bytes(b"not a pickle")
        assert _fresh_get(tier, tmp_path) is None

    def test_version_mismatch_is_a_miss(self, tier, tmp_path):
        _write(tier, tmp_path, _payload(tier, version=tier.version + 1))
        assert _fresh_get(tier, tmp_path) is None

    def test_key_mismatch_is_a_miss(self, tier, tmp_path):
        """A file whose embedded key disagrees (a digest collision or a
        tampered entry) is never served."""
        _write(tier, tmp_path, _payload(tier, key=tier.other_key))
        assert _fresh_get(tier, tmp_path) is None

    def test_wrong_value_type_is_a_miss(self, typed_tier, tmp_path):
        tier = typed_tier
        _write(tier, tmp_path, _payload(tier, value=tier.wrong_value))
        assert _fresh_get(tier, tmp_path) is None

    def test_pre_change_layout_is_a_miss_then_overwritten(self, tier,
                                                          tmp_path):
        legacy = {"version": tier.version, "key": tier.key,
                  tier.legacy_field: tier.value}
        _write(tier, tmp_path, legacy)
        cache = tier.cls(cache_dir=tmp_path)
        assert cache.get(tier.key) is None
        assert cache.stats.misses == 1
        cache.put(tier.key, tier.value)
        stored = pickle.loads(_path(tier, tmp_path).read_bytes())
        assert set(stored) == {"version", "key", "value"}
        assert tier.same(_fresh_get(tier, tmp_path), tier.value)

    def test_regular_file_cache_dir_is_memory_only(self, tier, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_bytes(b"")
        cache = tier.cls(cache_dir=blocker)
        cache.put(tier.key, tier.value)
        assert cache.stats.disk_stores == 0
        assert cache.get(tier.key) is tier.value
        assert tier.cls(cache_dir=blocker).get(tier.key) is None
        assert blocker.read_bytes() == b""


@dataclasses.dataclass(frozen=True)
class _Key:
    name: str

    def digest(self) -> str:
        return self.name


class _Probe:
    """Records the pickling context when it is pickled."""

    seen: list = []

    def __reduce__(self):
        _Probe.seen.append((sys.getrecursionlimit(),
                            tiered_cache._pickle_lock.locked()))
        return (_Probe, ())


class _Link:
    """One level of a deep chain; its Python ``__reduce__`` lets other
    threads run while the chain is being pickled."""

    def __init__(self, rest):
        self.rest = rest

    def __reduce__(self):
        return (_Link, (self.rest,))


class TestTieredCache:
    def test_defaults_come_from_the_class(self):
        assert CompileCache().capacity == 256
        assert PlanCache().capacity == 512
        assert TuningCache().capacity == 4096
        assert TieredCache(capacity=3).capacity == 3

    def test_repr_names_the_tier(self, tmp_path):
        assert repr(PlanCache()).startswith(
            "PlanCache(entries=0/512, dir=memory-only")
        assert f"dir={tmp_path}" in repr(TuningCache(cache_dir=tmp_path))

    def test_dump_runs_under_raised_limit_and_lock(self, tmp_path):
        _Probe.seen.clear()
        TieredCache(cache_dir=tmp_path).put(_Key("probe"), _Probe())
        [(limit, locked)] = _Probe.seen
        assert limit >= 100_000
        assert locked

    def test_recursion_limit_restored_after_put(self, tmp_path):
        before = sys.getrecursionlimit()
        cache = TieredCache(cache_dir=tmp_path)
        cache.put(_Key("a"), "value")
        assert cache.stats.disk_stores == 1
        assert sys.getrecursionlimit() == before

    def test_recursion_limit_restored_after_failed_pickle(self, tmp_path):
        before = sys.getrecursionlimit()
        cache = TieredCache(cache_dir=tmp_path)
        with pytest.raises(TypeError):
            cache.put(_Key("a"), threading.Lock())
        assert sys.getrecursionlimit() == before
        assert not tiered_cache._pickle_lock.locked()

    def test_concurrent_stores_keep_a_deep_pickle_alive(self, tmp_path):
        """Stores of small values into other caches, interleaved with a
        deep pickle, neither lower the limit under it nor leak the
        raised limit."""
        deep = None
        for _ in range(3000):  # deeper than the default limit of 1000
            deep = _Link(deep)
        before = sys.getrecursionlimit()
        errors = []

        def store(name, value, rounds):
            cache = TieredCache(cache_dir=tmp_path)
            try:
                for i in range(rounds):
                    cache.put(_Key(f"{name}-{i % 4}"), value)
            except RecursionError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=store, args=("deep", deep, 20))]
        threads += [threading.Thread(target=store, args=(f"small{n}", n, 500))
                    for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sys.getrecursionlimit() == before
