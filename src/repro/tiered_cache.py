"""Two-tier (memory LRU + optional disk) content-addressed store.

One implementation behind every cache that amortizes a pure derivation
across requests and process runs — compiled modules
(:mod:`repro.runtime.compile_cache`), priced execution plans
(:mod:`repro.runtime.plan`), tuning decisions (:mod:`repro.tuning.cache`)
and, memory-only, the occupancy memo (:mod:`repro.gpu.occupancy`):

* an in-memory LRU tier, bounded, with hit/miss/eviction counters;
* an optional persistent tier of pickled ``{"version", "key", "value"}``
  payloads, one ``<prefix><key digest>.pkl`` file per entry, written
  atomically (temp file + rename).  On load the format version, the
  full key *and* the value type are checked, so a stale, foreign or
  truncated file degrades to a miss, never a wrong value.

A concrete tier is a subclass that sets four class attributes (file
prefix, format version, value type, default capacity); keys need only
be hashable, comparable and — for the persistent tier — carry a
``digest()`` method naming their file.

Imports nothing from ``repro``, so any package (including
:mod:`repro.gpu`, which the runtime imports) can build on it without an
import cycle.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import pathlib
import pickle
import sys
import threading
from typing import Generic, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")

CACHE_DIR_ENV = "REPRO_COMPILE_CACHE_DIR"

# Workload graphs nest operand references deeply; pickling a long
# elementwise chain recurses once per node.
_PICKLE_RECURSION_LIMIT = 100_000

# The recursion limit is process-wide: one lock spans raise, dump and
# restore, so a concurrent store cannot put the default limit back while
# another thread is still pickling a deep graph.
_pickle_lock = threading.Lock()


def _pickle_dumps(payload) -> bytes:
    with _pickle_lock:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, _PICKLE_RECURSION_LIMIT))
        try:
            return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            sys.setrecursionlimit(limit)


@dataclasses.dataclass
class CacheStats:
    """Cache behaviour counters.

    Attributes:
        hits: Requests served from the in-memory tier.
        disk_hits: Requests served from the persistent tier (and
            promoted into memory).
        misses: Requests neither tier could serve.
        evictions: Entries dropped from memory by the LRU bound
            (entries already persisted remain on disk).
        disk_stores: Values written to the persistent tier.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_stores: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served by either tier (0.0 when idle)."""
        if not self.requests:
            return 0.0
        return (self.hits + self.disk_hits) / self.requests


class TieredCache(Generic[K, V]):
    """Two-tier (memory LRU + optional disk) store of ``K -> V``.

    Thread-safe: compile-service workers, serving workers and session
    threads share the process-wide instances.  ``None`` is never a
    cached value (it is the miss sentinel).

    Args:
        capacity: In-memory entry bound; the least recently used entry
            is evicted past it.  Defaults to the class's
            :attr:`default_capacity`.
        cache_dir: Directory for the persistent tier; ``None`` keeps the
            cache memory-only (use :meth:`from_env` to honour
            ``REPRO_COMPILE_CACHE_DIR``).
    """

    # Persistent file name prefix: ``<file_prefix><digest>.pkl``.
    file_prefix: str = ""
    # Bump (per subclass) on any change to the payload or key layout;
    # invalidates every persisted entry of that tier at once.
    format_version: int = 1
    # Loaded values that are not instances of this type are misses.
    value_type: type = object
    default_capacity: int = 256

    def __init__(self, capacity: Optional[int] = None,
                 cache_dir: Optional[str | os.PathLike] = None):
        if capacity is None:
            capacity = self.default_capacity
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.cache_dir = (pathlib.Path(cache_dir)
                          if cache_dir is not None else None)
        self.stats = CacheStats()
        self._entries: "collections.OrderedDict[K, V]" = \
            collections.OrderedDict()
        self._lock = threading.RLock()

    @classmethod
    def from_env(cls, capacity: Optional[int] = None):
        """A cache whose persistent tier follows the environment:
        set ``REPRO_COMPILE_CACHE_DIR`` to enable it."""
        return cls(capacity=capacity,
                   cache_dir=os.environ.get(CACHE_DIR_ENV) or None)

    # -- lookup / store ---------------------------------------------------------

    def get(self, key: K) -> Optional[V]:
        """The cached value for ``key``, or None (counts a miss)."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return value
            value = self._disk_load(key)
            if value is not None:
                self.stats.disk_hits += 1
                self._insert(key, value)
                return value
            self.stats.misses += 1
            return None

    def put(self, key: K, value: V) -> None:
        """Store ``value`` in both tiers (disk only when configured)."""
        with self._lock:
            self._insert(key, value)
            self._disk_store(key, value)

    def _insert(self, key: K, value: V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the in-memory tier (the persistent tier is untouched)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._entries

    # -- persistent tier --------------------------------------------------------

    def _path(self, key: K) -> Optional[pathlib.Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{self.file_prefix}{key.digest()}.pkl"

    def _disk_load(self, key: K) -> Optional[V]:
        path = self._path(key)
        if path is None:
            return None
        try:
            payload = pickle.loads(path.read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("version") != self.format_version
                or payload.get("key") != key):
            return None
        value = payload.get("value")
        return value if isinstance(value, self.value_type) else None

    def _disk_store(self, key: K, value: V) -> None:
        path = self._path(key)
        if path is None:
            return
        payload = {"version": self.format_version, "key": key,
                   "value": value}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            blob = _pickle_dumps(payload)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(blob)
            tmp.replace(path)
        except OSError:
            return  # an unwritable cache dir degrades to memory-only
        self.stats.disk_stores += 1

    def __repr__(self) -> str:
        tier = str(self.cache_dir) if self.cache_dir else "memory-only"
        return (f"{type(self).__name__}(entries={len(self)}/"
                f"{self.capacity}, dir={tier}, hits={self.stats.hits}, "
                f"disk_hits={self.stats.disk_hits}, "
                f"misses={self.stats.misses})")
