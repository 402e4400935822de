"""Persistent, content-addressed tuning cache.

A tuned launch configuration is a pure function of three things: the
*group fingerprint* (a content digest of everything the candidate search
reads from a schedule group — dominant kind, reduce geometry, proxy
traffic, barrier/legality context), the device :class:`GPUSpec`, and the
tuning-relevant compiler configuration.  This module stores the winning
decision under exactly that key, so a shape that was tuned once — by any
session, in any process — never pays the candidate sweep again.

The store is the :class:`~repro.tiered_cache.TieredCache` (and the
``REPRO_COMPILE_CACHE_DIR`` directory) the compile cache of
:mod:`repro.runtime.compile_cache` and the plan cache of
:mod:`repro.runtime.plan` also use: a bounded in-memory LRU with
hit/miss/eviction counters, and pickled decisions stored as
``tune_<digest>.pkl`` next to the compiled modules and plans.  Entries
are validated against the format version *and* the full key on load, so
a stale or foreign file degrades to a miss, never a wrong config.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from typing import Optional

from repro.gpu.spec import GPUSpec
from repro.tiered_cache import TieredCache

# Bump on any change to the decision payload, the candidate space, the
# signature encoding or the key composition; invalidates every
# persisted tuning entry at once.
TUNING_FORMAT_VERSION = 1

# Decisions are tiny (one ThreadMapping plus a few floats); thousands of
# distinct group shapes fit in a few MB.
DEFAULT_CAPACITY = 4096


@dataclasses.dataclass(frozen=True)
class TuningKey:
    """Full address of one tuned launch decision.

    Attributes:
        group: Content digest of the group's tuning signature
            (:meth:`repro.tuning.tuner.GroupSignature.digest`).
        spec: Device spec, by value — any field change is a miss.
        config: Rendering of the tuning-relevant compiler configuration
            (block-size ceiling etc.); ablations cannot alias.
    """

    group: str
    spec: GPUSpec
    config: str

    def digest(self) -> str:
        """Stable hex digest — the persistent tier's file name."""
        text = "|".join([
            f"tune-v{TUNING_FORMAT_VERSION}", self.group,
            repr(dataclasses.astuple(self.spec)), self.config,
        ])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TuningCache(TieredCache[TuningKey, object]):
    """Two-tier store of tuning outcomes, persisted as
    ``tune_<digest>.pkl`` next to the compiled modules and plans.

    Values are :class:`~repro.tuning.tuner.TunedDecision` records or the
    per-scope lowering verdicts ``"tuned"``/``"heuristic"``, hence the
    ``object`` value type.  Thread-safe: compile-service workers tuning
    different graphs share the process-wide instance.
    """

    file_prefix = "tune_"
    format_version = TUNING_FORMAT_VERSION
    value_type = object
    default_capacity = DEFAULT_CAPACITY


# -- process-wide default -----------------------------------------------------

_default_tuning_cache: Optional[TuningCache] = None
_default_lock = threading.Lock()


def default_tuning_cache() -> TuningCache:
    """The process-wide tuning cache every compile shares by default
    (created lazily; honours ``REPRO_COMPILE_CACHE_DIR``)."""
    global _default_tuning_cache
    with _default_lock:
        if _default_tuning_cache is None:
            _default_tuning_cache = TuningCache.from_env()
        return _default_tuning_cache


def set_default_tuning_cache(cache: Optional[TuningCache]) -> None:
    """Replace the process-wide tuning cache (``None`` resets to lazy
    re-creation — used by tests and benches to isolate themselves)."""
    global _default_tuning_cache
    with _default_lock:
        _default_tuning_cache = cache
