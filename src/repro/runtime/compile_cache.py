"""Content-addressed compilation cache.

The paper's JIT cost (~90 s on 5,000–10,000-node graphs, Sec 6.4.1) is
"introduced only once for all following iterations" — this module makes
that amortization real across *graph objects*, *sessions* and *process
runs*.  A compiled module is addressed by what produced it:

    (compiler fingerprint, graph fingerprint, device spec, optimize flag)

where the graph fingerprint is the structural content hash of
:mod:`repro.ir.fingerprint`, the compiler fingerprint covers the
strategy class plus its configuration, and the device spec is taken by
value (every field, not just its name).  The store is the shared
:class:`~repro.tiered_cache.TieredCache`: a bounded in-memory LRU tier
plus an optional on-disk tier of pickled modules — point
``REPRO_COMPILE_CACHE_DIR`` at a persistent location and warm
compilations survive process restarts.  Entries are validated against
the format version, the full key and the value type on load, so a stale
or foreign file degrades to a miss, never a wrong module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from typing import Optional

from repro.compilers.base import CompiledModule, Compiler
from repro.gpu.spec import GPUSpec
# CACHE_DIR_ENV and CacheStats are re-exported: callers import them here.
from repro.tiered_cache import CACHE_DIR_ENV, CacheStats, TieredCache

# Bump on any change to the pickle payload layout or key composition;
# invalidates every persisted entry at once.  v2: keys carry the
# compiler's pipeline fingerprint, so recomposing a pass pipeline
# invalidates its cached artifacts instead of aliasing them.  v3: keys
# carry the whole device spec, not its name.
CACHE_FORMAT_VERSION = 3

# Default in-memory capacity: compiled modules are a few MB of Python
# objects at most; hundreds fit comfortably.
DEFAULT_CAPACITY = 256


def compiler_fingerprint(compiler: Compiler) -> str:
    """Identity of a compilation *strategy instance*.

    Covers the class (module + qualname guards against two strategies
    sharing a ``name``), the advertised name, and the configuration
    dataclass when the compiler carries one (``AStitchConfig`` ablations
    must not alias the full pipeline's artifacts).
    """
    cls = type(compiler)
    parts = [cls.__module__, cls.__qualname__, compiler.name]
    config = getattr(compiler, "config", None)
    if dataclasses.is_dataclass(config):
        fields = sorted(dataclasses.asdict(config).items())
        parts.append(";".join(f"{k}={v!r}" for k, v in fields))
    return "|".join(parts)


@dataclasses.dataclass(frozen=True)
class CacheKey:
    """Full address of one compilation result.

    Attributes:
        compiler: Compiler fingerprint (:func:`compiler_fingerprint`).
        graph: Structural graph fingerprint.
        spec: Device spec, by value — two specs that share a name but
            differ in any field never share an artifact.
        optimize: Whether the retained simplification pipeline ran
            before kernel formation (``compile_optimized`` vs
            ``compile``).
        pipeline: The compiler's pipeline-composition fingerprint
            (:meth:`~repro.compilers.base.Compiler.pipeline_fingerprint`,
            "" for compilers without a declared pipeline) — reordering
            or reconfiguring a pass re-keys every artifact it produced.
    """

    compiler: str
    graph: str
    spec: GPUSpec
    optimize: bool
    pipeline: str = ""

    def digest(self) -> str:
        """Stable hex digest — the persistent tier's file name."""
        text = "|".join([f"v{CACHE_FORMAT_VERSION}", self.compiler,
                         self.graph, repr(dataclasses.astuple(self.spec)),
                         str(self.optimize),
                         self.pipeline])
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CompileCache(TieredCache[CacheKey, CompiledModule]):
    """Two-tier store of compiled modules, persisted as ``<digest>.pkl``.

    Thread-safe: the compile service hits it from worker threads.
    """

    file_prefix = ""
    format_version = CACHE_FORMAT_VERSION
    value_type = CompiledModule
    default_capacity = DEFAULT_CAPACITY


# -- process-wide default ---------------------------------------------------------

_default_cache: Optional[CompileCache] = None
_default_lock = threading.Lock()


def default_cache() -> CompileCache:
    """The process-wide cache every service/session shares by default
    (created lazily; honours ``REPRO_COMPILE_CACHE_DIR``)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = CompileCache.from_env()
        return _default_cache


def set_default_cache(cache: Optional[CompileCache]) -> None:
    """Replace the process-wide cache (``None`` resets to lazy
    re-creation — used by tests to isolate themselves)."""
    global _default_cache
    with _default_lock:
        _default_cache = cache
