"""User-facing execution sessions.

The paper's usability pitch (Sec 5): users point TensorFlow at the
AStitch engine and change nothing else — compilation happens behind the
first call.  ``Session`` is that surface for this library: hand it
graphs and feeds, it compiles each graph once (optionally through the
retained simplification pipeline), caches the module, executes the
numerics, and prices each module through the shared plan cache.

    session = Session()                       # AStitch on a model V100
    outputs = session.run(graph, {"x": data})
    print(session.profile(graph).total_time)

Compilation is routed through the process-wide
:class:`~repro.runtime.compile_service.CompileService`, so structurally
identical graphs share one compiled artifact across sessions (and, with
``REPRO_COMPILE_CACHE_DIR`` set, across process runs).  Cache entries
are keyed by the structural graph fingerprint — never by ``id(graph)``,
whose values the allocator recycles after garbage collection — and each
entry pins the graph it was keyed for, so aliasing is impossible.
"""

from __future__ import annotations

import threading
from typing import Mapping, Optional

import numpy as np

from repro.compilers.base import CompiledModule, Compiler
from repro.gpu.spec import GPUSpec, V100
from repro.ir.fingerprint import graph_fingerprint
from repro.ir.graph import Graph
from repro.runtime.engine import Engine, Profile


class Session:
    """Compile-once, run-many execution façade.

    Safe for concurrent use: one session may be hammered from many
    threads (the module cache is lock-guarded, first-compile races
    deduplicate through the compile service's single-flight).

    Args:
        compiler: Compilation strategy (AStitch when omitted).
        spec: Device model to compile and price for.
        optimize_graphs: Run the retained simplification pipeline
            before kernel formation.
        service: Compile service to route through; defaults to the
            process-wide shared one.
    """

    def __init__(self, compiler: Optional[Compiler] = None,
                 spec: GPUSpec = V100, optimize_graphs: bool = True,
                 service=None):
        if compiler is None:
            from repro.core.compiler import AStitchCompiler
            compiler = AStitchCompiler()
        if service is None:
            from repro.runtime.compile_service import default_service
            service = default_service()
        self.compiler = compiler
        self.spec = spec
        self.optimize_graphs = optimize_graphs
        self.service = service
        self.engine = Engine(spec)
        # One session may serve many threads (the serving layer's
        # workers, user thread pools): every read-modify-write of the
        # state below happens under this lock.  Compilation itself is
        # left outside the critical section — the compile service does
        # its own single-flight dedup, so concurrent first calls are
        # coalesced there instead of serializing here.
        self._lock = threading.Lock()
        self._modules: dict[str, tuple[Graph, CompiledModule]] = {}
        self.iterations = 0

    def module(self, graph: Graph) -> CompiledModule:
        """The compiled module for ``graph`` (compiling on first use)."""
        key = graph_fingerprint(graph)
        with self._lock:
            entry = self._modules.get(key)
        if entry is None:
            module = self.service.compile(graph, self.compiler, self.spec,
                                          optimize=self.optimize_graphs)
            with self._lock:
                # Another thread may have raced us here; keep the first
                # entry so callers always see one stable module object.
                entry = self._modules.setdefault(key, (graph, module))
        return entry[1]

    def run(self, graph: Graph,
            feeds: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Execute one iteration and return the graph outputs.

        Note: when graph optimization is enabled (or the module was
        served from a structurally identical graph's compilation),
        outputs keep their positions but may carry regenerated names;
        they are returned under the *original* graph's output names.
        """
        module = self.module(graph)
        raw = module.execute(feeds)
        with self._lock:
            self.iterations += 1
        if module.graph is graph:
            return raw
        renamed = {}
        for original, compiled in zip(graph.outputs,
                                      module.graph.outputs):
            renamed[original.name] = raw[compiled.name]
        return renamed

    def profile(self, graph: Graph) -> Profile:
        """The priced profile of one iteration of ``graph`` — the
        engine's cached plan, one shared object per (module, spec,
        config)."""
        return self.engine.plan(self.module(graph))

    def pass_reports(self, graph: Graph):
        """Per-pass instrumentation of ``graph``'s compilation.

        One :class:`~repro.pipeline.base.PassReport` per pipeline pass,
        in execution order (compiling on first use).  Empty for
        compilers without a declared pipeline.  Reports ride the module
        itself, so a module served from the compile cache still carries
        the timing of the compilation that produced it.
        """
        module = self.module(graph)
        return tuple(getattr(module, "pass_reports", ()) or ())

    def pass_timing(self, graph: Graph) -> dict[str, float]:
        """Pass name -> wall seconds for ``graph``'s compilation."""
        timing: dict[str, float] = {}
        for report in self.pass_reports(graph):
            timing[report.pass_name] = \
                timing.get(report.pass_name, 0.0) + report.seconds
        return timing

    @property
    def compile_seconds(self) -> float:
        """Total modeled JIT time this session's modules embody."""
        with self._lock:
            modules = list(self._modules.values())
        return sum(module.compile_seconds for _, module in modules)

    def __repr__(self) -> str:
        return (f"Session(compiler={self.compiler.name}, "
                f"device={self.spec.name}, "
                f"graphs={len(self._modules)}, "
                f"iterations={self.iterations})")
