"""Command-line interface.

    python -m repro list
    python -m repro run CRNN [--compiler AStitch] [--device V100] [--train]
    python -m repro compare DIEN [--device T4]
    python -m repro dump-graph BERT [--full]
    python -m repro dump-cuda softmax
    python -m repro warmup [--cache-dir ~/.cache/repro] [--train]
    python -m repro passes CRNN DIEN --compiler all --verify
    python -m repro serve Transformer --qps 10 --workers 2 [--policy edf]
    python -m repro loadtest --workload transformer --qps 8 --workers 2
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import render_table
from repro.codegen.cuda_source import emit_module_source
from repro.compilers import (
    AnsorCompiler,
    CudaGraphCompiler,
    FusionStitchingCompiler,
    TensorFlowCompiler,
    TensorRTCompiler,
    TVMCompiler,
    XLACompiler,
)
from repro.core import AStitchCompiler
from repro.gpu.spec import A100, T4, V100
from repro.ir.printer import format_graph, format_summary
from repro.runtime import CompileCache, CompileService, Engine, \
    default_service
from repro.workloads import WORKLOADS, build, micro

COMPILERS = {
    "TensorFlow": TensorFlowCompiler,
    "XLA": XLACompiler,
    "TVM": TVMCompiler,
    "TensorRT": TensorRTCompiler,
    "Ansor": AnsorCompiler,
    "CUDAGraph": CudaGraphCompiler,
    "FusionStitching": FusionStitchingCompiler,
    "AStitch": AStitchCompiler,
}

DEVICES = {"V100": V100, "T4": T4, "A100": A100}

MICRO_GRAPHS = {
    "softmax": lambda: micro.softmax_graph(1024, 256),
    "fig5": lambda: micro.power_broadcast_add(4096, 128),
    "fig7": lambda: micro.fig7_subgraph(1024, 512),
    "column-chain": lambda: micro.column_reduce_chain(256, 8),
}


def _build_graph(name: str, training: bool):
    if name in WORKLOADS:
        return build(name, training=training)
    if name in MICRO_GRAPHS:
        return MICRO_GRAPHS[name]()
    raise SystemExit(
        f"unknown graph {name!r}; workloads: {', '.join(WORKLOADS)}; "
        f"micro: {', '.join(MICRO_GRAPHS)}")


def cmd_list(_args) -> int:
    """List the registered workloads and micro graphs."""
    rows = [[name, spec.field, "yes" if spec.training else "no"]
            for name, spec in WORKLOADS.items()]
    print(render_table(["workload", "field", "trainable"], rows,
                       title="registered workloads (Table 2)"))
    print("\nmicro graphs:", ", ".join(MICRO_GRAPHS))
    return 0


def cmd_run(args) -> int:
    """Compile and price one graph under one compiler."""
    graph = _build_graph(args.graph, args.train)
    compiler = COMPILERS[args.compiler]()
    spec = DEVICES[args.device]
    module = compiler.compile(graph, spec)
    profile = Engine(spec).run(module)
    counters = profile.aggregate_mem_counters()
    print(format_summary(graph))
    if args.profile:
        from repro.analysis.profiler_report import gpu_summary
        print()
        print(gpu_summary(profile))
        print()
    if args.explain:
        from repro.codegen.builder import kernel_cost_inputs
        from repro.gpu.costmodel import cost_model_for
        cost_model = cost_model_for(spec)
        kernels = sorted(module.kernels(), key=lambda k: -cost_model
                         .price(kernel_cost_inputs(k)).duration)[:5]
        rows = []
        for kernel in kernels:
            explain = cost_model.explain(kernel_cost_inputs(kernel))
            rows.append([
                kernel.name,
                explain["bound_by"],
                f"{explain['memory_time']*1e6:.1f}",
                f"{explain['compute_time']*1e6:.1f}",
                f"{explain['wave_floor']*1e6:.1f}",
                f"{explain['barrier_time']*1e6:.1f}",
                f"{explain['achieved_occupancy']:.2f}",
            ])
        print()
        print(render_table(
            ["kernel", "bound by", "mem (us)", "fp (us)",
             "wave (us)", "barrier (us)", "occupancy"], rows,
            title="cost-model breakdown, top kernels by time"))
        print()
    print(render_table(
        ["metric", "value"],
        [["total time (ms)", f"{profile.total_time*1e3:.3f}"],
         ["MEM time (ms)", f"{profile.mem_time*1e3:.3f}"],
         ["compute time (ms)", f"{profile.compute_time*1e3:.3f}"],
         ["overhead (ms)", f"{profile.overhead_time*1e3:.3f}"],
         ["MEM kernels", profile.mem_kernel_count],
         ["memcpy calls", profile.memcpy_count],
         ["achieved occupancy", f"{counters.achieved_occupancy:.2f}"],
         ["sm efficiency", f"{counters.sm_efficiency:.2f}"],
         ["modeled JIT seconds", f"{module.compile_seconds:.1f}"]],
        title=f"{args.compiler} on {args.device}"))
    return 0


def cmd_compare(args) -> int:
    """Run every compiler on one graph and tabulate speedups."""
    graph = _build_graph(args.graph, args.train)
    spec = DEVICES[args.device]
    engine = Engine(spec)
    service = default_service()
    futures = [(name, service.submit(graph, compiler_cls(), spec))
               for name, compiler_cls in COMPILERS.items()]
    rows = []
    baseline = None
    for name, future in futures:
        try:
            module = future.result()
        except RuntimeError as error:
            rows.append([name, "-", "-", "-", f"({error})"])
            continue
        profile = engine.run(module)
        if baseline is None:
            baseline = profile.total_time
        rows.append([
            name,
            f"{profile.total_time*1e3:.3f}",
            f"{baseline/profile.total_time:.2f}x",
            profile.mem_kernel_count,
            "",
        ])
    print(format_summary(graph))
    print(render_table(
        ["compiler", "total (ms)", "speedup", "MEM kernels", "note"],
        rows, title=f"{args.graph} on {args.device}"))
    return 0


def cmd_dump_graph(args) -> int:
    """Print the graph (summary, census or full HLO-style dump)."""
    graph = _build_graph(args.graph, args.train)
    if args.full:
        print(format_graph(graph))
    elif args.stats:
        from repro.analysis.graph_stats import render_stats
        print(render_stats(graph))
    else:
        print(format_summary(graph))
    return 0


def cmd_dump_cuda(args) -> int:
    """Emit the prototype CUDA of every stitched kernel."""
    graph = _build_graph(args.graph, args.train)
    module = AStitchCompiler().compile(graph, DEVICES[args.device])
    print(emit_module_source(module))
    return 0


def cmd_report(args) -> int:
    """Run the headline comparison over every workload and write a
    markdown summary (the quick version of the benchmark harness)."""
    from repro.analysis import geomean

    spec = DEVICES[args.device]
    engine = Engine(spec)
    service = default_service()
    systems = ["TensorFlow", "XLA", "TensorRT", "AStitch"]
    graphs = {name: build(name) for name in WORKLOADS}
    service.warmup(graphs.values(),
                   [COMPILERS[s]() for s in systems], spec)
    lines = [f"# AStitch reproduction report ({args.device})", ""]
    lines += ["| model | " + " | ".join(systems) + " | MEM kernels "
              "(XLA→AStitch) |",
              "|" + "---|" * (len(systems) + 2)]
    vs_xla = []
    for name, graph in graphs.items():
        profiles = {}
        for system in systems:
            module = service.compile(graph, COMPILERS[system](), spec)
            profiles[system] = engine.run(module)
        base = profiles["TensorFlow"].total_time
        vs_xla.append(profiles["XLA"].total_time
                      / profiles["AStitch"].total_time)
        cells = [f"{base / profiles[s].total_time:.2f}x"
                 for s in systems]
        kernels = (f"{profiles['XLA'].mem_kernel_count}"
                   f"→{profiles['AStitch'].mem_kernel_count}")
        lines.append(f"| {name} | " + " | ".join(cells)
                     + f" | {kernels} |")
    lines += ["",
              f"AStitch vs XLA geomean: **{geomean(vs_xla):.2f}x** "
              f"(paper: 1.84x average, up to 2.73x)", ""]
    report = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report + "\n")
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def cmd_warmup(args) -> int:
    """Pre-compile workloads × compilers into the compile cache.

    With ``--cache-dir`` (or ``REPRO_COMPILE_CACHE_DIR``), compiled
    modules persist on disk, so later runs — including in fresh
    processes — start with a warm cache.
    """
    if args.cache_dir:
        cache = CompileCache(cache_dir=args.cache_dir)
    else:
        cache = CompileCache.from_env()
    service = CompileService(cache=cache, max_workers=args.workers)
    names = [c for c in args.compilers.split(",") if c]
    for name in names:
        if name not in COMPILERS:
            raise SystemExit(f"unknown compiler {name!r}; "
                             f"choices: {', '.join(COMPILERS)}")
    compilers = [COMPILERS[name]() for name in names]
    spec = DEVICES[args.device]
    report = service.warmup(compilers=compilers, spec=spec,
                            training=args.train)
    rows = [["(graph, compiler) pairs", report.pairs],
            ["compiled cold", report.compiled],
            ["served from cache", report.served_from_cache],
            ["rejected", len(report.failures)],
            ["wall seconds", f"{report.seconds:.2f}"],
            ["persistent entries written", cache.stats.disk_stores],
            ["cache dir", str(cache.cache_dir or "(memory only)")]]
    print(render_table(["metric", "value"], rows,
                       title=f"compile-cache warmup ({args.device})"))
    for graph_name, compiler_name, error in report.failures:
        print(f"  skipped {graph_name} / {compiler_name}: {error}")
    return 0


def _canonical_workloads(names) -> list[str]:
    """Resolve case-insensitive workload names against the registry."""
    lookup = {name.lower(): name for name in WORKLOADS}
    resolved = []
    for raw in names:
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            name = lookup.get(part.lower())
            if name is None:
                raise SystemExit(
                    f"unknown workload {part!r}; "
                    f"choices: {', '.join(WORKLOADS)}")
            if name not in resolved:
                resolved.append(name)
    return resolved


def _fleet_specs(args) -> list:
    """Worker device list from --workers/--device (uniform fleet) or
    --devices (explicit, possibly mixed)."""
    if args.devices:
        names = [n.strip() for n in args.devices.split(",") if n.strip()]
        for name in names:
            if name not in DEVICES:
                raise SystemExit(f"unknown device {name!r}; "
                                 f"choices: {', '.join(DEVICES)}")
        return [DEVICES[name] for name in names]
    return [DEVICES[args.device]] * args.workers


def cmd_serve(args) -> int:
    """Run one simulated load test and print the metrics report."""
    from repro.serving import (render_report, run_loadtest,
                               write_report, write_serving_trace)
    workloads = _canonical_workloads(args.workloads)
    load = (workloads[0] if len(workloads) == 1
            else {name: args.qps for name in workloads})
    result, report = run_loadtest(
        load, qps=args.qps, duration=args.duration,
        compiler=COMPILERS[args.compiler](), specs=_fleet_specs(args),
        policy=args.policy, max_batch=args.max_batch,
        max_wait=args.max_wait_ms / 1e3, slo=args.slo_ms / 1e3,
        seed=args.seed, max_depth=args.max_depth)
    print(render_report(report))
    if args.output:
        write_report(report, args.output)
        print(f"wrote {args.output}")
    if args.trace:
        write_serving_trace(result, args.trace)
        print(f"wrote {args.trace} (load into chrome://tracing)")
    return 0


def cmd_loadtest(args) -> int:
    """AStitch-vs-baseline serving comparison; records BENCH_serving.json.

    Searches the maximum sustainable QPS at the fixed p99 SLO for the
    baseline compiler and AStitch on every requested workload.  The
    recorded file always also covers the headline pair (Transformer,
    CRNN) so the capacity claim stays comparable across runs.
    """
    import json

    from repro.serving import serving_benchmark

    workloads = _canonical_workloads(
        args.workload if args.workload else [])
    for headline in ("Transformer", "CRNN"):
        if headline not in workloads:
            workloads.append(headline)
    compilers = [COMPILERS[args.baseline](), AStitchCompiler()]
    payload = serving_benchmark(
        workloads, compilers, specs=_fleet_specs(args),
        slo=args.slo_ms / 1e3, policy=args.policy,
        max_batch=args.max_batch, max_wait=args.max_wait_ms / 1e3,
        duration=args.duration, seed=args.seed,
        detail_qps=args.qps)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    rows = []
    for workload, entry in payload["capacity"].items():
        rows.append([
            workload,
            f"{entry[payload['baseline']]['sustained_qps']:.1f}",
            f"{entry['AStitch']['sustained_qps']:.1f}",
            f"{entry['speedup']:.2f}x",
        ])
    print(render_table(
        ["workload", f"{payload['baseline']} QPS", "AStitch QPS",
         "gain"], rows,
        title=f"max sustainable QPS at p99 <= {args.slo_ms:.0f} ms "
              f"({len(payload['workers'])} workers)"))
    print(f"wrote {args.output}")
    return 0


def cmd_bench(args) -> int:
    """Run the hot-path benchmark; records BENCH_hotpath.json + .txt.

    Measures cold-vs-warm pricing through the execution-plan layer: a
    mixed loadtest on a cold process state versus warm caches, the
    figure-harness pricing loop, and per-module plan build/replay
    micro-timings.  Exits non-zero when the warm/cold speedup misses
    ``--floor``, the cold and warm reports differ, or a service time
    differs from scalar ``Engine.price_profile``.
    """
    import json
    import pathlib

    from repro.analysis.hotpath import (render_hotpath_report,
                                        run_hotpath_bench)

    workloads = _canonical_workloads(
        args.workload if args.workload else ["Transformer", "CRNN"])
    payload = run_hotpath_bench(
        qps=args.qps, duration=args.duration, workloads=workloads,
        max_batch=args.max_batch, seed=args.seed,
        specs=tuple(_fleet_specs(args)))

    output = pathlib.Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    text = render_hotpath_report(payload)
    output.with_suffix(".txt").write_text(text + "\n")
    print(text)
    print(f"wrote {output} and {output.with_suffix('.txt')}")

    failures = []
    if not payload["deterministic"]:
        failures.append("cold/warm reports differ or a service time "
                        "differs from scalar price_profile")
    speedup = payload["loadtest"]["speedup"]
    if speedup < args.floor:
        failures.append(f"warm loadtest only {speedup:.1f}x faster "
                        f"than cold (floor {args.floor}x)")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def cmd_tune(args) -> int:
    """Autotune one graph's stitched groups and report the decisions.

    Shows, per schedule group, the candidate count and the heuristic vs
    tuned launch configuration with their modeled kernel times, then the
    module-level heuristic vs tuned comparison through the engine.
    Exits non-zero if the tuned module prices worse than the heuristic
    one (the never-worse guarantee).
    """
    from repro.core.config import AStitchConfig
    from repro.core.dominants import analyze_scope
    from repro.core.scope import identify_stitch_scopes
    from repro.tuning import GroupTuner

    spec = DEVICES[args.device]
    engine = Engine(spec)
    config = AStitchConfig.full()
    tuner = GroupTuner(spec, service=default_service())
    failures = []
    for graph_name in args.graphs:
        graph = _build_graph(graph_name, args.train)
        rows = []
        candidates_total = 0
        for scope in identify_stitch_scopes(
                graph, remote_stitching=config.remote_stitching):
            analysis = analyze_scope(graph, scope.nodes)
            needs_barrier = (analysis.stages > 1
                             and config.enable_global_scheme)
            decisions = tuner.tune_groups(
                analysis.groups, needs_barrier, config.max_block_size,
                config_tag=config.tuning_tag())
            for group in analysis.groups:
                decision = decisions[group.group_id]
                candidates_total += decision.num_candidates
                rows.append([
                    f"s{scope.scope_id}/g{group.group_id}",
                    group.dominant.name,
                    decision.num_candidates,
                    decision.heuristic_mapping.describe(),
                    decision.mapping.describe(),
                    f"{decision.heuristic_time*1e6:.2f}",
                    f"{decision.tuned_time*1e6:.2f}",
                    f"{decision.improvement*100:.1f}%",
                ])
        print(render_table(
            ["group", "dominant", "cands", "heuristic mapping",
             "tuned mapping", "heur (us)", "tuned (us)", "gain"],
            rows, title=f"{graph_name} tuning decisions on {args.device} "
                        f"({candidates_total} candidates priced)"))

        tuned = AStitchCompiler(config).compile(graph, spec)
        heuristic = AStitchCompiler(
            AStitchConfig.heuristic_mappings()).compile(graph, spec)
        tuned_time = engine.run(tuned).total_time
        heuristic_time = engine.run(heuristic).total_time
        print(render_table(
            ["module", "total (ms)"],
            [["AStitch-heuristic", f"{heuristic_time*1e3:.3f}"],
             ["AStitch (tuned)", f"{tuned_time*1e3:.3f}"],
             ["speedup", f"{heuristic_time/tuned_time:.3f}x"]],
            title=f"{graph_name} module totals"))
        print()
        if tuned_time > heuristic_time * (1 + 1e-9):
            failures.append(graph_name)
    for name in failures:
        print(f"FAIL: tuned {name} prices worse than the heuristic")
    return 1 if failures else 0


def cmd_passes(args) -> int:
    """List compiler pass pipelines and audit them on real graphs.

    Prints each selected compiler's declared pipeline (pass signatures
    plus the composition fingerprint), then runs every requested graph
    through it with per-pass instrumentation.  With ``--verify`` the IR
    is validated between graph passes; any violation prints its pass
    context and the command exits non-zero (the CI pipeline-audit job).
    """
    import pathlib

    from repro.compilers.base import CompilationError
    from repro.compilers.tensorrt import UnsupportedWorkloadError
    from repro.runtime.trace import write_pass_trace

    spec = DEVICES[args.device]
    names = list(COMPILERS) if args.compiler == "all" \
        else [args.compiler]
    compilers = {name: COMPILERS[name]() for name in names}

    for name, compiler in compilers.items():
        pipeline = compiler.build_pipeline()
        if pipeline is None:
            print(f"{name}: no declared pipeline")
            continue
        rows = [[index, p.name, p.kind, p.signature()]
                for index, p in enumerate(pipeline.passes)]
        print(render_table(
            ["#", "pass", "kind", "signature"], rows,
            title=f"{name} pipeline {pipeline.name!r} "
                  f"(fingerprint {pipeline.fingerprint()})"))
        print()

    violations = 0
    runs = [(graph_name, name)
            for graph_name in args.graphs for name in names]
    for graph_name, name in runs:
        graph = _build_graph(graph_name, args.train)
        try:
            run = compilers[name].run_pipeline(
                graph, spec, optimize=args.optimize,
                validate=args.verify)
        except UnsupportedWorkloadError as error:
            print(f"{graph_name} / {name}: skipped ({error})\n")
            continue
        except CompilationError as error:
            print(f"FAIL {graph_name} / {name}: {error}\n")
            violations += 1
            continue
        rows = []
        for report in run.reports:
            rows.append([
                report.pass_name, report.kind,
                f"{report.seconds*1e3:.2f}",
                f"{report.nodes_before}->{report.nodes_after}",
                f"{report.kernels_before}->{report.kernels_after}",
                f"{report.steps_before}->{report.steps_after}",
                ", ".join(f"{k}={v}"
                          for k, v in report.detail.items()),
            ])
        verified = " [verified]" if args.verify else ""
        print(render_table(
            ["pass", "kind", "ms", "nodes", "kernels", "steps",
             "detail"], rows,
            title=f"{graph_name} / {name}{verified}: "
                  f"{len(run.reports)} passes, "
                  f"{run.seconds*1e3:.2f} ms"))
        print()
        if args.trace:
            path = pathlib.Path(args.trace)
            if len(runs) > 1:
                path = path.with_name(
                    f"{path.stem}_{graph_name}_{name}{path.suffix}")
            write_pass_trace(run.reports, str(path),
                             pipeline=run.pipeline.name)
            print(f"wrote {path} (load into chrome://tracing)")
    if violations:
        print(f"FAIL: {violations} pipeline violation(s)")
    return 1 if violations else 0


def cmd_cache_stats(_args) -> int:
    """Show hit/miss/eviction counters for all three cache tiers.

    Covers the compile cache (modules), the plan cache (priced
    timelines) and the tuning cache (launch decisions) — plus, when a
    persistent directory is configured, the entry counts per tier on
    disk.
    """
    from repro.runtime.compile_cache import default_cache
    from repro.runtime.plan import default_plan_cache
    from repro.tuning import default_tuning_cache

    tiers = {
        "compile": default_cache(),
        "plan": default_plan_cache(),
        "tuning": default_tuning_cache(),
    }
    rows = []
    for name, cache in tiers.items():
        stats = cache.stats
        rows.append([
            name, len(cache), stats.hits, stats.disk_hits, stats.misses,
            stats.evictions, stats.disk_stores,
            f"{stats.hit_rate*100:.1f}%",
        ])
    print(render_table(
        ["tier", "entries", "hits", "disk hits", "misses", "evictions",
         "disk stores", "hit rate"], rows,
        title="cache statistics (this process)"))

    cache_dir = tiers["compile"].cache_dir
    if cache_dir is not None and cache_dir.is_dir():
        plans = len(list(cache_dir.glob("plan_*.pkl")))
        tuned = len(list(cache_dir.glob("tune_*.pkl")))
        modules = len(list(cache_dir.glob("*.pkl"))) - plans - tuned
        print(render_table(
            ["tier", "files"],
            [["compile", modules], ["plan", plans], ["tuning", tuned]],
            title=f"persistent entries in {cache_dir}"))
    else:
        print("no persistent cache directory "
              "(set REPRO_COMPILE_CACHE_DIR)")
    return 0


def make_parser() -> argparse.ArgumentParser:
    """Build the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AStitch reproduction: compile, price and inspect "
                    "memory-intensive ML workloads")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads").set_defaults(
        func=cmd_list)

    def add_common(p):
        p.add_argument("graph", help="workload or micro graph name")
        p.add_argument("--device", choices=DEVICES, default="V100")
        p.add_argument("--train", action="store_true")

    run = sub.add_parser("run", help="compile + price one graph")
    add_common(run)
    run.add_argument("--compiler", choices=COMPILERS, default="AStitch")
    run.add_argument("--profile", action="store_true",
                     help="print an nvprof-style GPU summary")
    run.add_argument("--explain", action="store_true",
                     help="cost-model breakdown of the top kernels")
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare",
                             help="all compilers on one graph")
    add_common(compare)
    compare.set_defaults(func=cmd_compare)

    dump = sub.add_parser("dump-graph", help="print the graph")
    add_common(dump)
    dump.add_argument("--full", action="store_true",
                      help="full HLO-style dump, not just the summary")
    dump.add_argument("--stats", action="store_true",
                      help="operator census (the Sec 2 numbers)")
    dump.set_defaults(func=cmd_dump_graph)

    cuda = sub.add_parser("dump-cuda",
                          help="emit prototype CUDA for AStitch kernels")
    add_common(cuda)
    cuda.set_defaults(func=cmd_dump_cuda)

    report = sub.add_parser(
        "report", help="headline comparison over all workloads")
    report.add_argument("--device", choices=DEVICES, default="V100")
    report.add_argument("--output", default="",
                        help="write markdown here instead of stdout")
    report.set_defaults(func=cmd_report)

    warmup = sub.add_parser(
        "warmup", help="pre-compile workloads into the compile cache")
    warmup.add_argument("--device", choices=DEVICES, default="V100")
    warmup.add_argument("--train", action="store_true",
                        help="warm the training graphs instead")
    warmup.add_argument("--compilers",
                        default="TensorFlow,XLA,TensorRT,AStitch",
                        help="comma-separated compiler names")
    warmup.add_argument("--cache-dir", default="",
                        help="persistent cache directory (defaults to "
                             "$REPRO_COMPILE_CACHE_DIR)")
    warmup.add_argument("--workers", type=int, default=None,
                        help="compile worker threads (0 = inline)")
    warmup.set_defaults(func=cmd_warmup)

    def add_serving(p):
        p.add_argument("--workers", type=int, default=2,
                       help="simulated GPU workers in the fleet")
        p.add_argument("--device", choices=DEVICES, default="V100",
                       help="device model for a uniform fleet")
        p.add_argument("--devices", default="",
                       help="explicit per-worker devices, e.g. "
                            "V100,V100,T4 (overrides --workers)")
        p.add_argument("--policy", choices=["fifo", "edf",
                                            "least-loaded"],
                       default="fifo", help="scheduling policy")
        p.add_argument("--max-batch", type=int, default=8,
                       help="dynamic batcher's largest batch")
        p.add_argument("--max-wait-ms", type=float, default=5.0,
                       help="longest batching hold per request (ms)")
        p.add_argument("--slo-ms", type=float, default=500.0,
                       help="per-request latency objective (ms)")
        p.add_argument("--duration", type=float, default=20.0,
                       help="virtual seconds of offered load")
        p.add_argument("--seed", type=int, default=0,
                       help="arrival-stream seed (same seed, same run)")

    serve = sub.add_parser(
        "serve", help="simulate one serving load test")
    serve.add_argument("workloads", nargs="*", default=["Transformer"],
                       help="workload name(s); several names mean a "
                            "mixed stream at --qps each")
    serve.add_argument("--qps", type=float, default=10.0,
                       help="offered load per workload (queries/s)")
    serve.add_argument("--compiler", choices=COMPILERS,
                       default="AStitch")
    serve.add_argument("--max-depth", type=int, default=None,
                       help="admission cap per workload bucket")
    serve.add_argument("--output", default="",
                       help="write the metrics report JSON here")
    serve.add_argument("--trace", default="",
                       help="write a Chrome trace of the fleet here")
    add_serving(serve)
    serve.set_defaults(func=cmd_serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="AStitch-vs-baseline sustainable-QPS benchmark")
    loadtest.add_argument("--workload", action="append", default=[],
                          help="workload(s) to test (repeatable / "
                               "comma-separated; Transformer and CRNN "
                               "are always included)")
    loadtest.add_argument("--qps", type=float, default=None,
                          help="also record fixed-rate load tests at "
                               "this offered QPS")
    loadtest.add_argument("--baseline", choices=COMPILERS,
                          default="XLA",
                          help="compiler AStitch is compared against")
    loadtest.add_argument("--output", default="BENCH_serving.json",
                          help="benchmark record path")
    add_serving(loadtest)
    loadtest.set_defaults(func=cmd_loadtest, duration=10.0)

    bench = sub.add_parser(
        "bench",
        help="hot-path (plan cache) cold-vs-warm benchmark")
    bench.add_argument("--workload", action="append", default=[],
                       help="workload(s) in the mix (repeatable / "
                            "comma-separated; default Transformer,CRNN)")
    bench.add_argument("--qps", type=float, default=250.0,
                       help="offered load per workload (queries/s)")
    bench.add_argument("--floor", type=float, default=5.0,
                       help="minimum warm/cold loadtest speedup; exit "
                            "1 below it")
    bench.add_argument("--output", default="BENCH_hotpath.json",
                       help="benchmark record path (.txt twin beside it)")
    add_serving(bench)
    bench.set_defaults(func=cmd_bench, duration=21.0)

    tune = sub.add_parser(
        "tune",
        help="autotune launch configs; report heuristic vs tuned")
    tune.add_argument("graphs", nargs="+",
                      help="workload or micro graph name(s)")
    tune.add_argument("--device", choices=DEVICES, default="V100")
    tune.add_argument("--train", action="store_true")
    tune.set_defaults(func=cmd_tune)

    passes = sub.add_parser(
        "passes",
        help="list and audit compiler pass pipelines")
    passes.add_argument("graphs", nargs="+",
                        help="workload or micro graph name(s)")
    passes.add_argument("--compiler",
                        choices=list(COMPILERS) + ["all"],
                        default="AStitch",
                        help="pipeline to audit ('all' for every "
                             "registered compiler)")
    passes.add_argument("--device", choices=DEVICES, default="V100")
    passes.add_argument("--train", action="store_true")
    passes.add_argument("--optimize", action="store_true",
                        help="audit the simplify-prefixed pipeline "
                             "variant instead")
    passes.add_argument("--verify", action="store_true",
                        help="validate the IR between graph passes; "
                             "exit non-zero on any violation")
    passes.add_argument("--trace", default="",
                        help="write a chrome://tracing JSON of the "
                             "per-pass timings here")
    passes.set_defaults(func=cmd_passes)

    cache = sub.add_parser("cache", help="cache inspection")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats",
        help="hit/miss counters for compile, plan and tuning tiers",
    ).set_defaults(func=cmd_cache_stats)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
