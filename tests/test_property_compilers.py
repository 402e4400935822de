"""Property-based tests: compiler invariants over random graphs.

A Hypothesis strategy generates arbitrary well-formed computation graphs
(element-wise chains, broadcasts, reduces, fan-out, compute-intensive
dividers); every compiler must then:

* produce numerics identical to the reference interpreter;
* cover every memory-intensive node by at least one kernel;
* store every graph output exactly where later steps expect it
  (the executor enforces this — any violation raises);
* never *increase* FP instructions relative to the non-fusing baseline
  (AStitch only; TVM intentionally does);
* respect hardware limits (block size, shared memory, barrier-legal
  grids);
* price through a cached plan exactly as the scalar reference
  ``Engine.price_profile`` does, counters included.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.codegen.builder import kernel_cost_inputs
from repro.compilers import TensorFlowCompiler, TVMCompiler, XLACompiler
from repro.core import AStitchCompiler, AStitchConfig
from repro.gpu.spec import T4, V100
from repro.ir.builder import GraphBuilder
from repro.ir.interpreter import evaluate, random_feeds
from repro.runtime.engine import Engine
from repro.runtime.plan import PlanCache

UNARY_OPS = ["tanh", "exp", "sigmoid", "relu", "negate", "abs", "sqrt"]
BINARY_OPS = ["add", "subtract", "multiply", "maximum", "minimum"]


@st.composite
def random_graphs(draw):
    """A random well-formed graph over 2-D tensors."""
    rows = draw(st.integers(2, 12))
    cols = draw(st.integers(2, 24))
    if rows == cols:
        cols += 1
    b = GraphBuilder("random")
    pool = [b.parameter("x0", (rows, cols)),
            b.parameter("x1", (rows, cols))]

    def as_2d(node):
        """Restore a reduced value to <rows, cols> via a broadcast."""
        if node.shape.rank == 2:
            return node
        if node.shape.dim(0) == rows:
            return b.broadcast_rows(node, (rows, cols))
        return b.broadcast(node, (rows, cols), dims=(1,))

    num_ops = draw(st.integers(3, 18))
    for i in range(num_ops):
        choice = draw(st.integers(0, 9))
        if choice <= 3:  # unary element-wise
            op = draw(st.sampled_from(UNARY_OPS))
            src = as_2d(draw(st.sampled_from(pool)))
            pool.append(getattr(b, op)(src))
        elif choice <= 6:  # binary element-wise
            op = draw(st.sampled_from(BINARY_OPS))
            lhs = as_2d(draw(st.sampled_from(pool)))
            rhs = as_2d(draw(st.sampled_from(pool)))
            pool.append(getattr(b, op)(lhs, rhs))
        elif choice <= 8:  # reduce (row or column)
            src = as_2d(draw(st.sampled_from(pool)))
            axis = draw(st.sampled_from([0, 1]))
            pool.append(b.reduce_sum(src, axes=(axis,)))
        else:  # compute-intensive divider
            src = as_2d(draw(st.sampled_from(pool)))
            w = b.parameter(f"w{i}", (cols, cols))
            pool.append(b.dot(src, w))

    # Make the last few values outputs (multi-output graphs included).
    num_outputs = draw(st.integers(1, min(3, len(pool) - 2)))
    for node in pool[-num_outputs:]:
        b.output(node)
    return b.build()


ALL_COMPILERS = [
    ("TensorFlow", TensorFlowCompiler),
    ("XLA", XLACompiler),
    ("TVM", TVMCompiler),
    ("AStitch", AStitchCompiler),
]


class TestNumericEquivalence:
    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_all_compilers_match_interpreter(self, graph):
        feeds = random_feeds(graph, seed=7, scale=0.5)
        want = evaluate(graph, feeds)
        for name, compiler_cls in ALL_COMPILERS:
            module = compiler_cls().compile(graph)
            got = module.execute(feeds)
            assert set(got) == set(want), name
            for key in want:
                np.testing.assert_allclose(
                    got[key], want[key], rtol=1e-3, atol=1e-4,
                    err_msg=f"{name} diverges on {key}")

    @given(random_graphs())
    @settings(max_examples=25, deadline=None)
    def test_astitch_ablations_match_interpreter(self, graph):
        feeds = random_feeds(graph, seed=8, scale=0.5)
        want = evaluate(graph, feeds)
        for config in (AStitchConfig.adaptive_mapping_only(),
                       AStitchConfig.no_dominant_merging(),
                       AStitchConfig.regional_only(),
                       AStitchConfig(remote_stitching=False)):
            module = AStitchCompiler(config).compile(graph)
            got = module.execute(feeds)
            for key in want:
                np.testing.assert_allclose(got[key], want[key],
                                           rtol=1e-3, atol=1e-4)


class TestStructuralInvariants:
    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_every_memory_intensive_node_covered(self, graph):
        for name, compiler_cls in ALL_COMPILERS:
            module = compiler_cls().compile(graph)
            covered = set()
            for kernel in module.kernels():
                covered.update(kernel.nodes)
            missing = [n for n in graph.memory_intensive_nodes()
                       if n not in covered]
            assert not missing, f"{name} lost {missing}"

    @given(random_graphs())
    @settings(max_examples=40, deadline=None)
    def test_hardware_limits_respected(self, graph):
        for name, compiler_cls in ALL_COMPILERS:
            module = compiler_cls().compile(graph)
            for kernel in module.kernels():
                assert kernel.mapping.block_size \
                    <= V100.max_threads_per_block, name
                assert kernel.smem_per_block \
                    <= V100.shared_memory_per_block, name
                if kernel.num_global_barriers:
                    wave = V100.blocks_per_wave(
                        kernel.mapping.block_size,
                        kernel.regs_per_thread,
                        kernel.smem_per_block)
                    assert kernel.mapping.grid_size <= wave, name

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_astitch_never_adds_instructions(self, graph):
        baseline = TensorFlowCompiler().compile(graph)
        stitched = AStitchCompiler().compile(graph)

        def fp(module):
            return sum(kernel_cost_inputs(k).fp_instructions
                       for k in module.kernels())

        # Hierarchical data reuse never recomputes; any difference comes
        # from removed work, never added work.
        assert fp(stitched) <= fp(baseline) * 1.0001

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_astitch_fewest_kernels(self, graph):
        counts = {}
        for name, compiler_cls in ALL_COMPILERS:
            counts[name] = len(compiler_cls().compile(graph).kernels())
        assert counts["AStitch"] <= counts["XLA"]
        assert counts["AStitch"] <= counts["TensorFlow"]

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_astitch_traffic_never_exceeds_tf(self, graph):
        def traffic(module):
            return sum(kernel_cost_inputs(k).bytes_read
                       + kernel_cost_inputs(k).bytes_written
                       for k in module.kernels())

        tf = traffic(TensorFlowCompiler().compile(graph))
        astitch = traffic(AStitchCompiler().compile(graph))
        assert astitch <= tf * 1.0001


class TestPlanOracle:
    @given(random_graphs())
    @settings(max_examples=25, deadline=None)
    def test_cached_plan_equals_scalar_pricing(self, graph):
        for spec in (V100, T4):
            planned = Engine(spec, plan_cache=PlanCache())
            scalar = Engine(spec, plan_cache=None)
            for name, compiler_cls in ALL_COMPILERS:
                module = compiler_cls().compile(graph, spec)
                assert planned.plan(module) == scalar.price_profile(module), \
                    f"{name} on {spec.name}"
