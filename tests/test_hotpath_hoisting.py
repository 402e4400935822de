"""Regression tests for the hoisted (precompiled) execution hot paths.

The interpreter and the module executor resolve topological order,
broadcast/reduce attributes and output names exactly once per graph;
``run()`` afterwards is a flat loop over bound closures.  These tests
pin that down with counting hooks so a refactor cannot quietly put the
per-call traversal back.
"""

import numpy as np
import pytest

from repro.codegen import executor as executor_mod
from repro.core import AStitchCompiler
from repro.gpu.spec import V100
from repro.ir import graph as graph_mod
from repro.ir import interpreter as interpreter_mod
from repro.ir.interpreter import evaluate, graph_program, random_feeds
from repro.workloads import micro


class _Counter:
    """Wraps a callable and counts invocations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def count_toposort(monkeypatch):
    counter = _Counter(graph_mod.Graph.topological_order)

    def counted(self):
        return counter(self)

    monkeypatch.setattr(graph_mod.Graph, "topological_order", counted)
    return counter


class TestInterpreterHoisting:
    def test_traversal_happens_once_across_runs(self, count_toposort):
        graph = micro.softmax_graph(16, 8)
        feeds = random_feeds(graph)
        first = evaluate(graph, feeds)
        after_first = count_toposort.calls
        assert after_first >= 1
        second = evaluate(graph, feeds)
        third = evaluate(graph, feeds)
        assert count_toposort.calls == after_first
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])
            np.testing.assert_array_equal(first[name], third[name])

    def test_program_shared_across_interpreters(self, count_toposort):
        graph = micro.softmax_graph(16, 8)
        feeds = random_feeds(graph)
        graph_program(graph).run(feeds)
        baseline = count_toposort.calls
        # Every later evaluation of the *same* graph object reuses the
        # memoized program: zero further traversals.
        evaluate(graph, feeds)
        assert count_toposort.calls == baseline
        assert graph_program(graph) is graph_program(graph)

    def test_nodes_compiled_once(self, monkeypatch):
        graph = micro.softmax_graph(16, 8)
        counter = _Counter(interpreter_mod.compile_node)
        monkeypatch.setattr(interpreter_mod, "compile_node", counter)
        feeds = random_feeds(graph)
        evaluate(graph, feeds)
        compiled = counter.calls
        assert compiled >= 1
        evaluate(graph, feeds)
        evaluate(graph, feeds)
        assert counter.calls == compiled

    def test_missing_feed_message_preserved(self):
        graph = micro.softmax_graph(8, 8)
        name = graph.parameters[0].name
        with pytest.raises(KeyError, match=f"missing feed for parameter {name}"):
            evaluate(graph, {})

    def test_shape_mismatch_message_preserved(self):
        graph = micro.softmax_graph(8, 8)
        param = graph.parameters[0]
        bad = {param.name: np.zeros((3, 3), dtype=param.dtype.to_numpy())}
        with pytest.raises(ValueError, match="has shape .* expected"):
            evaluate(graph, bad)


class TestExecutorHoisting:
    def _module(self):
        return AStitchCompiler().compile(micro.softmax_graph(16, 8), V100)

    def test_module_executor_built_once(self):
        module = self._module()
        feeds = random_feeds(module.graph)
        module.execute(feeds)
        executor = module.__dict__["_executor"]
        module.execute(feeds)
        module.execute(feeds)
        assert module.__dict__["_executor"] is executor

    def test_executor_compiles_nodes_once(self, monkeypatch):
        counter = _Counter(executor_mod.compile_node)
        monkeypatch.setattr(executor_mod, "compile_node", counter)
        module = self._module()
        feeds = random_feeds(module.graph)
        module.execute(feeds)
        compiled = counter.calls
        assert compiled >= 1
        module.execute(feeds)
        module.execute(feeds)
        assert counter.calls == compiled

    def test_no_traversal_on_repeat_execute(self, count_toposort):
        module = self._module()
        feeds = random_feeds(module.graph)
        module.execute(feeds)
        baseline = count_toposort.calls
        module.execute(feeds)
        module.execute(feeds)
        assert count_toposort.calls == baseline

    def test_executor_matches_interpreter(self):
        module = self._module()
        feeds = random_feeds(module.graph, seed=7)
        got = module.execute(feeds)
        want = evaluate(module.graph, feeds)
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_allclose(got[name], want[name],
                                       rtol=1e-5, atol=1e-6)
