"""Tensor intermediate representation.

The IR mirrors the slice of XLA HLO that the AStitch paper operates on:
element-wise operators (light and heavy), ``broadcast``, ``reduce`` and a
handful of compute-intensive "divider" operators (dot, convolution) that
separate memory-intensive subgraphs from each other.
"""

from repro.ir.dtypes import DType, F16, F32, TF32, F64, I32, I64, PRED
from repro.ir.shape import Shape
from repro.ir.ops import (
    OpKind,
    Operator,
    ELEMENTWISE_COSTS,
    HEAVY_ELEMENTWISE,
    LIGHT_ELEMENTWISE,
)
from repro.ir.graph import Graph, Node
from repro.ir.builder import GraphBuilder
from repro.ir.fingerprint import fingerprints_equal, graph_fingerprint
from repro.ir.interpreter import evaluate
from repro.ir import patterns

__all__ = [
    "DType",
    "F16",
    "F32",
    "TF32",
    "F64",
    "I32",
    "I64",
    "PRED",
    "Shape",
    "OpKind",
    "Operator",
    "ELEMENTWISE_COSTS",
    "HEAVY_ELEMENTWISE",
    "LIGHT_ELEMENTWISE",
    "Graph",
    "Node",
    "GraphBuilder",
    "evaluate",
    "fingerprints_equal",
    "graph_fingerprint",
    "patterns",
]
