"""Per-element references for flow-graph reading and node labels.

deserialize_graph below reads nodes.csv one line at a time into ChunkNodes
and parses each opcode with its own int() call; its errors name the file as
droidflow's do, and it reads each file through droidflow's _read_lines, so a
file that cannot be read or is not UTF-8 is the same error in both.
droidflow.flowgraph.deserialize_graph instead reads a nodes.csv in the exact
form serialize_graph writes in one pass of array operations over its bytes,
and any other nodes.csv with its own line-by-line walk; tests compare the
outcomes of both paths with this one. node_label builds one node's label
vector with a loop over its opcodes; tests compare AbstractFlowGraph.arrays
with it. droidflow itself does not use this module.
"""

from pathlib import Path

import numpy as np

from droidflow.dalvik import normalize
from droidflow.flowgraph import (
    _TYPE_INDEX,
    AbstractFlowGraph,
    ChunkNode,
    FlowEdge,
    FormatError,
    _read_lines,
    sort_edges,
)


def deserialize_graph(in_dir) -> AbstractFlowGraph:
    nodes_path, edges_path = Path(in_dir) / "nodes.csv", Path(in_dir) / "edges.csv"
    nodes = []
    ids = set()
    for lineno, line in enumerate(_read_lines(nodes_path), start=1):
        parts = line.split(",", 3)
        if len(parts) != 4:
            raise FormatError(f"{nodes_path} line {lineno}: expected 4 fields")
        try:
            nid, offset = int(parts[0]), int(parts[1])
            seq = [int(x) for x in parts[2].split("|")] if parts[2] else []
        except ValueError as exc:
            raise FormatError(f"{nodes_path} line {lineno}: {exc}") from exc
        nodes.append(ChunkNode(nid, "", offset, seq, parts[3]))
        ids.add(nid)
    edges = []
    for lineno, line in enumerate(_read_lines(edges_path), start=1):
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"{edges_path} line {lineno}: expected 3 fields")
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{edges_path} line {lineno}: {exc}") from exc
        if parts[2] not in _TYPE_INDEX:
            raise FormatError(f"{edges_path} line {lineno}: unknown edge type {parts[2]!r}")
        if s not in ids or t not in ids:
            raise FormatError(f"{edges_path} line {lineno}: dangling endpoint")
        edges.append(FlowEdge(s, t, parts[2]))
    nodes.sort(key=lambda n: n.id)
    return AbstractFlowGraph(nodes, sort_edges(edges))


def node_label(node: ChunkNode, label_dim: int) -> np.ndarray:
    """First label_dim opcodes of the chunk, normalized, zero-padded."""
    if label_dim < 1:
        raise ValueError("label_dim must be >= 1")
    vec = np.zeros(label_dim)
    for i, code in enumerate(node.opcode_seq[:label_dim]):
        vec[i] = normalize(code)
    return vec
