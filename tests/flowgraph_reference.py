"""References for the flow-graph build, its writer and its reader, and for
node labels.

ChunkGraph is the flow graph as droidflow built it before chunks became
per-method columns: one ChunkNode, with a copy of its opcodes, per chunk.
chunk_methods, build_edges and serialize_graph below are that build: the
`is` edges walk the callers of each intent-sending method once per method
(reaching below), chunk lookups scan a method's chunks in order, a
component's onActivityResult and onNewIntent are looked up once per send,
and each nodes.csv line is formatted from its node. Tests compare
droidflow.flowgraph's column build with it byte for byte. chunk_nodes turns
a column graph into the ChunkNodes this build would have made.

deserialize_graph below reads nodes.csv one line at a time into ChunkNodes
and parses each opcode with its own int() call; its errors name the file as
droidflow's do, and _read_lines reads each file through droidflow's
read_input, so a file that cannot be read or is not UTF-8 is the same error
in both. It accepts more than droidflow does: int() spellings such as `007`
or `+5`, opcodes outside 0-255, unsorted ids, and every line break of
str.splitlines. droidflow.flowgraph.deserialize_graph reads only a nodes.csv
in the exact form serialize_graph writes, in one pass of array operations
over its bytes; tests compare it with this reader on files in that form.
node_label builds one node's label vector with a loop over its opcodes;
tests compare the graphs' arrays with it. droidflow itself does not use
this module.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from droidflow.dalvik import WIDTH_TABLE, normalize
from droidflow.flowgraph import (
    _TYPE_INDEX,
    BACKWARD_OF,
    EXIT,
    FlowEdge,
    FormatError,
    _graph_arrays,
    opcode_text,
    sort_edges,
)
from droidflow.icc import DEFAULT_INTENT_RECEIVERS, is_chunk_boundary
from droidflow.tables import default_intent_senders, read_input


@dataclass
class ChunkNode:
    id: int
    method: str
    offset: int
    opcode_seq: list
    invoke_mtd: str
    end_offset: int = field(default=-1, compare=False)
    send_index: int = field(default=-1, compare=False)  # body index of the terminator


@dataclass
class ChunkGraph:
    nodes: list
    edges: list

    def __len__(self) -> int:
        return len(self.nodes)

    def arrays(self, label_dim: int):
        """The graph's arrays, nodes and edges in list order."""
        lengths = np.array([len(n.opcode_seq) for n in self.nodes], dtype=np.intp)
        codes = np.array([c for n in self.nodes for c in n.opcode_seq], dtype=np.intp)
        index = {n.id: pos for pos, n in enumerate(self.nodes)}
        return _graph_arrays(codes, lengths, index, self.edges, label_dim)


def chunk_nodes(graph) -> list:
    """The ChunkNodes of a droidflow.flowgraph.AbstractFlowGraph, in id order."""
    nodes = []
    for j, method in enumerate(graph.methods):
        start = 0
        for k in range(graph.first[j], graph.first[j + 1]):
            end, invoked = graph.ends[k], graph.invoked[k]
            seq = list(method.body[start:end])
            end_offset = graph.offsets[k] + sum(bytes(seq[:-1]).translate(WIDTH_TABLE))
            nodes.append(ChunkNode(k, method.method_id, graph.offsets[k], seq, invoked,
                                   end_offset, -1 if invoked == EXIT else end - 1))
            start = end
    return nodes


def as_chunk_graph(graph) -> ChunkGraph:
    """graph as a ChunkGraph, or graph itself if it is one."""
    if isinstance(graph, ChunkGraph):
        return graph
    return ChunkGraph(chunk_nodes(graph), graph.edges)


def chunk_methods(app, intent_senders=None):
    """Partition every method body into chunk nodes, ids in (method, offset) order.

    A chunk closes at a call to a user-defined method, at an intent-sending
    call, or at the method exit; the terminating invoke belongs to its chunk.
    """
    senders = default_intent_senders() if intent_senders is None else intent_senders
    chunks = []
    for method in app.methods_by_id.values():
        body, start, start_offset = method.body, 0, 0
        for idx, offset, invoked in method.calls:
            if is_chunk_boundary(app, invoked, senders):
                chunks.append(
                    ChunkNode(
                        id=len(chunks),
                        method=method.method_id,
                        offset=start_offset,
                        opcode_seq=list(body[start : idx + 1]),
                        invoke_mtd=invoked,
                        end_offset=offset,
                        send_index=idx,
                    )
                )
                start, start_offset = idx + 1, offset + WIDTH_TABLE[body[idx]]
        if start < len(body):
            chunks.append(
                ChunkNode(
                    id=len(chunks),
                    method=method.method_id,
                    offset=start_offset,
                    opcode_seq=list(body[start:]),
                    invoke_mtd=EXIT,
                    end_offset=start_offset + sum(body[start:-1].translate(WIDTH_TABLE)),
                )
            )
    return chunks


def callers_index(cg) -> dict:
    """callee id -> set of the ids of the methods that call it."""
    callers = {}
    for caller, call_sites in cg.call_sites.items():
        for _, callees in call_sites:
            for callee in callees:
                callers.setdefault(callee, set()).add(caller)
    return callers


def reaching(cg, targets, callers=None) -> set:
    """Targets plus the methods with a call path to one of them: a reverse
    walk over the callers index, as droidflow's callgraph.reaching was
    before it read the call graph's condensation."""
    callers = callers_index(cg) if callers is None else callers
    seen = set(targets)
    stack = list(seen)
    while stack:
        for caller in callers.get(stack.pop(), ()):
            if caller not in seen:
                seen.add(caller)
                stack.append(caller)
    return seen


def build_edges(chunks, cg, traces, components):
    """Construct all typed edges over the chunk nodes (forward plus mirrors)."""
    app = cg.app
    by_method = {}
    for c in chunks:
        by_method.setdefault(c.method, []).append(c)
    first_chunk = {m: cs[0] for m, cs in by_method.items()}

    def chunk_at(method_id, offset):
        for c in by_method.get(method_id, ()):
            if c.offset <= offset <= c.end_offset:
                return c
        return None

    diagnostics = []
    ct, is_, ic, in_ = set(), set(), set(), set()

    for trace in traces:
        src = first_chunk.get(trace.methods[0])
        tgt = chunk_at(trace.methods[-1], trace.site_offset)
        if src is None or tgt is None:
            diagnostics.append(f"trace without chunks: {trace.methods}")
            continue
        ct.add((src.id, tgt.id))

    intent_chunks = [c for c in chunks if (c.method, c.send_index) in cg.intent_sends]
    sends_by_method = {}
    for c in intent_chunks:
        sends_by_method.setdefault(c.method, []).append(c)

    # is: from each entry point to the sends of every method it reaches
    entries, callers = set(cg.entry_points), callers_index(cg)
    for method_id, sends in sends_by_method.items():
        for entry in entries & reaching(cg, {method_id}, callers):
            src = first_chunk.get(entry)
            if src is None:
                continue
            for c in sends:
                if c.id != src.id:
                    is_.add((src.id, c.id))

    comp_by_class = {c.path_name: c for c in components}
    for c in intent_chunks:
        receivers = cg.intent_sends[(c.method, c.send_index)]
        if not receivers:
            diagnostics.append(f"unresolved intent at chunk {c.id}")
        for path_name, recv in receivers:
            tgt = first_chunk.get(recv)
            if tgt is None:
                diagnostics.append(f"no receiver chunk for {path_name}")
                continue
            ic.add((c.id, tgt.id))
        owner = c.method.partition("->")[0]
        if owner in comp_by_class:
            for rname in DEFAULT_INTENT_RECEIVERS:
                recv = app.lookup_method(owner, rname)
                if recv is None:
                    continue
                tgt = first_chunk.get(recv.method_id)
                if tgt is None:
                    continue
                ic.add((c.id, tgt.id))
                in_.add((c.id, tgt.id))

    method_of = {c.id: c.method for c in chunks}
    issuing = {method_of[s] for s, _ in ct | is_ | ic}
    nb = set()
    for method_id in sorted(issuing):
        cs = by_method.get(method_id, ())
        for a, b in zip(cs, cs[1:]):
            if a.invoke_mtd != EXIT:
                nb.add((a.id, b.id))
    touched = {x for pair in ct | is_ | ic | in_ for x in pair}
    nb = {(s, t) for s, t in nb if s in touched or t in touched}

    edges = []
    for tag, pairs in (("ct", ct), ("is", is_), ("nb", nb), ("ic", ic), ("in", in_)):
        for s, t in pairs:
            edges.append(FlowEdge(s, t, tag))
            edges.append(FlowEdge(t, s, BACKWARD_OF[tag]))
    return sort_edges(edges), diagnostics


def build_flow_graph(app, cg, traces):
    chunks = chunk_methods(app, cg.intent_senders)
    edges, diagnostics = build_edges(chunks, cg, traces, app.components)
    return ChunkGraph(chunks, edges), diagnostics


def serialize_graph(graph: ChunkGraph, out_dir):
    """Write nodes.csv and edges.csv under out_dir, one formatted line per node."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    node_lines = []
    for n in sorted(graph.nodes, key=lambda n: n.id):
        node_lines.append(f"{n.id},{n.offset},{opcode_text(n.opcode_seq)},{n.invoke_mtd}")
    (out_dir / "nodes.csv").write_text("".join(line + "\n" for line in node_lines), "utf-8")
    edge_lines = [f"{e.source},{e.target},{e.type}" for e in sort_edges(graph.edges)]
    (out_dir / "edges.csv").write_text("".join(line + "\n" for line in edge_lines), "utf-8")
    return out_dir / "nodes.csv", out_dir / "edges.csv"


def deserialize_graph(in_dir, read_lines=None) -> ChunkGraph:
    """The graph under in_dir, nodes.csv split into lines by read_lines(path),
    by default _read_lines."""
    nodes_path, edges_path = Path(in_dir) / "nodes.csv", Path(in_dir) / "edges.csv"
    nodes = []
    ids = set()
    for lineno, line in enumerate((read_lines or _read_lines)(nodes_path), start=1):
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
    return ChunkGraph(nodes, sort_edges(edges))


def _read_lines(path):
    return list(filter(None, read_input(path).splitlines()))


def node_label(node: ChunkNode, label_dim: int) -> np.ndarray:
    """First label_dim opcodes of the chunk, normalized, zero-padded."""
    if label_dim < 1:
        raise ValueError("label_dim must be >= 1")
    vec = np.zeros(label_dim)
    for i, code in enumerate(node.opcode_seq[:label_dim]):
        vec[i] = normalize(code)
    return vec
