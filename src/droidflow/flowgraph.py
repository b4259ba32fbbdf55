"""Abstract flow graph over code chunks with ten typed edge sets.

Methods are carved into chunks at user-defined and intent-sending call
sites. Forward edge types: critical-trace (ct), intent-sending (is),
neighbor (nb), inter-component (ic) and implicit-neighbor (in); every
forward edge is mirrored by a backward edge of the hatted type (bct, bis,
bnb, bic, bin). Neighbor edges are only built inside methods that issue a
ct/is/ic edge and are pruned when neither endpoint touches a non-neighbor
edge. Nodes persist as ``id,offset,opcode_seq,invoke_mtd`` quadruples and
edges as ``source,target,type`` triples, read back straight into GraphArrays.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .callgraph import reaching
from .dalvik import WIDTH_TABLE, normalize
from .icc import DEFAULT_INTENT_RECEIVERS, is_chunk_boundary
from .tables import InputError, default_intent_senders, read_input

EXIT = "exit"
FORWARD_TYPES = ("ct", "is", "nb", "ic", "in")
BACKWARD_OF = {"ct": "bct", "is": "bis", "nb": "bnb", "ic": "bic", "in": "bin"}
EDGE_TYPE_ORDER = FORWARD_TYPES + tuple(BACKWARD_OF[t] for t in FORWARD_TYPES)
_TYPE_INDEX = {t: i for i, t in enumerate(EDGE_TYPE_ORDER)}

# The text of each opcode value in nodes.csv and traces.csv, and the value of
# each text: one lookup per opcode written or read back.
_CODE_TEXT = {code: str(code) for code in range(256)}
_CODE_OF = {text: code for code, text in _CODE_TEXT.items()}


class FormatError(InputError):
    """Corrupt or unrecognized graph file."""


@dataclass
class ChunkNode:
    id: int
    method: str
    offset: int
    opcode_seq: list
    invoke_mtd: str
    end_offset: int = field(default=-1, compare=False)
    send_index: int = field(default=-1, compare=False)  # body index of the terminator


@dataclass(frozen=True, order=True)
class FlowEdge:
    source: int
    target: int
    type: str

    def __post_init__(self):
        if self.type not in _TYPE_INDEX:
            raise FormatError(f"unknown edge type {self.type!r}")


@dataclass(frozen=True)
class GraphArrays:
    """A flow graph as the graph branch reads it: node labels, edge endpoints
    as node positions, and each edge's feature row [l_u ; type one-hot ; l_v].
    A node's label is its first label_dim opcodes, normalized and zero-padded."""

    labels: np.ndarray          # (n, label_dim)
    src: np.ndarray             # (E,)
    dst: np.ndarray             # (E,)
    edge_feat: np.ndarray       # (E, 2 * label_dim + 10)

    def arrays(self, label_dim: int) -> "GraphArrays":
        """These arrays, built at label_dim."""
        return self


@dataclass
class AbstractFlowGraph:
    nodes: list
    edges: list

    def arrays(self, label_dim: int) -> GraphArrays:
        """The graph's arrays, nodes and edges in list order."""
        lengths = np.array([len(n.opcode_seq) for n in self.nodes], dtype=np.intp)
        heads = [c for n in self.nodes for c in n.opcode_seq[:label_dim]]
        index = {n.id: pos for pos, n in enumerate(self.nodes)}
        return _graph_arrays(lengths, heads, index, self.edges, label_dim)


def _graph_arrays(lengths, heads, index, edges, label_dim: int) -> GraphArrays:
    """GraphArrays of nodes of these opcode counts, their first label_dim opcodes back
    to back in heads, and of edges, each endpoint at the position index maps its id to."""
    codes = np.zeros((len(lengths), label_dim))
    codes[np.arange(label_dim) < np.minimum(lengths, label_dim)[:, None]] = heads
    labels = normalize(codes)
    src = np.array([index[e.source] for e in edges], dtype=np.intp)
    dst = np.array([index[e.target] for e in edges], dtype=np.intp)
    onehot = np.zeros((len(edges), len(EDGE_TYPE_ORDER)))
    onehot[np.arange(len(edges)), np.array([_TYPE_INDEX[e.type] for e in edges], dtype=np.intp)] = 1
    return GraphArrays(labels, src, dst, np.concatenate([labels[src], onehot, labels[dst]], axis=1))


def sort_edges(edges):
    return sorted(set(edges), key=lambda e: (_TYPE_INDEX[e.type], e.source, e.target))


def chunk_methods(app, intent_senders=None):
    """Partition every method body into chunk nodes, ids in (method, offset) order.

    A chunk closes at a call to a user-defined method, at an intent-sending
    call, or at the method exit; the terminating invoke belongs to its chunk.
    """
    senders = default_intent_senders() if intent_senders is None else intent_senders
    boundary = {}   # invoked signature -> is_chunk_boundary, tested once each
    chunks = []
    for method in app.methods_by_id.values():
        body, start, start_offset = method.body, 0, 0
        for idx, offset, invoked in method.calls:
            if invoked not in boundary:
                boundary[invoked] = is_chunk_boundary(app, invoked, senders)
            if boundary[invoked]:
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


def build_edges(chunks, cg, traces, components):
    """Construct all typed edges over the chunk nodes (forward plus mirrors).

    Intent sends are not resolved again: the call graph holds the receivers
    of every send in the app, keyed by (method, body index)."""
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
    entries = set(cg.entry_points)
    for method_id, sends in sends_by_method.items():
        for entry in entries & reaching(cg, {method_id}):
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
    """Chunks and typed edges of app; chunks close at the intent senders cg
    was built with."""
    chunks = chunk_methods(app, cg.intent_senders)
    edges, diagnostics = build_edges(chunks, cg, traces, app.components)
    return AbstractFlowGraph(chunks, edges), diagnostics


# --- persistence -------------------------------------------------------------

def opcode_text(seq) -> str:
    """An opcode sequence as its "|"-joined line."""
    return "|".join(map(_CODE_TEXT.__getitem__, seq))


def parse_opcode_text(text: str) -> list:
    """The opcode values of a line opcode_text wrote; "" is no opcode. A value
    spelt another way, or outside 0-255, is read by int(), which raises
    ValueError on a field that is not an integer."""
    fields = text.split("|") if text else []
    try:
        return list(map(_CODE_OF.__getitem__, fields))
    except KeyError:
        return list(map(int, fields))


def serialize_graph(graph: AbstractFlowGraph, out_dir):
    """Write nodes.csv and edges.csv under out_dir, UTF-8 and byte-deterministic."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    node_lines = []
    for n in sorted(graph.nodes, key=lambda n: n.id):
        node_lines.append(f"{n.id},{n.offset},{opcode_text(n.opcode_seq)},{n.invoke_mtd}")
    (out_dir / "nodes.csv").write_text("".join(line + "\n" for line in node_lines), "utf-8")
    edge_lines = [f"{e.source},{e.target},{e.type}" for e in sort_edges(graph.edges)]
    (out_dir / "edges.csv").write_text("".join(line + "\n" for line in edge_lines), "utf-8")
    return out_dir / "nodes.csv", out_dir / "edges.csv"


def deserialize_graph(in_dir, label_dim: int) -> GraphArrays:
    """The arrays() of a graph serialize_graph wrote, its nodes in stable id
    order and its edges in sort_edges order. An error names the file, and the
    first line that fails a check if the file is UTF-8 text."""
    path = Path(in_dir) / "nodes.csv"
    text = read_input(path)
    lengths, heads, index = (_writer_nodes(text.encode(), text, label_dim)
                             or _nodes_by_line(path, text, label_dim))
    edges = []
    path = path.with_name("edges.csv")
    for lineno, line in enumerate(_read_lines(path), start=1):
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"{path} line {lineno}: expected 3 fields")
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path} line {lineno}: {exc}") from exc
        if parts[2] not in _TYPE_INDEX:
            raise FormatError(f"{path} line {lineno}: unknown edge type {parts[2]!r}")
        if s not in index or t not in index:
            raise FormatError(f"{path} line {lineno}: dangling endpoint")
        edges.append(FlowEdge(s, t, parts[2]))
    return _graph_arrays(lengths, heads, index, sort_edges(edges), label_dim)


# The line breaks of str.splitlines other than "\n".
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _writer_nodes(data: bytes, text: str, label_dim: int):
    """(opcode counts, label codes, id index) of a nodes.csv as serialize_graph
    writes it, in one pass of array operations: lines end in "\n", ids run
    0..n-1, and ids, offsets and opcodes 0-255 are digits without leading
    zeros. None for any other file, which _nodes_by_line reads."""
    if data[-1:] not in (b"", b"\n") or any(map(text.__contains__, _OTHER_BREAKS)):
        return None
    b = np.frombuffer(b"\n" + data, np.uint8)   # b[0] ends a line before the first
    breaks = np.flatnonzero(b == ord("\n"))
    starts, n = breaks[:-1] + 1, len(breaks) - 1
    commas = np.flatnonzero(b == ord(","))
    first = np.searchsorted(commas, starts)
    if (np.searchsorted(commas, breaks[1:]) - first < 3).any():   # a blank line has none
        return None
    c1, c2, c3 = commas[first], commas[first + 1], commas[first + 2]
    # Each byte's field: 0-2 for the id, offset and opcodes with the comma
    # that ends each, 3 for the rest of the line with its "\n" (and b[0]).
    bounds = np.append(0, np.column_stack((starts, c1 + 1, c2 + 1, c3 + 1)))
    values = np.append(np.int8(3), np.tile(np.arange(4, dtype=np.int8), n))
    field = np.repeat(values, np.diff(bounds, append=len(b)))
    digit = (b - ord("0")) < 10                # uint8 arithmetic wraps below "0"
    bar, opcodes = b == ord("|"), field == 2
    lead = np.append(True, ~digit[:-1])        # the byte before is no digit
    follow = np.append(~digit[1:], True)       # nor the byte after
    bad = ~digit & (b != ord(",")) & ~(bar & opcodes)            # only digits, "," and "|"
    bad |= lead & (~digit & (field < 2) | bar) | follow & bar    # an empty field or opcode
    bad |= (b == ord("0")) & lead & ~follow                      # a leading zero
    # Each id, from up to len(str(n)) digits left of its comma: a longer id is not in 0..n-1.
    width, place = c1 - starts, np.arange(len(str(n)))
    digits = b[np.maximum(c1[:, None] - 1 - place, 0)].astype(np.intp) - ord("0")
    ids = (digits * (place < width[:, None])) @ 10 ** place
    last = np.flatnonzero(opcodes & digit & follow)   # the last digit of each opcode
    ones, tens, hundreds = (b[last - k].astype(np.intp) - ord("0") for k in range(3))
    two, three = digit[last - 1], digit[last - 1] & digit[last - 2]   # opcodes of 2+, 3+ digits
    value = ones + two * 10 * tens + three * 100 * hundreds
    if ((bad & (field < 3)).any() or (three & digit[last - 3]).any() or (value > 255).any()
            or (width > len(place)).any() or (ids != np.arange(n)).any()):
        return None
    at = np.append(0, np.searchsorted(last, c3))   # each line's first opcode, then the end
    lengths, at = np.diff(at), at[:-1]
    cols = np.arange(label_dim)
    heads = value[(at[:, None] + cols)[cols < np.minimum(lengths, label_dim)[:, None]]]
    return lengths, heads, range(n)


def _nodes_by_line(path, text: str, label_dim: int):
    """_writer_nodes' result for any nodes.csv, with int() on every field of
    every line; nodes in stable id order, an id at its last node's position."""
    rows = []
    for lineno, line in enumerate(filter(None, text.splitlines()), start=1):
        parts = line.split(",", 3)
        try:
            if len(parts) != 4:
                raise ValueError("expected 4 fields")
            nid, _, seq = int(parts[0]), int(parts[1]), parse_opcode_text(parts[2])
        except ValueError as exc:
            raise FormatError(f"{path} line {lineno}: {exc}") from None
        rows.append((nid, len(seq), seq[:label_dim]))
    rows.sort(key=lambda row: row[0])
    return (np.array([row[1] for row in rows], dtype=np.intp),
            [c for row in rows for c in row[2]], {row[0]: pos for pos, row in enumerate(rows)})


def _read_lines(path):
    return list(filter(None, read_input(path).splitlines()))
