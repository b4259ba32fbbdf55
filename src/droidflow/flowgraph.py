"""Abstract flow graph over code chunks with ten typed edge sets.

Methods are carved into chunks at user-defined and intent-sending call
sites, held as per-method columns over the methods' bodies. Forward edge
types: critical-trace (ct), intent-sending (is), neighbor (nb),
inter-component (ic) and implicit-neighbor (in); every forward edge is
mirrored by a backward edge of the hatted type (bct, bis, bnb, bic, bin).
Neighbor edges are only built inside methods that issue a ct/is/ic edge and
are pruned when neither endpoint touches a non-neighbor edge. Nodes persist
as ``id,offset,opcode_seq,invoke_mtd`` quadruples and edges as
``source,target,type`` triples, read back straight into GraphArrays.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from .callgraph import entries_reaching
from .dalvik import WIDTH_TABLE, normalize
from .icc import DEFAULT_INTENT_RECEIVERS, is_chunk_boundary
from .tables import InputError, default_intent_senders, read_input

EXIT = "exit"
FORWARD_TYPES = ("ct", "is", "nb", "ic", "in")
BACKWARD_OF = {"ct": "bct", "is": "bis", "nb": "bnb", "ic": "bic", "in": "bin"}
EDGE_TYPE_ORDER = FORWARD_TYPES + tuple(BACKWARD_OF[t] for t in FORWARD_TYPES)
_TYPE_INDEX = {t: i for i, t in enumerate(EDGE_TYPE_ORDER)}

# The text of each opcode value in nodes.csv and traces.csv: one lookup per
# opcode written.
_CODE_TEXT = {code: str(code) for code in range(256)}


class FormatError(InputError):
    """A feature file not in the form extract writes."""


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
    """Chunks as per-method columns, as MethodDef stores its body: the chunks
    of methods[j] have ids first[j] to first[j + 1] - 1, and chunk k holds
    its method's body[ends[k - 1]:ends[k]] (from 0 for a method's first
    chunk), starts at offset offsets[k] and closes at the call of invoked[k],
    or at the method exit (EXIT)."""

    methods: list     # the MethodDefs with a non-empty body, in id order
    first: list       # each method's first chunk id, then the number of chunks
    ends: list        # per chunk: the body index just past its last instruction
    offsets: list     # per chunk: the offset of its first instruction
    invoked: list     # per chunk: the signature of the call that closes it, or EXIT
    edges: list

    def __len__(self) -> int:
        """The number of chunks."""
        return len(self.ends)

    def arrays(self, label_dim: int) -> GraphArrays:
        """The graph's arrays, nodes in id order and edges in list order."""
        codes, lengths = self._laid_out()
        return _graph_arrays(codes, lengths, range(len(self)), self.edges, label_dim)

    def _laid_out(self):
        """The methods' bodies laid end to end as one array of opcodes, which
        the chunks tile in id order, and each chunk's number of opcodes."""
        codes = np.frombuffer(b"".join([m.body for m in self.methods]), np.uint8)
        ends = np.array(self.ends, dtype=np.intp)
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1]
        starts[self.first[:-1]] = 0
        return codes, ends - starts


def _graph_arrays(codes, lengths, index, edges, label_dim: int) -> GraphArrays:
    """GraphArrays of nodes of these opcode counts, their opcodes laid end to end
    in codes, and of edges, each endpoint at the position index maps its id to."""
    cols = np.arange(label_dim)
    at = (np.cumsum(lengths) - lengths)[:, None] + cols
    held = cols < np.minimum(lengths, label_dim)[:, None]   # the cells a node's opcodes fill
    labels = np.zeros((len(lengths), label_dim))
    labels[held] = codes[at[held]]
    labels = normalize(labels)
    src = np.array([index[e.source] for e in edges], dtype=np.intp)
    dst = np.array([index[e.target] for e in edges], dtype=np.intp)
    onehot = np.zeros((len(edges), len(EDGE_TYPE_ORDER)))
    onehot[np.arange(len(edges)), np.array([_TYPE_INDEX[e.type] for e in edges], dtype=np.intp)] = 1
    return GraphArrays(labels, src, dst, np.concatenate([labels[src], onehot, labels[dst]], axis=1))


def sort_edges(edges):
    return sorted(set(edges), key=lambda e: (_TYPE_INDEX[e.type], e.source, e.target))


def chunk_methods(app, intent_senders=None) -> AbstractFlowGraph:
    """Partition every method body into chunks, ids in (method, offset)
    order: the graph's chunk columns, without edges.

    A chunk closes at a call to a user-defined method, at an intent-sending
    call, or at the method exit; the terminating invoke belongs to its chunk.
    """
    senders = default_intent_senders() if intent_senders is None else intent_senders
    boundary = {}   # invoked signature -> is_chunk_boundary, tested once each
    methods, first, ends, offsets, invoked = [], [], [], [], []
    for method in app.methods_by_id.values():
        body = method.body
        if not body:
            continue
        methods.append(method)
        first.append(len(ends))
        start, start_offset = 0, 0
        for idx, offset, callee in method.calls:
            if callee not in boundary:
                boundary[callee] = is_chunk_boundary(app, callee, senders)
            if boundary[callee]:
                ends.append(idx + 1)
                offsets.append(start_offset)
                invoked.append(callee)
                start, start_offset = idx + 1, offset + WIDTH_TABLE[body[idx]]
        if start < len(body):
            ends.append(len(body))
            offsets.append(start_offset)
            invoked.append(EXIT)
    first.append(len(ends))
    return AbstractFlowGraph(methods, first, ends, offsets, invoked, [])


def build_edges(graph: AbstractFlowGraph, cg, traces, components):
    """Construct all typed edges over the graph's chunks (forward plus mirrors).

    Intent sends are not resolved again: the call graph holds the receivers
    of every send in the app, keyed by (method, body index), and each send
    closes a chunk, since the chunks close at the senders cg was built with."""
    app = cg.app
    first, ends, offsets = graph.first, graph.ends, graph.offsets
    position = {m.method_id: j for j, m in enumerate(graph.methods)}

    def first_chunk(method_id):
        j = position.get(method_id)
        return None if j is None else first[j]

    diagnostics = []
    ct, is_, ic, in_ = set(), set(), set(), set()

    # Every method on a trace has chunks, as it calls on or holds the critical
    # call, and a site offset is a call offset of methods[-1].
    for trace in traces:
        j = position[trace.methods[-1]]
        ct.add((first[position[trace.methods[0]]],
                bisect_right(offsets, trace.site_offset, first[j], first[j + 1]) - 1))

    sends = []   # (chunk id, method id, body index) of each chunk an intent send closes
    for mid, idx in cg.intent_sends:
        j = position[mid]
        sends.append((bisect_left(ends, idx + 1, first[j], first[j + 1]), mid, idx))
    sends.sort()

    # is: from each entry point to the sends of every method it reaches
    sends_by_method = {}
    for k, mid, _ in sends:
        sends_by_method.setdefault(mid, []).append(k)
    reach = entries_reaching(cg) if sends else {}
    for mid, chunks in sends_by_method.items():
        bits = reach.get(mid, 0)
        while bits:
            low = bits & -bits
            bits ^= low
            src = first_chunk(cg.entry_points[low.bit_length() - 1])
            if src is not None:
                is_.update((src, k) for k in chunks if k != src)

    component_classes = {c.path_name for c in components}
    returns = {}   # component class -> first chunks of its DEFAULT_INTENT_RECEIVERS
    for k, mid, idx in sends:
        receivers = cg.intent_sends[(mid, idx)]
        if not receivers:
            diagnostics.append(f"unresolved intent at chunk {k}")
        for path_name, recv in receivers:
            tgt = first_chunk(recv)
            if tgt is None:
                diagnostics.append(f"no receiver chunk for {path_name}")
                continue
            ic.add((k, tgt))
        owner = mid.partition("->")[0]
        if owner in component_classes and owner not in returns:
            found = (app.lookup_method(owner, rname) for rname in DEFAULT_INTENT_RECEIVERS)
            returns[owner] = [first_chunk(m.method_id) for m in found if m is not None]
        for tgt in returns.get(owner, ()):
            if tgt is not None:
                ic.add((k, tgt))
                in_.add((k, tgt))

    # nb: between consecutive chunks of each method that issues a ct, is or ic edge
    issuing = {bisect_right(first, s) - 1 for s, _ in ct | is_ | ic}
    nb = {(k, k + 1) for j in issuing for k in range(first[j], first[j + 1] - 1)}
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
    graph = chunk_methods(app, cg.intent_senders)
    graph.edges, diagnostics = build_edges(graph, cg, traces, app.components)
    return graph, diagnostics


# --- persistence -------------------------------------------------------------

def opcode_text(seq) -> str:
    """An opcode sequence as its "|"-joined line."""
    return "|".join(map(_CODE_TEXT.__getitem__, seq))


# Each opcode value's text, and its text followed by "|", as four bytes padded
# with spaces; and a line break, as the same.
_CODE_WORDS, _BAR_WORDS = (
    np.frombuffer(b"".join(f"{code}{bar}".encode().ljust(4) for code in range(256)), np.uint32)
    for bar in ("", "|"))
_BREAK_WORD = np.frombuffer(b"\n".ljust(4), np.uint32)[0]


def opcode_lines(codes, lengths) -> bytes:
    """The opcode_text lines, each ended by "\n", of sequences of these
    lengths laid end to end in codes (bytes or a uint8 array), in one pass of
    array operations: each opcode's four bytes, less their padding, with no
    "|" after a sequence's last opcode and a line break after each sequence."""
    codes, ends = np.frombuffer(codes, np.uint8), np.cumsum(lengths, dtype=np.intp)
    words = _BAR_WORDS[codes]
    last = ends[np.asarray(lengths) > 0] - 1   # each non-empty sequence's last opcode
    words[last] = _CODE_WORDS[codes[last]]
    return np.insert(words, ends, _BREAK_WORD).tobytes().replace(b" ", b"")


def serialize_graph(graph: AbstractFlowGraph, out_dir):
    """Write nodes.csv and edges.csv under out_dir, UTF-8 and byte-deterministic.
    The opcode texts of all chunks come from the bodies' bytes through
    opcode_lines. A ValueError, before anything is written, if a chunk's
    invoked method holds a "\n", which would split its line."""
    texts = opcode_lines(*graph._laid_out()).decode("ascii").split("\n")
    nodes = "".join([f"{k},{offset},{seq},{mtd}\n"
                     for k, offset, seq, mtd in zip(count(), graph.offsets, texts, graph.invoked)])
    if nodes.count("\n") != len(graph):
        broken = next(mtd for mtd in graph.invoked if "\n" in mtd)
        raise ValueError(f"cannot write nodes.csv: invoked method {broken!r} holds a line break")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "nodes.csv").write_text(nodes, "utf-8")
    (out_dir / "edges.csv").write_text(
        "".join(f"{e.source},{e.target},{e.type}\n" for e in sort_edges(graph.edges)), "utf-8")
    return out_dir / "nodes.csv", out_dir / "edges.csv"


def deserialize_graph(in_dir, label_dim: int) -> GraphArrays:
    """The arrays() of a graph serialize_graph wrote, its edges in sort_edges
    order. An error names the file, and its first bad line if it is UTF-8."""
    path = Path(in_dir) / "nodes.csv"
    codes, lengths = _read_nodes(path)
    index, edges = range(len(lengths)), []
    path = path.with_name("edges.csv")
    for lineno, line in enumerate(filter(None, read_input(path).splitlines()), start=1):
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
    return _graph_arrays(codes, lengths, index, sort_edges(edges), label_dim)


_OPCODES = 'opcodes 0-255 joined by "|"'
_NODE_LINE = f"id,offset,opcodes,text with ids 0, 1, 2, ... and {_OPCODES}"


def read_opcode_lines(path) -> list:
    """The opcode sequences of the non-empty lines of a file in the form
    write_features gives traces.csv, opcode_text lines each ended by "\n", in
    one pass of array operations. Any other file is a FormatError at its
    first bad line."""
    b = np.frombuffer(b"\n" + read_input(path, str.encode), np.uint8)
    breaks = np.flatnonzero(b == ord("\n"))      # breaks[k] ends line k
    _, bad, last, value = _opcodes(b, b != ord("\n"))
    _raise_at_first_bad_line(path, breaks, bad, _OPCODES)
    ends = np.searchsorted(last, breaks)            # the opcodes before each line's end
    cuts, values = ends[np.diff(ends, prepend=-1) > 0].tolist(), value.tolist()
    return [values[start:end] for start, end in zip(cuts, cuts[1:])]


def _read_nodes(path):
    """The opcodes of a nodes.csv exactly as serialize_graph writes it, end to
    end, and each line's count of them, in one pass of array operations: lines
    end in "\n", ids run 0..n-1, and ids, offsets and opcodes 0-255 are digits
    without leading zeros. Any other file is a FormatError at its first bad line."""
    b = np.frombuffer(b"\n" + read_input(path, str.encode), np.uint8)
    breaks = np.flatnonzero(b == ord("\n"))      # breaks[k] ends line k
    starts, ends, n = breaks[:-1] + 1, breaks[1:], len(breaks) - 1
    commas = np.append(np.flatnonzero(b == ord(",")), [len(b)] * 3)
    # Each line's first three commas; in place of each it lacks, its "\n",
    # which then lies in a field that must not hold it.
    c1, c2, c3 = (np.minimum(commas[np.searchsorted(commas, starts) + k], ends) for k in range(3))
    # Each byte's field: 0-2 for the id, offset and opcodes with the comma
    # that ends each, 3 for the rest of the line with its "\n" (and b[0]).
    bounds = np.append(0, np.column_stack((starts, c1 + 1, c2 + 1, c3 + 1)))
    values = np.append(np.int8(3), np.tile(np.arange(4, dtype=np.int8), n))
    field = np.repeat(values, np.diff(bounds, append=len(b)))
    (digit, lead, follow), bad, last, value = _opcodes(b, (field == 2) & (b != ord(",")))
    number = field < 2                                        # an id or offset, with its comma
    bad |= number & ~digit & ((b != ord(",")) | lead)         # digits only, at least one
    bad |= number & (b == ord("0")) & lead & ~follow          # no leading zero
    # Each id, from up to len(str(n)) digits left of its comma: a longer id is not in 0..n-1.
    width, place = c1 - starts, np.arange(len(str(n)))
    digits = b[np.maximum(c1[:, None] - 1 - place, 0)].astype(np.intp) - ord("0")
    ids = (digits * (place < width[:, None])) @ 10 ** place
    bad[starts] |= (ids != np.arange(n)) | (width > len(place))
    _raise_at_first_bad_line(path, breaks, bad, _NODE_LINE)
    return value, np.diff(np.searchsorted(last, c3), prepend=0)


def _opcodes(b, inside):
    """The byte classes of b, a file's bytes after a "\n" (masks of its digits
    and of the bytes after and before a non-digit); a mask of its bad bytes;
    and the last position in b and the value of each opcode in the fields of
    the bytes where inside is set, each ended by a byte outside. A byte is bad
    if it breaks opcode_text's form there, "|"-joined values 0-255 in digits
    without leading zeros, or if it ends the file but not in "\n"."""
    digit = (b - ord("0")) < 10                # uint8 arithmetic wraps below "0"
    lead = np.append(True, ~digit[:-1])        # the byte before is no digit
    follow = np.append(~digit[1:], True)       # nor the byte after
    bar = inside & (b == ord("|"))
    bad = inside & ~digit & ~bar | bar & (lead | follow)    # "|"-joined digits, none empty
    bad |= inside & (b == ord("0")) & lead & ~follow         # no leading zero
    bad[-1] |= b[-1] != ord("\n")                           # an unended last line
    last = np.flatnonzero(inside & digit & follow)           # the last digit of each opcode
    ones, tens, hundreds = (b[last - k].astype(np.int16) - ord("0") for k in range(3))
    two, three = digit[last - 1], digit[last - 1] & digit[last - 2]   # opcodes of 2+, 3+ digits
    value = ones + 10 * tens * two + 100 * hundreds * three
    bad[last] |= three & digit[last - 3] | (value > 255)
    return (digit, lead, follow), bad, last, value


def _raise_at_first_bad_line(path, breaks, bad, expected: str):
    """A FormatError at the line of path's first bad byte, if it has one."""
    lines = np.searchsorted(breaks, np.flatnonzero(bad))
    if len(lines):
        raise FormatError(f"{path} line {lines[0]}: expected {expected}")
