import sys
from bisect import bisect_right
from collections import Counter
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from droidflow.apimine import CriticalApiSet
from droidflow.appmodel import MethodDef, app_from_ir, load_app
from droidflow.callgraph import CallGraph, build_call_graph
from droidflow.flowgraph import (
    EDGE_TYPE_ORDER,
    EXIT,
    BACKWARD_OF,
    AbstractFlowGraph,
    FlowEdge,
    FormatError,
    build_flow_graph,
    chunk_methods,
    deserialize_graph,
    opcode_text,
    serialize_graph,
    sort_edges,
)
from droidflow.pipeline import PipelineConfig, extract_app, write_features
from droidflow.tables import default_intent_senders
from droidflow.traces import find_call_traces

import flowgraph_reference
from appbuild import build_app, cls, component, ins, invoke, method
from flowgraph_reference import ChunkGraph, ChunkNode, chunk_nodes
from synthcorpus import generate_corpus

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
SMS = "Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;)V"
CRITICAL = CriticalApiSet.of([SMS])


def extract(name):
    app = load_app(FIXTURES / name)
    cg = build_call_graph(app)
    traces = find_call_traces(cg, CRITICAL)
    graph, diags = build_flow_graph(app, cg, traces)
    return graph, diags


# --- chunking ----------------------------------------------------------------

def test_no_calls_single_exit_chunk():
    app = build_app([cls("La;", [method("f", "()V", [ins("nop"), ins("return-void")])])])
    chunks = chunk_nodes(chunk_methods(app))
    assert len(chunks) == 1
    assert chunks[0].invoke_mtd == EXIT
    assert chunks[0].opcode_seq == [0x00, 0x0E]


def test_user_call_splits_two_chunks():
    app = build_app([
        cls("La;", [
            method("f", "()V", [ins("nop"), invoke("direct", "La;->g()V"), ins("return-void")]),
            method("g", "()V", [ins("return-void")]),
        ])
    ])
    chunks = [c for c in chunk_nodes(chunk_methods(app)) if c.method == "La;->f()V"]
    assert len(chunks) == 2
    assert chunks[0].invoke_mtd == "La;->g()V"
    assert chunks[1].invoke_mtd == EXIT
    assert chunks[0].opcode_seq == [0x00, 0x70]


def test_trailing_intent_send_no_empty_exit_chunk():
    start = "Landroid/app/Activity;->startActivity(Landroid/content/Intent;)V"
    app = build_app([
        cls("La;", [method("f", "()V", [ins("nop"), invoke("virtual", start)])])
    ])
    chunks = chunk_nodes(chunk_methods(app))
    assert len(chunks) == 1
    assert chunks[0].invoke_mtd == start


def test_chunks_partition_method():
    app = load_app(FIXTURES / "neighbor_pruning")
    chunks = chunk_nodes(chunk_methods(app))
    for m in app.methods_by_id.values():
        mine = [c for c in chunks if c.method == m.method_id]
        flat = [code for c in mine for code in c.opcode_seq]
        assert flat == list(m.body)


# --- node labels -------------------------------------------------------------

def column_graph(methods, edges=()):
    """An AbstractFlowGraph of one method per list of chunks, each chunk an
    (offset, non-empty opcode list, invoke_mtd) triple."""
    first, ends, offsets, invoked, defs = [0], [], [], [], []
    for i, chunks in enumerate(methods):
        body = b"".join(bytes(seq) for _, seq, _ in chunks)
        defs.append(MethodDef("La;", f"m{i}", "()V", body, ("",) * len(body), ()))
        for offset, seq, mtd in chunks:
            ends.append((ends[-1] if len(ends) > first[-1] else 0) + len(seq))
            offsets.append(offset)
            invoked.append(mtd)
        first.append(len(ends))
    return AbstractFlowGraph(defs, first, ends, offsets, invoked, list(edges))


def node_label(seq, label_dim):
    return column_graph([[(0, seq, EXIT)]]).arrays(label_dim).labels[0]


def test_label_pads_with_zero():
    vec = node_label([0x0E, 0x6E], 13)
    assert vec[0] == pytest.approx(14 / 255)
    assert vec[1] == pytest.approx(110 / 255)
    assert (vec[2:] == 0).all()


def test_label_truncates():
    assert node_label(list(range(20)), 13).shape == (13,)


def test_label_empty_zero_vector():
    # no chunk is empty, but a nodes.csv line may list no opcodes
    graph = ChunkGraph([ChunkNode(0, "m", 0, [], EXIT)], [])
    assert (graph.arrays(13).labels[0] == 0).all()


CHUNK = st.lists(st.integers(0, 255), min_size=1, max_size=30)


@given(
    methods=st.lists(st.lists(CHUNK, min_size=1, max_size=4), max_size=8),
    drawn=st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31),
                             st.sampled_from(EDGE_TYPE_ORDER)), max_size=30),
    label_dim=st.integers(1, 20),
)
def test_graph_arrays_match_per_node_reference(methods, drawn, label_dim):
    graph = column_graph([[(0, seq, EXIT) for seq in chunks] for chunks in methods])
    nodes = chunk_nodes(graph)
    assert [n.opcode_seq for n in nodes] == [seq for chunks in methods for seq in chunks]
    n = len(nodes)
    edges = [FlowEdge(s % n, t % n, kind) for s, t, kind in drawn] if n else []
    graph.edges = edges
    arrays = graph.arrays(label_dim)
    expected = np.array(
        [flowgraph_reference.node_label(node, label_dim) for node in nodes]
    ).reshape(-1, label_dim)
    assert np.array_equal(arrays.labels, expected)
    assert arrays.src.tolist() == [e.source for e in edges]
    assert arrays.dst.tolist() == [e.target for e in edges]
    feat = np.zeros((len(edges), 2 * label_dim + len(EDGE_TYPE_ORDER)))
    for i, e in enumerate(edges):
        feat[i, :label_dim] = expected[e.source]
        feat[i, label_dim + EDGE_TYPE_ORDER.index(e.type)] = 1.0
        feat[i, -label_dim:] = expected[e.target]
    assert np.array_equal(arrays.edge_feat, feat)


# --- golden fixtures ---------------------------------------------------------

GOLDEN = [
    "critical",
    "intent_self_loop",
    "neighbor_pruning",
    "explicit_icc",
    "implicit_icc",
    "activity_result",
]


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_byte_match(name, tmp_path):
    graph, _ = extract(name)
    nodes_path, edges_path = serialize_graph(graph, tmp_path)
    assert nodes_path.read_bytes() == (FIXTURES / name / "golden" / "nodes.csv").read_bytes()
    assert edges_path.read_bytes() == (FIXTURES / name / "golden" / "edges.csv").read_bytes()


@pytest.mark.parametrize("name", GOLDEN)
def test_backward_edge_bijection(name):
    graph, _ = extract(name)
    forward = [e for e in graph.edges if e.type in ("ct", "is", "nb", "ic", "in")]
    backward = [e for e in graph.edges if e.type.startswith("b")]
    assert len(graph.edges) % 2 == 0
    assert len(forward) == len(backward)
    back_set = {(e.source, e.target, e.type) for e in backward}
    for e in forward:
        assert (e.target, e.source, BACKWARD_OF[e.type]) in back_set
        back_set.remove((e.target, e.source, BACKWARD_OF[e.type]))
    assert not back_set


def test_no_is_self_loops():
    graph, _ = extract("intent_self_loop")
    assert not any(e.source == e.target for e in graph.edges if e.type == "is")


def test_pruning_leaves_no_isolated_neighbors():
    for name in GOLDEN:
        graph, _ = extract(name)
        non_nb_endpoints = {
            x
            for e in graph.edges
            if e.type not in ("nb", "bnb")
            for x in (e.source, e.target)
        }
        for e in graph.edges:
            if e.type in ("nb", "bnb"):
                assert e.source in non_nb_endpoints or e.target in non_nb_endpoints


def test_unconnected_method_gets_zero_nb_edges():
    app = build_app(
        [
            cls("La;", [
                method("onCreate", "()V", [invoke("direct", "La;->g()V"), ins("return-void")]),
                method("g", "()V", [ins("return-void")]),
            ], superclass="Landroid/app/Activity;"),
        ],
        [component("La;")],
    )
    cg = build_call_graph(app)
    graph, _ = build_flow_graph(app, cg, [])
    assert graph.edges == []


def test_one_condensation_per_call_graph(monkeypatch):
    """The trace search and the is edges read one condensation of the call
    graph: Tarjan runs once per call graph, whichever reader asks first."""
    condense = CallGraph.condensation.func
    runs = []
    counting = cached_property(lambda cg: runs.append(cg) or condense(cg))
    counting.__set_name__(CallGraph, "condensation")
    monkeypatch.setattr(CallGraph, "condensation", counting)
    for name, trace_count in (("critical", 1), ("intent_self_loop", 0)):
        app = load_app(FIXTURES / name)
        cg = build_call_graph(app)
        runs.clear()
        traces = find_call_traces(cg, CRITICAL)
        assert len(traces) == trace_count and runs == [cg], name
        graph, _ = build_flow_graph(app, cg, traces)
        assert graph.edges and runs == [cg], name
    # the is edges read it too: a call graph the trace search never saw
    fresh = build_call_graph(app)
    build_flow_graph(app, fresh, [])
    assert runs == [cg, fresh]


def test_flow_graph_closes_chunks_at_the_call_graphs_senders():
    # "post" is a sender only in the table the call graph was built with; the
    # flow graph must close a chunk there too, or the ic edge disappears
    post = "Landroid/os/Handler;->post(Landroid/content/Intent;)V"
    act = "Landroid/app/Activity;"
    app = build_app(
        [
            cls("Lx/Main;", [method("onCreate", "()V", [
                ins("const-class", "v0", "Lx/Second;"),
                invoke("virtual", post, "{v1, v0}"),
                ins("return-void"),
            ])], superclass=act),
            cls("Lx/Second;", [method("onCreate", "()V", [ins("return-void")])], superclass=act),
        ],
        [component("Lx/Main;"), component("Lx/Second;")],
    )
    cg = build_call_graph(app, intent_senders=default_intent_senders() | {"post"})
    assert cg.icc_edges == (("Lx/Main;->onCreate()V", "Lx/Second;->onCreate()V"),)
    graph, diags = build_flow_graph(app, cg, [])
    assert [(n.method, n.invoke_mtd) for n in chunk_nodes(graph)] == [
        ("Lx/Main;->onCreate()V", post),
        ("Lx/Main;->onCreate()V", EXIT),
        ("Lx/Second;->onCreate()V", EXIT),
    ]
    assert {(e.source, e.target, e.type) for e in graph.edges} == {
        (0, 2, "ic"), (2, 0, "bic"), (0, 1, "nb"), (1, 0, "bnb"),
    }
    assert diags == []


# --- serialization -----------------------------------------------------------

def structurally_equal(a, b):
    """Equality over the persisted fields (quadruples and triples)."""
    qa = [(n.id, n.offset, tuple(n.opcode_seq), n.invoke_mtd) for n in chunk_nodes(a)]
    qb = [(n.id, n.offset, tuple(n.opcode_seq), n.invoke_mtd) for n in b.nodes]
    return qa == qb and sort_edges(a.edges) == sort_edges(b.edges)


def test_round_trip_structural_equality(tmp_path):
    graph, _ = extract("intent_self_loop")
    serialize_graph(graph, tmp_path)
    loaded = flowgraph_reference.deserialize_graph(tmp_path)
    assert structurally_equal(graph, loaded)


def test_serialization_deterministic(tmp_path):
    graph, _ = extract("critical")
    a = tmp_path / "a"
    b = tmp_path / "b"
    serialize_graph(graph, a)
    serialize_graph(graph, b)
    assert (a / "nodes.csv").read_bytes() == (b / "nodes.csv").read_bytes()
    assert (a / "edges.csv").read_bytes() == (b / "edges.csv").read_bytes()


def outcome(arrays):
    """Every array of a GraphArrays, bit for bit, with its shape and dtype."""
    return [(a.shape, a.dtype.str, a.tobytes())
            for a in (arrays.labels, arrays.src, arrays.dst, arrays.edge_feat)]


def read_outcome(read, directory, label_dim):
    """The arrays read(directory, label_dim) returns, or the error it raises."""
    try:
        return outcome(read(directory, label_dim))
    except FormatError as exc:
        return str(exc)
    except OverflowError as exc:   # an opcode in a label past float64's range
        return repr(exc)


def reference_read(directory, label_dim):
    return flowgraph_reference.deserialize_graph(directory).arrays(label_dim)


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_arrays_read_back_equal_the_graphs_arrays(tmp_path, name):
    graph, _ = extract(name)
    serialize_graph(graph, tmp_path)
    for label_dim in (1, 3, 13, 40):
        expected = outcome(graph.arrays(label_dim))
        assert read_outcome(deserialize_graph, tmp_path, label_dim) == expected, label_dim


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.iterdir()))
def test_reader_matches_reference_on_golden_files(name):
    golden = FIXTURES / name / "golden"
    for label_dim in (1, 3, 13, 40):
        expected = read_outcome(reference_read, golden, label_dim)
        assert read_outcome(deserialize_graph, golden, label_dim) == expected


NODE_LINE = 'id,offset,opcodes,text with ids 0, 1, 2, ... and opcodes 0-255 joined by "|"'


def first_bad_line(text):
    """The number of the first line of a nodes.csv text that is not as
    serialize_graph writes line k, "k,<offset>,<opcode_text>,<text>\n", or
    None: an oracle that checks one line at a time, split at "\n" only."""
    lines = text.split("\n")
    for k, line in enumerate(lines[:-1]):
        parts = line.split(",", 3)
        try:   # opcode_text raises KeyError on an opcode outside 0-255
            offset, seq = int(parts[1]), [int(c) for c in parts[2].split("|") if parts[2]]
            if (len(parts) == 4 and parts[0] == str(k) and parts[1] == str(offset) and offset >= 0
                    and opcode_text(seq) == parts[2]):
                continue
        except (ValueError, IndexError, KeyError):
            pass
        return k + 1
    return len(lines) if lines[-1] else None


def read_at_newlines(directory, label_dim):
    """The reference reader's arrays, nodes.csv split into lines at "\n" only."""
    split = lambda path: path.read_bytes().decode().split("\n")[:-1]   # noqa: E731
    return flowgraph_reference.deserialize_graph(directory, split).arrays(label_dim)


def assert_reads_as_writer_form(directory, label_dim):
    """deserialize_graph reads the nodes.csv under directory as the reference
    reads it if serialize_graph could have written it, and is otherwise a
    FormatError at its first line that breaks that form."""
    bad = first_bad_line((directory / "nodes.csv").read_bytes().decode())
    expected = read_outcome(read_at_newlines, directory, label_dim) if bad is None else \
        f"{directory / 'nodes.csv'} line {bad}: expected {NODE_LINE}"
    assert read_outcome(deserialize_graph, directory, label_dim) == expected
    return bad


ODD_FIELDS = ["007", " 3", "-1", "+5", "x", "", "0x1", "9" * 400, "\u0663", "3\r"]


@st.composite
def field_text(draw, valid):
    """Mostly a value as serialize_graph writes it, sometimes one int() may
    or may not accept."""
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from(ODD_FIELDS))
    return str(draw(valid))


@st.composite
def node_line(draw):
    if draw(st.integers(0, 19)) == 0:   # a line with the wrong number of fields
        return ",".join(draw(st.lists(field_text(st.integers(0, 9)), max_size=3)))
    seq = "|".join(draw(st.lists(field_text(st.integers(0, 300)), max_size=6)))
    invoke_mtd = draw(st.sampled_from(["exit", "La;->f()V", "La;->g(I,J)V", "La;->h\x85()V"]))
    return f"{draw(field_text(st.integers(0, 9)))},{draw(field_text(st.integers(0, 9)))},{seq},{invoke_mtd}"


@given(st.lists(node_line(), max_size=8), st.booleans(), st.sampled_from(["\n", "\r\n"]),
       st.booleans(), st.sampled_from(["", "0,1,ct\n", "2,0,bnb\n"]), st.integers(1, 13))
@example(["x,0,300|y,exit"], False, "\n", False, "", 13)   # two bad fields: the first is reported
@example(["0,0,14,exit", "1,4,1|2,La;->f()V"], False, "\r\n", False, "0,1,ct\r\n", 13)   # CRLF
@example(["0,0,14,exit", "", "1,4,,exit"], False, "\n", False, "0,1,ct\n", 3)   # a blank line
@example(["0,0,14,La;->f\x85()V", "1,4,1|2,exit"], False, "\n", False, "", 13)   # \x85 is text
@example(["0,0,14,exit\u20281,4,5,exit"], False, "\n", False, "0,1,ct\n", 13)   # so is \u2028
@example(["0,0,14,exit", "1,4,5,exit"], False, "\n", True, "0,1,ct\n", 13)      # no final "\n"
@settings(max_examples=300, deadline=None)
def test_reader_matches_reference_on_generated_files(tmp_path_factory, lines, renumber, end, cut,
                                                     edges, label_dim):
    """The reference's arrays if the file is in serialize_graph's form, and
    otherwise a FormatError at its first line that is not. Lines are drawn
    with their own ids, or renumbered 0, 1, 2, ... so that more files are in
    that form, and each ends in end, but for the last "\n" if cut is set."""
    if renumber:
        lines = [f"{k},{line.partition(',')[2]}" for k, line in enumerate(lines)]
    text = "".join(line + end for line in lines)
    directory = tmp_path_factory.mktemp("graph")
    (directory / "nodes.csv").write_bytes(text[:-1 if cut else None].encode())
    (directory / "edges.csv").write_text(edges)
    assert_reads_as_writer_form(directory, label_dim)


# Any text but "\n": every other line break of str.splitlines among it.
FOURTH_FIELD = st.text(st.sampled_from("La;->f(IJ)V,|\u00e9\u2192\u4e2d \r\v\f\x1c\x1d\x1e\x85\u2028"
                                       "\u2029"), max_size=10)


@given(st.lists(st.tuples(st.integers(0, 2 ** 16), st.lists(st.integers(0, 255), max_size=30),
                          FOURTH_FIELD), max_size=12),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                          st.sampled_from(EDGE_TYPE_ORDER)), max_size=8),
       st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_reader_matches_reference_on_writer_output(tmp_path_factory, chunks, drawn, label_dim):
    """Files in serialize_graph's form, with or without nodes, opcodes or a
    label's worth of them, and with any text but "\n" after the third comma,
    read back to the arrays of the graph the reference writer wrote. A chunk
    with no opcodes is drawn too, which no app yields, so the reference
    writer writes them."""
    nodes = [ChunkNode(i, "m", offset, seq, mtd) for i, (offset, seq, mtd) in enumerate(chunks)]
    n = len(nodes)
    edges = [FlowEdge(s % n, t % n, kind) for s, t, kind in drawn] if n else []
    directory = tmp_path_factory.mktemp("graph")
    flowgraph_reference.serialize_graph(ChunkGraph(nodes, edges), directory)
    expected = outcome(ChunkGraph(nodes, sort_edges(edges)).arrays(label_dim))
    assert read_outcome(deserialize_graph, directory, label_dim) == expected
    assert assert_reads_as_writer_form(directory, label_dim) is None


def test_writer_output_reads_back_to_the_graphs_arrays(tmp_path):
    """Every golden fixture and a synthetic corpus's graphs read back to the
    graph's own arrays."""
    graphs = [(extract(name)[0], FIXTURES / name / "golden")
              for name in sorted(p.name for p in FIXTURES.iterdir())]
    critical = PipelineConfig().critical_apis()
    for ir in generate_corpus(2, seed=5):
        result = extract_app(app_from_ir(ir), critical, PipelineConfig())
        graphs.append((result.graph, write_features(result, tmp_path)))
    for graph, directory in graphs:
        for label_dim in (1, 3, 13, 40):
            expected = outcome(graph.arrays(label_dim))
            assert read_outcome(deserialize_graph, directory, label_dim) == expected, directory


def _with_line_1(id_="1", offset="4", codes="1|2|3", text="La;->f()V"):
    return f"0,0,14|110,exit\n{id_},{offset},{codes},{text}\n2,9,,exit\n"


@pytest.mark.parametrize("content, line", [
    *((_with_line_1(codes=f"1|{c}|3"), 2) for c in ("007", "+5", "300", "1000", " 3", "-1", "1_0",
                                                     "\u0663", "2\u00a0", "", "9" * 400)),
    (_with_line_1(codes="|1"), 2), (_with_line_1(codes="1|"), 2),
    *((_with_line_1(id_=i), 2) for i in ("01", "+1", " 1", "\u0661", "")),
    *((_with_line_1(offset=o), 2) for o in ("04", "+4", "-4", " 4", "4|5", "")),
    (",0,14,exit\n1,4,5,exit\n", 1),                          # an empty first id
    (_with_line_1(id_="0"), 2), (_with_line_1(id_="3"), 2), ("1,0,14,exit\n0,4,5,exit\n", 1),
    (_with_line_1().replace("\n", "\r"), 1),                    # one line, with no "\n"
    (_with_line_1()[:-1], 3),                                   # no final "\n"
    ("\n\n", 1), (_with_line_1().replace("\n2", "\n\n2"), 3),   # blank lines
    ("0,0,14,exit\n1,4,5\n", 2), ("0,0,14,exit\n1\n", 2),       # too few fields
], ids=lambda content: repr(content)[:40])
def test_other_files_are_format_errors(tmp_path, content, line):
    """Only serialize_graph's form reads back: any other spelling of a value,
    an opcode outside 0-255, ids other than 0, 1, 2, ... in order, and a
    blank, short or unended line are a FormatError at the first such line."""
    (tmp_path / "nodes.csv").write_text(content, "utf-8", newline="")
    (tmp_path / "edges.csv").write_text("0,1,ct\n")
    expected = f"{tmp_path / 'nodes.csv'} line {line}: expected {NODE_LINE}"
    assert read_outcome(deserialize_graph, tmp_path, 13) == expected
    assert first_bad_line(content) == line


@pytest.mark.parametrize("content", [
    _with_line_1().replace("\n", "\r\n"),
    *(_with_line_1(text=f"La;->f({c}),V") for c in "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"),
], ids=lambda content: repr(content)[:40])
def test_fourth_field_holds_any_text_but_a_newline(tmp_path, content):
    """Every line break of str.splitlines but "\n" is text of the fourth field."""
    (tmp_path / "nodes.csv").write_text(content, "utf-8", newline="")
    (tmp_path / "edges.csv").write_text("0,1,ct\n")
    nodes = [ChunkNode(0, "", 0, [14, 110], EXIT), ChunkNode(1, "", 4, [1, 2, 3], "La;->f()V"),
             ChunkNode(2, "", 9, [], EXIT)]
    expected = outcome(ChunkGraph(nodes, [FlowEdge(0, 1, "ct")]).arrays(13))
    assert read_outcome(deserialize_graph, tmp_path, 13) == expected


def test_one_pass_read_makes_as_many_calls_at_any_size(tmp_path):
    """Reading writer output costs no Python call per node or per opcode: a
    200-node and a 20,000-node graph with the same edges make the same calls."""
    edges = [FlowEdge(0, 1, "ct"), FlowEdge(1, 0, "bct"), FlowEdge(2, 9, "nb"),
             FlowEdge(9, 2, "bnb")]
    counts = []
    for n in (200, 20_000):
        nodes = [ChunkNode(i, "m", 3 * i, [(7 * i + k) % 256 for k in range(i % 30)],
                           EXIT if i % 4 else "La;->f(I,J)V") for i in range(n)]
        flowgraph_reference.serialize_graph(ChunkGraph(nodes, edges), tmp_path / str(n))
        events = Counter()

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                events[event] += 1

        sys.setprofile(profile)
        try:
            deserialize_graph(tmp_path / str(n), 13)
        finally:
            sys.setprofile(None)
        counts.append(events)
    assert counts[0] == counts[1]
    assert counts[0]["call"] > 0 and counts[0]["c_call"] > 0


def test_unknown_edge_tag_rejected(tmp_path):
    (tmp_path / "nodes.csv").write_text("0,0,14,exit\n1,0,14,exit\n")
    (tmp_path / "edges.csv").write_text("0,1,zz\n")
    expected = f"{tmp_path / 'edges.csv'} line 1: unknown edge type 'zz'"
    assert read_outcome(reference_read, tmp_path, 13) == expected
    assert read_outcome(deserialize_graph, tmp_path, 13) == expected


def test_dangling_edge_rejected(tmp_path):
    (tmp_path / "nodes.csv").write_text("0,0,14,exit\n")
    (tmp_path / "edges.csv").write_text("0,7,ct\n")
    expected = f"{tmp_path / 'edges.csv'} line 1: dangling endpoint"
    assert read_outcome(reference_read, tmp_path, 13) == expected
    assert read_outcome(deserialize_graph, tmp_path, 13) == expected


def test_edge_type_order_canonical():
    assert EDGE_TYPE_ORDER == ("ct", "is", "nb", "ic", "in", "bct", "bis", "bnb", "bic", "bin")
    bad = pytest.raises(FormatError, FlowEdge, 0, 1, "xx")
    assert bad


# --- the column build against the ChunkNode build it replaced ------------------

@given(st.lists(st.lists(st.tuples(st.integers(0, 2 ** 16), CHUNK, FOURTH_FIELD),
                         min_size=1, max_size=4), max_size=6),
       st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23),
                          st.sampled_from(EDGE_TYPE_ORDER)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_writer_matches_reference_writer(tmp_path_factory, methods, drawn):
    """serialize_graph writes each chunk's line from its method's body bytes
    as the reference writes it from the chunk's own opcode list."""
    graph = column_graph(methods)
    n = len(graph)
    graph.edges = [FlowEdge(s % n, t % n, kind) for s, t, kind in drawn] if n else []
    new, ref = tmp_path_factory.mktemp("new"), tmp_path_factory.mktemp("ref")
    serialize_graph(graph, new)
    flowgraph_reference.serialize_graph(ChunkGraph(chunk_nodes(graph), graph.edges), ref)
    for name in ("nodes.csv", "edges.csv"):
        assert (new / name).read_bytes() == (ref / name).read_bytes()


ACT = "Landroid/app/Activity;"
START = "Landroid/app/Activity;->startActivity(Landroid/content/Intent;)V"
HELPER = "Lx/Main;->helper()V"


def _activity(name, body, *extra):
    return cls(name, [method("onCreate", "()V", body), *extra], superclass=ACT)


def _send(target=None):
    """An explicit intent to target, or one naming no component."""
    const = [ins("const-class", "v0", target)] if target else [ins("const/4", "v0", "0x0")]
    return [*const, invoke("virtual", START, "{p0, v0}")]


HAND_MADE = {
    "abstract method and empty body": [
        _activity("Lx/Main;", [invoke("virtual", "Lx/Main;->g()V"), invoke("direct", "Lx/Main;->h()V"),
                               *_send("Lx/Second;"), ins("return-void")],
                  method("g", "()V", [], flags=("public", "abstract")), method("h", "()V", [])),
        _activity("Lx/Second;", [ins("return-void")]),
    ],
    "send as the last instruction and two sends in one method": [
        _activity("Lx/Main;", [*_send("Lx/Second;"), ins("nop"), *_send("Lx/Third;")],
                  method("onActivityResult", "()V", [ins("return-void")])),
        _activity("Lx/Second;", [ins("nop"), invoke("direct", "Lx/Second;->both()V"),
                                 ins("return-void")],
                  method("both", "()V", [*_send("Lx/Main;"), *_send("Lx/Third;"),
                                         ins("return-void")])),
        _activity("Lx/Third;", [ins("return-void")],
                  method("onActivityResult", "()V", [ins("return-void")])),
    ],
    "trace sites on a chunk's last offset": [
        _activity("Lx/Main;", [ins("const-wide", "v0", "0x1"), invoke("direct", HELPER),
                               ins("nop"), invoke("virtual", SMS)],
                  method("helper", "()V", [ins("nop"), invoke("virtual", SMS)])),
    ],
    "unresolved intents": [
        _activity("Lx/Main;", [*_send(), *_send("Lx/NoEntry;"), *_send("Lx/Missing;"),
                               ins("return-void")],
                  method("unreached", "()V", [*_send(), *_send("Lx/NoEntry;"), ins("return-void")])),
        cls("Lx/NoEntry;", [method("run", "()V", [ins("return-void")])], superclass=ACT),
    ],
}
HAND_MADE_COMPONENTS = ["Lx/Main;", "Lx/Second;", "Lx/Third;", "Lx/NoEntry;", "Lx/Missing;"]
# A critical user-defined method: its call closes a chunk.
HAND_MADE_CRITICAL = CriticalApiSet.of([SMS, HELPER])


def _hand_made_apps():
    for name, classes in HAND_MADE.items():
        defined = {c["name"] for c in classes}
        components = [component(c) for c in HAND_MADE_COMPONENTS
                      if c in defined or name == "unresolved intents"]
        yield name, build_app(classes, components, app_id=name.replace(" ", "_").replace("'", ""))


def _assert_builds_agree(app, critical, tmp_path, monkeypatch):
    """The column build and the ChunkNode build give the same feature files,
    diagnostics in the same order, reports and arrays."""
    from droidflow import pipeline

    config = PipelineConfig()
    result = extract_app(app, critical, config)
    with monkeypatch.context() as patched:
        patched.setattr(pipeline, "build_flow_graph", flowgraph_reference.build_flow_graph)
        patched.setattr(pipeline, "serialize_graph", flowgraph_reference.serialize_graph)
        expected = extract_app(app, critical, config)
        ref_dir = write_features(expected, tmp_path / "ref")
    new_dir = write_features(result, tmp_path / "new")
    assert result.report == expected.report
    for name in ("nodes.csv", "edges.csv", "traces.csv", "report.json"):
        assert (new_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name
    for label_dim in (1, 3, 13):
        assert outcome(result.graph.arrays(label_dim)) == outcome(expected.graph.arrays(label_dim))
    cg = build_call_graph(app)
    traces = find_call_traces(cg, critical)
    graph, diagnostics = build_flow_graph(app, cg, traces)
    assert diagnostics == flowgraph_reference.build_flow_graph(app, cg, traces)[1]
    return result.report


@pytest.mark.parametrize("name", HAND_MADE)
def test_hand_made_cases_build_as_the_reference(tmp_path, monkeypatch, name):
    app = dict(_hand_made_apps())[name]
    report = _assert_builds_agree(app, HAND_MADE_CRITICAL, tmp_path, monkeypatch)
    assert report["graph_edges"] > 0


def test_hand_made_cases_cover_what_they_name(tmp_path, monkeypatch):
    apps = dict(_hand_made_apps())
    cg = build_call_graph(apps["trace sites on a chunk's last offset"])
    traces = find_call_traces(cg, HAND_MADE_CRITICAL)
    nodes = chunk_nodes(build_flow_graph(cg.app, cg, traces)[0])
    ends = {(n.method, n.end_offset) for n in nodes}
    assert len(traces) == 3 and all((t.methods[-1], t.site_offset) in ends for t in traces)
    diagnostics = build_call_graph(apps["unresolved intents"]).diagnostics
    assert any(d.startswith("unresolved intent target") for d in diagnostics)
    assert "component Lx/NoEntry; has no intent entry method" in diagnostics
    assert "missing component class Lx/Missing;" in diagnostics
    cg = build_call_graph(apps["send as the last instruction and two sends in one method"])
    graph, _ = build_flow_graph(cg.app, cg, [])
    assert {"is", "ic", "in", "nb"} <= {e.type for e in graph.edges}


def test_corpus_builds_as_the_reference(tmp_path, monkeypatch):
    critical = PipelineConfig().critical_apis()
    for i, ir in enumerate(generate_corpus(8, seed=21)):
        _assert_builds_agree(app_from_ir(ir), critical, tmp_path / str(i), monkeypatch)
    for name in sorted(p.name for p in FIXTURES.iterdir()):
        _assert_builds_agree(load_app(FIXTURES / name), CRITICAL, tmp_path / name, monkeypatch)


def test_every_trace_ends_in_the_chunk_of_its_critical_call():
    """What build_edges' trace lookup rests on, on the fixtures, the hand-made
    apps and a random corpus: both ends of every trace have chunks, and the
    chunk the site offset picks holds the critical call."""
    corpus = PipelineConfig().critical_apis()
    apps = [(load_app(FIXTURES / p.name), CRITICAL) for p in sorted(FIXTURES.iterdir())]
    apps += [(app, HAND_MADE_CRITICAL) for _, app in _hand_made_apps()]
    apps += [(app_from_ir(ir), corpus) for ir in generate_corpus(8, seed=21)]
    checked = 0
    for app, critical in apps:
        cg = build_call_graph(app)
        traces = find_call_traces(cg, critical)
        graph, _ = build_flow_graph(app, cg, traces)
        position = {m.method_id: j for j, m in enumerate(graph.methods)}
        first = graph.first
        for trace in traces:
            assert trace.methods[0] in position and trace.methods[-1] in position
            j = position[trace.methods[-1]]
            k = bisect_right(graph.offsets, trace.site_offset, first[j], first[j + 1]) - 1
            start = graph.ends[k - 1] if k > first[j] else 0
            [index] = [i for i, offset, api in graph.methods[j].calls
                       if offset == trace.site_offset and api == trace.critical_api]
            assert graph.offsets[k] <= trace.site_offset and start <= index < graph.ends[k]
            assert FlowEdge(first[position[trace.methods[0]]], k, "ct") in graph.edges
            checked += 1
    assert checked >= 17


class _CountingMap(dict):
    """A dict that counts its lookups."""

    def __init__(self, data, counter):
        super().__init__(data)
        self.counter = counter

    def __getitem__(self, key):
        self.counter.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.counter.append(key)
        return super().get(key, default)


def _sender_chain(n):
    """n methods in one call chain from an activity's onCreate, each sending an intent."""
    names = ["onCreate"] + [f"m{i}" for i in range(1, n)]
    methods = [
        method(name, "()V", [*_send(), *([invoke("direct", f"Lx/Main;->{names[i + 1]}()V")]
                                         if i + 1 < n else []), ins("return-void")])
        for i, name in enumerate(names)
    ]
    return build_app([cls("Lx/Main;", methods, superclass=ACT)], [component("Lx/Main;")])


def test_intent_send_edges_take_one_reachability_pass(monkeypatch):
    """A chain of N senders costs O(N) call-graph lookups, not one reverse
    walk per sender: doubling N at most doubles them. The sending class's
    onActivityResult and onNewIntent, each a scan of its N methods, are
    looked up once, not once per send."""
    from droidflow.appmodel import AppModel

    counts, by_name = [], []
    lookup = AppModel.lookup_method
    for n in (500, 1000):
        app = _sender_chain(n)
        cg = build_call_graph(app)
        lookups, named = [], []
        cg.edges = _CountingMap(cg.edges, lookups)
        with monkeypatch.context() as patched:
            patched.setattr(AppModel, "lookup_method",
                            lambda self, *args: named.append(args) or lookup(self, *args))
            graph, _ = build_flow_graph(app, cg, [])
        assert sum(e.type == "is" for e in graph.edges) == n - 1   # not to its own first chunk
        counts.append(len(lookups))
        by_name.append(len(named))
    assert counts[0] > 0 and counts[1] <= 2.1 * counts[0], counts
    assert by_name[0] == by_name[1] == 2, by_name
