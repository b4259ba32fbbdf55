import time
from collections import Counter

from hypothesis import assume, given, settings, strategies as st

from droidflow import traces as traces_module
from droidflow.apimine import CriticalApiSet
from droidflow.appmodel import load_app
from droidflow.callgraph import build_call_graph
from droidflow.pipeline import PipelineConfig, extract_app
from droidflow.traces import (
    DEFAULT_MAX_TRACES_PER_ENTRY,
    CallTrace,
    build_matrix,
    find_call_traces,
    sample_opcodes,
    split_sequence,
)

from appbuild import build_app, cls, component, ins, invoke, method, rows
from test_callgraph import fx_diamond, fx_linear
from test_pipeline import _deep_call_chain

SMS = "Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;)V"
CRITICAL = CriticalApiSet.of([SMS])


def enumerate_paths_oracle(cg, critical):
    """Brute-force simple-path enumeration, independent of the DFS search."""
    app = cg.app
    sites = {}
    for mid in cg.nodes:
        m = app.get_method(mid)
        sites[mid] = [offset for offset, _, _, invoked in rows(m) if invoked in set(critical)]
    found = []
    def walk(path):
        for off in sites.get(path[-1], []):
            found.append((tuple(path), off))
        for nxt in cg.edges.get(path[-1], ()):
            if nxt not in path:
                walk(path + [nxt])
    for e in cg.entry_points:
        walk([e])
    return set(found)


def reference_opcodes(app, methods, hop_offsets, site_offset):
    """The prefix-chaining walk by offsets: in each method, find the row at
    the offset of the invoke that continues the trace (the critical invoke in
    the last method) and take the opcodes of every row up to it."""
    seq = []
    for mid, stop in zip(methods, (*hop_offsets, site_offset)):
        body_rows = rows(app.get_method(mid))
        end = next(i for i, row in enumerate(body_rows) if row[0] == stop)
        seq.extend(code for _, code, _, _ in body_rows[: end + 1])
    return seq


def reference_find_call_traces(cg, critical, max_depth=64, max_traces_per_entry=256):
    """The unpruned search: every simple path, dead branches included, each
    trace's opcode sequence filled by reference_opcodes.

    find_call_traces must return exactly this list, in this order."""
    critical_set = set(critical)
    app = cg.app
    traces = []

    def critical_sites(method_id):
        method = app.get_method(method_id)
        if method is None:
            return []
        return [row for row in rows(method) if row[3] in critical_set]

    for entry in cg.entry_points:
        budget = [max_traces_per_entry]

        def dfs(path, hop_offsets):
            if budget[0] <= 0:
                return
            current = path[-1]
            for site_offset, _, _, api in critical_sites(current):
                if budget[0] <= 0:
                    return
                seq = reference_opcodes(app, path, hop_offsets, site_offset)
                traces.append(CallTrace(methods=tuple(path), critical_api=api,
                                        site_offset=site_offset, opcode_seq=seq))
                budget[0] -= 1
            if len(path) >= max_depth:
                return
            on_path = set(path)
            for site_offset, targets in cg.call_sites.get(current, ()):
                for callee in targets:
                    if callee not in on_path:
                        dfs(path + [callee], hop_offsets + [site_offset])

        dfs([entry], [])
    return traces


def test_single_trace():
    cg = build_call_graph(fx_linear())
    traces = find_call_traces(cg, CRITICAL)
    assert len(traces) == 1
    t = traces[0]
    assert t.methods == ("Lx/Main;->onCreate()V", "Lx/Main;->m2()V")
    assert t.critical_api == SMS


def test_diamond_two_traces_and_oracle():
    cg = build_call_graph(fx_diamond())
    traces = find_call_traces(cg, CRITICAL)
    assert len(traces) == 2
    got = {(t.methods, t.site_offset) for t in traces}
    assert got == enumerate_paths_oracle(cg, CRITICAL)


def test_no_critical_reachable():
    cg = build_call_graph(fx_linear())
    assert find_call_traces(cg, CriticalApiSet.of(["Lnope;->x()V"])) == []


def test_depth_cap():
    chain = [
        cls("Lx/Main;", [
            method("onCreate", "()V", [invoke("direct", "Lx/Main;->m1()V"), ins("return-void")]),
        ] + [
            method(f"m{i}", "()V", [invoke("direct", f"Lx/Main;->m{i+1}()V"), ins("return-void")])
            for i in range(1, 10)
        ] + [
            method("m10", "()V", [invoke("virtual", SMS), ins("return-void")]),
        ], superclass="Landroid/app/Activity;")
    ]
    app = build_app(chain, [component("Lx/Main;")])
    cg = build_call_graph(app)
    assert len(find_call_traces(cg, CRITICAL)) == 1
    assert find_call_traces(cg, CRITICAL, max_depth=3) == []


DEVICE_ID = "Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;"


def fx_layers(width, layers, final_call=None):
    """onCreate calls all `width` methods of layer 1, and every method of a
    layer calls all methods of the next: width**layers paths. The last layer
    invokes final_call, if any; onCreate also calls live(), which sends SMS."""
    def name(layer, j):
        return f"d{layer}_{j}"

    def calls(layer):
        return [invoke("direct", f"Lx/Main;->{name(layer, j)}()V") for j in range(width)]

    methods = [
        method("onCreate", "()V", calls(1) + [invoke("direct", "Lx/Main;->live()V"),
                                              ins("return-void")]),
        method("live", "()V", [invoke("virtual", SMS), ins("return-void")]),
    ]
    for layer in range(1, layers + 1):
        last = layer == layers
        body = ([invoke("virtual", final_call)] if final_call else []) if last else calls(layer + 1)
        methods += [method(name(layer, j), "()V", body + [ins("return-void")])
                    for j in range(width)]
    return build_app([cls("Lx/Main;", methods, superclass="Landroid/app/Activity;")],
                     [component("Lx/Main;")])


def test_dead_branches_cost_nothing():
    # 4**12 simple paths lead nowhere; the unpruned search walks every one.
    cg = build_call_graph(fx_layers(4, 12))
    t0 = time.perf_counter()
    found = find_call_traces(cg, CRITICAL)
    elapsed = time.perf_counter() - t0
    assert [t.methods for t in found] == [("Lx/Main;->onCreate()V", "Lx/Main;->live()V")]
    assert elapsed < 0.5
    assert cg.diagnostics == []


def test_trace_cap_is_reported():
    # 3**7 = 2187 paths end in getDeviceId; the entry keeps the first 256.
    config = PipelineConfig()
    result = extract_app(fx_layers(3, 7, DEVICE_ID), config.critical_apis(), config)
    assert result.report["trace_count"] == DEFAULT_MAX_TRACES_PER_ENTRY
    assert result.report["diagnostics"] == ["trace cap hit at entry Lx/Main;->onCreate()V"]


def test_trace_cap_not_reported_when_nothing_is_left():
    cg = build_call_graph(fx_diamond())
    assert len(find_call_traces(cg, CRITICAL, max_traces_per_entry=2)) == 2
    assert cg.diagnostics == []
    assert len(find_call_traces(cg, CRITICAL, max_traces_per_entry=1)) == 1
    assert cg.diagnostics == ["trace cap hit at entry Lx/Main;->onCreate()V"]


def fx_clique(size):
    """onCreate and onStart call every helper; every helper calls every
    other, and the last one sends SMS: a strongly connected live graph."""
    helpers = [f"Lx/Main;->h{i}()V" for i in range(size)]
    calls = [invoke("direct", h) for h in helpers]
    methods = [method(e, "()V", calls + [ins("return-void")]) for e in ("onCreate", "onStart")]
    for i in range(size):
        body = [c for j, c in enumerate(calls) if j != i]
        if i == size - 1:
            body.append(invoke("virtual", SMS))
        methods.append(method(f"h{i}", "()V", body + [ins("return-void")]))
    return build_app([cls("Lx/Main;", methods, superclass="Landroid/app/Activity;")],
                     [component("Lx/Main;")])


def test_visit_budget_stops_the_search(monkeypatch):
    cg = build_call_graph(fx_clique(5))
    reference = reference_find_call_traces(cg, CRITICAL)
    assert find_call_traces(cg, CRITICAL) == reference
    assert cg.diagnostics == []
    assert {t.entry for t in reference} == {"Lx/Main;->onCreate()V", "Lx/Main;->onStart()V"}

    monkeypatch.setattr(traces_module, "DFS_VISIT_BUDGET", 50)
    cg = build_call_graph(fx_clique(5))
    found = find_call_traces(cg, CRITICAL)
    assert 0 < len(found) < len(reference)
    assert found == reference[: len(found)]
    # the budget is per app: the second entry gets no search at all
    assert {t.entry for t in found} == {"Lx/Main;->onCreate()V"}
    assert cg.diagnostics == ["visit budget hit at entry Lx/Main;->onCreate()V"]


@st.composite
def random_call_graph_app(draw):
    """Up to five Main methods plus a Helper.h overridden in Sub (so one
    call site can have two targets). Bodies mix direct calls, the virtual
    Helper.h call, SMS sends and nops; cycles, self-calls, dead branches and
    shared callees all occur."""
    n = draw(st.integers(min_value=1, max_value=5))
    mains = [f"m{i}" for i in range(n)]
    targets = [f"Lx/Main;->{m}()V" for m in mains]
    item = st.one_of(
        st.sampled_from(targets).map(lambda t: invoke("direct", t)),
        st.just(invoke("virtual", "Lx/Helper;->h()V")),
        st.just(invoke("virtual", SMS)),
        st.just(ins("nop")),
    )

    def body():
        return draw(st.lists(item, max_size=3)) + [ins("return-void")]

    main_methods = [method(name, "()V", body()) for name in ["onCreate", "onStart"] + mains]
    classes = [
        cls("Lx/Main;", main_methods, superclass="Landroid/app/Activity;"),
        cls("Lx/Helper;", [method("h", "()V", body())]),
        cls("Lx/Sub;", [method("h", "()V", body())], superclass="Lx/Helper;"),
    ]
    return build_app(classes, [component("Lx/Main;")])


@given(random_call_graph_app(), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_pruned_search_matches_reference(app, max_depth, max_traces_per_entry):
    caps = {"max_depth": max_depth, "max_traces_per_entry": max_traces_per_entry}
    cg = build_call_graph(app)
    assert find_call_traces(cg, CRITICAL, **caps) == reference_find_call_traces(cg, CRITICAL, **caps)

    cg = build_call_graph(app)
    reference = reference_find_call_traces(cg, CRITICAL)
    found = find_call_traces(cg, CRITICAL)
    assert found == reference
    assume(max(Counter(t.entry for t in found).values(), default=0)
           < DEFAULT_MAX_TRACES_PER_ENTRY)
    assert {(t.methods, t.site_offset) for t in found} == enumerate_paths_oracle(cg, CRITICAL)
    assert cg.diagnostics == []


def test_deep_chain_yields_one_trace(tmp_path):
    # 3,000 chained methods: deeper than Python's recursion limit
    _deep_call_chain(tmp_path / "app")
    cg = build_call_graph(load_app(tmp_path / "app"))
    [trace] = find_call_traces(cg, CRITICAL, max_depth=100_000)
    assert len(trace.methods) == 3001
    assert trace.methods[0] == "Lx/Main;->onCreate()V"
    assert len(trace.opcode_seq) == 3001
    assert trace.opcode_seq[-1] == 0x71  # invoke-static of the critical API
    assert trace.critical_api == SMS and cg.diagnostics == []


# --- opcode accumulation ----------------------------------------------------

def fx_accumulation():
    return build_app(
        [
            cls("Lx/Main;", [
                method("onCreate", "()V", [
                    ins("const/4", "v0", "0x0"),          # 0x12
                    invoke("direct", "Lx/Main;->m2()V"),  # 0x70
                    ins("return-void"),
                ]),
                method("m2", "()V", [
                    invoke("virtual", SMS),               # 0x6e
                    ins("return-void"),
                ]),
            ], superclass="Landroid/app/Activity;"),
        ],
        [component("Lx/Main;")],
    )


def test_accumulation_example():
    app = fx_accumulation()
    cg = build_call_graph(app)
    [trace] = find_call_traces(cg, CRITICAL)
    assert trace.opcode_seq == [0x12, 0x70, 0x6E]


def test_opcodes_after_critical_excluded():
    app = build_app(
        [
            cls("Lx/Main;", [
                method("onCreate", "()V", [
                    invoke("virtual", SMS),
                    ins("nop"),
                    ins("nop"),
                    ins("return-void"),
                ]),
            ], superclass="Landroid/app/Activity;"),
        ],
        [component("Lx/Main;")],
    )
    cg = build_call_graph(app)
    [trace] = find_call_traces(cg, CRITICAL)
    assert trace.opcode_seq == [0x6E]


def test_off_trace_call_contributes_one_opcode():
    app = build_app(
        [
            cls("Lx/Main;", [
                method("onCreate", "()V", [
                    invoke("direct", "Lx/Main;->offtrace()V"),
                    invoke("direct", "Lx/Main;->m2()V"),
                    ins("return-void"),
                ]),
                method("offtrace", "()V", [ins("nop")] * 5 + [ins("return-void")]),
                method("m2", "()V", [invoke("virtual", SMS), ins("return-void")]),
            ], superclass="Landroid/app/Activity;"),
        ],
        [component("Lx/Main;")],
    )
    cg = build_call_graph(app)
    traces = find_call_traces(cg, CRITICAL)
    trace = next(t for t in traces if t.methods[-1] == "Lx/Main;->m2()V" and len(t.methods) == 2)
    seq = trace.opcode_seq
    # invoke offtrace (1 opcode), invoke m2 (1 opcode), then m2's critical invoke
    assert seq == [0x70, 0x70, 0x6E]

    # restricted-inline differs from full recursive inlining (oracle diff)
    def full_inline(mid, stop_offset, seen=()):
        m = app.get_method(mid)
        out = []
        for offset, code, _, invoked in rows(m):
            if invoked and app.is_user_defined(invoked.partition("->")[0]) \
                    and invoked not in seen and offset != stop_offset:
                out.append(code)
                out.extend(full_inline(invoked, None, seen + (invoked,))[0])
                continue
            out.append(code)
            if stop_offset is not None and offset == stop_offset:
                return out, True
        return out, False
    inlined, _ = full_inline("Lx/Main;->onCreate()V", None)
    assert len(inlined) > len(seq)


# --- sampling ---------------------------------------------------------------

def test_sampling_keeps_tail():
    marker = list(range(100)) * 20  # 2000 opcodes
    seqs = [marker] + [[7] * 1700 for _ in range(4)]
    out = sample_opcodes(seqs, budget=8000, row_len=100)
    assert len(out[0]) == 1600
    assert out[0] == marker[-1600:]
    assert out[0][-1] == marker[-1]


def test_sampling_identity_when_under_budget():
    seqs = [[1] * 100, [2] * 50]
    out = sample_opcodes(seqs, budget=8000, row_len=100)
    assert out == [[1] * 100, [2] * 50]


def test_sampling_minimum_one_row():
    seqs = [[3] * 500 for _ in range(200)]  # floor(8000/200)=40 -> lift to 100
    out = sample_opcodes(seqs, budget=8000, row_len=100)
    assert all(len(seq) == 100 for seq in out)
    total = sum(len(seq) for seq in out)
    assert total <= max(8000, 200 * 100)


@given(
    st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=40),
    st.integers(min_value=50, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_sampling_bound_property(lengths, row_len):
    seqs = [list(range(n)) for n in lengths]
    out = sample_opcodes(seqs, budget=2000, row_len=row_len)
    total = sum(len(seq) for seq in out)
    assert total <= max(2000, len(seqs) * row_len)
    for before, after in zip(seqs, out):
        if before:
            assert after[-1] == before[-1]


# --- splitting (backward-aligned rows) ---------------------------------------

def test_split_250_100():
    seq = list(range(1, 251))
    rows = split_sequence(seq, 100)
    assert len(rows) == 2
    assert rows[0] == list(range(51, 151))
    assert rows[1] == list(range(151, 251))


def test_split_exact_multiple():
    rows = split_sequence(list(range(200)), 100)
    assert len(rows) == 2
    assert rows[0] + rows[1] == list(range(200))


def test_split_shorter_than_row():
    assert split_sequence(list(range(80)), 100) == []


@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=300, deadline=None)
def test_split_reconstruction_property(k, row_len):
    seq = list(range(k))
    rows = split_sequence(seq, row_len)
    assert all(len(r) == row_len for r in rows)
    flat = [v for r in rows for v in r]
    q = k // row_len
    assert flat == seq[k - q * row_len :]
    if rows:
        assert rows[-1][-1] == seq[-1]


# --- matrix -----------------------------------------------------------------

def test_matrix_counts_rows():
    m = build_matrix([list(range(250)), list(range(320))], 100)
    assert m.n == 5
    assert m.rows.shape == (5, 100)


def test_matrix_empty():
    m = build_matrix([[1] * 50], 100)
    assert m.n == 0
    assert m.rows.shape == (0, 100)


def test_matrix_rows_end_at_critical():
    app = fx_accumulation()
    cg = build_call_graph(app)
    traces = find_call_traces(cg, CRITICAL)
    # pad the trace artificially to cross a row boundary
    traces[0].opcode_seq[:0] = [1] * 200
    m = build_matrix([t.opcode_seq for t in traces], 100)
    assert m.rows[-1][-1] == 0x6E  # block of each trace ends at its critical invoke
