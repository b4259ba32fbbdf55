import re
from functools import cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from droidflow.apimine import CriticalApiSet
from droidflow.appmodel import app_from_ir
from droidflow.callgraph import (
    _CLASS_REF_CODES,
    _REGISTER_RE,
    CallGraph,
    CyclicHierarchyError,
    build_call_graph,
    build_class_hierarchy,
    collect_entry_points,
    entries_reaching,
    reaching,
    resolve_invoke,
)
from droidflow.dalvik import CODE_TO_MNEMONIC
from droidflow.icc import invoked_name, receiver_entry_method, resolve_intent_targets
from droidflow.smali import _split_operands
from droidflow.tables import default_callbacks, default_intent_senders, default_lifecycle
from droidflow.traces import find_call_traces

from appbuild import build_app, cls, component, ins, invoke, method, rows
from flowgraph_reference import reaching as reverse_walk
from synthcorpus import generate_corpus

OBJ = "Ljava/lang/Object;"
ACT = "Landroid/app/Activity;"
SMS = "Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;)V"
SET_LISTENER = "Landroid/view/View;->setOnClickListener(Landroid/view/View$OnClickListener;)V"
SET_TOUCH = "Landroid/view/View;->setOnTouchListener(Landroid/view/View$OnTouchListener;)V"
START_ACT = "Landroid/app/Activity;->startActivity(Landroid/content/Intent;)V"
SEND_BC = "Landroid/content/Context;->sendBroadcast(Landroid/content/Intent;)V"


# ---------------------------------------------------------------------------
# Brute-force reference: naive iterate-until-stable closure over a naive
# per-instruction resolver. Deliberately shares no code with the builder.
# ---------------------------------------------------------------------------

def _sig_parts(signature):
    owner, _, rest = signature.partition("->")
    name, _, desc = rest.partition("(")
    return owner, name, "(" + desc


def _ancestry(app, name):
    chain = [name]
    cur = app.classes.get(name)
    while cur is not None:
        chain.append(cur.superclass)
        cur = app.classes.get(cur.superclass)
    return chain


def _naive_targets(app, instruction):
    _, code, _, invoked = instruction
    if invoked is None:
        return set()
    owner, name, desc = _sig_parts(invoked)
    mnemonic = CODE_TO_MNEMONIC[code]
    found = set()

    def defined_in_chain(start):
        for cname in _ancestry(app, start):
            cd = app.classes.get(cname)
            if cd is None:
                continue
            for m in cd.methods:
                if m.name == name and m.descriptor == desc:
                    return m.method_id
        return None

    if mnemonic.startswith(("invoke-virtual", "invoke-interface")):
        inherited = defined_in_chain(owner)
        if inherited:
            found.add(inherited)
        for cd in app.classes.values():
            in_subtree = owner in _ancestry(app, cd.name)
            implements = any(
                owner in app.classes[a].interfaces
                for a in _ancestry(app, cd.name)
                if a in app.classes
            )
            if in_subtree or implements:
                for m in cd.methods:
                    if m.name == name and m.descriptor == desc:
                        found.add(m.method_id)
    elif mnemonic.startswith("invoke-super"):
        cd = app.classes.get(owner)
        start = cd.superclass if cd is not None else owner
        target = defined_in_chain(start) or defined_in_chain(owner)
        if target:
            found.add(target)
    else:
        target = defined_in_chain(owner)
        if target:
            found.add(target)
    return found


def _naive_entries(app):
    entries = set()
    for comp in app.components:
        if comp.path_name not in app.classes:
            continue
        wanted = set(default_lifecycle()[comp.category]) | set(default_callbacks())
        for mname in wanted:
            for cname in _ancestry(app, comp.path_name):
                cd = app.classes.get(cname)
                if cd is None:
                    continue
                hit = [m for m in cd.methods if m.name == mname]
                if hit:
                    entries.add(hit[0].method_id)
                    break
    return entries


def _naive_intent_targets(app, body, send_index):
    boundary = 0
    for i in range(send_index - 1, -1, -1):
        _, _, _, invoked = body[i]
        if invoked is None:
            continue
        owner = invoked.partition("->")[0]
        pname = invoked.partition("->")[2].partition("(")[0]
        if owner in app.classes or pname in default_intent_senders():
            boundary = i + 1
            break
    comp_names = {c.path_name for c in app.components}
    explicit, actions = set(), set()
    for _, _, operands, _ in body[boundary : send_index + 1]:
        for op in operands:
            if op in comp_names:
                explicit.add(op)
            for s in re.findall(r'"([^"]*)"', op):
                as_class = "L" + s.replace(".", "/") + ";"
                if as_class in comp_names:
                    explicit.add(as_class)
                else:
                    actions.add(s)
    if explicit:
        return [c for c in app.components if c.path_name in explicit]
    return [c for c in app.components if actions & c.actions]


def oracle_call_graph(app):
    methods = {m.method_id: m for c in app.classes.values() for m in c.methods}
    entries = set(_naive_entries(app))

    def closure(starts):
        reach = {e for e in starts if e in methods}
        while True:
            grown = set(reach)
            for mid in reach:
                for instr in rows(methods[mid]):
                    grown |= _naive_targets(app, instr)
            if grown == reach:
                return reach
            reach = grown

    while True:
        reach = closure(entries)
        new = set()
        for mid in reach:
            body = rows(methods[mid])
            for idx, (_, _, _, invoked) in enumerate(body):
                if invoked is None:
                    continue
                called = invoked.partition("->")[2].partition("(")[0]
                if not re.match(r"^(set\w*Listener|register\w+)$", called):
                    continue
                for _, prev_code, prev_operands, _ in body[:idx]:
                    if CODE_TO_MNEMONIC[prev_code] in ("new-instance", "const-class"):
                        for op in prev_operands:
                            if op in app.classes:
                                for m in app.classes[op].methods:
                                    if m.name in default_callbacks():
                                        new.add(m.method_id)
        if new <= entries:
            break
        entries |= new

    reach = closure(entries)
    icc = set()
    for mid in sorted(reach):
        body = rows(methods[mid])
        for idx, (_, _, _, invoked) in enumerate(body):
            if invoked is None:
                continue
            called = invoked.partition("->")[2].partition("(")[0]
            if called not in default_intent_senders():
                continue
            for comp in _naive_intent_targets(app, body, idx):
                wanted = "onReceive" if comp.category == "receiver" else "onCreate"
                for cname in _ancestry(app, comp.path_name):
                    cd = app.classes.get(cname)
                    if cd is None:
                        continue
                    hit = [m for m in cd.methods if m.name == wanted]
                    if hit:
                        icc.add((mid, hit[0].method_id))
                        break

    edge_pairs = set()
    for mid in reach:
        for instr in rows(methods[mid]):
            for callee in _naive_targets(app, instr):
                edge_pairs.add((mid, callee))
    return reach, edge_pairs, icc, entries & reach


# ---------------------------------------------------------------------------
# Fixture apps
# ---------------------------------------------------------------------------

def fx_linear():
    return build_app(
        [
            cls(
                "Lx/Main;",
                [
                    method("onCreate", "()V", [invoke("direct", "Lx/Main;->m2()V"), ins("return-void")]),
                    method("m2", "()V", [invoke("virtual", SMS), ins("return-void")]),
                ],
                superclass=ACT,
            )
        ],
        [component("Lx/Main;")],
    )


def fx_diamond():
    return build_app(
        [
            cls(
                "Lx/Main;",
                [
                    method("onCreate", "()V", [
                        invoke("direct", "Lx/Main;->a()V"),
                        invoke("direct", "Lx/Main;->b()V"),
                        ins("return-void"),
                    ]),
                    method("a", "()V", [invoke("direct", "Lx/Main;->m3()V"), ins("return-void")]),
                    method("b", "()V", [invoke("direct", "Lx/Main;->m3()V"), ins("return-void")]),
                    method("m3", "()V", [invoke("virtual", SMS), ins("return-void")]),
                ],
                superclass=ACT,
            )
        ],
        [component("Lx/Main;")],
    )


def fx_virtual_dispatch():
    return build_app(
        [
            cls("Lx/Base;", [method("over", "()V", [ins("return-void")])]),
            cls("Lx/Sub1;", [method("over", "()V", [ins("nop"), ins("return-void")])], superclass="Lx/Base;"),
            cls("Lx/Sub2;", [method("over", "()V", [ins("nop"), ins("nop"), ins("return-void")])], superclass="Lx/Base;"),
            cls(
                "Lx/Main;",
                [method("onCreate", "()V", [invoke("virtual", "Lx/Base;->over()V"), ins("return-void")])],
                superclass=ACT,
            ),
        ],
        [component("Lx/Main;")],
    )


def fx_inherited_lifecycle():
    return build_app(
        [
            cls("Lx/BaseAct;", [method("onCreate", "()V", [invoke("direct", "Lx/BaseAct;->init()V"), ins("return-void")]),
                                 method("init", "()V", [ins("return-void")])], superclass=ACT),
            cls("Lx/Main;", [], superclass="Lx/BaseAct;"),
        ],
        [component("Lx/Main;")],
    )


def fx_callback():
    return build_app(
        [
            cls(
                "Lx/Main;",
                [method("onCreate", "()V", [
                    ins("new-instance", "v0", "Lx/L;"),
                    invoke("virtual", SET_LISTENER, "{v1, v0}"),
                    ins("return-void"),
                ])],
                superclass=ACT,
            ),
            cls("Lx/L;", [method("onClick", "(Landroid/view/View;)V", [invoke("direct", "Lx/L;->m3()V"), ins("return-void")]),
                          method("m3", "()V", [ins("return-void")])],
                interfaces=("Landroid/view/View$OnClickListener;",)),
        ],
        [component("Lx/Main;")],
    )


def fx_two_stage_callback():
    return build_app(
        [
            cls(
                "Lx/Main;",
                [method("onCreate", "()V", [
                    ins("new-instance", "v0", "Lx/L;"),
                    invoke("virtual", SET_LISTENER, "{v1, v0}"),
                    ins("return-void"),
                ])],
                superclass=ACT,
            ),
            cls("Lx/L;", [method("onClick", "(Landroid/view/View;)V", [
                ins("new-instance", "v0", "Lx/M;"),
                invoke("virtual", SET_TOUCH, "{v1, v0}"),
                ins("return-void"),
            ])], interfaces=("Landroid/view/View$OnClickListener;",)),
            cls("Lx/M;", [method("onTouch", "(Landroid/view/View;Landroid/view/MotionEvent;)Z", [
                invoke("direct", "Lx/M;->m4()V"),
                ins("return-void"),
            ]), method("m4", "()V", [ins("return-void")])],
                interfaces=("Landroid/view/View$OnTouchListener;",)),
        ],
        [component("Lx/Main;")],
    )


def fx_explicit_icc():
    return build_app(
        [
            cls(
                "Lx/Main;",
                [method("onCreate", "()V", [
                    ins("const-class", "v0", "Lx/Second;"),
                    invoke("virtual", START_ACT, "{v1, v0}"),
                    ins("return-void"),
                ])],
                superclass=ACT,
            ),
            cls("Lx/Second;", [method("onCreate", "()V", [ins("return-void")])], superclass=ACT),
        ],
        [component("Lx/Main;"), component("Lx/Second;")],
    )


def fx_implicit_icc():
    return build_app(
        [
            cls(
                "Lx/Main;",
                [method("onCreate", "()V", [
                    ins("const-string", "v0", '"com.x.ACTION_PING"'),
                    invoke("virtual", SEND_BC, "{v1, v0}"),
                    ins("return-void"),
                ])],
                superclass=ACT,
            ),
            cls("Lx/R;", [method("onReceive", "()V", [ins("return-void")])],
                superclass="Landroid/content/BroadcastReceiver;"),
        ],
        [component("Lx/Main;"), component("Lx/R;", "receiver", actions=("com.x.ACTION_PING",))],
    )


def fx_recursion():
    return build_app(
        [
            cls(
                "Lx/Main;",
                [
                    method("onCreate", "()V", [invoke("direct", "Lx/Main;->r()V"), ins("return-void")]),
                    method("r", "()V", [
                        invoke("direct", "Lx/Main;->r()V"),
                        invoke("direct", "Lx/Main;->m3()V"),
                        ins("return-void"),
                    ]),
                    method("m3", "()V", [ins("return-void")]),
                ],
                superclass=ACT,
            )
        ],
        [component("Lx/Main;")],
    )


def fx_interface_dispatch():
    return build_app(
        [
            cls("Lx/A2;", [method("go", "()V", [ins("return-void")])], interfaces=("Lx/I;",)),
            cls("Lx/B2;", [method("go", "()V", [ins("nop"), ins("return-void")])], interfaces=("Lx/I;",)),
            cls(
                "Lx/Main;",
                [method("onCreate", "()V", [invoke("interface", "Lx/I;->go()V"), ins("return-void")])],
                superclass=ACT,
            ),
        ],
        [component("Lx/Main;")],
    )


def fx_island():
    return build_app(
        [
            cls(
                "Lx/Main;",
                [method("onCreate", "()V", [ins("return-void")])],
                superclass=ACT,
            ),
            cls("Lx/Island;", [method("never", "()V", [ins("return-void")])]),
        ],
        [component("Lx/Main;")],
    )


def fx_service_provider():
    return build_app(
        [
            cls("Lx/Svc;", [
                method("onStartCommand", "()I", [invoke("direct", "Lx/Svc;->work()V"), ins("return-void")]),
                method("work", "()V", [ins("return-void")]),
            ], superclass="Landroid/app/Service;"),
            cls("Lx/Prov;", [method("onCreate", "()Z", [ins("return-void")])],
                superclass="Landroid/content/ContentProvider;"),
        ],
        [component("Lx/Svc;", "service"), component("Lx/Prov;", "provider")],
    )


def fx_unresolved_icc():
    return build_app(
        [
            cls(
                "Lx/Main;",
                [method("onCreate", "()V", [
                    invoke("virtual", START_ACT, "{v1, v0}"),
                    ins("return-void"),
                ])],
                superclass=ACT,
            ),
            cls("Lx/Second;", [method("onCreate", "()V", [ins("return-void")])], superclass=ACT),
        ],
        [component("Lx/Main;"), component("Lx/Second;")],
    )


def fx_super_call():
    return build_app(
        [
            cls("Lx/BaseAct;", [method("onCreate", "()V", [ins("return-void")])], superclass=ACT),
            cls("Lx/Main;", [method("onCreate", "()V", [
                invoke("super", "Lx/BaseAct;->onCreate()V", "{p0}"),
                ins("return-void"),
            ])], superclass="Lx/BaseAct;"),
        ],
        [component("Lx/Main;")],
    )


ALL_FIXTURES = [
    fx_linear, fx_diamond, fx_virtual_dispatch, fx_inherited_lifecycle,
    fx_callback, fx_two_stage_callback, fx_explicit_icc, fx_implicit_icc,
    fx_recursion, fx_interface_dispatch, fx_island, fx_service_provider,
    fx_unresolved_icc, fx_super_call,
]


# ---------------------------------------------------------------------------
# Unit behavior
# ---------------------------------------------------------------------------

def test_hierarchy_maps():
    app = build_app(
        [cls("Lx/B;"), cls("Lx/A;", superclass="Lx/B;")], []
    )
    h = build_class_hierarchy(app)
    assert h.parent["Lx/A;"] == "Lx/B;"
    assert h.subclasses["Lx/B;"] == ("Lx/A;",)


def test_cyclic_hierarchy_rejected():
    app = build_app(
        [cls("Lx/A;", superclass="Lx/B;"), cls("Lx/B;", superclass="Lx/A;")], []
    )
    with pytest.raises(CyclicHierarchyError):
        build_class_hierarchy(app)


def test_implements_recorded():
    app = build_app([cls("Lx/L;", interfaces=("Landroid/view/View$OnClickListener;",))], [])
    h = build_class_hierarchy(app)
    assert h.implementers["Landroid/view/View$OnClickListener;"] == ("Lx/L;",)


def test_entry_points_direct_and_inherited():
    app = fx_inherited_lifecycle()
    h = build_class_hierarchy(app)
    eps = collect_entry_points(app, h)
    assert "Lx/BaseAct;->onCreate()V" in eps


def test_receiver_without_overrides_contributes_nothing():
    app = build_app(
        [cls("Lx/R;", [method("helper", "()V", [ins("return-void")])])],
        [component("Lx/R;", "receiver")],
    )
    h = build_class_hierarchy(app)
    assert len(collect_entry_points(app, h)) == 0


def test_linear_graph_shape():
    cg = build_call_graph(fx_linear())
    assert set(cg.nodes) == {"Lx/Main;->onCreate()V", "Lx/Main;->m2()V"}
    assert cg.edges["Lx/Main;->onCreate()V"] == ("Lx/Main;->m2()V",)
    assert cg.icc_edges == ()


def test_callback_fixed_point():
    cg = build_call_graph(fx_callback())
    assert "Lx/L;->onClick(Landroid/view/View;)V" in cg.entry_points
    assert "Lx/L;->m3()V" in cg.nodes
    # re-running the scan on the final graph adds nothing: builder already at fixed point
    again = build_call_graph(fx_callback())
    assert again.nodes == cg.nodes and again.entry_points == cg.entry_points


def test_callee_order_matches_instruction_order():
    cg = build_call_graph(fx_diamond())
    assert cg.edges["Lx/Main;->onCreate()V"] == ("Lx/Main;->a()V", "Lx/Main;->b()V")


def test_each_distinct_call_is_resolved_once_per_app(monkeypatch):
    from droidflow import callgraph

    app = build_app(
        [
            cls("Lx/Main;", [
                method("onCreate", "()V", [
                    invoke("direct", "Lx/Main;->g()V"),
                    invoke("direct", "Lx/Main;->h()V"),
                    invoke("direct", "Lx/Main;->g()V"),
                    invoke("virtual", SMS),
                    ins("return-void"),
                ]),
                method("g", "()V", [invoke("virtual", SMS), ins("return-void")]),
                method("h", "()V", [invoke("direct", "Lx/Main;->g()V"), ins("return-void")]),
            ], superclass=ACT),
        ],
        [component("Lx/Main;")],
    )
    expected = build_call_graph(app)
    calls = []
    resolve = callgraph.resolve_invoke

    def counting(app, h, mnemonic, invoked):
        calls.append((mnemonic, invoked))
        return resolve(app, h, mnemonic, invoked)

    monkeypatch.setattr(callgraph, "resolve_invoke", counting)
    cg = build_call_graph(app)
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == 3
    assert (cg.nodes, cg.edges, cg.call_sites) == (expected.nodes, expected.edges,
                                                   expected.call_sites)


def test_explicit_icc_edge():
    cg = build_call_graph(fx_explicit_icc())
    assert ("Lx/Main;->onCreate()V", "Lx/Second;->onCreate()V") in cg.icc_edges


def test_implicit_icc_edge():
    cg = build_call_graph(fx_implicit_icc())
    assert ("Lx/Main;->onCreate()V", "Lx/R;->onReceive()V") in cg.icc_edges


def test_unresolved_icc_is_diagnostic():
    cg = build_call_graph(fx_unresolved_icc())
    assert cg.icc_edges == ()
    assert any("unresolved intent" in d for d in cg.diagnostics)


def test_island_method_not_reachable():
    cg = build_call_graph(fx_island())
    assert "Lx/Island;->never()V" not in cg.nodes


def test_determinism():
    for fx in ALL_FIXTURES:
        a = build_call_graph(fx())
        b = build_call_graph(fx())
        assert a.nodes == b.nodes
        assert a.edges == b.edges
        assert a.icc_edges == b.icc_edges
        assert a.entry_points == b.entry_points


def test_each_call_signature_is_walked_once_per_app(tmp_path, monkeypatch):
    """Loading and extracting an app walks the superclasses of each distinct
    call signature at most once: the call graph's link check and every
    invoke kind, and the trace walk, all resolve through AppModel.get_method."""
    import json

    from droidflow.appmodel import AppModel, load_app
    from droidflow.pipeline import PipelineConfig, extract_app

    helper = "Lx/Main;->helper()V"
    ir = {"classes": [
        cls("Lx/Base;", [
            method("helper", "()V", [invoke("virtual", SMS), ins("return-void")]),
            method("onStart", "()V", [ins("return-void")]),
        ], superclass=ACT),
        cls("Lx/Main;", [
            method("onCreate", "()V", [
                invoke("virtual", helper),
                invoke("direct", helper),
                invoke("static", "Lx/Main;->missing()V"),
                invoke("super", "Lx/Main;->onStart()V"),
                ins("return-void"),
            ]),
            method("onStart", "()V", [invoke("virtual", helper), ins("return-void")]),
        ], superclass="Lx/Base;"),
    ], "components": [component("Lx/Main;")]}
    (tmp_path / "ir.json").write_text(json.dumps(ir))
    walks = []
    lookup = AppModel.lookup_method

    def counting(self, owner, name, descriptor=None):
        if descriptor is not None:
            walks.append(f"{owner}->{name}{descriptor}")
        return lookup(self, owner, name, descriptor)

    monkeypatch.setattr(AppModel, "lookup_method", counting)
    result = extract_app(load_app(tmp_path), CriticalApiSet.of([SMS]), PipelineConfig())
    assert result.report["trace_count"] > 0
    assert {helper, "Lx/Main;->missing()V"} <= set(walks)
    assert sorted(walks) == sorted(set(walks))


def test_interface_call_skips_a_method_the_implementer_inherits():
    """Class hierarchy analysis as perfbench's oracle applies it: a dispatch
    root counts only a method it defines itself, so invoke-interface on I
    reaches nothing when Impl implements I but inherits run() from Base."""
    app = build_app(
        [
            cls("Lx/Base;", [method("run", "()V", [ins("return-void")])]),
            cls("Lx/Impl;", [], superclass="Lx/Base;", interfaces=("Lx/I;",)),
            cls("Lx/Main;", [method("onCreate", "()V", [
                invoke("interface", "Lx/I;->run()V"), ins("return-void")])], superclass=ACT),
        ],
        [component("Lx/Main;")],
    )
    assert resolve_invoke(app, build_class_hierarchy(app), "invoke-interface",
                          "Lx/I;->run()V") == ()
    cg = build_call_graph(app)
    assert cg.edges["Lx/Main;->onCreate()V"] == ()
    assert "Lx/Base;->run()V" not in cg.nodes


def test_virtual_dispatch_monotone_under_new_override():
    base = build_call_graph(fx_virtual_dispatch())
    extended = build_app(
        [
            cls("Lx/Base;", [method("over", "()V", [ins("return-void")])]),
            cls("Lx/Sub1;", [method("over", "()V", [ins("nop"), ins("return-void")])], superclass="Lx/Base;"),
            cls("Lx/Sub2;", [method("over", "()V", [ins("nop"), ins("nop"), ins("return-void")])], superclass="Lx/Base;"),
            cls("Lx/Sub3;", [method("over", "()V", [ins("return-void")])], superclass="Lx/Base;"),
            cls(
                "Lx/Main;",
                [method("onCreate", "()V", [invoke("virtual", "Lx/Base;->over()V"), ins("return-void")])],
                superclass=ACT,
            ),
        ],
        [component("Lx/Main;")],
    )
    bigger = build_call_graph(extended)
    base_edges = {(c, t) for c, ts in base.edges.items() for t in ts}
    bigger_edges = {(c, t) for c, ts in bigger.edges.items() for t in ts}
    assert base_edges <= bigger_edges


# ---------------------------------------------------------------------------
# Oracle equivalence over every fixture (acceptance criterion backbone)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fx", ALL_FIXTURES, ids=lambda f: f.__name__)
def test_matches_brute_force_reference(fx):
    app = fx()
    cg = build_call_graph(app)
    nodes, edges, icc, entries = oracle_call_graph(app)
    got_edges = {(c, t) for c, ts in cg.edges.items() for t in ts}
    assert set(cg.nodes) == nodes
    assert got_edges == edges
    assert set(cg.icc_edges) == icc
    assert set(cg.entry_points) == entries


# ---------------------------------------------------------------------------
# Fixed point over ICC: with a lifecycle table that leaves the receivers out,
# code reached only through ICC must still be scanned for ICC and listeners
# ---------------------------------------------------------------------------

START_ONLY = {"activity": ("onStart",)}


def _start(target, then=()):
    return [ins("const-class", "v0", target), invoke("virtual", START_ACT, "{v1, v0}"),
            *then, ins("return-void")]


def test_icc_chain_past_a_non_entry_receiver():
    app = build_app(
        [
            cls("Lx/A;", [method("onStart", "()V", _start("Lx/B;"))], superclass=ACT),
            cls("Lx/B;", [method("onCreate", "()V", _start("Lx/C;"))], superclass=ACT),
            cls("Lx/C;", [method("onCreate", "()V", [invoke("virtual", SMS), ins("return-void")])],
                superclass=ACT),
        ],
        [component("Lx/A;"), component("Lx/B;"), component("Lx/C;")],
    )
    cg = build_call_graph(app, lifecycle=START_ONLY)
    assert "Lx/C;->onCreate()V" in cg.nodes
    assert ("Lx/B;->onCreate()V", "Lx/C;->onCreate()V") in cg.icc_edges
    assert {"Lx/B;->onCreate()V", "Lx/C;->onCreate()V"} <= set(cg.entry_points)
    traces = find_call_traces(cg, CriticalApiSet.of([SMS]))
    assert [(t.methods, t.critical_api, t.site_offset) for t in traces] == [
        (("Lx/C;->onCreate()V",), SMS, 0)
    ]


def test_listener_registered_in_icc_reached_code_is_an_entry_point():
    app = build_app(
        [
            cls("Lx/A;", [method("onStart", "()V", _start("Lx/B;"))], superclass=ACT),
            cls("Lx/B;", [method("onCreate", "()V", [
                ins("new-instance", "v0", "Lx/L;"),
                invoke("virtual", SET_LISTENER, "{v1, v0}"),
                ins("return-void"),
            ])], superclass=ACT),
            cls("Lx/L;", [method("onClick", "(Landroid/view/View;)V", [ins("return-void")])],
                interfaces=("Landroid/view/View$OnClickListener;",)),
        ],
        [component("Lx/A;"), component("Lx/B;")],
    )
    cg = build_call_graph(app, lifecycle=START_ONLY)
    assert "Lx/L;->onClick(Landroid/view/View;)V" in cg.entry_points


def test_building_the_call_graph_leaves_the_app_unchanged():
    app = build_app(
        [cls("Lx/Main;", [method("onCreate", "()V", [ins("return-void")])], superclass=ACT)],
        [component("Lx/Main;"), component("Lx/Gone;")],
    )
    before = list(app.diagnostics)
    for _ in range(2):
        cg = build_call_graph(app)
        assert app.diagnostics == before
        assert "missing component class Lx/Gone;" in cg.diagnostics


# ---------------------------------------------------------------------------
# Call sites resolved only in reached methods: the builder as it was, scanning
# every method up front, gives the same CallGraph field for field
# ---------------------------------------------------------------------------

def _eager_call_graph(app, lifecycle=None, callbacks=None, intent_senders=None):
    h = build_class_hierarchy(app)
    entry_points = collect_entry_points(app, h, lifecycle, callbacks)
    callback_names = frozenset(default_callbacks() if callbacks is None else callbacks)
    senders = default_intent_senders() if intent_senders is None else intent_senders
    diagnostics = [
        f"missing component class {comp.path_name}"
        for comp in sorted(app.components, key=lambda c: c.path_name)
        if not app.is_user_defined(comp.path_name)
    ]
    resolve = cache(partial(resolve_invoke, app, h))
    call_sites, adjacency, registered, sends, intent_sends = {}, {}, {}, {}, {}
    for mid, m in app.methods_by_id.items():
        body = m.body
        sites, callees = [], {}
        for idx, offset, invoked in m.calls:
            owner = _sig_parts(invoked)[0]
            if owner in app.classes and app.lookup_method(*_sig_parts(invoked)) is None:
                diagnostics.append(f"unresolved call {invoked} from {mid}")
            targets = resolve(CODE_TO_MNEMONIC[body[idx]], invoked)
            if targets:
                sites.append((offset, targets))
                callees.update(dict.fromkeys(targets))
            name = invoked_name(invoked)
            if _REGISTER_RE.match(name):
                listeners = {
                    op
                    for i, code in enumerate(body[:idx])
                    if code in _CLASS_REF_CODES
                    for op in _split_operands(m.operands[i])
                    if app.is_user_defined(op)
                }
                registered.setdefault(mid, []).extend(
                    c.method_id
                    for cls_name in sorted(listeners)
                    for c in app.classes[cls_name].methods
                    if c.name in callback_names
                )
            if name in senders:
                receivers = []
                for comp in resolve_intent_targets(app, m, idx, senders):
                    recv = receiver_entry_method(app, comp)
                    receivers.append((comp.path_name, None if recv is None else recv.method_id))
                intent_sends[(mid, idx)] = receivers = tuple(receivers)
                sends.setdefault(mid, []).append((offset, receivers))
        call_sites[mid] = tuple(sites)
        adjacency[mid] = tuple(callees)

    entries, icc, reached, work = set(entry_points), set(), set(), list(entry_points)
    while work:
        mid = work.pop()
        if mid in reached or mid not in app.methods_by_id:
            continue
        reached.add(mid)
        callbacks_found = registered.get(mid, ())
        entries.update(callbacks_found)
        work.extend(adjacency[mid])
        work.extend(callbacks_found)
        for offset, receivers in sends.get(mid, ()):
            if not receivers:
                diagnostics.append(f"unresolved intent target at {mid} offset {offset}")
            for path_name, recv in receivers:
                if recv is None:
                    diagnostics.append(f"component {path_name} has no intent entry method")
                    continue
                icc.add((mid, recv))
                entries.add(recv)
                work.append(recv)
    nodes = tuple(sorted(reached))
    return CallGraph(
        app=app, nodes=nodes, edges={mid: adjacency[mid] for mid in nodes},
        call_sites={mid: call_sites[mid] for mid in nodes}, icc_edges=tuple(sorted(icc)),
        entry_points=tuple(sorted(entries & reached)), intent_sends=intent_sends,
        intent_senders=senders, diagnostics=diagnostics,
    )


def _fields(cg):
    return {name: getattr(cg, name) for name in CallGraph.__dataclass_fields__} | {
        "intent_sends order": list(cg.intent_sends), "edges order": list(cg.edges)}


def _unresolved_calls_app():
    """Calls of methods a user-defined class does not define, from reached
    and unreached methods, among calls that resolve and platform calls."""
    return build_app(
        [
            cls("Lx/Main;", [
                method("onCreate", "()V", [
                    invoke("static", "Lx/Main;->missing()V"),
                    invoke("direct", "Lx/Main;->g()V"),
                    invoke("virtual", "Lx/Helper;->absent(I)V"),
                    invoke("static", "Lx/Gone;->f()V"),
                    invoke("virtual", SMS),
                    ins("return-void"),
                ]),
                method("g", "()V", [invoke("static", "Lx/Main;->missing()V"), ins("return-void")]),
                method("never", "()V", [
                    invoke("virtual", "Lx/Helper;->absent(I)V"),
                    invoke("super", "Lx/Main;->onStart()V"),
                    invoke("static", "Lx/Main;->missing()V"),
                    ins("return-void"),
                ]),
            ], superclass=ACT),
            cls("Lx/Helper;", [method("present", "()V", [ins("return-void")])]),
        ],
        [component("Lx/Main;")],
    )


UNRESOLVED_DIAGNOSTICS = [
    "unresolved call Lx/Main;->missing()V from Lx/Main;->g()V",
    "unresolved call Lx/Helper;->absent(I)V from Lx/Main;->never()V",
    "unresolved call Lx/Main;->onStart()V from Lx/Main;->never()V",
    "unresolved call Lx/Main;->missing()V from Lx/Main;->never()V",
    "unresolved call Lx/Main;->missing()V from Lx/Main;->onCreate()V",
    "unresolved call Lx/Helper;->absent(I)V from Lx/Main;->onCreate()V",
]


def test_unresolved_user_calls_are_diagnosed_by_the_call_graph_and_the_report():
    """Each call of a user-defined class's method that resolves to none is
    one call-graph diagnostic, in method id and call order, whether the
    method is reached or not; a call into a class the app does not define
    is none. Loading leaves them out of the app's own diagnostics, and
    report.json lists them."""
    from droidflow.pipeline import PipelineConfig, extract_app

    app = _unresolved_calls_app()
    assert app.diagnostics == []
    cg = build_call_graph(app)
    assert "Lx/Main;->never()V" not in cg.nodes
    assert cg.diagnostics == UNRESOLVED_DIAGNOSTICS
    report = extract_app(_unresolved_calls_app(), CriticalApiSet.of([SMS]), PipelineConfig()).report
    assert report["diagnostics"] == sorted(UNRESOLVED_DIAGNOSTICS)


def test_lazy_resolution_builds_the_eager_call_graph():
    apps = [fx() for fx in ALL_FIXTURES] + [app_from_ir(ir) for ir in generate_corpus(8, seed=13)]
    apps.append(_unresolved_calls_app())
    for app in apps:
        assert _fields(build_call_graph(app)) == _fields(_eager_call_graph(app)), app.app_id
        for tables in ({"lifecycle": START_ONLY}, {"callbacks": ()},
                       {"intent_senders": frozenset({"sendBroadcast"})}):
            expected = _fields(_eager_call_graph(app, **tables))
            assert _fields(build_call_graph(app, **tables)) == expected, (app.app_id, tables)


def test_call_sites_are_resolved_only_in_reached_methods(monkeypatch):
    from droidflow import callgraph

    app = build_app(
        [
            cls("Lx/Main;", [
                method("onCreate", "()V", [invoke("direct", "Lx/Main;->g()V"), ins("return-void")]),
                method("g", "()V", [ins("return-void")]),
                method("never", "()V", [
                    invoke("direct", "Lx/Main;->h()V"),
                    ins("new-instance", "v0", "Lx/L;"),
                    invoke("virtual", SET_LISTENER, "{v1, v0}"),
                    *_start("Lx/Main;"),
                ]),
                method("h", "()V", [ins("return-void")]),
            ], superclass=ACT),
            cls("Lx/L;", [method("onClick", "(Landroid/view/View;)V", [ins("return-void")])]),
        ],
        [component("Lx/Main;")],
    )
    resolved = []
    resolve = callgraph.resolve_invoke

    def recording(app, h, mnemonic, invoked):
        resolved.append(invoked)
        return resolve(app, h, mnemonic, invoked)

    monkeypatch.setattr(callgraph, "resolve_invoke", recording)
    cg = build_call_graph(app)
    assert cg.nodes == ("Lx/Main;->g()V", "Lx/Main;->onCreate()V")
    assert resolved == ["Lx/Main;->g()V"]
    # the unreached method's send is still resolved, and its listener is no entry point
    assert cg.intent_sends == {("Lx/Main;->never()V", 4): (("Lx/Main;", "Lx/Main;->onCreate()V"),)}
    assert cg.entry_points == ("Lx/Main;->onCreate()V",)


@st.composite
def call_graphs(draw):
    """A CallGraph of up to 12 methods with any call edges, cycles included,
    and any subset of them as entry points."""
    n = draw(st.integers(1, 12))
    ids = [f"Lx/M;->m{i:02d}()V" for i in range(n)]
    callees = {mid: tuple(dict.fromkeys(draw(st.lists(st.sampled_from(ids), max_size=4))))
               for mid in ids}
    entries = tuple(sorted(draw(st.sets(st.sampled_from(ids)))))
    return CallGraph(app=None, nodes=tuple(ids), edges=callees,
                     call_sites={mid: tuple((i, (c,)) for i, c in enumerate(cs))
                                 for mid, cs in callees.items()},
                     icc_edges=(), entry_points=entries, intent_sends={},
                     intent_senders=frozenset())


@given(call_graphs())
@settings(max_examples=300, deadline=None)
def test_entries_reaching_matches_one_reverse_walk_per_method(cg):
    reach = entries_reaching(cg)
    assert set(reach) == set(cg.nodes)
    for mid in cg.nodes:
        bits = reach[mid]
        found = {e for i, e in enumerate(cg.entry_points) if bits >> i & 1}
        assert bits < 1 << len(cg.entry_points)
        assert found == set(cg.entry_points) & reverse_walk(cg, {mid}), mid


@given(call_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_reaching_matches_the_reverse_walk(cg, data):
    targets = data.draw(st.sets(st.sampled_from(cg.nodes)))
    assert reaching(cg, targets) == reverse_walk(cg, targets)
