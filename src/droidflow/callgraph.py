"""Call graph construction: class hierarchy, entry points, and one worklist
fixed point over calls, callback registration and ICC.

Entry points are component lifecycle methods plus event listeners. Listener
classes registered inside reachable code contribute their callback methods as
new entry points, and so do the receiver methods of the intents reachable
code sends. Virtual and interface calls resolve by class hierarchy analysis:
every defined override in the subtree of the static receiver type becomes an
edge target. Both reachability questions, reaching and entries_reaching, read
one cached condensation of the call graph into strongly connected components.
"""

import re
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

from .appmodel import AppModel, split_signature
from .dalvik import CODE_TO_MNEMONIC, MNEMONIC_TO_CODE
from .icc import invoked_name, receiver_entry_method, resolve_intent_targets
from .smali import _split_operands
from .tables import default_callbacks, default_intent_senders, default_lifecycle

_REGISTER_RE = re.compile(r"^(set\w*Listener|register\w+)$")
# Instructions naming a class that a later register call may pass as a listener.
_CLASS_REF_CODES = (MNEMONIC_TO_CODE["new-instance"], MNEMONIC_TO_CODE["const-class"])


class CyclicHierarchyError(ValueError):
    pass


@dataclass
class ClassHierarchy:
    parent: dict                 # class -> superclass name (platform names included)
    subclasses: dict             # class -> sorted tuple of direct user-defined subclasses
    implementers: dict           # interface -> sorted tuple of user-defined classes

    def subtree(self, class_name: str):
        """class_name plus all transitive user-defined subclasses."""
        out = [class_name]
        stack = list(self.subclasses.get(class_name, ()))
        while stack:
            c = stack.pop()
            out.append(c)
            stack.extend(self.subclasses.get(c, ()))
        return out

    def dispatch_roots(self, type_name: str):
        """Classes a virtual/interface call on type_name may land in."""
        roots = set(self.subtree(type_name))
        for impl in self.implementers.get(type_name, ()):
            roots.update(self.subtree(impl))
        return sorted(roots)


@dataclass
class CallGraph:
    app: AppModel
    nodes: tuple                  # sorted method ids
    edges: dict                   # caller id -> ordered tuple of callee ids
    call_sites: dict              # caller id -> tuple of (offset, tuple of callee ids)
    icc_edges: tuple              # sorted (sender id, receiver id) pairs
    entry_points: tuple           # sorted method ids
    # (method id, body index) -> ((component path, receiver id or None), ...)
    # for every intent send in the app, reachable or not
    intent_sends: dict
    intent_senders: frozenset     # the sender names intent_sends was built with
    diagnostics: list = field(default_factory=list)

    @cached_property
    def condensation(self) -> tuple:
        """(components, component): the call graph's strongly connected
        components as lists of method ids, callees first, and method id ->
        its component's index; built once, on first use, by iterative
        Tarjan (Tarjan 1972)."""
        edges = self.edges
        index, low, component = {}, {}, {}
        stack, components = [], []   # components in Tarjan's order, callees first
        for root in self.nodes:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            frames = [(root, iter(edges[root]))]
            while frames:
                v, callees = frames[-1]
                for w in callees:
                    if w not in index:
                        index[w] = low[w] = len(index)
                        stack.append(w)
                        frames.append((w, iter(edges[w])))
                        break
                    if w not in component:   # visited and not yet condensed: on the stack
                        low[v] = min(low[v], index[w])
                else:
                    frames.pop()
                    if frames:
                        u = frames[-1][0]
                        low[u] = min(low[u], low[v])
                    if low[v] == index[v]:
                        members = []
                        while not members or members[-1] != v:
                            members.append(stack.pop())
                            component[members[-1]] = len(components)
                        components.append(members)
        return components, component


def build_class_hierarchy(app: AppModel) -> ClassHierarchy:
    parent = {}
    subclasses = {}
    implementers = {}
    for name in sorted(app.classes):
        cd = app.classes[name]
        parent[name] = cd.superclass
        subclasses.setdefault(cd.superclass, []).append(name)
        for iface in cd.interfaces:
            implementers.setdefault(iface, []).append(name)

    for name in parent:
        seen = set()
        cur = name
        while cur in parent:
            if cur in seen:
                raise CyclicHierarchyError(f"superclass cycle through {cur}")
            seen.add(cur)
            cur = parent[cur]

    return ClassHierarchy(
        parent=parent,
        subclasses={k: tuple(sorted(v)) for k, v in subclasses.items()},
        implementers={k: tuple(sorted(v)) for k, v in implementers.items()},
    )


def resolve_invoke(app: AppModel, h: ClassHierarchy, mnemonic: str, invoked: str) -> tuple:
    """Sorted ids of the user-defined methods an invoke may dispatch to (CHA)."""
    owner, name, descriptor = split_signature(invoked)
    targets = set()
    if mnemonic.startswith(("invoke-virtual", "invoke-interface")):
        inherited = app.get_method(invoked)
        if inherited is not None:
            targets.add(inherited.method_id)
        for cls in h.dispatch_roots(owner):
            if f"{cls}->{name}{descriptor}" in app.methods_by_id:
                targets.add(f"{cls}->{name}{descriptor}")
    elif mnemonic.startswith("invoke-super"):
        start = h.parent.get(owner, owner)
        m = app.get_method(f"{start}->{name}{descriptor}") or app.get_method(invoked)
        if m is not None:
            targets.add(m.method_id)
    else:  # invoke-direct / invoke-static / remaining kinds: exact lookup
        m = app.get_method(invoked)
        if m is not None:
            targets.add(m.method_id)
    return tuple(sorted(targets))


def collect_entry_points(app, h, lifecycle=None, callbacks=None) -> tuple:
    """Sorted ids of the lifecycle methods and listener callbacks of the
    declared components.

    Lookup walks user-defined superclasses, so a component inheriting its
    onCreate from an app base class still contributes that method. A
    component whose class the app does not define contributes nothing;
    generate_call_graph reports it.
    """
    lifecycle = default_lifecycle() if lifecycle is None else lifecycle
    callbacks = default_callbacks() if callbacks is None else callbacks
    entries = set()
    for comp in app.components:
        for mname in (*lifecycle.get(comp.category, ()), *callbacks):
            m = app.lookup_method(comp.path_name, mname)
            if m is not None:
                entries.add(m.method_id)
    return tuple(sorted(entries))


def generate_call_graph(
    app: AppModel,
    h: ClassHierarchy,
    entry_points: tuple,
    callbacks=None,
    intent_senders=None,
) -> CallGraph:
    """One worklist fixed point over calls, callback registration and ICC, as
    in FlowDroid (Arzt et al., PLDI 2014) and IccTA (Li et al., ICSE 2015).

    One pass over every call of every method first resolves each intent
    send's receivers, since the flow graph reads them app-wide, and reports
    each call of a user-defined class's method that resolves to none. A
    method's call sites and the callbacks of the listener classes it
    registers are resolved when the worklist first reaches it, which then
    pushes its callees, its registered callbacks and its intent receivers;
    the last two join the entry points.
    Each distinct (invoke kind, signature) pair is resolved once per app.
    """
    callback_names = frozenset(default_callbacks() if callbacks is None else callbacks)
    senders = default_intent_senders() if intent_senders is None else intent_senders
    diagnostics = [
        f"missing component class {comp.path_name}"
        for comp in sorted(app.components, key=lambda c: c.path_name)
        if not app.is_user_defined(comp.path_name)
    ]

    names, sends, intent_sends = {}, {}, {}   # names: invoked signature -> method name
    unresolved = set()   # called signatures of user-defined classes that name no method
    for mid, method in app.methods_by_id.items():
        for idx, offset, invoked in method.calls:
            if invoked not in names:
                names[invoked] = invoked_name(invoked)
                if (app.is_user_defined(invoked.partition("->")[0])
                        and app.get_method(invoked) is None):
                    unresolved.add(invoked)
            if invoked in unresolved:
                diagnostics.append(f"unresolved call {invoked} from {mid}")
            if names[invoked] in senders:
                receivers = []
                for comp in resolve_intent_targets(app, method, idx, senders):
                    recv = receiver_entry_method(app, comp)
                    receivers.append((comp.path_name, None if recv is None else recv.method_id))
                intent_sends[(mid, idx)] = receivers = tuple(receivers)
                sends.setdefault(mid, []).append((offset, receivers))

    resolve = cache(partial(resolve_invoke, app, h))
    call_sites, adjacency = {}, {}
    entries, icc, work = set(entry_points), set(), list(entry_points)
    while work:
        mid = work.pop()
        method = app.methods_by_id.get(mid)
        if method is None or mid in call_sites:
            continue
        body = method.body
        sites, callees, callbacks_found = [], {}, []
        for idx, offset, invoked in method.calls:
            targets = resolve(CODE_TO_MNEMONIC[body[idx]], invoked)
            if targets:
                sites.append((offset, targets))
                callees.update(dict.fromkeys(targets))
            if _REGISTER_RE.match(names[invoked]):
                # The user-defined classes named before the call.
                listeners = {
                    op
                    for i, code in enumerate(body[:idx])
                    if code in _CLASS_REF_CODES
                    for op in _split_operands(method.operands[i])
                    if app.is_user_defined(op)
                }
                callbacks_found.extend(
                    m.method_id
                    for cls_name in sorted(listeners)
                    for m in app.classes[cls_name].methods
                    if m.name in callback_names
                )
        call_sites[mid] = tuple(sites)
        adjacency[mid] = tuple(callees)
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

    nodes = tuple(sorted(call_sites))
    return CallGraph(
        app=app,
        nodes=nodes,
        edges={mid: adjacency[mid] for mid in nodes},
        call_sites={mid: call_sites[mid] for mid in nodes},
        icc_edges=tuple(sorted(icc)),
        entry_points=tuple(sorted(entries.intersection(call_sites))),
        intent_sends=intent_sends,
        intent_senders=senders,
        diagnostics=diagnostics,
    )


def reaching(cg: CallGraph, targets) -> set:
    """Targets plus the methods with a call path to one of them: one pass
    over the condensation, callees first, where a component is live when it
    holds a target or calls a live one."""
    edges, live = cg.edges, set(targets)
    for members in cg.condensation[0]:
        if any(v in live or not live.isdisjoint(edges[v]) for v in members):
            live.update(members)
    return live


def entries_reaching(cg: CallGraph) -> dict:
    """Method id -> the entry points with a call path (possibly empty) to it,
    as a bitset of positions in cg.entry_points, for every method of cg.

    Transitive closure by SCC condensation (Nuutila 1994): each component's
    bitset flows to its callees' in topological order, O(V + E) bitset
    operations in all."""
    edges = cg.edges
    components, component = cg.condensation
    bits = [0] * len(components)
    for e, entry in enumerate(cg.entry_points):
        bits[component[entry]] |= 1 << e
    for c in range(len(components) - 1, -1, -1):
        for v in components[c]:
            for w in edges[v]:
                if component[w] != c:
                    bits[component[w]] |= bits[c]
    return {v: bits[c] for v, c in component.items()}


def build_call_graph(app: AppModel, lifecycle=None, callbacks=None,
                     intent_senders=None) -> CallGraph:
    """Convenience wrapper chaining hierarchy, entry points and the builder."""
    h = build_class_hierarchy(app)
    entries = collect_entry_points(app, h, lifecycle, callbacks)
    return generate_call_graph(app, h, entries, callbacks, intent_senders)
