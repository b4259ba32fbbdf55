"""Call graph construction: class hierarchy, entry points, and the
iterate-until-stable subgraph builder bridged by ICC edges.

Entry points are component lifecycle methods plus event listeners. Listener
classes registered inside already-reachable code contribute their callback
methods as new entry points, so the builder loops until the entry set stops
growing. Virtual and interface calls resolve by class hierarchy analysis:
every defined override in the subtree of the static receiver type becomes an
edge target.
"""

import re
from dataclasses import dataclass, field

from .appmodel import AppModel, split_signature
from .icc import DEFAULT_INTENT_SENDERS, is_intent_send, receiver_entry_method, resolve_intent_targets
from .tables import default_callbacks, default_lifecycle

_REGISTER_RE = re.compile(r"^(set\w*Listener|register\w+)$")


class CyclicHierarchyError(ValueError):
    pass


@dataclass
class ClassHierarchy:
    parent: dict                 # class -> superclass name (platform names included)
    subclasses: dict             # class -> sorted tuple of direct user-defined subclasses
    implements: dict             # class -> tuple of interface names
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
class EntryPointSet:
    entries: tuple  # sorted method ids

    def __contains__(self, method_id):
        return method_id in set(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass
class CallGraph:
    app: AppModel
    nodes: tuple                  # sorted method ids
    edges: dict                   # caller id -> ordered tuple of callee ids
    call_sites: dict              # caller id -> tuple of (offset, tuple of callee ids)
    icc_edges: tuple              # sorted (sender id, receiver id) pairs
    entry_points: EntryPointSet
    diagnostics: list = field(default_factory=list)

    def dump_edges(self):
        lines = []
        for caller in self.nodes:
            for callee in self.edges.get(caller, ()):
                lines.append(f"{caller}\t{callee}\tcall")
        for sender, receiver in self.icc_edges:
            lines.append(f"{sender}\t{receiver}\ticc")
        return "\n".join(lines) + ("\n" if lines else "")


def build_class_hierarchy(app: AppModel) -> ClassHierarchy:
    parent = {}
    subclasses = {}
    implements = {}
    implementers = {}
    for name in sorted(app.classes):
        cd = app.classes[name]
        parent[name] = cd.superclass
        subclasses.setdefault(cd.superclass, []).append(name)
        implements[name] = cd.interfaces
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
        implements=implements,
        implementers={k: tuple(sorted(v)) for k, v in implementers.items()},
    )


def resolve_invoke(app: AppModel, h: ClassHierarchy, instruction):
    """User-defined methods an invoke instruction may dispatch to (CHA)."""
    if instruction.invoked_method is None:
        return []
    owner, name, descriptor = split_signature(instruction.invoked_method)
    mnemonic = instruction.opcode.mnemonic
    targets = {}
    if mnemonic.startswith(("invoke-virtual", "invoke-interface")):
        inherited = app.lookup_method(owner, name, descriptor)
        if inherited is not None:
            targets[inherited.method_id] = inherited
        for cls in h.dispatch_roots(owner):
            cd = app.classes.get(cls)
            if cd is None:
                continue
            m = cd.find_method(name, descriptor)
            if m is not None:
                targets[m.method_id] = m
    elif mnemonic.startswith("invoke-super"):
        start = h.parent.get(owner, owner)
        m = app.lookup_method(start, name, descriptor) or app.lookup_method(owner, name, descriptor)
        if m is not None:
            targets[m.method_id] = m
    else:  # invoke-direct / invoke-static / remaining kinds: exact lookup
        m = app.lookup_method(owner, name, descriptor)
        if m is not None:
            targets[m.method_id] = m
    return [targets[k] for k in sorted(targets)]


def collect_entry_points(app, h, lifecycle=None, callbacks=None) -> EntryPointSet:
    """Lifecycle methods and listener callbacks of the declared components.

    Lookup walks user-defined superclasses, so a component inheriting its
    onCreate from an app base class still contributes that method. Missing
    component classes become diagnostics on the app, not errors.
    """
    lifecycle = lifecycle or default_lifecycle()
    callbacks = default_callbacks() if callbacks is None else callbacks
    entries = set()
    for comp in sorted(app.components, key=lambda c: c.path_name):
        if not app.is_user_defined(comp.path_name):
            app.diagnostics.append(f"missing component class {comp.path_name}")
            continue
        for mname in lifecycle.get(comp.category, ()):
            m = app.lookup_method(comp.path_name, mname)
            if m is not None:
                entries.add(m.method_id)
        for cbname in callbacks:
            m = app.lookup_method(comp.path_name, cbname)
            if m is not None:
                entries.add(m.method_id)
    return EntryPointSet(tuple(sorted(entries)))


def _listener_classes(app, method, upto_index):
    """User-defined classes instantiated or referenced before a registration call."""
    found = set()
    for ins in method.body[:upto_index]:
        if ins.opcode.mnemonic in ("new-instance", "const-class"):
            for op in ins.operands:
                if op.startswith("L") and op.endswith(";") and app.is_user_defined(op):
                    found.add(op)
    return sorted(found)


def _scan_callbacks(app, methods_by_id, reachable, callbacks):
    """Callback methods of listener classes registered in reachable code."""
    callback_set = set(callbacks)
    new_entries = set()
    for mid in sorted(reachable):
        method = methods_by_id[mid]
        for idx, ins in enumerate(method.body):
            if ins.invoked_method is None:
                continue
            name = ins.invoked_method.partition("->")[2].partition("(")[0]
            if not _REGISTER_RE.match(name):
                continue
            for cls_name in _listener_classes(app, method, idx):
                for m in app.classes[cls_name].methods:
                    if m.name in callback_set:
                        new_entries.add(m.method_id)
    return new_entries


def generate_call_graph(
    app: AppModel,
    h: ClassHierarchy,
    entry_points: EntryPointSet,
    callbacks=None,
    intent_senders=DEFAULT_INTENT_SENDERS,
) -> CallGraph:
    """Run the full builder: BFS subgraphs from the entry set, callback
    fixed-point iteration, then ICC bridging."""
    callbacks = default_callbacks() if callbacks is None else callbacks
    diagnostics = []

    methods_by_id = {m.method_id: m for m in app.methods()}
    call_sites = {}
    adjacency = {}
    for mid in sorted(methods_by_id):
        method = methods_by_id[mid]
        sites = []
        ordered = []
        seen = set()
        for ins in method.body:
            if ins.invoked_method is None:
                continue
            resolved = resolve_invoke(app, h, ins)
            if not resolved:
                continue
            sites.append((ins.offset, tuple(t.method_id for t in resolved)))
            for t in resolved:
                if t.method_id not in seen:
                    seen.add(t.method_id)
                    ordered.append(t.method_id)
        call_sites[mid] = tuple(sites)
        adjacency[mid] = tuple(ordered)

    def closure(entries):
        visited = []
        seen = set()
        queue = [e for e in entries if e in methods_by_id]
        for e in queue:
            if e not in seen:
                seen.add(e)
                visited.append(e)
        i = 0
        while i < len(visited):
            for callee in adjacency.get(visited[i], ()):
                if callee not in seen:
                    seen.add(callee)
                    visited.append(callee)
            i += 1
        return seen

    entries = set(entry_points)
    reachable = closure(entries)
    while True:
        found = _scan_callbacks(app, methods_by_id, reachable, callbacks)
        if found <= entries:
            break
        entries |= found
        reachable = closure(entries)

    icc = set()
    for mid in sorted(reachable):
        method = methods_by_id[mid]
        for idx, ins in enumerate(method.body):
            if not is_intent_send(ins, intent_senders):
                continue
            resolution = resolve_intent_targets(app, method, idx, intent_senders)
            if not resolution.components:
                diagnostics.append(
                    f"unresolved intent target at {mid} offset {ins.offset}"
                )
                continue
            for comp in resolution.components:
                recv = receiver_entry_method(app, comp)
                if recv is None:
                    diagnostics.append(
                        f"component {comp.path_name} has no intent entry method"
                    )
                    continue
                icc.add((mid, recv.method_id))
                if recv.method_id not in reachable:
                    entries.add(recv.method_id)
                    reachable = closure(entries)

    nodes = tuple(sorted(reachable))
    node_set = set(nodes)
    return CallGraph(
        app=app,
        nodes=nodes,
        edges={mid: adjacency[mid] for mid in nodes},
        call_sites={mid: call_sites[mid] for mid in nodes},
        icc_edges=tuple(sorted(icc)),
        entry_points=EntryPointSet(tuple(sorted(e for e in entries if e in node_set))),
        diagnostics=diagnostics,
    )


def build_call_graph(app: AppModel, lifecycle=None, callbacks=None,
                     intent_senders=DEFAULT_INTENT_SENDERS) -> CallGraph:
    """Convenience wrapper chaining hierarchy, entry points and the builder."""
    h = build_class_hierarchy(app)
    entries = collect_entry_points(app, h, lifecycle, callbacks)
    return generate_call_graph(app, h, entries, callbacks, intent_senders)
