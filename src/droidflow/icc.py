"""Intent target resolution for inter-component communication edges.

Deliberately lightweight: explicit targets come from a backward scan for
class/name constants inside the sending code chunk, implicit targets from
matching string constants against manifest intent-filter actions. Apps whose
intents defeat this (computed targets, cross-method constants) degrade to
diagnostics instead of edges.
"""

import re

from .smali import _split_operands

# Methods through which a started child component hands data back to its
# parent; used for the returning-ICC / implicit-neighbor pattern.
DEFAULT_INTENT_RECEIVERS = ("onActivityResult", "onNewIntent")

_STRING_RE = re.compile(r'"([^"]*)"')
_CLASS_RE = re.compile(r"^(L[^\s;]+;)$")


def invoked_name(signature: str) -> str:
    return signature.partition("->")[2].partition("(")[0]


def is_chunk_boundary(app, invoked, senders) -> bool:
    """Whether a call to the method signature `invoked` closes a code chunk:
    a call to a user-defined method or an intent send does."""
    return app.is_user_defined(invoked.partition("->")[0]) or invoked_name(invoked) in senders


def _dotted_to_class(dotted: str) -> str:
    return "L" + dotted.replace(".", "/") + ";"


def resolve_intent_targets(app, method, send_index, senders) -> tuple:
    """Components addressed by the intent-sending invoke at send_index, sorted
    by path name; empty when none resolves.

    The backward constant scan stops at the previous chunk boundary, so it
    reads only the chunk the send closes. Explicit class references win over
    action-string matches.
    """
    start = 0
    for i, _, invoked in reversed(method.calls):
        if i < send_index and is_chunk_boundary(app, invoked, senders):
            start = i + 1
            break

    by_name = {c.path_name: c for c in app.components}
    explicit = {}
    action_strings = []
    for text in method.operands[start : send_index + 1]:
        for op in _split_operands(text):
            m = _CLASS_RE.match(op)
            if m and m.group(1) in by_name:
                explicit[m.group(1)] = by_name[m.group(1)]
            for s in _STRING_RE.findall(op):
                if _dotted_to_class(s) in by_name:
                    explicit[_dotted_to_class(s)] = by_name[_dotted_to_class(s)]
                else:
                    action_strings.append(s)
    found = explicit or {
        c.path_name: c
        for c in app.components
        for s in action_strings
        if s in c.actions
    }
    return tuple(found[name] for name in sorted(found))


def receiver_entry_method(app, component):
    """The method an incoming intent lands in: onReceive for receivers,
    onCreate for everything else (inherited user-defined definitions count)."""
    name = "onReceive" if component.category == "receiver" else "onCreate"
    return app.lookup_method(component.path_name, name)
