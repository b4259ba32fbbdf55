"""Small builders for JSON-IR fixture apps used across the test suite, and
converters between a MethodDef's columns and the per-instruction rows that
the tests' oracles read."""

from droidflow.appmodel import app_from_ir, offsets
from droidflow.smali import _split_operands


def rows(method):
    """method's body as (offset, code, operands, invoked) rows, one per
    instruction: operands split as the parser splits them, invoked None
    except on an invoke."""
    invoked = {i: signature for i, _, signature in method.calls}
    return [
        (offset, code, _split_operands(text), invoked.get(i))
        for i, (offset, code, text) in enumerate(
            zip(offsets(method.body), method.body, method.operands)
        )
    ]


def columns(body_rows):
    """The MethodDef columns (body, operands, calls) of a sequence of
    (offset, code, operands, invoked) rows, operands joined by ", "."""
    return {
        "body": bytes(code for _, code, _, _ in body_rows),
        "operands": tuple(", ".join(operands) for _, _, operands, _ in body_rows),
        "calls": tuple(
            (i, offset, invoked)
            for i, (offset, _, _, invoked) in enumerate(body_rows)
            if invoked is not None
        ),
    }


def ins(mnemonic, *operands):
    return {"mnemonic": mnemonic, "operands": list(operands)}


def invoke(kind, target, regs="{v0}"):
    return {
        "mnemonic": f"invoke-{kind}",
        "operands": [regs, target],
        "invoked_method": target,
    }


def method(name, descriptor="()V", body=(), flags=("public",)):
    return {
        "name": name,
        "descriptor": descriptor,
        "flags": list(flags),
        "body": list(body),
    }


def cls(name, methods=(), superclass="Ljava/lang/Object;", interfaces=()):
    return {
        "name": name,
        "superclass": superclass,
        "interfaces": list(interfaces),
        "methods": list(methods),
    }


def component(path_name, category="activity", actions=(), exported=False):
    filters = [{"actions": list(actions)}] if actions else []
    return {
        "path_name": path_name,
        "category": category,
        "intent_filters": filters,
        "exported": exported,
    }


def build_app(classes, components=(), app_id="fixture", metadata=None):
    return app_from_ir(
        {
            "app_id": app_id,
            "classes": list(classes),
            "components": list(components),
            "metadata": metadata or {},
        }
    )
