"""Reference for the smali instruction path.

The parser below walks every operand string one character at a time,
collects (code, operands, invoked) triples per method and offsets them into
body rows in a second pass, exactly as droidflow did before its front end was made fast.
The rows become MethodDef columns through appbuild.columns. Directive
handling shares droidflow.smali's tables and regexes. Tests compare
droidflow.smali.parse_smali_class against it; droidflow itself does not use
it. format_class prints a ClassDef back as smali text for the parser's
round-trip test.
"""

from appbuild import columns
from droidflow.appmodel import ClassDef, MethodDef
from droidflow.dalvik import CODE_TO_MNEMONIC, CODE_WIDTH, INVOKE_CODES, code_of
from droidflow.smali import (
    _CLASS_RE,
    _IMPLEMENTS_RE,
    _INVOKE_TARGET_RE,
    _METHOD_RE,
    _SKIP_BLOCKS,
    _SKIP_PREFIXES,
    _SUPER_RE,
    SmaliSyntaxError,
)


def split_operands(text: str):
    """Split an operand string on top-level commas, keeping {...} groups whole."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return tuple(parts)


def assign_offsets(instructions):
    """Body rows of a sequence of (code, operands, invoked), offset by
    code-unit width."""
    out = []
    offset = 0
    for code, operands, invoked in instructions:
        out.append((offset, code, tuple(operands), invoked))
        offset += CODE_WIDTH[code]
    return out


def parse_smali_class(text: str) -> ClassDef:
    name = None
    superclass = "Ljava/lang/Object;"
    interfaces = []
    methods = []
    method_head = None   # (flags, name, descriptor)
    raw_body = None      # (code, operands, invoked) triples
    skip_until = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if skip_until is not None:
            if line.startswith(skip_until):
                skip_until = None
            continue
        if line.startswith(":"):
            continue

        if line.startswith("."):
            for block, end in _SKIP_BLOCKS.items():
                if line.startswith(block):
                    skip_until = end
                    break
            if skip_until is not None:
                continue
            if line.startswith(_SKIP_PREFIXES):
                continue
            if line.startswith(".class"):
                m = _CLASS_RE.match(line)
                if not m:
                    raise SmaliSyntaxError(f"malformed .class: {line}", lineno)
                name = m.group(2)
            elif line.startswith(".super"):
                m = _SUPER_RE.match(line)
                if not m:
                    raise SmaliSyntaxError(f"malformed .super: {line}", lineno)
                superclass = m.group(1)
            elif line.startswith(".implements"):
                m = _IMPLEMENTS_RE.match(line)
                if not m:
                    raise SmaliSyntaxError(f"malformed .implements: {line}", lineno)
                interfaces.append(m.group(1))
            elif line == ".end method":
                if method_head is None:
                    raise SmaliSyntaxError(".end method outside a method", lineno)
                flags, mname, descriptor = method_head
                methods.append((flags, mname, descriptor, raw_body))
                method_head = None
                raw_body = None
            elif line.startswith(".method"):
                if method_head is not None:
                    raise SmaliSyntaxError("nested .method", lineno)
                m = _METHOD_RE.match(line)
                if not m:
                    raise SmaliSyntaxError(f"malformed .method: {line}", lineno)
                flags = frozenset((m.group(1) or "").split())
                method_head = (flags, m.group(2), m.group(3))
                raw_body = []
            else:
                raise SmaliSyntaxError(f"unsupported directive: {line}", lineno)
            continue

        # Instruction line.
        if method_head is None:
            raise SmaliSyntaxError(f"instruction outside a method: {line}", lineno)
        mnemonic, _, operand_text = line.partition(" ")
        code = code_of(mnemonic)
        operands = split_operands(operand_text)
        invoked = None
        if code in INVOKE_CODES:
            m = _INVOKE_TARGET_RE.search(operands[-1] if operands else "")
            if not m:
                raise SmaliSyntaxError(f"invoke without a method reference: {line}", lineno)
            invoked = operands[-1]
        raw_body.append((code, operands, invoked))

    if name is None:
        raise SmaliSyntaxError("missing .class directive", 1)
    if method_head is not None:
        raise SmaliSyntaxError("unterminated .method", len(text.splitlines()))

    abstract_flags = {"abstract", "native"}
    method_defs = []
    for flags, mname, descriptor, body in methods:
        if flags & abstract_flags:
            body = []
        method_defs.append(
            MethodDef(
                owner=name,
                name=mname,
                descriptor=descriptor,
                flags=flags,
                **columns(assign_offsets(body)),
            )
        )
    seen = set()
    for m in method_defs:
        key = (m.name, m.descriptor)
        if key in seen:
            raise SmaliSyntaxError(f"duplicate method {m.name}{m.descriptor}", 1)
        seen.add(key)
    return ClassDef(name=name, superclass=superclass, interfaces=tuple(interfaces), methods=method_defs)


def format_class(cd: ClassDef) -> str:
    """Pretty-print a ClassDef back into parseable smali text."""
    lines = [f".class {cd.name}", f".super {cd.superclass}"]
    for iface in cd.interfaces:
        lines.append(f".implements {iface}")
    for method in cd.methods:
        flags = " ".join(sorted(method.flags))
        head = f".method {flags} {method.name}{method.descriptor}" if flags else f".method {method.name}{method.descriptor}"
        lines.append("")
        lines.append(head)
        for code, operands in zip(method.body, method.operands):
            if operands:
                lines.append(f"    {CODE_TO_MNEMONIC[code]} {operands}")
            else:
                lines.append(f"    {CODE_TO_MNEMONIC[code]}")
        lines.append(".end method")
    return "\n".join(lines) + "\n"
