"""Parser for the structural subset of smali class files.

Recognized directives: .class/.super/.implements/.method/.end method.
Debug and metadata directives (.line, .locals, annotations, switch payloads,
...) are skipped; anything else starting with a dot is a syntax error. Only
opcodes, operand text, call targets and class structure survive into the
model (the columns documented on appmodel.MethodDef), which is all the
downstream analyses consume.
"""

import re

from .appmodel import ClassDef, MethodDef
from .dalvik import INVOKE_CODES, MNEMONIC_TO_CODE, WIDTH_TABLE, code_of

_CLASS_RE = re.compile(r"^\.class(?:\s+([\w $-]+?))?\s+(L[^\s;]+;)$")
_SUPER_RE = re.compile(r"^\.super\s+(L[^\s;]+;)$")
_IMPLEMENTS_RE = re.compile(r"^\.implements\s+(L[^\s;]+;)$")
_METHOD_RE = re.compile(r"^\.method(?:\s+([\w $-]+?))?\s+([^\s(]+)(\(.*\)\S+)$")
_INVOKE_TARGET_RE = re.compile(r"(L[^\s;]+;|\[[^\s]+)->([^\s(]+)(\(.*\)\S+)$")

# One-line directives carrying no structure we need.
_SKIP_PREFIXES = (
    ".line", ".locals", ".local", ".registers", ".param", ".prologue",
    ".source", ".field", ".end field", ".restart", ".end local", ".end param",
    ".catch", ".catchall", ".enum",
)
# Block directives skipped wholesale up to their ".end <name>".
_SKIP_BLOCKS = {
    ".annotation": ".end annotation",
    ".packed-switch": ".end packed-switch",
    ".sparse-switch": ".end sparse-switch",
    ".array-data": ".end array-data",
    ".subannotation": ".end subannotation",
}
_SKIP_BLOCK_STARTS = tuple(_SKIP_BLOCKS)
# invoke-polymorphic names its method before the proto it ends with;
# invoke-custom names a call site, whose bootstrap method follows its last "@".
_POLYMORPHIC_CODES = (MNEMONIC_TO_CODE["invoke-polymorphic"],
                      MNEMONIC_TO_CODE["invoke-polymorphic/range"])
_CUSTOM_CODES = (MNEMONIC_TO_CODE["invoke-custom"], MNEMONIC_TO_CODE["invoke-custom/range"])
# Methods of these flags keep no body.
_BODILESS = frozenset(("abstract", "native"))


class SmaliSyntaxError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _split_operands(text: str):
    """Split an operand string on top-level commas, keeping {...} groups whole.

    A comma splits only where the text before it holds as many "}" as "{":
    neither inside braces nor after an unmatched "}". Every part is stripped,
    and an empty last part is dropped.
    """
    parts, held, depth = [], [], 0
    for piece in text.split(","):
        held.append(piece)
        depth += piece.count("{") - piece.count("}")
        if depth == 0:
            parts.append(",".join(held).strip())
            held = []
    if held:
        parts.append(",".join(held).strip())
    return tuple(parts if parts[-1] else parts[:-1])


def _method_reference(code: int, operand_text: str):
    """The signature of the method an invoke calls, or None when its
    operands name none.

    A plain invoke's reference is its last operand: the stripped text after
    the last comma, when it is not empty and the text before that comma holds
    as many "{" as "}", so that the comma splits. Any other operand text is
    split with _split_operands."""
    if code in _CUSTOM_CODES:
        _, at, ref = operand_text.rpartition("@")
        ref = ref.strip() if at else ""
    else:
        head, _, ref = operand_text.rpartition(",")
        ref = ref.strip()
        if code in _POLYMORPHIC_CODES or not ref or head.count("{") != head.count("}"):
            operands = _split_operands(operand_text)
            position = 2 if code in _POLYMORPHIC_CODES else 1
            ref = operands[-position] if len(operands) >= position else ""
    return ref if _INVOKE_TARGET_RE.search(ref) else None


def parse_smali_class(text: str) -> ClassDef:
    """Parse one smali class file into a ClassDef.

    Raises SmaliSyntaxError (with line number) on malformed directives and
    UnknownOpcodeError on mnemonics outside the Dalvik table.
    """
    name = None
    superclass = "Ljava/lang/Object;"
    interfaces = []
    methods = []
    method_head = None   # (name, descriptor, whether the body is dropped)
    codes = None         # opcode values of the open method
    operands = None      # its operand texts
    calls = None         # its (body index, offset, invoked) triples
    offset = 0           # offset of its next instruction
    skip_until = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        lead = line[0]
        if skip_until is None and lead not in "#:.":
            # Instruction line, the most common kind.
            if codes is None:
                raise SmaliSyntaxError(f"instruction outside a method: {line}", lineno)
            mnemonic, _, operand_text = line.partition(" ")
            try:
                code = MNEMONIC_TO_CODE[mnemonic]
            except KeyError:
                code = code_of(mnemonic)   # raises UnknownOpcodeError
            if code in INVOKE_CODES:
                invoked = _method_reference(code, operand_text)
                if invoked is None:
                    raise SmaliSyntaxError(f"invoke without a method reference: {line}", lineno)
                calls.append((len(codes), offset, invoked))
            codes.append(code)
            operands.append(operand_text)
            offset += WIDTH_TABLE[code]
            continue
        if lead == "#":
            continue
        if skip_until is not None:
            if line.startswith(skip_until):
                skip_until = None
            continue
        if lead == ":":
            continue

        # Directive line. No name tested below is a prefix of a name in
        # another test, so their order cannot change which one matches; the
        # common ones come first.
        if line == ".end method":
            if method_head is None:
                raise SmaliSyntaxError(".end method outside a method", lineno)
            mname, descriptor, bodiless = method_head
            columns = (b"", (), ()) if bodiless else (bytes(codes), tuple(operands), tuple(calls))
            # The owner is set once the file is read: a .class line may follow.
            methods.append(MethodDef(None, mname, descriptor, *columns))
            method_head = None
            codes = operands = calls = None
        elif line.startswith(".method"):
            if method_head is not None:
                raise SmaliSyntaxError("nested .method", lineno)
            m = _METHOD_RE.match(line)
            if not m:
                raise SmaliSyntaxError(f"malformed .method: {line}", lineno)
            method_head = (m.group(2), m.group(3),
                           not _BODILESS.isdisjoint((m.group(1) or "").split()))
            codes, operands, calls, offset = bytearray(), [], [], 0
        elif line.startswith(_SKIP_PREFIXES):
            continue
        elif line.startswith(_SKIP_BLOCK_STARTS):
            skip_until = next(end for block, end in _SKIP_BLOCKS.items() if line.startswith(block))
        elif line.startswith(".class"):
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
        else:
            raise SmaliSyntaxError(f"unsupported directive: {line}", lineno)

    if name is None:
        raise SmaliSyntaxError("missing .class directive", 1)
    if method_head is not None:
        raise SmaliSyntaxError("unterminated .method", len(text.splitlines()))

    seen = set()
    for m in methods:
        m.owner = name
        key = (m.name, m.descriptor)
        if key in seen:
            raise SmaliSyntaxError(f"duplicate method {m.name}{m.descriptor}", 1)
        seen.add(key)
    return ClassDef(name=name, superclass=superclass, interfaces=tuple(interfaces), methods=methods)

