"""Dalvik opcode table: mnemonic/value mapping and code-unit widths.

Only real instructions appear in the tables; reserved slots of the 0x00-0xff
range are absent so that unknown mnemonics fail loudly at parse time instead
of being mapped to a neighbouring value.
"""

# The regular families of the table: the array, instance and static field
# accessors, the invoke kinds, and the binary operations by operand type.
_ACCESSORS = [f"{op}{kind}" for op in ("aget", "aput", "iget", "iput", "sget", "sput")
              for kind in ("", "-wide", "-object", "-boolean", "-byte", "-char", "-short")]
_INVOKES = [f"invoke-{kind}" for kind in ("virtual", "super", "direct", "static", "interface")]
_BINOPS = ("add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "ushr")
_BINOP_NAMES = [f"{op}-{kind}" for kind, ops in (
    ("int", _BINOPS), ("long", _BINOPS), ("float", _BINOPS[:5]), ("double", _BINOPS[:5])
) for op in ops]

CODE_TO_MNEMONIC = {
    0x00: "nop",
    0x01: "move",
    0x02: "move/from16",
    0x03: "move/16",
    0x04: "move-wide",
    0x05: "move-wide/from16",
    0x06: "move-wide/16",
    0x07: "move-object",
    0x08: "move-object/from16",
    0x09: "move-object/16",
    0x0A: "move-result",
    0x0B: "move-result-wide",
    0x0C: "move-result-object",
    0x0D: "move-exception",
    0x0E: "return-void",
    0x0F: "return",
    0x10: "return-wide",
    0x11: "return-object",
    0x12: "const/4",
    0x13: "const/16",
    0x14: "const",
    0x15: "const/high16",
    0x16: "const-wide/16",
    0x17: "const-wide/32",
    0x18: "const-wide",
    0x19: "const-wide/high16",
    0x1A: "const-string",
    0x1B: "const-string/jumbo",
    0x1C: "const-class",
    0x1D: "monitor-enter",
    0x1E: "monitor-exit",
    0x1F: "check-cast",
    0x20: "instance-of",
    0x21: "array-length",
    0x22: "new-instance",
    0x23: "new-array",
    0x24: "filled-new-array",
    0x25: "filled-new-array/range",
    0x26: "fill-array-data",
    0x27: "throw",
    0x28: "goto",
    0x29: "goto/16",
    0x2A: "goto/32",
    0x2B: "packed-switch",
    0x2C: "sparse-switch",
    0x2D: "cmpl-float",
    0x2E: "cmpg-float",
    0x2F: "cmpl-double",
    0x30: "cmpg-double",
    0x31: "cmp-long",
    0x32: "if-eq",
    0x33: "if-ne",
    0x34: "if-lt",
    0x35: "if-ge",
    0x36: "if-gt",
    0x37: "if-le",
    0x38: "if-eqz",
    0x39: "if-nez",
    0x3A: "if-ltz",
    0x3B: "if-gez",
    0x3C: "if-gtz",
    0x3D: "if-lez",
    **dict(enumerate(_ACCESSORS, start=0x44)),
    **dict(enumerate(_INVOKES, start=0x6E)),
    **dict(enumerate((f"{name}/range" for name in _INVOKES), start=0x74)),
    0x7B: "neg-int",
    0x7C: "not-int",
    0x7D: "neg-long",
    0x7E: "not-long",
    0x7F: "neg-float",
    0x80: "neg-double",
    0x81: "int-to-long",
    0x82: "int-to-float",
    0x83: "int-to-double",
    0x84: "long-to-int",
    0x85: "long-to-float",
    0x86: "long-to-double",
    0x87: "float-to-int",
    0x88: "float-to-long",
    0x89: "float-to-double",
    0x8A: "double-to-int",
    0x8B: "double-to-long",
    0x8C: "double-to-float",
    0x8D: "int-to-byte",
    0x8E: "int-to-char",
    0x8F: "int-to-short",
    **dict(enumerate(_BINOP_NAMES, start=0x90)),
    **dict(enumerate((f"{name}/2addr" for name in _BINOP_NAMES), start=0xB0)),
    0xD0: "add-int/lit16",
    0xD1: "rsub-int",
    0xD2: "mul-int/lit16",
    0xD3: "div-int/lit16",
    0xD4: "rem-int/lit16",
    0xD5: "and-int/lit16",
    0xD6: "or-int/lit16",
    0xD7: "xor-int/lit16",
    **dict(enumerate((f"{op}-int/lit8" for op in ("add", "rsub", *_BINOPS[2:])), start=0xD8)),
    0xFA: "invoke-polymorphic",
    0xFB: "invoke-polymorphic/range",
    0xFC: "invoke-custom",
    0xFD: "invoke-custom/range",
    0xFE: "const-method-handle",
    0xFF: "const-method-type",
}

MNEMONIC_TO_CODE = {m: c for c, m in CODE_TO_MNEMONIC.items()}

# Code units occupied by each instruction, keyed by opcode value. Derived
# from the instruction format groups of the Dalvik executable format.
_WIDTH_RANGES = [
    ((0x00,), 1),
    ((0x01, 0x04, 0x07), 1),
    ((0x02, 0x05, 0x08), 2),
    ((0x03, 0x06, 0x09), 3),
    (range(0x0A, 0x12), 1),      # move-result*..return-object
    ((0x12,), 1),                # const/4
    ((0x13, 0x15, 0x16, 0x19, 0x1A, 0x1C, 0x1F), 2),
    ((0x14, 0x17, 0x1B), 3),
    ((0x18,), 5),                # const-wide
    ((0x1D, 0x1E, 0x21, 0x27, 0x28), 1),
    ((0x20, 0x22, 0x23), 2),
    ((0x24, 0x25, 0x26), 3),
    ((0x29,), 2),
    ((0x2A, 0x2B, 0x2C), 3),
    (range(0x2D, 0x3E), 2),      # cmp*, if-*
    (range(0x44, 0x6E), 2),      # array/field accessors
    (range(0x6E, 0x73), 3),      # invoke-kind
    (range(0x74, 0x79), 3),      # invoke-kind/range
    (range(0x7B, 0x90), 1),      # unop
    (range(0x90, 0xB0), 2),      # binop
    (range(0xB0, 0xD0), 1),      # binop/2addr
    (range(0xD0, 0xE3), 2),      # binop/lit16, binop/lit8
    ((0xFA, 0xFB), 4),
    ((0xFC, 0xFD), 3),
    ((0xFE, 0xFF), 2),
]

CODE_WIDTH = {}
for _codes, _w in _WIDTH_RANGES:
    for _c in _codes:
        if _c in CODE_TO_MNEMONIC:
            CODE_WIDTH[_c] = _w
del _codes, _w, _c
# CODE_WIDTH as a bytes.translate table over opcode values (0 where unused).
WIDTH_TABLE = bytes(CODE_WIDTH.get(code, 0) for code in range(256))


class UnknownOpcodeError(ValueError):
    """Raised for a mnemonic outside the supported instruction set."""


# Codes whose mnemonic names an invoke kind; these rows carry a call target.
INVOKE_CODES = frozenset(c for c, m in CODE_TO_MNEMONIC.items() if m.startswith("invoke"))


def code_of(mnemonic: str) -> int:
    """The opcode value of a mnemonic in the table."""
    try:
        return MNEMONIC_TO_CODE[mnemonic]
    except KeyError:
        raise UnknownOpcodeError(f"unknown Dalvik mnemonic: {mnemonic!r}") from None


def normalize(code: int) -> float:
    """Map an opcode value onto the unit interval."""
    return code / 255.0
