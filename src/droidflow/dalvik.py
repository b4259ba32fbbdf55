"""Dalvik opcode table: mnemonic/value mapping and code-unit widths.

Only real instructions appear in the tables; reserved slots of the 0x00-0xff
range are absent so that unknown mnemonics fail loudly at parse time instead
of being mapped to a neighbouring value.
"""

# The regular families of the table: the array, instance and static field
# accessors, the invoke kinds, the conversions and the binary operations by
# operand type.
_ACCESSORS = [f"{op}{kind}" for op in ("aget", "aput", "iget", "iput", "sget", "sput")
              for kind in ("", "-wide", "-object", "-boolean", "-byte", "-char", "-short")]
_INVOKES = [f"invoke-{kind}" for kind in ("virtual", "super", "direct", "static", "interface")]
_NUMERIC = ("int", "long", "float", "double")
_CONVERSIONS = [*(f"{a}-to-{b}" for a in _NUMERIC for b in _NUMERIC if a != b),
                *(f"int-to-{b}" for b in ("byte", "char", "short"))]
_BINOPS = ("add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "ushr")
_BINOP_NAMES = [f"{op}-{kind}" for kind, ops in (
    ("int", _BINOPS), ("long", _BINOPS), ("float", _BINOPS[:5]), ("double", _BINOPS[:5])
) for op in ops]

# The instruction set as runs of consecutive opcodes, keyed by each run's
# first value: the code units each instruction of the run occupies (from the
# instruction formats of the Dalvik executable format), then the run's
# mnemonics in opcode order, as one whitespace-split string or a family list.
_RUNS = {
    0x00: (1, "nop move"),
    0x02: (2, "move/from16"),
    0x03: (3, "move/16"),
    0x04: (1, "move-wide"),
    0x05: (2, "move-wide/from16"),
    0x06: (3, "move-wide/16"),
    0x07: (1, "move-object"),
    0x08: (2, "move-object/from16"),
    0x09: (3, "move-object/16"),
    0x0A: (1, "move-result move-result-wide move-result-object move-exception"
              " return-void return return-wide return-object const/4"),
    0x13: (2, "const/16"),
    0x14: (3, "const"),
    0x15: (2, "const/high16 const-wide/16"),
    0x17: (3, "const-wide/32"),
    0x18: (5, "const-wide"),
    0x19: (2, "const-wide/high16 const-string"),
    0x1B: (3, "const-string/jumbo"),
    0x1C: (2, "const-class"),
    0x1D: (1, "monitor-enter monitor-exit"),
    0x1F: (2, "check-cast instance-of"),
    0x21: (1, "array-length"),
    0x22: (2, "new-instance new-array"),
    0x24: (3, "filled-new-array filled-new-array/range fill-array-data"),
    0x27: (1, "throw goto"),
    0x29: (2, "goto/16"),
    0x2A: (3, "goto/32 packed-switch sparse-switch"),
    0x2D: (2, "cmpl-float cmpg-float cmpl-double cmpg-double cmp-long"),
    0x32: (2, "if-eq if-ne if-lt if-ge if-gt if-le if-eqz if-nez if-ltz if-gez if-gtz if-lez"),
    0x44: (2, _ACCESSORS),
    0x6E: (3, _INVOKES),
    0x74: (3, [f"{name}/range" for name in _INVOKES]),
    0x7B: (1, "neg-int not-int neg-long not-long neg-float neg-double"),
    0x81: (1, _CONVERSIONS),
    0x90: (2, _BINOP_NAMES),
    0xB0: (1, [f"{name}/2addr" for name in _BINOP_NAMES]),
    # 0xD1 is rsub-int, the one /lit16 operation named without its suffix.
    0xD0: (2, ["add-int/lit16", "rsub-int", *(f"{op}-int/lit16" for op in _BINOPS[2:8])]),
    0xD8: (2, [f"{op}-int/lit8" for op in ("add", "rsub", *_BINOPS[2:])]),
    0xFA: (4, "invoke-polymorphic invoke-polymorphic/range"),
    0xFC: (3, "invoke-custom invoke-custom/range"),
    0xFE: (2, "const-method-handle const-method-type"),
}

# (code, width, mnemonic) for every instruction, in opcode order.
_TABLE = [(code, width, name) for first, (width, names) in _RUNS.items()
          for code, name in enumerate(names.split() if isinstance(names, str) else names, first)]
CODE_TO_MNEMONIC = {code: name for code, _, name in _TABLE}
MNEMONIC_TO_CODE = {name: code for code, _, name in _TABLE}
# Code units occupied by each instruction, keyed by opcode value.
CODE_WIDTH = {code: width for code, width, _ in _TABLE}
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
