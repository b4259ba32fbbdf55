"""Dalvik opcode table: mnemonic/value mapping and code-unit widths.

Only real instructions appear in the tables; reserved slots of the 0x00-0xff
range are absent so that unknown mnemonics fail loudly at parse time instead
of being mapped to a neighbouring value.
"""

from dataclasses import dataclass
from functools import cached_property

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
    0x44: "aget",
    0x45: "aget-wide",
    0x46: "aget-object",
    0x47: "aget-boolean",
    0x48: "aget-byte",
    0x49: "aget-char",
    0x4A: "aget-short",
    0x4B: "aput",
    0x4C: "aput-wide",
    0x4D: "aput-object",
    0x4E: "aput-boolean",
    0x4F: "aput-byte",
    0x50: "aput-char",
    0x51: "aput-short",
    0x52: "iget",
    0x53: "iget-wide",
    0x54: "iget-object",
    0x55: "iget-boolean",
    0x56: "iget-byte",
    0x57: "iget-char",
    0x58: "iget-short",
    0x59: "iput",
    0x5A: "iput-wide",
    0x5B: "iput-object",
    0x5C: "iput-boolean",
    0x5D: "iput-byte",
    0x5E: "iput-char",
    0x5F: "iput-short",
    0x60: "sget",
    0x61: "sget-wide",
    0x62: "sget-object",
    0x63: "sget-boolean",
    0x64: "sget-byte",
    0x65: "sget-char",
    0x66: "sget-short",
    0x67: "sput",
    0x68: "sput-wide",
    0x69: "sput-object",
    0x6A: "sput-boolean",
    0x6B: "sput-byte",
    0x6C: "sput-char",
    0x6D: "sput-short",
    0x6E: "invoke-virtual",
    0x6F: "invoke-super",
    0x70: "invoke-direct",
    0x71: "invoke-static",
    0x72: "invoke-interface",
    0x74: "invoke-virtual/range",
    0x75: "invoke-super/range",
    0x76: "invoke-direct/range",
    0x77: "invoke-static/range",
    0x78: "invoke-interface/range",
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
    0x90: "add-int",
    0x91: "sub-int",
    0x92: "mul-int",
    0x93: "div-int",
    0x94: "rem-int",
    0x95: "and-int",
    0x96: "or-int",
    0x97: "xor-int",
    0x98: "shl-int",
    0x99: "shr-int",
    0x9A: "ushr-int",
    0x9B: "add-long",
    0x9C: "sub-long",
    0x9D: "mul-long",
    0x9E: "div-long",
    0x9F: "rem-long",
    0xA0: "and-long",
    0xA1: "or-long",
    0xA2: "xor-long",
    0xA3: "shl-long",
    0xA4: "shr-long",
    0xA5: "ushr-long",
    0xA6: "add-float",
    0xA7: "sub-float",
    0xA8: "mul-float",
    0xA9: "div-float",
    0xAA: "rem-float",
    0xAB: "add-double",
    0xAC: "sub-double",
    0xAD: "mul-double",
    0xAE: "div-double",
    0xAF: "rem-double",
    0xB0: "add-int/2addr",
    0xB1: "sub-int/2addr",
    0xB2: "mul-int/2addr",
    0xB3: "div-int/2addr",
    0xB4: "rem-int/2addr",
    0xB5: "and-int/2addr",
    0xB6: "or-int/2addr",
    0xB7: "xor-int/2addr",
    0xB8: "shl-int/2addr",
    0xB9: "shr-int/2addr",
    0xBA: "ushr-int/2addr",
    0xBB: "add-long/2addr",
    0xBC: "sub-long/2addr",
    0xBD: "mul-long/2addr",
    0xBE: "div-long/2addr",
    0xBF: "rem-long/2addr",
    0xC0: "and-long/2addr",
    0xC1: "or-long/2addr",
    0xC2: "xor-long/2addr",
    0xC3: "shl-long/2addr",
    0xC4: "shr-long/2addr",
    0xC5: "ushr-long/2addr",
    0xC6: "add-float/2addr",
    0xC7: "sub-float/2addr",
    0xC8: "mul-float/2addr",
    0xC9: "div-float/2addr",
    0xCA: "rem-float/2addr",
    0xCB: "add-double/2addr",
    0xCC: "sub-double/2addr",
    0xCD: "mul-double/2addr",
    0xCE: "div-double/2addr",
    0xCF: "rem-double/2addr",
    0xD0: "add-int/lit16",
    0xD1: "rsub-int",
    0xD2: "mul-int/lit16",
    0xD3: "div-int/lit16",
    0xD4: "rem-int/lit16",
    0xD5: "and-int/lit16",
    0xD6: "or-int/lit16",
    0xD7: "xor-int/lit16",
    0xD8: "add-int/lit8",
    0xD9: "rsub-int/lit8",
    0xDA: "mul-int/lit8",
    0xDB: "div-int/lit8",
    0xDC: "rem-int/lit8",
    0xDD: "and-int/lit8",
    0xDE: "or-int/lit8",
    0xDF: "xor-int/lit8",
    0xE0: "shl-int/lit8",
    0xE1: "shr-int/lit8",
    0xE2: "ushr-int/lit8",
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


class UnknownOpcodeError(ValueError):
    """Raised for a mnemonic outside the supported instruction set."""


@dataclass(frozen=True)
class Opcode:
    """A Dalvik operation code with its numeric value in [0, 255]."""

    code: int
    mnemonic: str

    # Cached in the instance: every Opcode is shared (OPCODES below), and
    # parsing reads both for each instruction. Equality, hash and repr see
    # only the two fields.
    @cached_property
    def is_invoke(self) -> bool:
        return self.mnemonic.startswith("invoke")

    @cached_property
    def width(self) -> int:
        return CODE_WIDTH[self.code]


# One shared Opcode per mnemonic: parsing looks them up, it builds none.
OPCODES = {m: Opcode(c, m) for c, m in CODE_TO_MNEMONIC.items()}


def opcode_from_mnemonic(mnemonic: str) -> Opcode:
    try:
        return OPCODES[mnemonic]
    except KeyError:
        raise UnknownOpcodeError(f"unknown Dalvik mnemonic: {mnemonic!r}") from None


def normalize(code: int) -> float:
    """Map an opcode value onto the unit interval."""
    return code / 255.0
