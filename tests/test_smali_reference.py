"""The smali parser against its reference (tests/smali_reference.py): equal
ClassDefs, or the same error with the same message and line, on generated
classes and on every kind of syntax error."""

import pytest
from hypothesis import given, settings, strategies as st

import smali_reference
from droidflow.dalvik import INVOKE_CODES, UnknownOpcodeError
from droidflow.smali import (
    _CUSTOM_CODES,
    _INVOKE_TARGET_RE,
    _POLYMORPHIC_CODES,
    SmaliSyntaxError,
    _method_reference,
    _split_operands,
    parse_smali_class,
)


def outcome(parse, text):
    try:
        return repr(parse(text))
    except SmaliSyntaxError as exc:
        return ("SmaliSyntaxError", str(exc), exc.line)
    except UnknownOpcodeError as exc:
        return ("UnknownOpcodeError", str(exc))


def assert_same(text):
    expected = outcome(smali_reference.parse_smali_class, text)
    assert outcome(parse_smali_class, text) == expected
    return expected


@given(st.text(alphabet='{}, ."v0a\t\\', max_size=30))
@settings(max_examples=500)
def test_operand_split_matches_the_reference(text):
    assert _split_operands(text) == smali_reference.split_operands(text)


def reference_pick(code, text):
    """The invoked method as picked from the reference's operand split: the
    last operand, the one before it for invoke-polymorphic, and the text
    after the last "@" for invoke-custom."""
    if code in _CUSTOM_CODES:
        _, at, ref = text.rpartition("@")
        ref = ref.strip() if at else ""
    else:
        operands = smali_reference.split_operands(text)
        position = 2 if code in _POLYMORPHIC_CODES else 1
        ref = operands[-position] if len(operands) >= position else ""
    return ref if _INVOKE_TARGET_RE.search(ref) else None


OPERAND_PARTS = ["{v0}", "{v0, v1}", "{}", "{p0 .. p3}", "{", "}", "}{", "", " ", "v0",
                 "La;->g()V", " Lb/C;->h(ILjava/lang/String;)Z ", "[I->clone()Ljava/lang/Object;",
                 "(I)V", "call_site_0@La;->b()V", "@", "x@La;->g()V}", '"a, {b}"']


@st.composite
def invoke_operands(draw):
    """Invoke-shaped operand text: register groups, references, protos and
    call sites joined by commas, with stray braces, "@" and empty parts."""
    parts = draw(st.lists(st.sampled_from(OPERAND_PARTS), max_size=5))
    text = "".join(part + draw(st.sampled_from([",", ", ", " ,"])) for part in parts)
    return text + draw(st.sampled_from(OPERAND_PARTS))


@given(st.sampled_from(sorted(INVOKE_CODES)),
       st.one_of(invoke_operands(), st.text(alphabet="{}, @La;->g()V[", max_size=30)))
@settings(max_examples=1000)
def test_method_reference_matches_the_reference_split(code, text):
    assert _method_reference(code, text) == reference_pick(code, text)


REGISTER_GROUPS = ["{}", "{v0}", "{v0, v1}", "{p0, v1, v2}", "{v0 .. v5}"]
STRINGS = ['"a, b"', '"{"', '"}"', '"{v0, v1}"', '"x}, {y"', '""', '"plain"']
TARGETS = ["La;->g()V", "Lb/C;->h(ILjava/lang/String;)Z", "[I->clone()Ljava/lang/Object;"]
PLAIN = ["const/4 v0, 0x1", "move v1, v2", "return-void", "nop", "if-eqz v0, :cond_0",
         "iget v3, p0, Lapp/State;->count:I", "goto :goto_0", "aget v1, v2, v0 "]
SKIPPED = [".locals 4", ".line 12", ".registers 3", ".param p1", ".prologue", ":cond_0",
           "# a comment, with {braces}", "", "   ", ".catch Ljava/lang/Exception; {:a .. :b} :c",
           ".end local v0", ".restart local v0"]
BLOCKS = [
    [".annotation system Ldalvik/annotation/Throws;", "value = { Ljava/lang/Exception; }",
     ".end annotation"],
    [".packed-switch 0x1", ":pswitch_0", ".end packed-switch"],
    [".sparse-switch", "0x1 -> :sswitch_0", ".end sparse-switch"],
    [".array-data 4", "0x1", ".end array-data"],
]
# Lines that are malformed in some way, so that errors are compared too.
NOISE = ["invoke-static {}", "invoke-virtual {v0}, notaref", "bogus-op v0", ".method f()V",
         ".end method", ".class Lx;", ".class broken", ".super Ly;", ".implements Lz;",
         ".unknown directive", "const-string v0, \"{\", v1"]


@st.composite
def instruction(draw):
    kind = draw(st.sampled_from(["plain", "invoke", "string", "filled"]))
    if kind == "plain":
        return draw(st.sampled_from(PLAIN))
    if kind == "invoke":
        mnemonic = draw(st.sampled_from(["invoke-static", "invoke-virtual", "invoke-direct/range"]))
        group = draw(st.sampled_from(REGISTER_GROUPS))
        return f"{mnemonic} {group}, {draw(st.sampled_from(TARGETS))}"
    if kind == "string":
        return f"const-string v{draw(st.integers(0, 9))}, {draw(st.sampled_from(STRINGS))}"
    return f"filled-new-array {draw(st.sampled_from(REGISTER_GROUPS))}, [I"


@st.composite
def body_line(draw):
    kind = draw(st.sampled_from(["ins", "ins", "ins", "skip", "block", "noise"]))
    if kind == "ins":
        lines = [draw(instruction())]
    elif kind == "skip":
        lines = [draw(st.sampled_from(SKIPPED))]
    elif kind == "block":
        lines = draw(st.sampled_from(BLOCKS))
    else:
        lines = [draw(st.sampled_from(NOISE))]
    indent = draw(st.sampled_from(["", "    ", "\t"]))
    return [indent + line + draw(st.sampled_from(["", " ", "\t"])) for line in lines]


@st.composite
def method(draw, index):
    flags = draw(st.sampled_from(["", "public ", "public abstract ", "native ", "static "]))
    name = draw(st.sampled_from([f"m{index}", "dup"]))
    lines = [f".method {flags}{name}()V"]
    for chunk in draw(st.lists(body_line(), max_size=8)):
        lines += chunk
    return lines + [".end method"]


@st.composite
def smali_class(draw):
    lines = [".class public Lcom/example/Gen;", ".super Ljava/lang/Object;", '.source "Gen.java"']
    lines += draw(st.lists(st.sampled_from([".implements Lx/I;", ".implements Ly/J;"]), max_size=2))
    if draw(st.booleans()):
        lines += [".field private x:I", ".annotation runtime Lb;", ".end annotation", ".end field"]
    for index in range(draw(st.integers(0, 4))):
        lines += [""] + draw(method(index))
    if draw(st.booleans()):
        lines.pop()   # sometimes leave the last method unterminated
    return "\n".join(lines) + "\n"


@given(smali_class())
@settings(max_examples=300, deadline=None)
def test_generated_classes_parse_as_in_the_reference(text):
    assert_same(text)


HEAD = ".class La;\n.super Ljava/lang/Object;\n"
ERRORS = {
    "malformed .class": ".class public\n",
    "malformed .super": ".class La;\n.super java.lang.Object\n",
    "malformed .implements": HEAD + ".implements I\n",
    "malformed .method": HEAD + ".method broken\n.end method\n",
    "nested .method": HEAD + ".method f()V\n.method g()V\n.end method\n",
    "unterminated .method": HEAD + ".method f()V\n    return-void\n\n",
    ".end method outside a method": HEAD + ".end method\n",
    "instruction outside a method": HEAD + "    return-void\n",
    "invoke without a method reference": HEAD + ".method f()V\n    invoke-static {v0}\n.end method\n",
    "duplicate method": HEAD + ".method f()V\n.end method\n.method f()V\n.end method\n",
    "unsupported directive": HEAD + ".bogus\n",
    "missing .class": ".super Ljava/lang/Object;\n",
    "unknown Dalvik mnemonic": HEAD + ".method f()V\n    frobnicate v0\n.end method\n",
}


@pytest.mark.parametrize("kind", ERRORS)
def test_every_error_kind_matches_the_reference(kind):
    result = assert_same(ERRORS[kind])
    assert isinstance(result, tuple) and kind in result[1]
