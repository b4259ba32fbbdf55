from pathlib import Path

import pytest

from droidflow.appmodel import offsets
from droidflow.dalvik import CODE_TO_MNEMONIC, CODE_WIDTH, MNEMONIC_TO_CODE, UnknownOpcodeError
from droidflow.smali import SmaliSyntaxError, parse_smali_class

from smali_reference import format_class

MINIMAL = """\
.class Lcom/example/Main;
.super Ljava/lang/Object;

.method onCreate()V
    return-void
.end method
"""


def test_minimal_class():
    cd = parse_smali_class(MINIMAL)
    assert cd.name == "Lcom/example/Main;"
    assert len(cd.methods) == 1
    body = cd.methods[0].body
    assert len(body) == 1
    assert CODE_TO_MNEMONIC[body[0]] == "return-void"
    assert offsets(body) == [0]


def test_unknown_mnemonic_rejected():
    bad = MINIMAL.replace("return-void", "invoke-bogus {v0}, La;->b()V")
    with pytest.raises(UnknownOpcodeError):
        parse_smali_class(bad)


def test_invoke_carries_full_signature():
    text = """\
.class La;
.super Ljava/lang/Object;
.method run()V
    invoke-virtual {v0}, Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;Landroid/app/PendingIntent;Landroid/app/PendingIntent;)V
    return-void
.end method
"""
    cd = parse_smali_class(text)
    [(index, offset, invoked)] = cd.methods[0].calls
    assert (index, offset) == (0, 0)
    # invoke-virtual sits at 0x6e in the Dalvik table
    assert cd.methods[0].body[index] == 0x6E
    assert invoked == (
        "Landroid/telephony/SmsManager;->sendTextMessage"
        "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;"
        "Landroid/app/PendingIntent;Landroid/app/PendingIntent;)V"
    )


def test_offsets_follow_code_unit_widths():
    text = """\
.class La;
.super Ljava/lang/Object;
.method f()V
    const/4 v0, 0x1
    const-string v1, "hi"
    invoke-static {}, La;->g()V
    return-void
.end method
.method g()V
    return-void
.end method
"""
    cd = parse_smali_class(text)
    # const/4 is 1 unit, const-string 2, invoke-static 3
    assert offsets(cd.methods[0].body) == [0, 1, 3, 6]
    assert cd.methods[0].calls == ((2, 3, "La;->g()V"),)


def test_offsets_strictly_increasing_from_zero():
    cd = parse_smali_class(MINIMAL)
    for m in cd.methods:
        offs = offsets(m.body)
        assert offs == sorted(set(offs))
        if offs:
            assert offs[0] == 0


def test_malformed_directive_has_line_number():
    bad = ".class Lcom/A;\n.super Ljava/lang/Object;\n.method broken\n.end method\n"
    with pytest.raises(SmaliSyntaxError) as err:
        parse_smali_class(bad)
    assert err.value.line == 3


def test_debug_directives_and_labels_skipped():
    text = """\
.class La;
.super Ljava/lang/Object;
.method f()V
    .locals 1
    .line 12
    :start
    nop
    .annotation system Ldalvik/annotation/Throws;
        value = { Ljava/lang/Exception; }
    .end annotation
    return-void
.end method
"""
    cd = parse_smali_class(text)
    assert [CODE_TO_MNEMONIC[code] for code in cd.methods[0].body] == ["nop", "return-void"]


def test_abstract_method_has_empty_body():
    text = """\
.class La;
.super Ljava/lang/Object;
.method abstract h()V
.end method
"""
    cd = parse_smali_class(text)
    assert cd.methods[0].body == b""
    assert cd.methods[0].operands == cd.methods[0].calls == ()


def test_class_line_after_a_method_names_its_owner_and_native_keeps_no_body():
    text = """\
.method public native n(I)V
    invoke-static {}, Lb;->g()V
.end method
.method f()V
    return-void
.end method
.class La;
.super Ljava/lang/Object;
"""
    native, plain = parse_smali_class(text).methods
    assert [native.method_id, plain.method_id] == ["La;->n(I)V", "La;->f()V"]
    assert native.body == b"" and native.operands == native.calls == ()
    assert plain.body == bytes([MNEMONIC_TO_CODE["return-void"]])


def test_duplicate_method_rejected():
    text = MINIMAL + "\n.method onCreate()V\n    return-void\n.end method\n"
    with pytest.raises(SmaliSyntaxError):
        parse_smali_class(text)


def test_round_trip_structural_identity():
    text = """\
.class public Lcom/example/Widget;
.super Lcom/example/Base;
.implements Landroid/view/View$OnClickListener;

.method public constructor <init>()V
    invoke-direct {p0}, Lcom/example/Base;-><init>()V
    return-void
.end method

.method public onClick(Landroid/view/View;)V
    const/4 v0, 0x0
    const-string v1, "tag"
    const-string v2, "a,b"
    invoke-static {v0, v1}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I
    move-result v0
    return-void
.end method
"""
    first = parse_smali_class(text)
    printed = format_class(first)
    assert '    const-string v2, "a,b"\n' in printed   # operand text as written
    assert parse_smali_class(printed) == first


def test_invoke_completeness():
    text = """\
.class La;
.super Ljava/lang/Object;
.method f()V
    invoke-static {}, La;->g()V
    nop
    invoke-virtual {v0}, Lb;->h()V
    return-void
.end method
"""
    cd = parse_smali_class(text)
    with_target = len(cd.methods[0].calls)
    invoke_lines = sum(
        1 for line in text.splitlines() if line.strip().startswith("invoke")
    )
    assert with_target == invoke_lines == 2


def test_mnemonic_code_mapping_is_bijective():
    codes = list(MNEMONIC_TO_CODE.values())
    assert len(codes) == len(set(codes))
    assert all(0 <= c <= 0xFF for c in codes)


def test_annotated_field_is_skipped():
    text = """\
.class La;
.super Ljava/lang/Object;
.field private x:I
    .annotation runtime Lb;
    .end annotation
.end field
.method f()V
    return-void
.end method
"""
    cd = parse_smali_class(text)
    assert [m.name for m in cd.methods] == ["f"]


def test_body_length_counts_the_instruction_lines():
    text = """\
.class La;
.super Ljava/lang/Object;
.method f()V
    .locals 2
    .line 3
    const/4 v0, 0x1
    :cond_0
    # a comment
    .annotation system Ldalvik/annotation/Throws;
        value = { Ljava/lang/Exception; }
    .end annotation
    invoke-static {v0}, La;->g(I)V
    fill-array-data v0, :array_0
    return-void
    :array_0
    .array-data 4
        0x1
    .end array-data
.end method
.method g(I)V
    nop
    return-void
.end method
"""
    cd = parse_smali_class(text)
    counted = [0]   # instruction lines per method: lines that start with a mnemonic
    for line in text.splitlines():
        if line == ".end method":
            counted.append(0)
        elif line.split()[0] in MNEMONIC_TO_CODE:
            counted[-1] += 1
    assert [len(m.body) for m in cd.methods] == counted[:-1] == [4, 2]
    assert [len(m.operands) for m in cd.methods] == [4, 2]


HEAD = ".class La;\n.super Ljava/lang/Object;\n"


def test_invoke_polymorphic_calls_the_method_before_its_proto():
    handle = "Ljava/lang/invoke/MethodHandle;->invoke([Ljava/lang/Object;)Ljava/lang/Object;"
    cd = parse_smali_class(
        HEAD + ".method f(Ljava/lang/invoke/MethodHandle;)V\n"
        f"    invoke-polymorphic {{p1, v0, v1}}, {handle}, (II)V\n"
        f"    invoke-polymorphic/range {{p1 .. p3}}, {handle}, (II)V\n"
        "    return-void\n.end method\n"
    )
    assert cd.methods[0].calls == ((0, 0, handle), (1, 4, handle))


def test_invoke_custom_calls_its_bootstrap_method():
    bootstrap = (
        "Ljava/lang/invoke/LambdaMetafactory;->metafactory(Ljava/lang/invoke/MethodHandles$Lookup;"
        "Ljava/lang/String;Ljava/lang/invoke/MethodType;Ljava/lang/invoke/MethodType;"
        "Ljava/lang/invoke/MethodHandle;Ljava/lang/invoke/MethodType;)Ljava/lang/invoke/CallSite;"
    )
    call_site = 'call_site_0("run", ()Ljava/lang/Runnable;, ()V, invoke-static@La;->lambda$f$0()V, ()V)'
    cd = parse_smali_class(
        HEAD + ".method f()V\n"
        f"    invoke-custom {{}}, {call_site}@{bootstrap}\n"
        f"    invoke-custom/range {{v0 .. v1}}, {call_site}@{bootstrap}\n"
        "    return-void\n.end method\n"
    )
    assert cd.methods[0].calls == ((0, 0, bootstrap), (1, 3, bootstrap))


@pytest.mark.parametrize("line", [
    "invoke-polymorphic {p1}, (II)V",
    "invoke-custom {v0}, call_site_0(\"run\", ()V)",
])
def test_invoke_without_its_method_is_rejected(line):
    with pytest.raises(SmaliSyntaxError, match="invoke without a method reference"):
        parse_smali_class(HEAD + f".method f()V\n    {line}\n.end method\n")


def test_opcode_table_matches_the_dalvik_bytecode_table():
    # The first and last value of each run of the table in the Dalvik spec.
    anchors = {
        0x00: "nop", 0x0D: "move-exception", 0x1C: "const-class", 0x22: "new-instance",
        0x3D: "if-lez", 0x44: "aget", 0x6D: "sput-short", 0x6E: "invoke-virtual",
        0x72: "invoke-interface", 0x74: "invoke-virtual/range", 0x78: "invoke-interface/range",
        0x7B: "neg-int", 0x8F: "int-to-short", 0x90: "add-int", 0x9B: "add-long",
        0xA6: "add-float", 0xAF: "rem-double", 0xB0: "add-int/2addr", 0xCF: "rem-double/2addr",
        0xD0: "add-int/lit16", 0xD1: "rsub-int", 0xD7: "xor-int/lit16", 0xD8: "add-int/lit8",
        0xE2: "ushr-int/lit8", 0xFA: "invoke-polymorphic", 0xFF: "const-method-type",
    }
    assert {code: CODE_TO_MNEMONIC[code] for code in anchors} == anchors
    assert len(CODE_TO_MNEMONIC) == 224
    assert not set(CODE_TO_MNEMONIC) & {*range(0x3E, 0x44), 0x73, 0x79, 0x7A, *range(0xE3, 0xFA)}


def test_every_opcode_keeps_its_mnemonic_and_width():
    # One "code mnemonic width" line per instruction, the whole instruction set.
    lines = (Path(__file__).parent / "data" / "dalvik_opcodes.txt").read_text().splitlines()
    pinned = [line.split() for line in lines]
    assert CODE_TO_MNEMONIC == {int(code, 16): name for code, name, _ in pinned}
    assert CODE_WIDTH == {int(code, 16): int(width) for code, _, width in pinned}
