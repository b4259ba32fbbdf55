import pytest

from droidflow.dalvik import CODE_TO_MNEMONIC, MNEMONIC_TO_CODE, UnknownOpcodeError
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
    assert CODE_TO_MNEMONIC[body[0][1]] == "return-void"
    assert body[0][0] == 0


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
    _, code, _, invoked = cd.methods[0].body[0]
    # invoke-virtual sits at 0x6e in the Dalvik table
    assert code == 0x6E
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
    offsets = [offset for offset, _, _, _ in cd.methods[0].body]
    # const/4 is 1 unit, const-string 2, invoke-static 3
    assert offsets == [0, 1, 3, 6]


def test_offsets_strictly_increasing_from_zero():
    cd = parse_smali_class(MINIMAL)
    for m in cd.methods:
        offs = [offset for offset, _, _, _ in m.body]
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
    assert [CODE_TO_MNEMONIC[code] for _, code, _, _ in cd.methods[0].body] == [
        "nop", "return-void"]


def test_abstract_method_has_empty_body():
    text = """\
.class La;
.super Ljava/lang/Object;
.method abstract h()V
.end method
"""
    cd = parse_smali_class(text)
    assert cd.methods[0].body == []


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
    invoke-static {v0, v1}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I
    move-result v0
    return-void
.end method
"""
    first = parse_smali_class(text)
    second = parse_smali_class(format_class(first))
    assert second == first


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
    with_target = sum(1 for _, _, _, invoked in cd.methods[0].body if invoked is not None)
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
