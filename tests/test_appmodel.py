import copy
import gc
import json

import pytest

from appbuild import rows
from droidflow.appmodel import EmptyAppError, MalformedIrError, app_from_ir, load_app, offsets
from droidflow.dalvik import CODE_TO_MNEMONIC, INVOKE_CODES, UnknownOpcodeError
from droidflow.smali import parse_smali_class

THREE_CLASS_IR = {
    "app_id": "fixture",
    "classes": [
        {
            "name": "Lcom/x/Main;",
            "superclass": "Landroid/app/Activity;",
            "methods": [
                {
                    "name": "onCreate",
                    "descriptor": "(Landroid/os/Bundle;)V",
                    "body": [
                        {"mnemonic": "invoke-direct", "operands": ["{v0}", "Lcom/x/Helper;->go()V"],
                         "invoked_method": "Lcom/x/Helper;->go()V"},
                        {"mnemonic": "return-void"},
                    ],
                }
            ],
        },
        {
            "name": "Lcom/x/Helper;",
            "methods": [
                {"name": "go", "descriptor": "()V", "body": [{"mnemonic": "return-void"}]}
            ],
        },
        {"name": "Lcom/x/Unused;", "methods": []},
    ],
    "components": [{"path_name": "Lcom/x/Main;", "category": "activity"}],
}


def write_app(tmp_path, manifest=None, smali=None, meta=None, ir=None):
    root = tmp_path / "app"
    root.mkdir()
    if manifest is not None:
        (root / "AndroidManifest.xml").write_text(manifest)
    if smali:
        d = root / "smali"
        d.mkdir()
        for fname, text in smali.items():
            (d / fname).write_text(text)
    if meta is not None:
        (root / "meta.json").write_text(json.dumps(meta))
    if ir is not None:
        (root / "ir.json").write_text(json.dumps(ir))
    return root


MANIFEST = """\
<manifest xmlns:android="http://schemas.android.com/apk/res/android" package="com.x">
  <application><activity android:name=".Main"/></application>
</manifest>
"""

SMALI_CLASSES = {
    "Main.smali": ".class Lcom/x/Main;\n.super Landroid/app/Activity;\n"
    ".method onCreate(Landroid/os/Bundle;)V\n    return-void\n.end method\n",
    "A.smali": ".class Lcom/x/A;\n.super Ljava/lang/Object;\n",
    "B.smali": ".class Lcom/x/B;\n.super Ljava/lang/Object;\n",
}


def test_load_directory_app(tmp_path):
    root = write_app(tmp_path, manifest=MANIFEST, smali=SMALI_CLASSES)
    app = load_app(root)
    assert len(app.classes) == 3
    assert len(app.components) == 1
    assert app.components[0].path_name == "Lcom/x/Main;"


def test_manifest_only_is_empty_app(tmp_path):
    root = write_app(tmp_path, manifest=MANIFEST, smali={})
    (root / "smali").mkdir()
    with pytest.raises(EmptyAppError):
        load_app(root)


def test_partial_failure_keeps_good_classes(tmp_path):
    smali = dict(SMALI_CLASSES)
    smali["C.smali"] = ".class Lcom/x/C;\n.super Ljava/lang/Object;\n"
    smali["D.smali"] = ".class Lcom/x/D;\n.super Ljava/lang/Object;\n"
    smali["Bad.smali"] = ".class Lcom/x/Bad;\n.bogus directive\n"
    root = write_app(tmp_path, manifest=MANIFEST, smali=smali)
    app = load_app(root)
    assert len(app.classes) == 5
    assert len(app.diagnostics) == 1
    assert "Bad.smali" in app.diagnostics[0]


def test_meta_sidecar(tmp_path):
    root = write_app(
        tmp_path, manifest=MANIFEST, smali=SMALI_CLASSES,
        meta={"timestamp": "2020-05-01", "label": "malicious"},
    )
    app = load_app(root)
    assert app.metadata["label"] == "malicious"
    assert app.metadata["timestamp"] == "2020-05-01"


def test_ir_fixture_round(tmp_path):
    app = app_from_ir(THREE_CLASS_IR)
    assert set(app.classes) == {"Lcom/x/Main;", "Lcom/x/Helper;", "Lcom/x/Unused;"}
    main = app.classes["Lcom/x/Main;"].methods[0]
    assert main.calls == ((0, 0, "Lcom/x/Helper;->go()V"),)
    assert offsets(main.body) == [0, 3]  # invoke-direct spans 3 units
    assert main.operands == ("{v0}, Lcom/x/Helper;->go()V", "")

    root = write_app(tmp_path, ir=THREE_CLASS_IR)
    loaded = load_app(root)
    assert set(loaded.classes) == set(app.classes)


def test_method_columns_hold_no_object_per_instruction(tmp_path):
    helper = (".class Lcom/x/Helper;\n.super Ljava/lang/Object;\n.method go()V\n    nop\n"
              "    const-string v0, \"a, b\"\n    invoke-static {v0}, Lcom/x/Helper;->go()V\n"
              "    return-void\n.end method\n")
    (tmp_path / "smali").mkdir()
    (tmp_path / "ir").mkdir()
    apps = [
        load_app(write_app(tmp_path / "smali", manifest=MANIFEST,
                           smali=dict(SMALI_CLASSES, **{"Helper.smali": helper}))),
        load_app(write_app(tmp_path / "ir", ir=THREE_CLASS_IR)),
    ]
    for app in apps:
        assert sum(len(m.body) for m in app.methods_by_id.values()) > 2
        for m in app.methods_by_id.values():
            assert type(m.body) is bytes
            assert type(m.operands) is tuple and len(m.operands) == len(m.body)
            assert all(type(text) is str for text in m.operands)
            assert type(m.calls) is tuple
            for index, offset, invoked in m.calls:
                assert m.body[index] in INVOKE_CODES
                assert offset == offsets(m.body)[index] and type(invoked) is str
    helper_go = apps[0].classes["Lcom/x/Helper;"].methods[0]
    assert helper_go.operands == ("", 'v0, "a, b"', "{v0}, Lcom/x/Helper;->go()V", "")


def _gc_visits(root):
    """Objects a full collection visits from root: each gc-tracked object
    reachable from root through tracked objects, and what each refers to."""
    seen, stack = {id(root)}, [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(ref, type):
                seen.add(id(ref))
                if gc.is_tracked(ref):
                    stack.append(ref)
    return len(seen)


def _big_class(methods, per_method):
    """A smali class of `methods` methods with `per_method` instructions each."""
    cycle = ["const-string v0, \"s{i}\"", "invoke-static {{v0}}, Lcom/x/Big;->m0()V",
             "move-result v1", "nop"]
    lines = [".class Lcom/x/Big;", ".super Ljava/lang/Object;"]
    for k in range(methods):
        lines.append(f".method m{k}()V")
        lines += ["    " + cycle[i % 4].format(i=i) for i in range(per_method)]
        lines.append(".end method")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("form", ["smali", "ir"])
def test_gc_work_after_load_grows_with_methods_not_instructions(tmp_path, form):
    """A full collection pays per method, not per instruction, for a loaded
    app: the body columns are bytes, strings and tuples the GC untracks."""
    methods, per_method = 12, 500
    text = _big_class(methods, per_method)
    if form == "smali":
        root = write_app(tmp_path, manifest=MANIFEST, smali={"Big.smali": text})
    else:
        big = parse_smali_class(text)
        ir = {"classes": [{"name": big.name, "methods": [
            {"name": m.name, "descriptor": m.descriptor, "body": [
                {"mnemonic": CODE_TO_MNEMONIC[code], "operands": list(operands),
                 **({"invoked_method": invoked} if invoked else {})}
                for _, code, operands, invoked in rows(m)]}
            for m in big.methods]}]}
        root = write_app(tmp_path, ir=ir)
    app = load_app(root)
    gc.collect()
    gc.collect()
    assert sum(len(m.body) for m in app.methods_by_id.values()) == methods * per_method
    assert _gc_visits(app) < 30 * methods


@pytest.mark.parametrize("path, key", [
    (("classes", 1), "name"),
    (("classes", 0, "methods", 0), "name"),
    (("classes", 0, "methods", 0), "descriptor"),
    (("classes", 0, "methods", 0, "body", 1), "mnemonic"),
    (("components", 0), "category"),
])
def test_missing_required_key_is_a_value_error(path, key):
    ir = copy.deepcopy(THREE_CLASS_IR)
    entry = ir
    for step in path:
        entry = entry[step]
    del entry[key]
    with pytest.raises(MalformedIrError, match=repr(key)) as info:
        app_from_ir(ir)
    assert isinstance(info.value, ValueError)


def test_ir_unknown_mnemonic_is_an_unknown_opcode_error():
    ir = copy.deepcopy(THREE_CLASS_IR)
    ir["classes"][1]["methods"][0]["body"].insert(0, {"mnemonic": "nop-nop"})
    with pytest.raises(UnknownOpcodeError, match="unknown Dalvik mnemonic: 'nop-nop'"):
        app_from_ir(ir)


@pytest.mark.parametrize("instruction", [
    {"mnemonic": "nop", "invoked_method": "Lcom/x/Helper;->go()V"},
    {"mnemonic": "invoke-static", "operands": ["{}", "Lcom/x/Helper;->go()V"]},
])
def test_ir_invoked_method_is_given_on_invokes_only(instruction):
    ir = copy.deepcopy(THREE_CLASS_IR)
    ir["classes"][1]["methods"][0]["body"].insert(0, instruction)
    with pytest.raises(ValueError, match=f"{instruction['mnemonic']} with.* invoked_method"):
        app_from_ir(ir)


def test_method_lookup_walks_superclasses():
    ir = {
        "classes": [
            {"name": "Lbase;", "methods": [
                {"name": "onCreate", "descriptor": "()V", "body": [{"mnemonic": "return-void"}]}
            ]},
            {"name": "Lderived;", "superclass": "Lbase;", "methods": []},
        ],
        "components": [],
    }
    app = app_from_ir(ir)
    m = app.lookup_method("Lderived;", "onCreate")
    assert m is not None and m.owner == "Lbase;"


def test_unreadable_class_file_is_a_diagnostic_of_its_own(tmp_path):
    """A .smali path that cannot be read (a directory) or decoded (not UTF-8)
    drops only itself, with a diagnostic naming it, as a syntax error does."""
    root = write_app(tmp_path, manifest=MANIFEST, smali=SMALI_CLASSES)
    (root / "smali" / "x.smali").mkdir()
    (root / "smali" / "Latin.smali").write_bytes(
        b".class Lcom/x/Latin;\n.super Ljava/lang/Object;\n# caf\xe9\n")
    app = load_app(root)
    assert sorted(app.classes) == ["Lcom/x/A;", "Lcom/x/B;", "Lcom/x/Main;"]
    assert len(app.diagnostics) == 2
    assert any(d.startswith("smali/x.smali: ") for d in app.diagnostics)
    assert any(d.startswith("smali/Latin.smali: ") for d in app.diagnostics)


def test_methods_by_id_is_every_method_in_id_order():
    app = app_from_ir(THREE_CLASS_IR)
    assert list(app.methods_by_id) == ["Lcom/x/Helper;->go()V",
                                       "Lcom/x/Main;->onCreate(Landroid/os/Bundle;)V"]
    assert all(app.methods_by_id[mid].method_id == mid for mid in app.methods_by_id)
