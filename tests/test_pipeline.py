import gc
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import droidflow

from droidflow.apimine import CriticalApiSet
from droidflow.appmodel import app_from_ir
from droidflow.cli import main
from droidflow.flowgraph import AbstractFlowGraph, opcode_text
from droidflow.nn.model import load_model, save_model
from droidflow.pipeline import (
    ConfigError,
    ExtractResult,
    PipelineConfig,
    extract_app,
    extract_batch,
    load_features,
    write_features,
)

from synthcorpus import generate_corpus, make_app, write_corpus
from test_metrics import run_python

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
SHORT_SMS = "Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;)V"


def fixture_config(tmp_path, **hyper):
    crit = tmp_path / "critical.txt"
    crit.write_text(SHORT_SMS + "\n")
    cfg = {"critical_apis": str(crit)}
    if hyper:
        cfg["hyperparams"] = hyper
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_extract_app_report_fields():
    app = app_from_ir(json.loads((FIXTURES / "critical" / "ir.json").read_text()))
    result = extract_app(app, CriticalApiSet.of([SHORT_SMS]), PipelineConfig())
    r = result.report
    assert r["trace_count"] == 1
    assert r["graph_nodes"] == 3
    assert r["graph_edges"] == 4
    assert r["empty_matrix"] is True  # 3 opcodes < one 100-wide row
    assert result.matrix.n == 0


def test_cmd_extract_matches_golden_files(tmp_path):
    apps_root = tmp_path / "apps"
    apps_root.mkdir()
    shutil.copytree(FIXTURES / "critical", apps_root / "critical")
    config = fixture_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["extract", "--apps", str(apps_root), "--out", str(out), "--config", str(config)])
    assert rc == 0
    got_nodes = (out / "critical" / "nodes.csv").read_bytes()
    got_edges = (out / "critical" / "edges.csv").read_bytes()
    assert got_nodes == (FIXTURES / "critical" / "golden" / "nodes.csv").read_bytes()
    assert got_edges == (FIXTURES / "critical" / "golden" / "edges.csv").read_bytes()


def test_extract_no_critical_reachability_still_succeeds(tmp_path):
    apps_root = tmp_path / "apps"
    apps_root.mkdir()
    shutil.copytree(FIXTURES / "explicit_icc", apps_root / "app")
    config = fixture_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["extract", "--apps", str(apps_root), "--out", str(out), "--config", str(config)])
    assert rc == 0
    report = json.loads((out / "app" / "report.json").read_text())
    assert report["trace_count"] == 0
    assert report["matrix_rows"] == 0
    assert report["status"] == "ok"
    edges = (out / "app" / "edges.csv").read_text()
    assert "ct" not in [line.split(",")[2][:2] for line in edges.splitlines() if line]


def test_batch_reports_one_entry_per_app(tmp_path):
    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(2, seed=5), apps_root)
    broken = apps_root / "zz_broken"
    broken.mkdir()
    (broken / "ir.json").write_text("{not json")
    out = tmp_path / "features"
    reports = extract_batch(apps_root, out, CriticalApiSet.of([SHORT_SMS]), PipelineConfig())
    assert len(reports) == 5
    ok = [r for r in reports if r["status"] == "ok"]
    failed = [r for r in reports if r["status"] == "failed"]
    assert len(ok) == 4 and len(failed) == 1
    assert failed[0]["app_id"] == "zz_broken"


def test_nameless_class_fails_only_its_app(tmp_path):
    apps_root = tmp_path / "apps"
    apps_root.mkdir()
    shutil.copytree(FIXTURES / "critical", apps_root / "good")
    ir = json.loads((FIXTURES / "critical" / "ir.json").read_text())
    del ir["classes"][0]["name"]
    (apps_root / "nameless").mkdir()
    (apps_root / "nameless" / "ir.json").write_text(json.dumps(ir))
    out = tmp_path / "out"
    assert main(["extract", "--apps", str(apps_root), "--out", str(out),
                 "--config", str(fixture_config(tmp_path))]) == 0
    reports = json.loads((out / "extraction_report.json").read_text())
    assert [(r["app_id"], r["status"]) for r in reports] == [("good", "ok"), ("nameless", "failed")]
    assert reports[1]["error"] == "class without 'name'"



def _meta_is_a_directory(app_dir):
    shutil.copytree(FIXTURES / "critical", app_dir)
    (app_dir / "meta.json").mkdir()


def _meta_is_not_an_object(app_dir):
    shutil.copytree(FIXTURES / "critical", app_dir)
    (app_dir / "meta.json").write_text("[1, 2]")


def _smali_directory_beside_a_class(app_dir):
    (app_dir / "smali" / "x.smali").mkdir(parents=True)
    (app_dir / "smali" / "Main.smali").write_text(
        ".class Lx/Main;\n.super Landroid/app/Activity;\n"
        ".method onCreate()V\n    return-void\n.end method\n")


def _deep_call_chain(app_dir, length=3000):
    """onCreate -> m0 -> ... -> m{length-1} -> a critical call."""
    def call(target):
        return {"mnemonic": "invoke-static", "operands": ["{}", target],
                "invoked_method": target}

    chain = [
        {"name": f"m{i}", "descriptor": "()V", "body": [
            call(f"Lx/Chain;->m{i + 1}()V" if i + 1 < length else SHORT_SMS),
            {"mnemonic": "return-void"}]}
        for i in range(length)
    ]
    ir = {"classes": [
        {"name": "Lx/Main;", "superclass": "Landroid/app/Activity;", "methods": [
            {"name": "onCreate", "descriptor": "()V", "body": [
                call("Lx/Chain;->m0()V"), {"mnemonic": "return-void"}]}]},
        {"name": "Lx/Chain;", "methods": chain}],
        "components": [{"path_name": "Lx/Main;", "category": "activity"}]}
    app_dir.mkdir()
    (app_dir / "ir.json").write_text(json.dumps(ir))


@pytest.mark.parametrize("make_bad", [
    _meta_is_a_directory, _meta_is_not_an_object, _smali_directory_beside_a_class,
    _deep_call_chain,
], ids=["meta-directory", "meta-not-an-object", "smali-directory", "deep-call-chain"])
def test_no_app_aborts_the_batch(tmp_path, make_bad):
    """Whatever one app raises, every other app keeps its entry and the batch
    report is written; the bad app yields features or one failed entry."""
    apps_root = tmp_path / "apps"
    apps_root.mkdir()
    shutil.copytree(FIXTURES / "critical", apps_root / "good")
    make_bad(apps_root / "odd")
    config = fixture_config(tmp_path)
    config.write_text(json.dumps({**json.loads(config.read_text()),
                                  "caps": {"max_depth": 100_000}}))
    out = tmp_path / "out"
    assert main(["extract", "--apps", str(apps_root), "--out", str(out),
                 "--config", str(config)]) == 0
    reports = json.loads((out / "extraction_report.json").read_text())
    assert [r["app_id"] for r in reports] == ["good", "odd"]
    assert reports[0]["status"] == "ok" and (out / "good" / "report.json").exists()
    odd = reports[1]
    assert odd["status"] == "failed" or (out / "odd" / "report.json").exists()
    if make_bad in (_meta_is_a_directory, _meta_is_not_an_object):
        assert odd["status"] == "failed"


def _fixture_ir():
    return json.loads((FIXTURES / "critical" / "ir.json").read_text())


def _with(ir, setter):
    setter(ir)
    return ir


@pytest.mark.parametrize("document", [
    {"classes": [1]},
    _with(_fixture_ir(), lambda ir: ir["classes"][0].update(methods=[5])),
    _with(_fixture_ir(), lambda ir: ir["classes"][0]["methods"][0].update(body=[7])),
    _with(_fixture_ir(), lambda ir: ir.update(components=["Lcom/x/Main;"])),
    {"classes": 5},
    [],
], ids=["class-number", "method-number", "instruction-number", "component-string",
        "classes-number", "top-level-list"])
def test_wrongly_shaped_ir_fails_only_its_app(tmp_path, document):
    apps_root = tmp_path / "apps"
    apps_root.mkdir()
    shutil.copytree(FIXTURES / "critical", apps_root / "good")
    (apps_root / "malformed").mkdir()
    (apps_root / "malformed" / "ir.json").write_text(json.dumps(document))
    out = tmp_path / "out"
    assert main(["extract", "--apps", str(apps_root), "--out", str(out),
                 "--config", str(fixture_config(tmp_path))]) == 0
    reports = json.loads((out / "extraction_report.json").read_text())
    assert [(r["app_id"], r["status"]) for r in reports] == [("good", "ok"),
                                                             ("malformed", "failed")]
    assert reports[1]["error"].startswith("wrongly shaped IR document")


def _invoke_of(ir):
    return next(ins for m in ir["classes"][0]["methods"] for ins in m["body"]
                if "invoked_method" in ins)


@pytest.mark.parametrize("key, setter", [
    ("name", lambda ir: ir["classes"][0].update(name=5)),
    ("name", lambda ir: ir["classes"][0]["methods"][0].update(name=["onCreate"])),
    ("descriptor", lambda ir: ir["classes"][0]["methods"][0].update(descriptor=7)),
    ("superclass", lambda ir: ir["classes"][0].update(superclass=["Landroid/app/Activity;"])),
    ("interfaces", lambda ir: ir["classes"][0].update(interfaces=[5])),
    ("interfaces", lambda ir: ir["classes"][0].update(interfaces="Lx/I;")),
    ("invoked_method", lambda ir: _invoke_of(ir).update(invoked_method=5)),
    ("path_name", lambda ir: ir["components"][0].update(path_name=5)),
    ("operands", lambda ir: ir["classes"][0]["methods"][0]["body"][0].update(operands="v0, 0x1")),
    ("actions", lambda ir: ir["components"][0].update(intent_filters=[{"actions": "BOOT"}])),
    ("operands", lambda ir: ir["classes"][0]["methods"][0]["body"][0].update(operands={"v0": 1})),
    ("interfaces", lambda ir: ir["classes"][0].update(interfaces={"Lx/I;": 1})),
], ids=["class-name", "method-name", "descriptor", "superclass-list", "interface-number",
        "interfaces-string", "invoked-method-number", "path-name-number", "operands-string",
        "actions-string", "operands-object", "interfaces-object"])
def test_ir_name_that_is_not_a_string_fails_only_its_app(tmp_path, key, setter):
    apps_root = tmp_path / "apps"
    apps_root.mkdir()
    shutil.copytree(FIXTURES / "critical", apps_root / "good")
    (apps_root / "odd").mkdir()
    (apps_root / "odd" / "ir.json").write_text(json.dumps(_with(_fixture_ir(), setter)))
    reports = extract_batch(apps_root, tmp_path / "out", CriticalApiSet.of([SHORT_SMS]),
                            PipelineConfig())
    assert [(r["app_id"], r["status"]) for r in reports] == [("good", "ok"), ("odd", "failed")]
    assert f"{key!r} is not a" in reports[1]["error"]


def _padded(ir, n):
    """ir with n nops in front of every method of its first class."""
    for m in ir["classes"][0]["methods"]:
        m["body"][:0] = [{"mnemonic": "nop"}] * n
    return ir


def test_features_round_trip(tmp_path):
    # within the budget, over the 8000-opcode budget, and with no trace at all
    cases = [
        ("within-budget", make_app(0, malicious=True, seed=2), False, False),
        ("over-budget", _padded(make_app(0, malicious=True, seed=2), 3000), True, False),
        ("zero-rows", make_app(0, malicious=False, seed=2), False, True),
    ]
    config = PipelineConfig()
    for name, ir, sampled, empty in cases:
        app = app_from_ir(ir)
        result = extract_app(app, config.critical_apis(), config)
        assert result.report["sampling_applied"] == sampled, name
        assert result.report["empty_matrix"] == empty == (result.matrix.n == 0), name
        write_features(result, tmp_path / name)
        [record] = load_features(tmp_path / name)
        assert record.app_id == app.app_id
        assert record.label == (0 if empty else 1)
        assert record.raw_sequences == result.raw_sequences
        matrix = record.matrix(100, 8000)
        assert matrix.rows.shape == result.matrix.rows.shape == (result.matrix.n, 100), name
        assert (matrix.rows == result.matrix.rows).all()
        graph, expected = record.graph(13), result.graph.arrays(13)
        assert len(graph.labels) == len(result.graph)
        for part in ("labels", "src", "dst", "edge_feat"):
            assert np.array_equal(getattr(graph, part), getattr(expected, part)), (name, part)


def _write_traces(out, sequences):
    """write_features' files for an app with no chunks and these trace sequences."""
    report = {"app_id": "a", "status": "ok", "label": "malicious", "timestamp": None}
    graph = AbstractFlowGraph([], [0], [], [], [], [])
    return write_features(ExtractResult("a", graph, None, sequences, report), out)


@given(st.lists(st.lists(st.integers(0, 255), max_size=40), max_size=20))
@settings(max_examples=100, deadline=None)
def test_traces_csv_reads_back(tmp_path_factory, sequences):
    """Every traces.csv write_features writes is each sequence's opcode_text
    line and reads back, less the empty sequences, which no trace has and
    load_features drops."""
    out = tmp_path_factory.mktemp("features")
    app_dir = _write_traces(out, sequences)
    assert (app_dir / "traces.csv").read_text() == "".join(opcode_text(seq) + "\n"
                                                           for seq in sequences)
    [record] = load_features(out)
    assert record.raw_sequences == [seq for seq in sequences if seq]


def test_traces_csv_read_makes_as_many_calls_at_any_size(tmp_path):
    """load_features makes no Python call per traces.csv line: an app of 200
    traces and one of 20,000 make the same calls. Each read follows a first
    one that pays for any module numpy loads on first use, and runs without
    garbage collection, whose callbacks (hypothesis installs one) would count
    the lists read."""
    counts = []
    for n in (200, 20_000):
        sequences = [[(7 * i + k) % 256 for k in range(1 + i % 30)] for i in range(n)]
        _write_traces(tmp_path / str(n), sequences)
        load_features(tmp_path / str(n))
        events = Counter()

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                events[event] += 1

        gc.disable()
        sys.setprofile(profile)
        try:
            [record] = load_features(tmp_path / str(n))
        finally:
            sys.setprofile(None)
            gc.enable()
        assert record.raw_sequences == sequences
        counts.append(events)
    assert counts[0] == counts[1]
    assert counts[0]["call"] > 0 and counts[0]["c_call"] > 0


def _critical_app_calling(apps_root, name):
    """The critical fixture as apps_root/critical, labeled malicious, its
    method m2, whose call closes a chunk, renamed to name."""
    text = (FIXTURES / "critical" / "ir.json").read_text().replace("m2", json.dumps(name)[1:-1])
    ir = dict(json.loads(text), metadata={"label": "malicious"})
    (apps_root / "critical").mkdir(parents=True)
    (apps_root / "critical" / "ir.json").write_text(json.dumps(ir))


@pytest.mark.parametrize("name", ["m\u2028x", "m\x85y", "m\rz"])
def test_method_named_with_another_line_break_extracts_and_trains(tmp_path, name):
    """nodes.csv's fourth field holds any text but "\n", so a call to a method
    whose name holds another line break of str.splitlines reads back."""
    apps_root, features = tmp_path / "apps", tmp_path / "features"
    write_corpus(generate_corpus(1, seed=11), apps_root)
    _critical_app_calling(apps_root, name)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    assert main(["extract", "--apps", str(apps_root), "--out", str(features),
                 "--config", str(config)]) == 0
    nodes = (features / "critical" / "nodes.csv").read_bytes().decode()
    assert f"Lx/Main;->{name}()V\n" in nodes
    assert main(["train", "--features", str(features), "--out", str(tmp_path / "model.bin"),
                 "--config", str(config)]) == 0


def test_call_signature_with_a_newline_fails_its_app_alone(tmp_path, capsys):
    """A call target holding "\n" would split its nodes.csv line: its app gets
    one failed entry with nothing written, and the others train."""
    apps_root, features = tmp_path / "apps", tmp_path / "features"
    write_corpus(generate_corpus(1, seed=11), apps_root)
    _critical_app_calling(apps_root, "m\nx")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    assert main(["extract", "--apps", str(apps_root), "--out", str(features),
                 "--config", str(config)]) == 0
    reports = json.loads((features / "extraction_report.json").read_text())
    assert [r["status"] for r in reports] == ["ok", "failed", "ok"]
    assert reports[1] == {"app_id": "critical", "status": "failed", "error": (
        "cannot write nodes.csv: invoked method 'Lx/Main;->m\\nx()V' holds a line break")}
    assert not (features / "critical").exists()
    capsys.readouterr()
    assert main(["train", "--features", str(features), "--out", str(tmp_path / "model.bin"),
                 "--config", str(config)]) == 0


def test_model_file_is_the_same_at_any_blas_thread_count(tmp_path):
    """BLAS sums a long product in an order that depends on its thread count:
    train at 1 and at 2 threads, each in a fresh process, writes one model.bin.
    The padded apps' opcode rows make products long enough to differ."""
    apps_root, features = tmp_path / "apps", tmp_path / "features"
    write_corpus([_padded(make_app(i, malicious=bool(i % 2), seed=3), 2000) for i in range(4)],
                 apps_root)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hyperparams": {"lstm_units": 8, "hidden_layers": 1, "epochs": 1,
                                                  "batch_size": 4}, "train": {"seed": 5}}))
    assert main(["extract", "--apps", str(apps_root), "--out", str(features)]) == 0
    models = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(droidflow.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        model = tmp_path / f"model{threads}.bin"
        subprocess.run([sys.executable, "-m", "droidflow.cli", "train", "--features", str(features),
                        "--out", str(model), "--config", str(config)], env=env, check=True,
                       capture_output=True, timeout=120)
        models.append(model.read_bytes())
    assert models[0] == models[1]


def test_parallel_extraction_matches_sequential(tmp_path):
    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(3, seed=9), apps_root)
    config = PipelineConfig()
    critical = config.critical_apis()
    seq_out = tmp_path / "seq"
    par_out = tmp_path / "par"
    extract_batch(apps_root, seq_out, critical, config, workers=1)
    extract_batch(apps_root, par_out, critical, config, workers=2)
    seq_files = sorted(p.relative_to(seq_out) for p in seq_out.rglob("*.csv"))
    par_files = sorted(p.relative_to(par_out) for p in par_out.rglob("*.csv"))
    assert seq_files == par_files
    for rel in seq_files:
        assert (seq_out / rel).read_bytes() == (par_out / rel).read_bytes()
    assert (seq_out / "extraction_report.json").read_bytes() == \
        (par_out / "extraction_report.json").read_bytes()


def test_packaged_tables_match_code_defaults():
    from droidflow.tables import (
        data_file, default_callbacks, default_intent_senders, default_lifecycle,
        load_lifecycle_table, load_name_list,
    )

    assert load_lifecycle_table(data_file("lifecycle_methods.txt")) == default_lifecycle()
    assert load_name_list(data_file("callback_methods.txt")) == default_callbacks()
    assert set(load_name_list(data_file("intent_senders.txt"))) == set(default_intent_senders())


def test_name_list_skips_indented_comments(tmp_path):
    from droidflow.tables import load_name_list

    path = tmp_path / "names.txt"
    path.write_text("a\n  # note\n\n\tb  \n")
    assert load_name_list(path) == ("a", "b")


def test_configured_lifecycle_table_of_comments_only_gives_no_entry_points(tmp_path):
    from test_callgraph import fx_linear

    (tmp_path / "lifecycle.txt").write_text("# no lifecycle methods\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lifecycle": "lifecycle.txt"}))
    config = PipelineConfig.from_json(path)
    result = extract_app(fx_linear(), CriticalApiSet.of([SHORT_SMS]), config)
    assert result.report["entry_points"] == 0


def test_default_entry_point_tables_are_the_packaged_files_parsed_once():
    from droidflow.tables import (
        data_file, default_callbacks, default_intent_senders, default_lifecycle,
    )

    packaged = PipelineConfig(lifecycle_path=data_file("lifecycle_methods.txt"),
                              callbacks_path=data_file("callback_methods.txt"),
                              intent_senders_path=data_file("intent_senders.txt"))
    config = PipelineConfig()
    assert config.lifecycle() == packaged.lifecycle()
    assert config.callbacks() == packaged.callbacks()
    assert config.intent_senders() == packaged.intent_senders()
    assert config.lifecycle() is default_lifecycle() is PipelineConfig().lifecycle()
    assert config.callbacks() is default_callbacks() is PipelineConfig().callbacks()
    assert config.intent_senders() is default_intent_senders() is PipelineConfig().intent_senders()
    with pytest.raises(TypeError):
        default_lifecycle()["activity"] = ("onCreate",)


def test_extract_app_reads_each_configured_table_once(monkeypatch):
    from droidflow import pipeline
    from droidflow.tables import data_file

    reads = []

    def counting(loader):
        def load(path):
            reads.append(Path(path).name)
            return loader(path)
        return load

    monkeypatch.setattr(pipeline, "load_name_list", counting(pipeline.load_name_list))
    monkeypatch.setattr(pipeline, "load_lifecycle_table",
                        counting(pipeline.load_lifecycle_table))
    config = PipelineConfig(lifecycle_path=data_file("lifecycle_methods.txt"),
                            callbacks_path=data_file("callback_methods.txt"),
                            intent_senders_path=data_file("intent_senders.txt"))
    app = app_from_ir(json.loads((FIXTURES / "critical" / "ir.json").read_text()))
    first = extract_app(app, CriticalApiSet.of([SHORT_SMS]), config)
    second = extract_app(app, CriticalApiSet.of([SHORT_SMS]), config)
    assert second.report == first.report
    assert sorted(reads) == ["callback_methods.txt", "intent_senders.txt", "lifecycle_methods.txt"]
    with pytest.raises(TypeError):
        config.lifecycle()["activity"] = ("onCreate",)


def test_missing_component_class_is_reported_once():
    ir = json.loads((FIXTURES / "critical" / "ir.json").read_text())
    ir["components"].append({"path_name": "Lx/Gone;", "category": "activity"})
    report = extract_app(app_from_ir(ir), CriticalApiSet.of([SHORT_SMS]), PipelineConfig()).report
    assert [d for d in report["diagnostics"] if "Lx/Gone;" in d] == [
        "missing component class Lx/Gone;"]


def test_config_validation(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"critical_apis": "missing.txt"}))
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(path)
    path.write_text(json.dumps({"bogus_key": 1}))
    with pytest.raises(ConfigError):
        PipelineConfig.from_json(path)


def test_exit_codes(tmp_path):
    assert main(["extract", "--apps", str(tmp_path / "none")]) == 1  # missing --out
    assert main(["extract", "--apps", str(tmp_path / "none"), "--out", str(tmp_path / "o")]) == 2
    assert main(["bogus-command"]) == 1


def test_parser_builds_the_arguments_of_the_named_command_alone():
    import argparse

    import droidflow.cli as cli

    parser = cli.make_parser(["extract", "--apps", "a", "--out", "o"])
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: [f for a in p._actions for f in a.option_strings]
             for name, p in sub.choices.items()}
    assert list(flags) == ["mine-apis", "extract", "train", "tune", "predict", "evaluate"]
    assert flags.pop("extract") == ["-h", "--help", "--apps", "--out", "--config", "--workers"]
    assert all(f == ["-h", "--help"] for f in flags.values())


@pytest.mark.parametrize("cfg, message", [
    ({"hyperparams": {"hiden_layers": 1}}, "unexpected keyword argument 'hiden_layers'"),
    ({"train": {"learning_rate": -1}}, "learning_rate must be >= 0"),
    ({"caps": {"max_deep": 3}}, "unknown caps keys: ['max_deep']"),
    ({"caps": {"max_depth": "3"}}, "caps.max_depth must be an integer >= 1, not '3'"),
    ({"caps": {"max_traces_per_entry": True}},
     "caps.max_traces_per_entry must be an integer >= 1, not True"),
    ({"opcode_budget": 0}, "opcode_budget must be an integer >= 1, not 0"),
    ({"hyperparams": {"seq_len": 0}}, "seq_len must be >= 1"),
    ({"lifecycle": "one_field.txt"},
     "one_field.txt: expected a category and a method name, not 'service'"),
    ({"callbacks": "not_utf8.txt"}, "not_utf8.txt: 'utf-8' codec can't decode byte 0xff"),
    ({"critical_apis": "not_utf8.txt"}, "not_utf8.txt: 'utf-8' codec can't decode byte 0xff"),
    ([], "config must be a JSON object, not list"),
    ({"caps": 5}, "caps must be a JSON object, not 5"),
    ({"critical_apis": 5}, "config path for critical_apis must be a string, not 5"),
])
def test_malformed_config_is_an_input_error(tmp_path, capsys, cfg, message):
    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(1, seed=1), apps_root)
    (tmp_path / "one_field.txt").write_text("activity onCreate\nservice\n")
    (tmp_path / "not_utf8.txt").write_bytes(b"onClick\n\xff\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    rc = main(["extract", "--apps", str(apps_root), "--out", str(tmp_path / "features"),
               "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("input error: ") and message in err
    assert not (tmp_path / "features").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("hyperparams", "batch_size", 0, "batch_size must be >= 1"),
    ("hyperparams", "epochs", 0, "epochs must be >= 1"),
    ("hyperparams", "lstm_units", 0, "lstm_units must be >= 1"),
    ("hyperparams", "label_dim", 0, "label_dim must be >= 1"),
    ("hyperparams", "iterations", -1, "iterations must be >= 0"),
    ("hyperparams", "batch_size", True, "batch_size must be an integer, not True"),
    ("hyperparams", "epochs", 2.0, "epochs must be an integer, not 2.0"),
    ("train", "beta1", 1.0, "beta1 must be in [0, 1), not 1.0"),
    ("train", "beta2", -0.5, "beta2 must be in [0, 1), not -0.5"),
    ("train", "eps", 0, "eps must be > 0, not 0"),
    ("train", "learning_rate", float("nan"), "learning_rate must be >= 0"),
    ("train", "seed", -1, "seed must be an integer >= 0, not -1"),
    ("train", "seed", 1.5, "seed must be an integer >= 0, not 1.5"),
])
def test_train_rejects_out_of_range_config(tmp_path, capsys, section, key, value, message):
    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(1, seed=1), apps_root)
    features = tmp_path / "features"
    assert main(["extract", "--apps", str(apps_root), "--out", str(features)]) == 0
    cfg = {"hyperparams": {"hidden_layers": 1, "lstm_units": 4, "iterations": 2, "epochs": 1},
           "train": {}}
    cfg[section][key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    capsys.readouterr()
    model = tmp_path / "model.bin"
    rc = main(["train", "--features", str(features), "--out", str(model), "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("input error: ") and message in err
    assert not model.exists()


def test_negative_train_seed_flag_is_a_usage_error(tmp_path, capsys):
    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(1, seed=1), apps_root)
    features = tmp_path / "features"
    assert main(["extract", "--apps", str(apps_root), "--out", str(features)]) == 0
    capsys.readouterr()
    rc = main(["train", "--features", str(features), "--out", str(tmp_path / "m.bin"),
               "--seed", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "usage error: --seed: seed must be an integer >= 0, not -1\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_extract_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(1, seed=1), apps_root)
    features = tmp_path / "features"
    rc = main(["extract", "--apps", str(apps_root), "--out", str(features), "--workers", workers])
    assert rc == 1
    assert capsys.readouterr().err == "usage error: --workers must be at least 1\n"
    assert not features.exists()


@pytest.mark.parametrize("command", ["evaluate", "tune"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_is_a_usage_error(tmp_path, capsys, command, threshold):
    preds = tmp_path / "scored.csv"
    preds.write_text("app_id,score,label\na,0.9,1\nb,0.2,0\n")
    source = ["--predictions", str(preds)] if command == "evaluate" else \
        ["--features", str(tmp_path / "features")]
    out = tmp_path / "out"
    rc = main([command, *source, "--out", str(out), f"--threshold={threshold}"])
    assert rc == 1
    assert capsys.readouterr().err == "usage error: --threshold must be a finite number\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("", "is empty"),
    ("app_id,score,label\na,0.9,1\nb,0.2\n", "line 3 has 2 columns, its header 3"),
    ("app_id,score,label\na,0.9,yes\n", "line 2: invalid literal for int()"),
    ("app_id,score,label\na,high,1\nb,0.2,0\n", "line 2: could not convert string to float"),
    ("app_id,score,label\na,0.9,2\nb,0.1,0\nc,0.8,1\n",
     "line 2: the label must be 0 or 1 and the score finite"),
    ("app_id,score,label\na,0.9,1\nb,nan,0\n", "line 3: the label must be 0 or 1"),
    ("app_id,score,label\na,-inf,1\nb,0.2,0\n", "line 2: the label must be 0 or 1"),
], ids=["empty", "short_row", "label_not_int", "score_not_float", "label_not_binary",
        "score_nan", "score_infinite"])
def test_malformed_predictions_csv_is_an_input_error(tmp_path, capsys, text, message):
    preds = tmp_path / "preds.csv"
    preds.write_text(text)
    out = tmp_path / "metrics.json"
    capsys.readouterr()
    rc = main(["evaluate", "--predictions", str(preds), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("input error: ") and message in err
    assert not out.exists()


MINE_APIS = ["mine-apis", "--corpus", "{tmp}/corpus", "--api-docs", "{tmp}/apis.json",
             "--top-keywords", "2", "--out", "{tmp}/critical.txt"]


@pytest.mark.parametrize("bad, argv", [
    ("config.json", ["extract", "--apps", "{tmp}/corpus", "--out", "{tmp}/features",
                     "--config", "{bad}"]),
    ("apis.json", MINE_APIS),
    ("tool.txt", MINE_APIS + ["--tool-list", "{bad}"]),
    ("stopwords.txt", MINE_APIS + ["--stopwords", "{bad}"]),
    ("corpus/doc2.txt", MINE_APIS),
    ("corpus/index.json", MINE_APIS),
    ("preds.csv", ["evaluate", "--predictions", "{bad}", "--out", "{tmp}/metrics.json"]),
    (None, MINE_APIS + ["--tool-list", "{bad}"]),
    (None, ["evaluate", "--predictions", "{bad}", "--out", "{tmp}/metrics.json"]),
    (None, ["predict", "--model", "{bad}", "--features", "{tmp}/corpus",
            "--out", "{tmp}/preds.csv"]),
], ids=["config", "api-docs", "tool-list", "stopwords", "corpus-doc", "corpus-index",
        "predictions", "tool-list-dir", "predictions-dir", "model-dir"])
def test_unreadable_input_file_is_one_input_error(tmp_path, capsys, bad, argv):
    """A file that is not UTF-8 (bad names it), or a directory where a file
    belongs, is one input error naming it."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "doc1.txt").write_text("open the camera and exec commands")
    (tmp_path / "apis.json").write_text(json.dumps([{"signature": "Camera.open"}]))
    if bad is None:
        bad = tmp_path / "a_directory"
        bad.mkdir()
    else:
        bad = tmp_path / bad
        bad.write_bytes(b"\xff\n")
    capsys.readouterr()
    rc = main([arg.format(tmp=tmp_path, bad=bad) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("input error: ") and str(bad) in err


def test_mine_apis_cli_deterministic(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "doc1.txt").write_text("send sms to premium numbers leaks sms data")
    (corpus / "doc2.txt").write_text("read file from sdcard and exec commands")
    (corpus / "index.json").write_text(json.dumps({"doc1": "exploitdb_verified"}))
    api_docs = tmp_path / "apis.json"
    api_docs.write_text(json.dumps([
        {"signature": "SmsManager.sendTextMessage", "description": "send an sms message"},
        {"signature": "Camera.open", "description": "open the camera device"},
        {"signature": "Runtime.exec", "description": "exec a command in a new process"},
    ]))
    tool = tmp_path / "tool.txt"
    tool.write_text("Lsms/M;->sendDataMessage()V\nLx/Y;->unrelatedThing()V\n")
    out1 = tmp_path / "critical1.txt"
    out2 = tmp_path / "critical2.txt"
    argv = ["mine-apis", "--corpus", str(corpus), "--api-docs", str(api_docs),
            "--tool-list", str(tool), "--top-keywords", "10"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "SmsManager.sendTextMessage" in text
    assert "Camera.open" not in text


def test_mine_apis_empty_corpus_exit_code(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    api_docs = tmp_path / "apis.json"
    api_docs.write_text("[]")
    rc = main(["mine-apis", "--corpus", str(corpus), "--api-docs", str(api_docs),
               "--out", str(tmp_path / "o.txt")])
    assert rc == 2


def test_mine_apis_index_that_is_not_an_object_is_an_input_error(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "doc1.txt").write_text("open the camera and exec commands")
    (corpus / "index.json").write_text('["a"]')
    api_docs = tmp_path / "apis.json"
    api_docs.write_text(json.dumps([{"signature": "Camera.open", "description": "open"}]))
    out = tmp_path / "critical.txt"
    rc = main(["mine-apis", "--corpus", str(corpus), "--api-docs", str(api_docs),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("input error: ")
    assert f"{corpus / 'index.json'}: not a JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize("kind", [["cve"], {"cve": 1}, 3, None],
                         ids=["list", "object", "number", "null"])
def test_mine_apis_index_kind_that_is_not_a_string_is_an_input_error(tmp_path, capsys, kind):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "doc1.txt").write_text("open the camera and exec commands")
    (corpus / "index.json").write_text(json.dumps({"doc1": kind}))
    api_docs = tmp_path / "apis.json"
    api_docs.write_text(json.dumps([{"signature": "Camera.open", "description": "open"}]))
    out = tmp_path / "critical.txt"
    rc = main(["mine-apis", "--corpus", str(corpus), "--api-docs", str(api_docs),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("input error: ")
    assert f"{corpus / 'index.json'}: not a JSON object of doc_id -> source kind string" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, docs, code, message", [
    (["--top-keywords", "0"], [], 1, "--top-keywords must be at least 1"),
    # at 0 or below, every documented API would match and be critical
    (["--min-matches", "0"], [{"signature": "Camera.open"}], 1, "--min-matches must be at least 1"),
    (["--min-matches", "-1"], [{"signature": "Camera.open"}], 1,
     "--min-matches must be at least 1"),
    ([], [{"signature": "Camera.open"}, {"description": "no signature"}], 2,
     "entry 1 needs a non-empty string signature"),
    ([], [{"signature": "Camera.open"}, "Runtime.exec"], 2, "entry 1 is not an object"),
    ([], [{"signature": "", "description": "empty"}], 2,
     "entry 0 needs a non-empty string signature"),
], ids=["top-keywords-0", "min-matches-0", "min-matches-negative", "no-signature",
        "not-an-object", "empty-signature"])
def test_mine_apis_bad_input_is_one_message(tmp_path, capsys, flags, docs, code, message):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "doc1.txt").write_text("open the camera and exec commands")
    api_docs = tmp_path / "apis.json"
    api_docs.write_text(json.dumps(docs))
    out = tmp_path / "critical.txt"
    rc = main(["mine-apis", "--corpus", str(corpus), "--api-docs", str(api_docs),
               "--top-keywords", "2", *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == code
    kind = "usage error: " if code == 1 else "input error: "
    assert err.count("\n") == 1 and err.startswith(kind) and message in err
    assert not out.exists()


def test_mine_apis_warning_is_one_plain_line(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "doc1.txt").write_text("open the camera and exec commands")
    api_docs = tmp_path / "apis.json"
    api_docs.write_text(json.dumps([{"signature": "Camera.open", "description": "open the camera"}]))
    rc = main(["mine-apis", "--corpus", str(corpus), "--api-docs", str(api_docs),
               "--top-keywords", "10", "--out", str(tmp_path / "critical.txt")])
    err = capsys.readouterr().err
    assert rc == 0
    assert err.count("\n") == 1 and err.startswith("warning: requested top 10 keywords but only ")
    assert err.endswith(" are ranked\n")


def test_train_predict_evaluate_cli(tmp_path):
    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(6, seed=11), apps_root)
    features = tmp_path / "features"
    cfg = {
        "hyperparams": {"seq_len": 100, "hidden_layers": 1, "lstm_units": 8,
                        "label_dim": 13, "iterations": 4, "epochs": 3, "batch_size": 4},
        "train": {"learning_rate": 0.01, "seed": 7},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["extract", "--apps", str(apps_root), "--out", str(features),
                 "--config", str(config)]) == 0
    model_path = tmp_path / "model.json"
    assert main(["train", "--features", str(features), "--out", str(model_path),
                 "--config", str(config)]) == 0
    assert model_path.exists()
    losses = model_path.with_suffix(".losses.csv").read_text().split()[1:]
    log = [json.loads(line) for line in
           model_path.with_suffix(".train_log.jsonl").read_text().splitlines()]
    assert [entry["epoch"] for entry in log] == [0, 1, 2]
    assert [f"{e['epoch']},{e['loss']!r}" for e in log] == losses
    for entry in log:
        assert entry["wall_s"] > 0 and entry["grad_norm"] > 0
        assert entry["samples_per_s"] == pytest.approx(12 / entry["wall_s"])

    preds = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model_path), "--features", str(features),
                 "--out", str(preds), "--config", str(config)]) == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "app_id,label,probability,malicious_score"
    assert len(lines) == 13

    metrics_path = tmp_path / "metrics.json"
    assert main(["evaluate", "--model", str(model_path), "--features", str(features),
                 "--out", str(metrics_path), "--config", str(config)]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert set(metrics) >= {"accuracy", "precision", "recall", "f1", "fpr", "fnr",
                            "roc_auc", "prc_auc", "confusion"}
    # converged toy model labels its own training apps correctly
    assert metrics["accuracy"] >= 0.9
    by_app = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert all(lbl == "1" for app, lbl in by_app.items() if app.startswith("mal"))


TINY_CONFIG = {
    "hyperparams": {"seq_len": 20, "hidden_layers": 1, "lstm_units": 4,
                    "label_dim": 13, "iterations": 2, "epochs": 1, "batch_size": 4},
}


def _tiny_features(tmp_path):
    """Features of two synthetic apps, one per class, and a config to train on them."""
    apps_root, features = tmp_path / "apps", tmp_path / "features"
    write_corpus(generate_corpus(1, seed=11), apps_root)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    assert main(["extract", "--apps", str(apps_root), "--out", str(features),
                 "--config", str(config)]) == 0
    return features, config


@pytest.mark.parametrize("source, meta", [
    ("meta.json", {"timestamp": 2020}),
    ("meta.json", {"label": ["malicious"]}),
    ("ir.json", {"label": 1}),
], ids=["meta-timestamp-int", "meta-label-list", "ir-label-int"])
def test_label_or_timestamp_of_the_wrong_type_fails_its_app_at_extraction(tmp_path, source, meta):
    """An app whose label or timestamp is neither a string nor null gets one
    failed entry, so every report the batch writes loads."""
    apps_root = tmp_path / "apps"
    apps_root.mkdir()
    shutil.copytree(FIXTURES / "critical", apps_root / "good")
    (apps_root / "odd").mkdir()
    ir = _fixture_ir()
    if source == "ir.json":
        ir["metadata"] = meta
    else:
        (apps_root / "odd" / "meta.json").write_text(json.dumps(meta))
    (apps_root / "odd" / "ir.json").write_text(json.dumps(ir))
    out = tmp_path / "out"
    assert main(["extract", "--apps", str(apps_root), "--out", str(out),
                 "--config", str(fixture_config(tmp_path))]) == 0
    reports = json.loads((out / "extraction_report.json").read_text())
    assert [(r["app_id"], r["status"]) for r in reports] == [("good", "ok"), ("odd", "failed")]
    assert reports[1]["error"] == "odd: label and timestamp must be strings or null"
    assert [r.app_id for r in load_features(out)] == ["good"]


@pytest.mark.parametrize("command, fields", [
    ("train", {"label": ["malicious"]}),
    ("tune", {"label": "benign", "timestamp": 2017}),
], ids=["label_list", "timestamp_int"])
def test_report_label_or_timestamp_of_the_wrong_type_is_an_input_error(
        tmp_path, capsys, command, fields):
    """A report.json label or timestamp that is neither a string nor null
    fails load_features, naming the report, before train or tune reads it."""
    features, config = _tiny_features(tmp_path)
    report = sorted(p for p in features.iterdir() if p.is_dir())[0] / "report.json"
    report.write_text(json.dumps({**json.loads(report.read_text()), **fields}))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main([command, "--features", str(features), "--out", str(out), "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"input error: {report}: label and timestamp must be strings or null\n"
    assert not out.exists()


def test_evaluate_rejects_the_csv_predict_writes(tmp_path, capsys):
    """predict's label column is the predicted label, and it has no score
    column: scored as truth, it would agree with itself."""
    features, config = _tiny_features(tmp_path)
    model, preds = tmp_path / "model.bin", tmp_path / "preds.csv"
    assert main(["train", "--features", str(features), "--out", str(model),
                 "--config", str(config)]) == 0
    assert main(["predict", "--model", str(model), "--features", str(features),
                 "--out", str(preds), "--config", str(config)]) == 0
    out = tmp_path / "metrics.json"
    capsys.readouterr()
    rc = main(["evaluate", "--predictions", str(preds), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"input error: predictions CSV {preds} has no score column\n"
    assert not out.exists()


def test_evaluate_rejects_a_model_with_nan_outputs(tmp_path):
    """A model whose weights went NaN scores NaN, which evaluate rejects in
    one line. It runs in a subprocess: the curve areas once looped forever
    on a NaN score."""
    features, config = _tiny_features(tmp_path)
    model_path = tmp_path / "model.bin"
    assert main(["train", "--features", str(features), "--out", str(model_path),
                 "--config", str(config)]) == 0
    model = load_model(model_path)
    model.weights["fusion.b"][:] = np.nan
    save_model(model, model_path)
    out = tmp_path / "metrics.json"
    proc = run_python("import sys; from droidflow.cli import main; sys.exit(main(sys.argv[1:]))",
                      "evaluate", "--model", str(model_path), "--features", str(features),
                      "--out", str(out), "--config", str(config))
    assert proc.returncode == 2
    assert proc.stderr == ("input error: a score is NaN or infinite: "
                           "the model's outputs are unusable\n")
    assert not out.exists()


def test_model_that_does_not_fit_names_its_file(tmp_path, capsys):
    features, config = _tiny_features(tmp_path)
    model = tmp_path / "model.bin"
    model.write_text("garbage")
    capsys.readouterr()
    rc = main(["predict", "--model", str(model), "--features", str(features),
               "--out", str(tmp_path / "preds.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"input error: {model}: model header is not JSON: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "preds.csv").exists()


def test_bad_config_value_names_its_file(tmp_path, capsys):
    features, _ = _tiny_features(tmp_path)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"hyperparams": {"epochs": 0}}))
    model = tmp_path / "model.bin"
    capsys.readouterr()
    rc = main(["train", "--features", str(features), "--out", str(model),
               "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"input error: {config}: bad hyperparams or train config: epochs must be >= 1\n"
    assert not model.exists()


@pytest.mark.parametrize("content", [
    *(f"1|2\n14|{value}|110\n" for value in ("x", "300", "-1", "007", "+5", " 3", "")),
    "1|2\n14|\n", "1|2\n|14\n", "1|2\r\n14\r\n", "1|2\n14,110\n", "1|2\n14",
], ids=repr)
def test_corrupt_traces_csv_is_an_input_error(tmp_path, capsys, content):
    """A traces.csv not as write_features writes it names its first bad line."""
    features, config = _tiny_features(tmp_path)
    traces = sorted(features.glob("*/traces.csv"))[0]
    traces.write_text(content, newline="")
    model = tmp_path / "model.bin"
    capsys.readouterr()
    rc = main(["train", "--features", str(features), "--out", str(model),
               "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 2
    line = 1 if "\r" in content else 2
    assert err == f'input error: {traces} line {line}: expected opcodes 0-255 joined by "|"\n'
    assert not model.exists()


def _bad_node_id(path):
    first, rest = path.read_text().split("\n", 1)
    path.write_text("x" + first[first.index(","):] + "\n" + rest)
    return ('line 1: expected id,offset,opcodes,text with ids 0, 1, 2, ... '
            'and opcodes 0-255 joined by "|"')


def _unknown_edge_type(path):
    path.write_text("0,0,zz\n")
    return "line 1: unknown edge type 'zz'"


@pytest.mark.parametrize("name, corrupt", [
    ("nodes.csv", _bad_node_id),
    ("edges.csv", _unknown_edge_type),
], ids=["nodes", "edges"])
def test_corrupt_graph_file_error_names_its_app(tmp_path, capsys, name, corrupt):
    apps_root, features = tmp_path / "apps", tmp_path / "features"
    write_corpus(generate_corpus(2, seed=11), apps_root)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    assert main(["extract", "--apps", str(apps_root), "--out", str(features),
                 "--config", str(config)]) == 0
    bad = sorted(features.glob(f"*/{name}"))[2]
    detail = corrupt(bad)
    capsys.readouterr()
    rc = main(["train", "--features", str(features), "--out", str(tmp_path / "model.bin"),
               "--config", str(config)])
    assert rc == 2
    assert capsys.readouterr().err == f"input error: {bad} {detail}\n"


@pytest.mark.parametrize("content, message", [
    (b"[1]", "{report} is not a JSON object with a string app_id\n"),
    (b'{"status": "ok"}', "{report} is not a JSON object with a string app_id\n"),
    (b"nope", "cannot read {report}: Expecting value: line 1 column 1 (char 0)\n"),
    (b"\xff", "cannot read {report}: 'utf-8' codec can't decode byte 0xff"),
    (None, "cannot read {report}: [Errno 21] Is a directory"),
], ids=["list", "no-app-id", "not-json", "not-utf8", "directory"])
def test_malformed_report_json_is_an_input_error(tmp_path, capsys, content, message):
    features, config = _tiny_features(tmp_path)
    report = sorted(features.glob("*/report.json"))[1]
    if content is None:
        report.unlink()
        report.mkdir()
    else:
        report.write_bytes(content)
    capsys.readouterr()
    rc = main(["train", "--features", str(features), "--out", str(tmp_path / "model.bin"),
               "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error: " + message.format(report=report))


@pytest.mark.parametrize("content, message", [
    (b"\xff", "cannot read {traces}: 'utf-8' codec can't decode byte 0xff"),
    (None, "cannot read {traces}: [Errno 21] Is a directory"),
], ids=["not-utf8", "directory"])
def test_unreadable_traces_csv_is_an_input_error(tmp_path, capsys, content, message):
    features, config = _tiny_features(tmp_path)
    traces = sorted(features.glob("*/traces.csv"))[1]
    if content is None:
        traces.unlink()
        traces.mkdir()
    else:
        traces.write_bytes(content)
    capsys.readouterr()
    rc = main(["train", "--features", str(features), "--out", str(tmp_path / "model.bin"),
               "--config", str(config)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error: " + message.format(traces=traces))


def test_missing_traces_csv_is_an_input_error(tmp_path, capsys):
    """extract writes a traces.csv for every app it reports ok, so one that
    is missing is an input error, not an app without traces."""
    features, config = _tiny_features(tmp_path)
    traces = sorted(features.glob("*/traces.csv"))[1]
    traces.unlink()
    capsys.readouterr()
    rc = main(["train", "--features", str(features), "--out", str(tmp_path / "model.bin"),
               "--config", str(config)])
    assert rc == 2
    assert capsys.readouterr().err == (f"input error: cannot read {traces}: "
                                       f"[Errno 2] No such file or directory: '{traces}'\n")


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("name", ["nodes.csv", "edges.csv"])
def test_non_utf8_graph_file_is_an_input_error(tmp_path, capsys, name, command):
    features, config = _tiny_features(tmp_path)
    model, preds = tmp_path / "model.bin", tmp_path / "preds.csv"
    common = ["--features", str(features), "--config", str(config)]
    if command == "predict":
        assert main(["train", "--out", str(model), *common]) == 0
    bad = sorted(features.glob(f"*/{name}"))[1]
    bad.write_bytes(b"\xff" + bad.read_bytes()[1:])
    capsys.readouterr()
    args = ["train", "--out", str(model)] if command == "train" else \
        ["predict", "--model", str(model), "--out", str(preds)]
    rc = main([*args, *common])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"input error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
    assert not (model if command == "train" else preds).exists()


def test_diverged_training_exit_code(tmp_path, monkeypatch):
    import droidflow.cli as cli
    from droidflow.nn.train import DivergedLossError

    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(2, seed=1), apps_root)
    features = tmp_path / "features"
    assert main(["extract", "--apps", str(apps_root), "--out", str(features)]) == 0

    def explode(*args, **kwargs):
        raise DivergedLossError("loss went non-finite")

    monkeypatch.setattr(cli, "train", explode)
    rc = main(["train", "--features", str(features), "--out", str(tmp_path / "m.json")])
    assert rc == 3


def test_train_seed_keeps_the_rest_of_the_train_config(tmp_path, monkeypatch):
    import droidflow.cli as cli

    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(1, seed=1), apps_root)
    features = tmp_path / "features"
    assert main(["extract", "--apps", str(apps_root), "--out", str(features)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"learning_rate": 0.01, "beta1": 0.5,
                                            "beta2": 0.99, "eps": 1e-6, "seed": 1}}))
    seen = []

    def fake_train(dataset, hyper, train_config, progress=None):
        seen.append(train_config)
        raise DivergedLossError("stop before training")

    from droidflow.nn.train import DivergedLossError

    monkeypatch.setattr(cli, "train", fake_train)
    assert main(["train", "--features", str(features), "--out", str(tmp_path / "m.json"),
                 "--config", str(config), "--seed", "42"]) == 3
    [train_config] = seen
    assert (train_config.learning_rate, train_config.beta1, train_config.beta2,
            train_config.eps, train_config.seed) == (0.01, 0.5, 0.99, 1e-6, 42)


def test_predict_runs_one_forward_pass_per_app(tmp_path, monkeypatch):
    from droidflow.nn import model as nnmodel

    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(2, seed=4), apps_root)
    features = tmp_path / "features"
    assert main(["extract", "--apps", str(apps_root), "--out", str(features)]) == 0
    hyper = nnmodel.Hyperparams(hidden_layers=1, lstm_units=4, iterations=2)
    model_path = tmp_path / "model.json"
    nnmodel.save_model(nnmodel.init_model(hyper, seed=3), model_path)
    model = nnmodel.load_model(model_path)
    records = load_features(features)
    expected = ["app_id,label,probability,malicious_score"]
    for rec in records:
        [probs] = nnmodel.probabilities([(rec.graph(hyper.label_dim), rec.matrix(100, 8000))],
                                         model)
        label = int(np.argmax(probs))
        expected.append(f"{rec.app_id},{label},{probs[label]:.6f},{probs[1]:.6f}")

    graphs_run = []
    gnn_batch_var = nnmodel.gnn_batch_var

    def counting(graphs, *args, **kwargs):
        graphs_run.extend(graphs)
        return gnn_batch_var(graphs, *args, **kwargs)

    monkeypatch.setattr(nnmodel, "gnn_batch_var", counting)
    preds = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(model_path), "--features", str(features),
                 "--out", str(preds)]) == 0
    assert len(graphs_run) == len(records) == 4
    assert preds.read_text() == "\n".join(expected) + "\n"


def test_predict_evaluate_and_tune_score_in_the_same_capped_batches(tmp_path, monkeypatch):
    from droidflow import cli
    from droidflow.nn import model as nnmodel

    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(8, seed=13), apps_root)
    features = tmp_path / "features"
    cfg = {
        "hyperparams": {"seq_len": 100, "hidden_layers": 1, "lstm_units": 4,
                        "label_dim": 13, "iterations": 2, "epochs": 1, "batch_size": 4},
        "train": {"learning_rate": 0.01, "seed": 3},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    model_path = tmp_path / "model.bin"
    assert main(["extract", "--apps", str(apps_root), "--out", str(features),
                 "--config", str(config)]) == 0
    assert main(["train", "--features", str(features), "--out", str(model_path),
                 "--config", str(config)]) == 0

    # A cap of two rows: the corpus's apps hold 0, 2 or 3 rows.
    monkeypatch.setattr(nnmodel, "BATCH_ROW_UNITS", 2 * 4)
    runs = []   # per command, or per tuning point: the row counts of each batch scored
    probabilities, train = cli.probabilities, cli.train
    monkeypatch.setattr(cli, "probabilities", lambda pairs, *args, **kwargs:
                        runs[-1].append([m.n for _, m in pairs])
                        or probabilities(pairs, *args, **kwargs))
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs:
                        runs.append([]) or train(*args, **kwargs))
    runs.append([])
    assert main(["predict", "--model", str(model_path), "--features", str(features),
                 "--out", str(tmp_path / "preds.csv"), "--config", str(config)]) == 0
    runs.append([])
    assert main(["evaluate", "--model", str(model_path), "--features", str(features),
                 "--out", str(tmp_path / "metrics.json"), "--config", str(config)]) == 0
    assert main(["tune", "--features", str(features), "--out", str(tmp_path / "grid.csv"),
                 "--config", str(config), "--factor", "iterations"]) == 0
    predicted, evaluated, *tuned = runs
    assert predicted == evaluated
    assert [n for batch in predicted for n in batch] == \
        [rec.matrix(100, 8000).n for rec in load_features(features)]
    assert any(len(batch) > 1 for batch in predicted)
    assert len(tuned) == 4   # one training per iteration count

    def cost(rows):
        return sum(max(1, n) for n in rows)

    for batches in [predicted] + tuned:
        assert batches
        for batch, after in zip(batches, batches[1:] + [None]):
            assert len(batch) == 1 or cost(batch) <= 2
            assert after is None or cost(batch + after[:1]) > 2


def test_evaluate_hand_built_predictions(tmp_path):
    # known confusion at threshold 0.5: tp=3 fp=1 tn=4 fn=2
    rows = ["app_id,score,label"]
    rows += [f"tp{i},0.9,1" for i in range(3)]
    rows += ["fp0,0.8,0"]
    rows += [f"tn{i},0.2,0" for i in range(4)]
    rows += [f"fn{i},0.1,1" for i in range(2)]
    preds = tmp_path / "preds.csv"
    preds.write_text("\n".join(rows) + "\n")
    out = tmp_path / "metrics.json"
    assert main(["evaluate", "--predictions", str(preds), "--out", str(out)]) == 0
    m = json.loads(out.read_text())
    assert m["accuracy"] == pytest.approx(0.7)
    assert m["precision"] == pytest.approx(0.75)
    assert m["recall"] == pytest.approx(0.6)
    assert m["f1"] == pytest.approx(6 / 9)
    assert m["fpr"] == pytest.approx(0.2)
    assert m["fnr"] == pytest.approx(0.4)
    assert m["confusion"] == {"tp": 3, "fp": 1, "tn": 4, "fn": 2}


def test_tune_cli_single_factor(tmp_path):
    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(8, seed=13), apps_root)
    features = tmp_path / "features"
    cfg = {
        "hyperparams": {"seq_len": 100, "hidden_layers": 1, "lstm_units": 4,
                        "label_dim": 13, "iterations": 3, "epochs": 2, "batch_size": 4},
        "train": {"learning_rate": 0.01, "seed": 3},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["extract", "--apps", str(apps_root), "--out", str(features),
                 "--config", str(config)]) == 0
    grid = tmp_path / "grid.csv"
    assert main(["tune", "--features", str(features), "--out", str(grid),
                 "--config", str(config), "--factor", "iterations"]) == 0
    lines = grid.read_text().splitlines()
    assert len(lines) == 1 + 4  # header + the four iteration-count points
    assert [line.split(",")[4] for line in lines[1:]] == ["6", "8", "10", "12"]
