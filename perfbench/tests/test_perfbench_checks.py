"""Each output check passes droidflow's real output and rejects a corrupted copy."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from gen import analyze  # noqa: E402
from workloads import OPCODE_BUDGET, desk_app, paper_app  # noqa: E402

CAP = 256


@pytest.fixture(scope="module")
def outputs():
    """(record, report, raw sequences, matrix rows, flow-graph edges) per app."""
    from droidflow.pipeline import PipelineConfig, extract_app
    from droidflow.appmodel import app_from_ir
    from gen import _ir

    config = PipelineConfig()
    critical = config.critical_apis()
    out = {}
    for app in (desk_app(4, 0, True), paper_app(4, 1, "over"), paper_app(4, 2, "mal", (3, 2))):
        result = extract_app(app_from_ir(_ir(app)), critical, config)
        edges = [(e.source, e.target, e.type) for e in result.graph.edges]
        out[app.app_id] = (analyze(app, CAP).to_json(), result.report, result.raw_sequences,
                           result.matrix.rows.tolist(), edges)
    return out


def test_real_outputs_pass(outputs):
    for app_id, (rec, report, seqs, rows, edges) in outputs.items():
        assert checks.report_problems(app_id, report, rec, CAP) == []
        assert checks.trace_problems(app_id, seqs, rec) == []
        assert checks.matrix_problems(app_id, seqs, rows, 100, OPCODE_BUDGET) == []
        assert checks.graph_problems(app_id, edges) == []


def test_sampling_applies_to_the_over_budget_app(outputs):
    (rec, report, seqs, rows, _), = [v for k, v in outputs.items() if k.startswith("over")]
    assert report["sampling_applied"]
    assert len(rows) < sum(len(s) // 100 for s in seqs)


def test_dropped_trace_is_rejected(outputs):
    for app_id, (rec, report, seqs, rows, _) in outputs.items():
        assert checks.trace_problems(app_id, seqs[1:], rec)
        assert checks.report_problems(app_id, dict(report, trace_count=len(seqs) - 1), rec, CAP)


def test_trace_without_invoke_tail_is_rejected(outputs):
    app_id, (rec, _, seqs, _, _) = next(iter(outputs.items()))
    broken = [s[:-1] + [0x01] for s in seqs]
    assert checks.trace_problems(app_id, broken, rec)


def test_matrix_corruptions_are_rejected(outputs):
    for app_id, (_, _, seqs, rows, _) in outputs.items():
        assert checks.matrix_problems(app_id, seqs, rows[:-1], 100, OPCODE_BUDGET)
        shifted = [list(r) for r in rows]
        shifted[-1] = shifted[-1][1:] + [shifted[-1][0]]
        assert checks.matrix_problems(app_id, seqs, shifted, 100, OPCODE_BUDGET)


def test_missing_mirror_edge_is_rejected(outputs):
    for app_id, (*_, edges) in outputs.items():
        assert edges
        forward = next(e for e in edges if e[2] in checks.MIRROR)
        assert checks.graph_problems(app_id, [e for e in edges if e != forward])
        assert checks.graph_problems(app_id, edges + [(0, 0, "xx")])


def test_analysis_mismatches_are_rejected(outputs):
    app_id, (rec, *_) = next(iter(outputs.items()))
    found = {"nodes": list(rec["reachable"]), "entry_traces": checks.expected_traces(rec, CAP),
             "apis": list(rec["critical_apis"]), "icc_edges": list(rec["icc_edges"])}
    assert checks.analysis_problems(app_id, found, rec, CAP) == []
    assert checks.analysis_problems(app_id, dict(found, nodes=found["nodes"][1:]), rec, CAP)
    assert checks.analysis_problems(app_id, dict(found, apis=[]), rec, CAP)
    entry = next(iter(found["entry_traces"]))
    fewer = dict(found["entry_traces"], **{entry: found["entry_traces"][entry] - 1})
    assert checks.analysis_problems(app_id, dict(found, entry_traces=fewer), rec, CAP)


def test_per_entry_cap_is_applied():
    rec = {"entry_traces": {"a": 300, "b": 3, "c": 0}}
    assert checks.expected_traces(rec, CAP) == {"a": 256, "b": 3}


def test_prediction_corruptions_are_rejected():
    rows = {"a": (1, 0.812345, 0.812345), "b": (0, 0.9, 0.1)}
    scans = {"a": 0.81234512, "b": 0.10000004}
    assert checks.prediction_problems(rows, scans, ["a", "b"]) == []
    flipped = dict(rows, a=(1, 0.812345, 1 - 0.812345))
    assert checks.prediction_problems(flipped, scans, ["a", "b"])
    assert checks.prediction_problems(dict(rows, a=(0, 0.812345, 0.812345)), scans, ["a", "b"])
    assert checks.prediction_problems(dict(rows, b=(0, 1.2, -0.2)), scans, ["a", "b"])
    assert checks.prediction_problems({"a": rows["a"]}, scans, ["a", "b"])
    assert checks.prediction_problems(rows, dict(scans, a=0.8124), ["a", "b"])


def test_loss_and_f1_checks():
    assert checks.loss_problems([0.7, 0.6, 0.5], must_fall=True) == []
    assert checks.loss_problems([0.7, 0.71], must_fall=True)
    assert checks.loss_problems([0.7, 0.71], must_fall=False) == []
    assert checks.loss_problems([0.7, math.nan], must_fall=False)
    assert checks.loss_problems([], must_fall=False)
    assert checks.f1_score([0.9, 0.8, 0.2, 0.6], [1, 1, 0, 0]) == pytest.approx(0.8)


def test_extraction_report_problems():
    ok = [{"app_id": "a", "status": "ok"}, {"app_id": "b", "status": "ok"}]
    assert checks.extraction_problems(ok, ["a", "b"]) == []
    assert checks.extraction_problems(ok[:1], ["a", "b"])
    assert checks.extraction_problems([ok[0], {"app_id": "b", "status": "failed"}], ["a", "b"])
