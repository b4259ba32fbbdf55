"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

FIXTURES = Path(__file__).parent / "fixtures" / "flow"


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# -----------------------------------------------------------------------------
# 1. Backward-aligned row splitting, 10k random cases under 5 s
# -----------------------------------------------------------------------------

def test_criterion_1_row_split_property():
    from droidflow.traces import split_sequence

    rng = np.random.default_rng(101)
    master = list(range(8000))
    started = time.time()
    for _ in range(10_000):
        row_len = int(rng.integers(1, 201))
        k = int(rng.integers(0, 8001))
        seq = master[:k]
        rows = split_sequence(seq, row_len)
        q = k // row_len
        assert len(rows) == q
        assert all(len(r) == row_len for r in rows)
        flat = [v for r in rows for v in r]
        assert flat == seq[k - q * row_len :]
        if rows:
            assert rows[-1][-1] == seq[-1]
    elapsed = time.time() - started
    assert elapsed < 5.0, f"property suite took {elapsed:.2f}s"
    _report(1, f"10,000 split cases verified in {elapsed:.2f}s")


# -----------------------------------------------------------------------------
# 2. Sampling bound and tail preservation, 1k random trace sets
# -----------------------------------------------------------------------------

def test_criterion_2_sampling_invariants():
    from droidflow.traces import sample_opcodes

    rng = np.random.default_rng(202)
    for _ in range(1_000):
        y = int(rng.integers(1, 41))
        row_len = int(rng.integers(50, 201))
        budget = int(rng.integers(500, 8001))
        seqs = []
        for j in range(y):
            length = int(rng.integers(1, 4001))
            seqs.append(rng.integers(0, 256, length).tolist())
        out = sample_opcodes(seqs, budget, row_len)
        total = sum(len(seq) for seq in out)
        assert total <= max(budget, y * row_len)
        for before, after in zip(seqs, out):
            assert after[-1] == before[-1]
            assert after == before[len(before) - len(after):]
    _report(2, "1,000 random trace sets respect the budget and keep the critical tail")


# -----------------------------------------------------------------------------
# 3. Call-graph equivalence with the brute-force reference on all fixtures
# -----------------------------------------------------------------------------

def test_criterion_3_call_graph_oracle_equivalence():
    from droidflow.callgraph import build_call_graph
    from test_callgraph import ALL_FIXTURES, oracle_call_graph

    assert len(ALL_FIXTURES) >= 10
    for fx in ALL_FIXTURES:
        app = fx()
        cg = build_call_graph(app)
        nodes, edges, icc, entries = oracle_call_graph(app)
        got_edges = {(c, t) for c, ts in cg.edges.items() for t in ts}
        assert set(cg.nodes) == nodes, fx.__name__
        assert got_edges == edges, fx.__name__
        assert set(cg.icc_edges) == icc, fx.__name__
        assert set(cg.entry_points) == entries, fx.__name__
    _report(3, f"{len(ALL_FIXTURES)} fixture apps equal the iterate-until-stable reference")


# -----------------------------------------------------------------------------
# 4. Flow-graph golden files and backward-edge bijection
# -----------------------------------------------------------------------------

def test_criterion_4_flow_graph_golden_suite(tmp_path):
    from droidflow.flowgraph import BACKWARD_OF, serialize_graph
    from test_flowgraph import GOLDEN, extract

    for name in GOLDEN:
        graph, _ = extract(name)
        out = tmp_path / name
        nodes_path, edges_path = serialize_graph(graph, out)
        golden = FIXTURES / name / "golden"
        assert nodes_path.read_bytes() == (golden / "nodes.csv").read_bytes(), name
        assert edges_path.read_bytes() == (golden / "edges.csv").read_bytes(), name
        forward = [e for e in graph.edges if not e.type.startswith("b")]
        backward = {(e.source, e.target, e.type) for e in graph.edges if e.type.startswith("b")}
        assert len(graph.edges) == 2 * len(forward)
        for e in forward:
            key = (e.target, e.source, BACKWARD_OF[e.type])
            assert key in backward, name
            backward.remove(key)
        assert not backward, name
    _report(4, f"{len(GOLDEN)} edge-type fixtures byte-match their golden files")


# -----------------------------------------------------------------------------
# 5. Gradient fidelity on toy dimensions, under 60 s
# -----------------------------------------------------------------------------

@pytest.mark.usefixtures("lstm_float64")
def test_criterion_5_gradient_checks():
    from droidflow.nn import tape
    from droidflow.nn.model import (
        bilstm_batch_var,
        gnn_batch_var,
        logits_var,
        loss_var,
    )
    from droidflow.traces import SequenceMatrix
    import nn_reference as ref
    import tape_ops
    from gradcheck import grad_check
    from test_gradcheck import gnn_toy_graph
    from test_nn import tiny_gnn_params, tiny_lstm_params

    started = time.time()

    graph = gnn_toy_graph()  # 4 nodes
    gnn_params = tiny_gnn_params(np.random.default_rng(51), s=4, label_dim=3)
    probe_g = np.random.default_rng(52).normal(size=(1, 4))
    arrays = graph.arrays(3)
    init = np.random.default_rng(5).uniform(-0.1, 0.1, (len(arrays.labels), 4))

    def gnn_builder(pv):
        hg = gnn_batch_var([arrays], ref.rows_read([init], [arrays], 3), pv, 3)
        return tape_ops.pick(tape.sum_axis(tape.mul(hg, tape.constant(probe_g)), axis=1), 0, 0)

    err_gnn = grad_check(gnn_builder, gnn_params, epsilon=1e-4, seed=53)
    assert err_gnn <= 1e-4, err_gnn

    lstm_params = tiny_lstm_params(np.random.default_rng(54), units=3, embed_dim=4, layers=2)
    matrix = SequenceMatrix(np.array([[5, 110, 26, 14], [3, 9, 200, 14]]), 4)
    probe_b = np.random.default_rng(55).normal(size=(1, 32))

    def lstm_builder(pv):
        hb = bilstm_batch_var([matrix], pv, 2)
        return tape_ops.pick(tape.sum_axis(tape.mul(hb, tape.constant(probe_b)), axis=1), 0, 0)

    err_lstm = grad_check(lstm_builder, lstm_params, epsilon=1e-4, seed=56)
    assert err_lstm <= 1e-4, err_lstm

    rng = np.random.default_rng(57)
    fusion_arrays = {"fusion.w": rng.normal(size=(8, 2)), "fusion.b": rng.normal(size=2)}
    hg_c = tape.constant(rng.normal(size=(1, 5)))
    hb_c = tape.constant(rng.normal(size=(1, 3)))

    def fusion_builder(pv):
        return loss_var(logits_var(hg_c, hb_c, pv), label=1)

    err_fusion = grad_check(fusion_builder, fusion_arrays, epsilon=1e-4, seed=58)
    assert err_fusion <= 1e-6, err_fusion

    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _report(
        5,
        f"max rel errors gnn={err_gnn:.2e} bilstm={err_lstm:.2e} "
        f"fusion={err_fusion:.2e} in {elapsed:.1f}s",
    )


# -----------------------------------------------------------------------------
# 6. Metric arithmetic vs the formula oracle; ROC extremes
# -----------------------------------------------------------------------------

def test_criterion_6_metric_arithmetic():
    from droidflow.metrics import Confusion, metrics_from_confusion, roc_auc
    from test_metrics import oracle_metrics

    rng = np.random.default_rng(606)
    for _ in range(1_000):
        tp, fp, tn, fn = (int(x) for x in rng.integers(0, 200, 4))
        r = metrics_from_confusion(Confusion(tp, fp, tn, fn))
        want = oracle_metrics(tp, fp, tn, fn)
        for key, got in (
            ("accuracy", r.accuracy), ("precision", r.precision), ("recall", r.recall),
            ("f1", r.f1), ("fpr", r.fpr), ("fnr", r.fnr),
        ):
            assert abs(got - want[key]) <= 1e-12, key

    labels = [1] * 50 + [0] * 50
    perfect = [1.0 - i / 1000 for i in range(50)] + [0.4 - i / 1000 for i in range(50)]
    assert roc_auc(perfect, labels) == 1.0

    n = 10_000
    scores = rng.uniform(size=n).tolist()
    rand_labels = (rng.uniform(size=n) < 0.5).astype(int).tolist()
    auc = roc_auc(scores, rand_labels)
    assert abs(auc - 0.5) <= 0.05, auc
    _report(6, f"1,000 confusion matrices exact; perfect AUC 1.0; random AUC {auc:.3f}")


# -----------------------------------------------------------------------------
# 7. Desk-scale end-to-end training gate on the synthetic corpus
# -----------------------------------------------------------------------------

def test_criterion_7_synthetic_training_gate():
    from droidflow.appmodel import app_from_ir
    from droidflow.metrics import compute_metrics
    from droidflow.nn.model import Hyperparams, TrainConfig, score
    from droidflow.nn.train import train
    from droidflow.pipeline import PipelineConfig, extract_app
    from droidflow.tuning import split_dataset
    from synthcorpus import generate_corpus

    started = time.time()
    config = PipelineConfig()
    critical = config.critical_apis()
    apps = [app_from_ir(ir) for ir in generate_corpus(100, seed=21)]
    assert len(apps) >= 200
    extracted = [extract_app(a, critical, config) for a in apps]

    class Item:
        def __init__(self, result):
            self.result = result
            self.label = 1 if result.report["label"] == "malicious" else 0
            self.timestamp = result.report["timestamp"]

    items = [Item(r) for r in extracted]
    train_items, _, test_items = split_dataset(items, seed=3)

    # tuned optima where they matter (state 32, 10 iterations, 100-wide rows,
    # 2 layers, batch 16) with the LSTM width scaled down for CPU runtime
    hp = Hyperparams(seq_len=100, hidden_layers=2, lstm_units=32, label_dim=13,
                     iterations=10, epochs=8, batch_size=16)
    assert hp.epochs <= 25
    tc = TrainConfig(seed=3)

    def triple(item):
        return (item.result.graph, item.result.matrix, item.label)

    outcome = train([triple(i) for i in train_items], hp, tc, state_dim=32)
    scores = [
        score((i.result.graph, i.result.matrix), outcome.params, seed=tc.seed)
        for i in test_items
    ]
    labels = [i.label for i in test_items]
    _, report = compute_metrics(scores, labels, 0.5)
    elapsed = time.time() - started
    assert report.f1 >= 0.90, f"held-out F1 {report.f1:.4f}"
    assert elapsed < 1800, f"end-to-end gate took {elapsed:.0f}s"
    _report(7, f"held-out F1 {report.f1:.4f} on {len(apps)} synthetic apps in {elapsed:.0f}s")


# -----------------------------------------------------------------------------
# 8. Byte-identical pipeline runs under one seed
# -----------------------------------------------------------------------------

def test_criterion_8_pipeline_determinism(tmp_path):
    from droidflow.cli import main
    from synthcorpus import generate_corpus, write_corpus

    apps_root = tmp_path / "apps"
    write_corpus(generate_corpus(6, seed=88), apps_root)
    cfg = {
        "hyperparams": {"seq_len": 100, "hidden_layers": 1, "lstm_units": 8,
                        "label_dim": 13, "iterations": 4, "epochs": 3, "batch_size": 4},
        "train": {"learning_rate": 0.01, "seed": 17},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))

    outputs = []
    for run in ("run1", "run2"):
        base = tmp_path / run
        features = base / "features"
        model = base / "model.json"
        metrics = base / "metrics.json"
        assert main(["extract", "--apps", str(apps_root), "--out", str(features),
                     "--config", str(config)]) == 0
        assert main(["train", "--features", str(features), "--out", str(model),
                     "--config", str(config)]) == 0
        assert main(["evaluate", "--model", str(model), "--features", str(features),
                     "--out", str(metrics), "--config", str(config)]) == 0
        outputs.append((model.read_bytes(), metrics.read_bytes(),
                        sorted(p.name for p in features.rglob("*.csv"))))
    assert outputs[0][0] == outputs[1][0], "model files differ"
    assert outputs[0][1] == outputs[1][1], "metric reports differ"
    assert outputs[0][2] == outputs[1][2]
    _report(8, "two extract-train-evaluate runs are byte-identical")


# -----------------------------------------------------------------------------
# 9. Grid-search protocol: exact sweep, stratified 1/8 subsets, max-F1 pick
# -----------------------------------------------------------------------------

def test_criterion_9_grid_search_protocol():
    from droidflow.metrics import MetricReport
    from droidflow.tuning import SEARCH_SPACE, grid_search

    def mk(label):
        return SimpleNamespace(label={"benign": 0, "malicious": 1}[label], timestamp=None)

    train_items = [mk("benign") for _ in range(80)] + [mk("malicious") for _ in range(88)]
    val_items = [mk("benign") for _ in range(40)] + [mk("malicious") for _ in range(44)]

    seen = []
    subset_sizes = []

    def fake_eval(hp, tr, va):
        seen.append(hp.seq_len)
        n_b = sum(1 for i in tr if i.label == 0)
        n_m = len(tr) - n_b
        subset_sizes.append((n_b, n_m))
        f1 = {50: 0.2, 75: 0.4, 100: 0.93, 125: 0.6, 150: 0.93, 175: 0.5, 200: 0.3}[hp.seq_len]
        return MetricReport(f1, f1, f1, f1, 0.0, 0.0, f1, f1)

    results = [
        grid_search(train_items, val_items, fake_eval,
                    space={"seq_len": SEARCH_SPACE["seq_len"]}, seed=9)
        for _ in range(2)
    ]
    assert seen[:7] == [50, 75, 100, 125, 150, 175, 200]
    assert len(seen) == 14 and seen[:7] == seen[7:]

    n_b, n_m = subset_sizes[0]
    assert (n_b, n_m) == (10, 11)  # 1/8 of 80 and 88
    full_ratio = 80 / 88
    assert abs(n_b - full_ratio * n_m) <= 1.0

    # ties at F1 0.93 go to the earliest point: 100, and both runs agree
    assert results[0].best.hyper.seq_len == 100
    assert results[0].best.hyper == results[1].best.hyper
    _report(9, "7-point sweep, 10:11 stratified subset, deterministic max-F1 selection")
