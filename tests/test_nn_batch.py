"""The batched model against the per-sample reference in nn_reference.py:
the fused LSTM op by finite differences, one mini-batch tape against one
tape per sample, and a whole training run against the per-sample trainer;
and a mini-batch over the row cap, split into parts, against one tape."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import nn_reference as ref
from droidflow import cli
from droidflow.appmodel import app_from_ir
from droidflow.flowgraph import FlowEdge
from droidflow.nn import model as nnmodel
from droidflow.nn import tape
from droidflow.nn import train as trainer
from droidflow.nn.model import (
    BATCH_ROW_UNITS,
    Hyperparams,
    TrainConfig,
    bilstm_batch_var,
    forward_var,
    gnn_batch_var,
    init_model,
    logits_var,
    loss_var,
    param_vars,
    probabilities,
)
from droidflow.nn.train import train
from droidflow.pipeline import PipelineConfig, extract_app
from droidflow.traces import SequenceMatrix

from gradcheck import grad_check
from synthcorpus import generate_corpus
from test_gradcheck import gnn_toy_graph
from test_nn import chunk, graph_of
from test_nn_tape import scalar


@pytest.mark.usefixtures("lstm_float64")
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("dense", [False, True])
def test_fused_lstm_gradients(reverse, dense):
    rng = np.random.default_rng(61 + 2 * dense + reverse)
    units, d, steps, rows = 3, 4, 5, 3
    arrays = {
        "wx": rng.normal(0, 0.5, (d, 4 * units)),
        "wh": rng.normal(0, 0.5, (units, 4 * units)),
        "b": rng.normal(0, 0.5, 4 * units),
    }
    if dense:   # layers 1 and up: a time-major (T, N, d) input
        arrays["x"] = rng.normal(0, 0.5, (steps, rows, d))
        tokens = None
    else:       # layer 0: a lookup table the tokens pick rows of
        arrays["x"] = rng.normal(0, 0.5, (7, d))
        tokens = np.array([[0, 3, 3, 6, 1], [2, 2, 0, 5, 4], [6, 1, 0, 0, 3]])
    probe = tape.constant(rng.normal(size=(steps, rows, units)))

    def builder(pv):
        h = tape.lstm(pv["x"], pv["wx"], pv["wh"], pv["b"], reverse=reverse, tokens=tokens)
        return scalar(tape.mul(h, probe))

    err = grad_check(builder, arrays, epsilon=1e-4, n_coords=100, seed=5)
    assert err <= 1e-4, err


def test_float32_lstm_tracks_float64(monkeypatch):
    # The paper's width: 256 units, two layers, 100-step rows. Against the
    # float64 op, the float32 op's hidden states and its five kinds of input
    # gradient (embedding, layer input x, wx, wh, b) differ by at most 1e-5
    # of each array's largest entry (about 1e-6 measured), and every gradient
    # is float64.
    model = init_model(Hyperparams(lstm_units=256, hidden_layers=2), seed=69)
    rng = np.random.default_rng(70)
    tokens = rng.integers(0, 256, (4, 100))
    probe = tape.constant(rng.normal(size=(100, 4, 512)))

    def run():
        pv = param_vars(model)
        x_grads = []

        def layer(x, li, tokens=None):
            return tape.concat([tape.lstm(x, pv[f"lstm.l{li}.{d}.wx"], pv[f"lstm.l{li}.{d}.wh"],
                                          pv[f"lstm.l{li}.{d}.b"], reverse=d == "bwd",
                                          tokens=tokens)
                                for d in ("fwd", "bwd")], axis=2)

        h0 = layer(pv["lstm.embedding"], 0, tokens)
        # an identity node that records the gradient reaching layer 1's input
        x1 = tape.Var(h0.value, ((h0, lambda g: x_grads.append(g) or g),), dtype=h0.value.dtype)
        h1 = layer(x1, 1)
        tape.backward(scalar(tape.mul(h1, probe)))
        got = {"h0": h0.value, "h1": h1.value, "x1.grad": x_grads[0]}
        got.update((name + ".grad", v.grad) for name, v in pv.items() if v.grad is not None)
        return got

    low = run()
    with monkeypatch.context() as m:
        m.setattr(tape, "LSTM_DTYPE", np.float64)
        ref = run()
    assert low["h1"].dtype == np.float32
    assert set(low) == set(ref) and len(ref) == 3 + 1 + 2 * 2 * 3
    for name, want in ref.items():
        if name.endswith(".grad"):
            assert low[name].dtype == np.float64, name
        err = np.abs(low[name] - want).max() / np.abs(want).max()
        assert err <= 1e-5, (name, err)


def mixed_samples():
    """(index, (graph, matrix, label)) samples covering every batch edge case."""
    sources_only = graph_of(
        [chunk(0, [110, 14]), chunk(1, [26]), chunk(2, [112, 0])],
        [FlowEdge(0, 1, "ct"), FlowEdge(1, 2, "is")],   # node 0 sends, receives nothing
    )
    edge_free = graph_of([chunk(0, [14]), chunk(1, [0, 14])], [])
    empty = graph_of([], [])
    rows = np.random.default_rng(62).integers(0, 256, (6, 4))
    return [
        (4, (gnn_toy_graph(), SequenceMatrix(rows[:3], 4), 1)),
        (9, (empty, SequenceMatrix(rows[3:4], 4), 0)),
        (2, (edge_free, SequenceMatrix.empty(4), 0)),
        (7, (sources_only, SequenceMatrix(rows[4:6], 4), 1)),
        (0, (empty, SequenceMatrix.empty(4), 1)),
    ]


@pytest.mark.usefixtures("lstm_float64")
@pytest.mark.parametrize("iterations", [1, 2, 5])
def test_batch_matches_per_sample_reference(iterations):
    hp = Hyperparams(seq_len=4, hidden_layers=2, lstm_units=3, label_dim=3,
                     iterations=iterations, epochs=1, batch_size=5)
    model = init_model(hp, seed=63, state_dim=4, embed_dim=5)
    samples = mixed_samples()
    seed = 17
    ref_losses, ref_grads = ref.batch_grads(model, samples, seed)

    pv = param_vars(model)
    graphs = [g.arrays(hp.label_dim) for _, (g, _, _) in samples]
    init_states = [
        np.random.default_rng((seed, idx)).uniform(-0.1, 0.1, (len(a.labels), 4))
        for (idx, _), a in zip(samples, graphs)
    ]
    hg = gnn_batch_var(graphs, init_states, pv, hp.iterations)
    hb = bilstm_batch_var([m for _, (_, m, _) in samples], pv, hp.hidden_layers)
    lv = loss_var(logits_var(hg, hb, pv), [label for _, (_, _, label) in samples])
    tape.backward(lv)

    assert abs(float(lv.value) - np.mean(ref_losses)) <= 1e-10
    grads = {name: v.grad for name, v in pv.items() if v.grad is not None}
    assert set(grads) == set(ref_grads)
    if iterations == 1:
        assert "gnn.w1" not in grads and "gnn.w2" not in grads
    for name, g in grads.items():
        scale = np.abs(ref_grads[name]).max()
        assert np.abs(g - ref_grads[name]).max() <= 1e-9 * scale, name


@pytest.mark.usefixtures("lstm_float64")
def test_training_run_matches_per_sample_trainer():
    config = PipelineConfig()
    critical = config.critical_apis()
    dataset = []
    for ir in generate_corpus(7, seed=5):
        result = extract_app(app_from_ir(ir), critical, config)
        label = int(result.report["label"] == "malicious")
        dataset.append((result.graph, result.matrix, label))
    assert any(m.n == 0 for _, m, _ in dataset) and any(not g.edges for g, _, _ in dataset)
    hp = Hyperparams(seq_len=100, hidden_layers=2, lstm_units=8, label_dim=13,
                     iterations=4, epochs=3, batch_size=4)
    assert len(dataset) % hp.batch_size
    tc = TrainConfig(learning_rate=0.01, seed=7)
    got = train(dataset, hp, tc, state_dim=8)
    want = ref.train(dataset, hp, tc, state_dim=8)
    assert np.abs(np.subtract(got.epoch_losses, want.epoch_losses)).max() <= 1e-12
    for (name, a), (_, b) in zip(got.params.weights.items(), want.params.weights.items()):
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max(), name


def test_training_gradients_stay_float64():
    # The float32 LSTM op returns float64 gradients, so Adam sees no float32.
    hp = Hyperparams(seq_len=4, hidden_layers=2, lstm_units=3, label_dim=3,
                     iterations=5, epochs=1, batch_size=5)
    model = init_model(hp, seed=64, state_dim=4, embed_dim=5)
    samples = mixed_samples()
    _, grads = trainer._batch_step(
        model, [g.arrays(hp.label_dim) for _, (g, _, _) in samples],
        [m for _, (_, m, _) in samples], np.array([label for _, (_, _, label) in samples]),
        [(17, idx) for idx, _ in samples])
    assert set(grads) == set(model.weights)
    assert all(g.dtype == np.float64 for g in grads.values())


@pytest.mark.usefixtures("lstm_float64")
def test_split_batch_matches_one_tape(monkeypatch):
    # A cap of three rows cuts the costs [3, 1, 1, 2, 1] into three parts.
    hp = Hyperparams(seq_len=4, hidden_layers=2, lstm_units=3, label_dim=3,
                     iterations=5, epochs=1, batch_size=5)
    model = init_model(hp, seed=64, state_dim=4, embed_dim=5)
    samples = mixed_samples()
    args = (model, [g.arrays(hp.label_dim) for _, (g, _, _) in samples],
            [m for _, (_, m, _) in samples], np.array([label for _, (_, _, label) in samples]),
            [(17, idx) for idx, _ in samples])
    whole_losses, whole = trainer._batch_step(*args)
    parts = []
    monkeypatch.setattr(nnmodel, "BATCH_ROW_UNITS", 3 * hp.lstm_units)
    monkeypatch.setattr(trainer, "forward_var", lambda m, pv, graphs, *rest:
                        parts.append(len(graphs)) or forward_var(m, pv, graphs, *rest))
    split_losses, split = trainer._batch_step(*args)
    assert parts == [1, 2, 2]
    assert np.abs(np.subtract(split_losses, whole_losses)).max() <= 1e-12
    assert set(split) == set(whole)
    for name, g in split.items():
        assert np.abs(g - whole[name]).max() <= 1e-12, name


def test_training_memory_stays_within_the_row_cap():
    # One step over three caps' worth of long apps peaks near one cap's worth.
    hp = Hyperparams(seq_len=8, hidden_layers=1, lstm_units=32, label_dim=3,
                     iterations=2, epochs=1)
    cap_rows = BATCH_ROW_UNITS // hp.lstm_units
    rows = np.random.default_rng(65).integers(0, 256, (cap_rows // 4, hp.seq_len))
    app = (graph_of([], []), SequenceMatrix(rows, hp.seq_len))

    def peak_mb(n_apps):
        dataset = [app + (k % 2,) for k in range(n_apps)]
        tracemalloc.start()
        try:
            train(dataset, hp.replace(batch_size=n_apps), TrainConfig(seed=5),
                  state_dim=4, embed_dim=8)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    at_cap, over = peak_mb(4), peak_mb(12)
    assert over < 1.5 * at_cap, (over, at_cap)


def test_cross_app_batch_scores_each_app_as_alone(monkeypatch):
    hp = Hyperparams(seq_len=4, hidden_layers=1, lstm_units=256, label_dim=3, iterations=3)
    model = init_model(hp, seed=66, state_dim=4, embed_dim=5)
    cap_rows = BATCH_ROW_UNITS // hp.lstm_units
    rows = np.random.default_rng(67).integers(0, 256, (cap_rows + 9, 4))
    one_row = np.random.default_rng(68).integers(0, 256, (1, 4))
    pairs = [
        (gnn_toy_graph(), SequenceMatrix.empty(4)),                      # no rows
        (graph_of([], []), SequenceMatrix(rows[:5], 4)),    # no nodes
        (gnn_toy_graph(), SequenceMatrix(rows[5 : cap_rows + 6], 4)),    # over the cap
        (mixed_samples()[3][1][0], SequenceMatrix(rows[cap_rows + 6 :], 4)),   # a sender only
        (gnn_toy_graph(), SequenceMatrix(one_row, 4)),                   # one row
    ]
    # Scored alone, the one-row app's (1, u) @ (u, 4u) recurrent products take
    # numpy's matrix-vector path, whose float32 sums round apart from the
    # matrix product of a batch: it gets its own bound, far inside the 5e-7
    # that perfbench allows between predict and the per-app scan.
    bounds = [1e-12] * 4 + [1e-9]
    alone = [probabilities([pair], model)[0] for pair in pairs]
    # one forward pass over all five, and the capped batches cli scores them in
    batches = []
    monkeypatch.setattr(cli, "probabilities", lambda batch, *args, **kwargs:
                        batches.append(len(batch)) or probabilities(batch, *args, **kwargs))
    records = [SimpleNamespace(graph=lambda label_dim, g=g: g,
                               matrix=lambda seq_len, budget, m=m: m) for g, m in pairs]
    grouped = list(cli._probabilities(records, model, PipelineConfig(hyper=hp)))
    assert batches == [2, 1, 2]
    for scored in (probabilities(pairs, model), grouped):
        assert len(scored) == len(alone)
        for probs, want, bound in zip(scored, alone, bounds):
            assert np.argmax(probs) == np.argmax(want)
            assert np.abs(probs - want).max() <= bound
