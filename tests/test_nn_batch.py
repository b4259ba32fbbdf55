"""The batched model against the per-sample reference in nn_reference.py:
the fused LSTM op by finite differences, one mini-batch tape against one
tape per sample, and a whole training run against the per-sample trainer;
a mini-batch over the row cap, split into parts, against one tape; the
fused graph-branch nodes, the drawn initial states, training and scoring
against the composed ops and the full draw, and the in-place Adam step
against the textbook one, bit for bit."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nn_reference as ref
import tape_ops
from droidflow import cli
from droidflow.appmodel import app_from_ir
from droidflow.flowgraph import FlowEdge, GraphArrays
from droidflow.nn import model as nnmodel
from droidflow.nn import tape
from droidflow.nn import train as trainer
from droidflow.nn.model import (
    BATCH_ROW_UNITS,
    Hyperparams,
    TrainConfig,
    bilstm_batch_var,
    draw_init_states,
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
from test_nn import chunk, graph_of, tiny_gnn_params
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


@pytest.mark.parametrize("units", [32, 256])
@pytest.mark.parametrize("rows", [1, 3, 10, 64])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("dense", [False, True])
def test_gate_major_lstm_matches_row_layout(units, rows, reverse, dense):
    # tape.lstm keeps its gate buffer gate-major, (T, 4, N, u), and makes a
    # step's recurrent product one matmul over wh's four (u, u) gate blocks;
    # the reference keeps it (T, N, 4u), with one (N, u) @ (u, 4u) product.
    # Every other product and every elementwise step is the same on the same
    # values, so where the BLAS gives each block product the bits of its
    # columns of the whole product, the float32 ops agree bit for bit in H
    # and in every gradient. Where it does not (OpenBLAS's Haswell kernels
    # at some row counts), they agree to float32 rounding.
    rng = np.random.default_rng(71 + units + rows + 2 * reverse + 4 * dense)
    steps, d = 6, 2 * units if dense else 16
    arrays = {"wx": rng.normal(0, 0.3, (d, 4 * units)),
              "wh": rng.normal(0, 0.3, (units, 4 * units)),
              "b": rng.normal(0, 0.3, 4 * units)}
    if dense:   # layers 1 and up: a float32 (T, N, d) input
        x, tokens = rng.normal(0, 1, (steps, rows, d)).astype(np.float32), None
    else:       # layer 0: a lookup table the tokens pick rows of
        x, tokens = rng.normal(0, 1, (256, d)), rng.integers(0, 256, (rows, steps))
    g = rng.normal(0, 1, (steps, rows, units)).astype(np.float32)

    def run(op):
        pv = {name: tape.parameter(a) for name, a in arrays.items()}
        xv = tape.Var(x, requires_grad=True, dtype=x.dtype)
        h = op(xv, pv["wx"], pv["wh"], pv["b"], reverse=reverse, tokens=tokens)
        return [h.value] + [fn(g) for _, fn in h.parents]   # x, wx, wh, b

    wh = arrays["wh"].astype(np.float32)
    probe = rng.normal(0, 1, (rows, units)).astype(np.float32)
    blocks = np.matmul(probe, wh.reshape(units, 4, units).transpose(1, 0, 2))
    same_bits = np.array_equal(blocks, (probe @ wh).reshape(rows, 4, units).transpose(1, 0, 2))
    got, want = run(tape.lstm), run(ref.row_layout_lstm)
    assert got[0].dtype == np.float32 and len(got) == 5
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, k
        if same_bits:
            assert np.array_equal(a, b), k
        else:
            assert np.abs(a - b).max() <= 1e-5 * np.abs(b).max(), k


def test_float32_lstm_tracks_float64(monkeypatch):
    # The paper's width: 256 units, two layers, 100-step rows. Against the
    # float64 op, the float32 op's hidden states and its five kinds of input
    # gradient (embedding, layer input x, wx, wh, b) differ by at most 1e-5
    # of each array's largest entry (about 1e-6 measured). Every parameter's
    # gradient is float64; the gradient reaching layer 1's input is float32,
    # the dtype of the hidden states it is the gradient of.
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
    assert low["h1"].dtype == np.float32 and low["x1.grad"].dtype == np.float32
    assert set(low) == set(ref) and len(ref) == 3 + 1 + 2 * 2 * 3
    for name, want in ref.items():
        if name.endswith(".grad") and name != "x1.grad":
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
    init_states = ref.full_init_states(graphs, [(seed, idx) for idx, _ in samples], 4)
    hg = gnn_batch_var(graphs, ref.rows_read(init_states, graphs, iterations), pv, hp.iterations)
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
            train(dataset, replace(hp, batch_size=n_apps), TrainConfig(seed=5),
                  state_dim=4, embed_dim=8)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    at_cap, over = peak_mb(4), peak_mb(12)
    assert over < 1.5 * at_cap, (over, at_cap)


def test_paper_scale_training_step_peak_per_row():
    # One step at the paper's width: 256 units, two layers, 100-opcode rows.
    # Each row adds about 2.7 MB to its peak (tracemalloc, 12 rows against 4):
    # the forward pass's gate buffers and states, and the float32 gradient of
    # layer 1's input. A step that copied the pooled gradient over every time
    # step in float64, and widened that input gradient to float64, added 3.5.
    hp = Hyperparams(seq_len=100, hidden_layers=2, lstm_units=256, label_dim=3, iterations=2)
    model = init_model(hp, seed=80, state_dim=4)
    rng = np.random.default_rng(81)
    graph = graph_of([], []).arrays(hp.label_dim)

    def peak_mb(rows):
        apps = [SequenceMatrix(rng.integers(0, 256, (rows // 2, 100)), 100) for _ in range(2)]
        tracemalloc.start()
        try:
            trainer._batch_step(model, [graph] * 2, apps, np.array([0, 1]), [(5, 0), (5, 1)])
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    per_row = (peak_mb(12) - peak_mb(4)) / 8
    assert per_row <= 3.1, per_row


def test_paper_scale_scoring_peak_per_row():
    # Scoring at the paper's width: bilstm_batch_var on constant parameters
    # and the model's scoring form, built beforehand, as probabilities runs
    # it: 256 units, two layers, 64 rows of 100 opcodes, peaks at about 0.83
    # MB (10^6 bytes; 0.79 MiB) per row: the gate buffer of one direction
    # and both layers' outputs. While the op kept every step's cell state on
    # constants too and cast the weights on each call, it read 0.98. Layer
    # 1's input projection is turned gate-major one step at a time; one
    # transposed copy of it whole read 1.28.
    hp = Hyperparams(seq_len=100, hidden_layers=2, lstm_units=256)
    model = init_model(hp, seed=84, state_dim=4)
    pv = {name: tape.constant(arr) for name, arr in model.weights.items()}
    forms = model.scoring_form()
    rows = np.random.default_rng(85).integers(0, 256, (64, hp.seq_len))
    tracemalloc.start()
    try:
        bilstm_batch_var([SequenceMatrix(rows, hp.seq_len)], pv, hp.hidden_layers, forms)
        per_row = tracemalloc.get_traced_memory()[1] / 1e6 / len(rows)
    finally:
        tracemalloc.stop()
    assert per_row <= 0.83, per_row


def test_pooled_gradient_reaches_the_top_layer_as_a_broadcast(monkeypatch):
    # The mean pool's gradient reaches the top BiLSTM layer as one (N, 2u)
    # float32 row repeated over the T = 50 steps by a stride-0 view: the
    # pool's backward pass allocates a few rows' worth of bytes, the cast row
    # and array headers, not a (T, N, 2u) array. The gradient reaching layer
    # 0 is the float32 sum of layer 1's two input gradients.
    hp = Hyperparams(seq_len=50, hidden_layers=2, lstm_units=16)
    model = init_model(hp, seed=82)
    rows = np.random.default_rng(83).integers(0, 256, (6, hp.seq_len))
    seen, peaks, bilstm, sum_axis = [], [], tape.bilstm, tape.sum_axis

    def recording_bilstm(*args, **kwargs):
        out = bilstm(*args, **kwargs)
        out.parents = tuple((p, lambda g, fn=fn: seen.append(g) or fn(g)) for p, fn in out.parents)
        return out

    def measured_sum_axis(a, axis, keepdims=True):
        out = sum_axis(a, axis, keepdims)
        if a.value.ndim == 3:
            (p, fn), = out.parents

            def measured(g):
                tracemalloc.start()
                try:
                    return fn(g)
                finally:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

            out.parents = ((p, measured),)
        return out

    monkeypatch.setattr(tape, "bilstm", recording_bilstm)
    monkeypatch.setattr(tape, "sum_axis", measured_sum_axis)
    hb = bilstm_batch_var([SequenceMatrix(rows[:2], hp.seq_len), SequenceMatrix(rows[2:], hp.seq_len)],
                          param_vars(model), hp.hidden_layers)
    tape.backward(scalar(hb))
    top, below = seen[0], seen[2]
    assert len(seen) == 4 and top is seen[1] and below is seen[3]
    assert top.shape == (hp.seq_len, 6, 2 * hp.lstm_units) and top.strides[0] == 0
    assert top.dtype == np.float32 and not top.flags.writeable
    assert below.dtype == np.float32 and below.strides[0] > 0
    row_bytes = 6 * 2 * hp.lstm_units * 4
    assert len(peaks) == 1 and peaks[0] < 4 * row_bytes, (peaks, row_bytes)


@pytest.mark.usefixtures("lstm_float64")
def test_cross_app_batch_scores_each_app_as_alone(monkeypatch):
    # In float64: this checks the batching, not float32 rounding, and under
    # some BLAS kernels (OpenBLAS's Haswell) the float32 rows of a product
    # depend on how many rows it has.
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
    # Scored alone, the one-row app's recurrent products take numpy's
    # matrix-vector path, whose sums round apart from the matrix product of
    # a batch: it gets its own bound, far inside the 5e-7 that perfbench
    # allows between predict and the per-app scan.
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


def random_graph(rng, n, edges, label_dim=3):
    """GraphArrays of n nodes with random labels and the given (src, dst)
    edges, each of a random type."""
    labels = rng.uniform(0, 1, (n, label_dim))
    src = np.array([u for u, _ in edges], dtype=np.intp)
    dst = np.array([v for _, v in edges], dtype=np.intp)
    onehot = np.zeros((len(edges), 10))
    onehot[np.arange(len(edges)), rng.integers(0, 10, len(edges))] = 1.0
    return GraphArrays(labels, src, dst, np.concatenate([labels[src], onehot, labels[dst]], 1))


READOUT_CASES = {
    "no-edges": [(5, [])],
    "one-graph": [(6, [(0, 1), (1, 2), (3, 2), (2, 4)])],
    "empty-graph-in-batch": [(4, [(0, 1), (1, 3)]), (0, []), (3, [(2, 0)]), (2, [])],
    "every-node-a-receiver": [(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])],
    "duplicates-and-self-loops": [(4, [(0, 0), (1, 1), (0, 1), (0, 1), (2, 1), (2, 1)])],
}


def bits_equal(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("iterations", [1, 2, 10])
@pytest.mark.parametrize("case", list(READOUT_CASES))
def test_fused_graph_branch_matches_composed_ops_bit_for_bit(case, iterations):
    # The affine nodes and the gated readout give the graph vectors and every
    # gradient of the composed ops, bit for bit and sign bit for sign bit.
    rng = np.random.default_rng(71)
    graphs = [random_graph(rng, n, edges) for n, edges in READOUT_CASES[case]]
    params = tiny_gnn_params(rng, s=4, label_dim=3)
    probe = tape.constant(rng.normal(size=(len(graphs), 4)))

    def run(builder, draw):
        pv = {name: tape.parameter(arr) for name, arr in params.items()}
        hg = builder(graphs, draw(graphs, range(len(graphs)), 4, iterations), pv, iterations)
        tape.backward(scalar(tape.mul(hg, probe)))
        return hg.value, {name: v.grad for name, v in pv.items() if v.grad is not None}

    got, got_grads = run(gnn_batch_var, draw_init_states)
    want, want_grads = run(ref.composed_gnn_batch_var, ref.full_init_states)
    assert bits_equal(got, want)
    assert set(got_grads) == set(want_grads)
    assert ("gnn.w1" in got_grads) == (iterations > 1 and case != "no-edges")
    for name, g in got_grads.items():
        assert g.dtype == np.float64 and bits_equal(g, want_grads[name]), name


def test_training_matches_composed_ops_bit_for_bit(monkeypatch):
    # A whole run, then scoring: every loss, weight and probability as with
    # every node's initial state drawn, the graph branch and each affine map
    # built from single ops, and each BiLSTM layer the concat of two lstm
    # nodes. The last graph's sources, 2, 5 and 8, leave gaps in its draw.
    hp = Hyperparams(seq_len=4, hidden_layers=2, lstm_units=3, label_dim=3,
                     iterations=4, epochs=2, batch_size=3)
    rng = np.random.default_rng(75)
    dataset = [(g, m, label) for _, (g, m, label) in mixed_samples()]
    dataset.append((random_graph(rng, 9, [(5, 1), (2, 7), (5, 3), (8, 8)]),
                    SequenceMatrix(rng.integers(0, 256, (2, 4)), 4), 0))
    tc = TrainConfig(learning_rate=0.01, seed=3)

    def run():
        result = train(dataset, hp, tc, state_dim=4, embed_dim=5)
        return result, probabilities([(g, m) for g, m, _ in dataset], result.params, seed=3)

    got, got_probs = run()
    monkeypatch.setattr(trainer, "draw_init_states", ref.full_init_states)
    monkeypatch.setattr(nnmodel, "draw_init_states", ref.full_init_states)
    monkeypatch.setattr(nnmodel, "gnn_batch_var", ref.composed_gnn_batch_var)
    monkeypatch.setattr(tape, "bilstm", ref.composed_bilstm)
    monkeypatch.setattr(tape, "affine", lambda x, w, b: tape.add(tape_ops.matmul(x, w), b))
    want, want_probs = run()
    assert got.epoch_losses == want.epoch_losses
    for name, arr in got.params.weights.items():
        assert bits_equal(arr, want.params.weights[name]), name
    assert bits_equal(got_probs, want_probs)


@given(st.data(), st.lists(st.integers(0, 30), min_size=1, max_size=4), st.integers(1, 6),
       st.integers(0, 12))
@settings(max_examples=80, deadline=None)
def test_drawn_initial_states_are_rows_of_the_full_draw(data, sizes, state_dim, iterations):
    # Each graph's drawn rows, gaps and repeated sources included, are the
    # rows gnn_batch_var reads of every node's draw from the same seed.
    graphs = []
    for n in sizes:
        node = st.integers(0, n - 1)
        edges = data.draw(st.lists(st.tuples(node, node), max_size=10)) if n else []
        graphs.append(random_graph(np.random.default_rng(n), n, edges))
    seeds = data.draw(st.lists(st.integers(0, 2**63) | st.tuples(st.integers(0, 99), st.integers(0, 99)),
                               min_size=len(graphs), max_size=len(graphs)))
    got = draw_init_states(graphs, seeds, state_dim, iterations)
    want = ref.rows_read(ref.full_init_states(graphs, seeds, state_dim), graphs, iterations)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert bits_equal(g, w)


def test_training_step_holds_no_unread_node_array():
    # One step over 20,000 nodes and 20 edges into 20 of them. Its peak, in
    # the readout's backward pass, holds the final states, the gate, the two
    # gradients and the labels: 4.56 node-sized (n, 32) float64 arrays. A step
    # that drew every node's initial state, kept base = W2 l + b2 and copied
    # the final states in the readout peaked at 7.61.
    rng = np.random.default_rng(76)
    n = 20_000
    graph = random_graph(rng, n, list(zip(rng.integers(0, n, 20), range(20))), label_dim=13)
    hp = Hyperparams(seq_len=8, hidden_layers=1, lstm_units=4, label_dim=13, iterations=10)
    model = init_model(hp, seed=77)
    matrix = SequenceMatrix(rng.integers(0, 256, (2, 8)), 8)
    tracemalloc.start()
    try:
        trainer._batch_step(model, [graph], [matrix], np.array([1]), [(5, 0)])
        peak = tracemalloc.get_traced_memory()[1] / (n * model.state_dim * 8)
    finally:
        tracemalloc.stop()
    assert peak <= 7.61 - 3, peak


def test_graph_branch_forward_holds_few_node_arrays():
    # 20,000 nodes and 200 edges into 200 nodes at most, about the shape of
    # the large-apps corpus. After the forward pass, the tape holds
    # tanh(base), the labels, the segment ids and the edges' transforms:
    # about 2.4 node-sized (n, 32) float64 arrays. It held 5.3 while it kept
    # base and the readout's h and gate, and the composed ops held about 10.7.
    rng = np.random.default_rng(72)
    n = 20_000
    edges = list(zip(rng.integers(0, n, 200), rng.integers(0, 200, 200)))
    graph = random_graph(rng, n, edges, label_dim=13)
    model = init_model(Hyperparams(lstm_units=4, hidden_layers=1), seed=73)
    init_states = draw_init_states([graph], [0], model.state_dim, 10)
    pv = param_vars(model)
    node_bytes = n * model.state_dim * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hg = gnn_batch_var([graph], init_states, pv, 10)
        held = (tracemalloc.get_traced_memory()[0] - before) / node_bytes
    finally:
        tracemalloc.stop()
    assert hg.requires_grad
    assert held <= 3, held


def test_scoring_readout_holds_no_node_index(monkeypatch):
    # Scoring's gated readout over 4 graphs of 5,000 nodes, on constants. It
    # holds the gate, one node-sized (n, 32) float64 array, while it sums the
    # gated states per graph. The graph index is sorted, so that sum needs no
    # sort and no index of its own; an (n, 32) int64 bin index took a second
    # node-sized array.
    rng = np.random.default_rng(78)
    n, hp = 5_000, Hyperparams(lstm_units=4, hidden_layers=1)
    graphs = [random_graph(rng, n, list(zip(rng.integers(0, n, 50), rng.integers(0, 50, 50))),
                           label_dim=hp.label_dim) for _ in range(4)]
    model = init_model(hp, seed=79)
    node_bytes, held, readout = 4 * n * model.state_dim * 8, [], tape.gated_readout

    def probe(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = readout(*args)
        held.append((tracemalloc.get_traced_memory()[1] - before) / node_bytes)
        return out

    monkeypatch.setattr(tape, "gated_readout", probe)
    pv = {name: tape.constant(arr) for name, arr in model.weights.items()}
    init_states = draw_init_states(graphs, [0] * 4, model.state_dim, hp.iterations)
    tracemalloc.start()
    try:
        hg = gnn_batch_var(graphs, init_states, pv, hp.iterations)
    finally:
        tracemalloc.stop()
    assert not hg.requires_grad and len(held) == 1
    assert held[0] < 1.1, held


def textbook_adam(weights, grads_per_step, tc):
    """The Adam update as written before it ran in place."""
    weights = {k: v.copy() for k, v in weights.items()}
    m = {k: np.zeros_like(v) for k, v in weights.items()}
    v = {k: np.zeros_like(a) for k, a in weights.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        for name in sorted(weights):
            g = grads.get(name)
            if g is None:
                continue
            m[name] *= tc.beta1
            m[name] += (1 - tc.beta1) * g
            v[name] *= tc.beta2
            v[name] += (1 - tc.beta2) * g * g
            m_hat = m[name] / (1 - tc.beta1**t)
            v_hat = v[name] / (1 - tc.beta2**t)
            weights[name] -= tc.learning_rate * m_hat / (np.sqrt(v_hat) + tc.eps)
    return weights


def test_adam_in_place_matches_textbook_update():
    # Five steps over weights of several shapes, one of which gets no
    # gradient at step 2 and one never does: bit-identical weights, and the
    # gradients passed in are left as they were.
    rng = np.random.default_rng(74)
    weights = {"a": rng.normal(size=(7, 5)), "b": rng.normal(size=5),
               "c": rng.normal(size=(3, 4, 2)), "never": rng.normal(size=4)}
    steps = [{name: rng.normal(scale=10.0 ** rng.integers(-8, 2), size=arr.shape)
              for name, arr in weights.items() if name != "never"} for _ in range(5)]
    del steps[1]["c"]
    steps[3]["a"][0, 0] = -0.0
    tc = TrainConfig(learning_rate=0.05, beta1=0.8, beta2=0.99, eps=1e-7)
    want = textbook_adam(weights, steps, tc)
    opt = trainer.Adam({k: v.copy() for k, v in weights.items()}, tc)
    for grads in steps:
        kept = {k: g.copy() for k, g in grads.items()}
        opt.step(grads)
        assert all(bits_equal(grads[k], kept[k]) for k in grads)
    for name in weights:
        assert bits_equal(opt.arrays[name], want[name]), name
    assert bits_equal(opt.arrays["never"], weights["never"])
