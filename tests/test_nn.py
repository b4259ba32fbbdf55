import math
from dataclasses import replace

import numpy as np
import pytest

from droidflow.flowgraph import FlowEdge, sort_edges
from droidflow.nn import tape
from droidflow.nn.model import (
    Hyperparams,
    RowLengthMismatchError,
    TrainConfig,
    bilstm_batch_var,
    draw_init_states,
    gnn_batch_var,
    init_model,
    load_model,
    logits_var,
    probabilities,
    save_model,
)
from droidflow.nn.train import train
from droidflow.traces import SequenceMatrix

import nn_reference as ref
from flowgraph_reference import ChunkGraph, ChunkNode


def graph_of(nodes, edges):
    return ChunkGraph(nodes, sort_edges(edges))


def chunk(nid, seq, offset=0):
    return ChunkNode(nid, "m", offset, list(seq), "exit")


def tiny_gnn_params(rng, s, label_dim):
    edge_dim = 2 * label_dim + 10
    return {
        "gnn.w1": rng.normal(0, 0.2, (edge_dim, s * s)),
        "gnn.b1": rng.normal(0, 0.2, s * s),
        "gnn.w2": rng.normal(0, 0.2, (label_dim, s)),
        "gnn.b2": rng.normal(0, 0.2, s),
        "gnn.gate_w": rng.normal(0, 0.2, (s, s)),
        "gnn.gate_b": rng.normal(0, 0.2, s),
    }


def tiny_lstm_params(rng, units, embed_dim, layers):
    p = {}
    for i in range(layers):
        d = embed_dim if i == 0 else 2 * units
        for direction in ("fwd", "bwd"):
            p[f"lstm.l{i}.{direction}.wx"] = rng.normal(0, 0.3, (d, 4 * units))
            p[f"lstm.l{i}.{direction}.wh"] = rng.normal(0, 0.3, (units, 4 * units))
            p[f"lstm.l{i}.{direction}.b"] = rng.normal(0, 0.3, 4 * units)
    p["lstm.embedding"] = rng.normal(0, 0.3, (256, embed_dim))
    p["lstm.out3_w"] = rng.normal(0, 0.3, (2 * units, 64))
    p["lstm.out3_b"] = rng.normal(0, 0.3, 64)
    p["lstm.out4_w"] = rng.normal(0, 0.3, (64, 32))
    p["lstm.out4_b"] = rng.normal(0, 0.3, 32)
    return p


def constants(params):
    return {name: tape.constant(arr) for name, arr in params.items()}


def gnn_forward(graph, params, iterations, seed=0, init_state=None):
    """Graph vector of size state_dim: gnn_batch_var on constant parameters
    as a batch of one, initial node states from seed unless given."""
    label_dim, state_dim = params["gnn.w2"].shape
    arrays = graph.arrays(label_dim)
    if init_state is None:
        [init_state] = draw_init_states([arrays], [seed], state_dim, iterations)
    else:
        [init_state] = ref.rows_read([init_state], [arrays], iterations)
    return gnn_batch_var([arrays], [init_state], constants(params), iterations).value[0]


def bilstm_forward(matrix, params, layers):
    """App vector of size 32: bilstm_batch_var on constant parameters as a
    batch of one."""
    return bilstm_batch_var([matrix], constants(params), layers).value[0]


def classify(h_g, h_b, params):
    """Probability pair of the fusion layer over one pair of branch vectors."""
    logits = logits_var(tape.constant(h_g[None, :]), tape.constant(h_b[None, :]),
                        constants(params))
    return np.exp(tape.log_softmax(logits).value[0])


# --- graph branch ------------------------------------------------------------

def test_gnn_zero_weights_zero_output():
    g = graph_of([chunk(0, [14])], [])
    p = {
        "gnn.w1": np.zeros((16, 4)), "gnn.b1": np.zeros(4), "gnn.w2": np.zeros((3, 2)),
        "gnn.b2": np.zeros(2), "gnn.gate_w": np.zeros((2, 2)), "gnn.gate_b": np.zeros(2),
    }
    out = gnn_forward(g, p, 4, seed=1)
    assert out == pytest.approx(np.zeros(2))


def test_gnn_two_node_hand_unrolled():
    # one forward edge and its mirror, two update-free dims: s=2, T=2 (one step)
    g = graph_of(
        [chunk(0, [10, 20, 30]), chunk(1, [40, 50], offset=3)],
        [FlowEdge(0, 1, "ct"), FlowEdge(1, 0, "bct")],
    )
    rng = np.random.default_rng(9)
    p = tiny_gnn_params(rng, s=2, label_dim=3)
    got = gnn_forward(g, p, 2, seed=42)

    # independent straight-line evaluation of the single update and readout
    l0 = np.array([10, 20, 30]) / 255.0
    l1 = np.array([40, 50, 0]) / 255.0
    e_ct = np.zeros(10); e_ct[0] = 1.0
    e_bct = np.zeros(10); e_bct[5] = 1.0
    H = np.random.default_rng(42).uniform(-0.1, 0.1, (2, 2))
    w1, b1, w2, b2 = p["gnn.w1"], p["gnn.b1"], p["gnn.w2"], p["gnn.b2"]
    gate_w, gate_b = p["gnn.gate_w"], p["gnn.gate_b"]
    a01 = (np.concatenate([l0, e_ct, l1]) @ w1 + b1).reshape(2, 2)
    a10 = (np.concatenate([l1, e_bct, l0]) @ w1 + b1).reshape(2, 2)
    h1 = np.tanh(a01 @ H[0] + l1 @ w2 + b2)
    h0 = np.tanh(a10 @ H[1] + l0 @ w2 + b2)
    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))
    expected = np.tanh(
        sig(h0 @ gate_w + gate_b) * h0 + sig(h1 @ gate_w + gate_b) * h1
    )
    assert got == pytest.approx(expected, abs=1e-12)


def test_gnn_relabeled_ids_same_output():
    rng = np.random.default_rng(11)
    p = tiny_gnn_params(rng, s=3, label_dim=2)
    g1 = graph_of(
        [chunk(0, [1, 2]), chunk(1, [3]), chunk(2, [4, 5])],
        [FlowEdge(0, 1, "ct"), FlowEdge(1, 0, "bct"), FlowEdge(1, 2, "nb"), FlowEdge(2, 1, "bnb")],
    )
    relabel = {0: 7, 1: 3, 2: 5}
    g2 = graph_of(
        [chunk(relabel[n.id], n.opcode_seq, n.offset) for n in g1.nodes],
        [FlowEdge(relabel[e.source], relabel[e.target], e.type) for e in g1.edges],
    )
    assert gnn_forward(g1, p, 4, seed=5) == pytest.approx(gnn_forward(g2, p, 4, seed=5), abs=1e-15)


def test_gnn_reordered_nodes_same_output_given_states():
    rng = np.random.default_rng(12)
    p = tiny_gnn_params(rng, s=3, label_dim=2)
    nodes = [chunk(0, [1, 2]), chunk(1, [3]), chunk(2, [4, 5])]
    edges = [FlowEdge(0, 1, "ct"), FlowEdge(1, 0, "bct"), FlowEdge(1, 2, "is"), FlowEdge(2, 1, "bis")]
    init = np.random.default_rng(1).uniform(-0.1, 0.1, (3, 3))
    g1 = graph_of(nodes, edges)
    perm = [2, 0, 1]
    g2 = ChunkGraph([nodes[i] for i in perm], sort_edges(edges))
    out1 = gnn_forward(g1, p, 5, init_state=init)
    out2 = gnn_forward(g2, p, 5, init_state=init[perm])
    assert out1 == pytest.approx(out2, abs=1e-12)


def test_gnn_empty_graph_zero_vector():
    p = tiny_gnn_params(np.random.default_rng(0), s=4, label_dim=2)
    g = graph_of([], [])
    assert gnn_forward(g, p, 3) == pytest.approx(np.zeros(4))


def test_gnn_deterministic_trajectory():
    rng = np.random.default_rng(13)
    p = tiny_gnn_params(rng, s=3, label_dim=2)
    g = graph_of([chunk(0, [1]), chunk(1, [2])], [FlowEdge(0, 1, "ic"), FlowEdge(1, 0, "bic")])
    assert (gnn_forward(g, p, 6, seed=8) == gnn_forward(g, p, 6, seed=8)).all()


# --- sequence branch ----------------------------------------------------------

def test_bilstm_zero_weights_zero_output():
    p = {"lstm.embedding": np.zeros((256, 4)),
         "lstm.out3_w": np.zeros((4, 64)), "lstm.out3_b": np.zeros(64),
         "lstm.out4_w": np.zeros((64, 32)), "lstm.out4_b": np.zeros(32)}
    for d in ("fwd", "bwd"):
        p.update({f"lstm.l0.{d}.wx": np.zeros((4, 8)), f"lstm.l0.{d}.wh": np.zeros((2, 8)),
                  f"lstm.l0.{d}.b": np.zeros(8)})
    m = SequenceMatrix(np.array([[1, 2, 3]]), 3)
    assert bilstm_forward(m, p, 1) == pytest.approx(np.zeros(32))


@pytest.mark.usefixtures("lstm_float64")
def test_bilstm_mean_idempotent_on_identical_rows():
    # In float64: this checks the mean over rows, not float32 rounding, and
    # under some BLAS kernels (OpenBLAS's Haswell) the float32 rows of a
    # product depend on how many rows it has.
    rng = np.random.default_rng(21)
    p = tiny_lstm_params(rng, units=3, embed_dim=4, layers=2)
    row = [5, 9, 250, 0]
    single = bilstm_forward(SequenceMatrix(np.array([row]), 4), p, 2)
    double = bilstm_forward(SequenceMatrix(np.array([row, row]), 4), p, 2)
    assert single == pytest.approx(double, abs=1e-12)


@pytest.mark.usefixtures("lstm_float64")
def test_bilstm_hand_recurrence_transcript():
    rng = np.random.default_rng(22)
    units, embed_dim, row_len = 2, 3, 3
    p = tiny_lstm_params(rng, units=units, embed_dim=embed_dim, layers=1)
    row = np.array([3, 7, 200])
    got = bilstm_forward(SequenceMatrix(row[None, :], row_len), p, 1)

    # scalar-level recurrence, written out step by step
    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def run(direction, order):
        wx, wh, b = (p[f"lstm.l0.{direction}.{k}"] for k in ("wx", "wh", "b"))
        h = np.zeros(units)
        c = np.zeros(units)
        out = {}
        for t in order:
            x = p["lstm.embedding"][row[t]]
            z = x @ wx + h @ wh + b
            i, f, g, o = z[0:2], z[2:4], z[4:6], z[6:8]
            c = sig(f) * c + sig(i) * np.tanh(g)
            h = sig(o) * np.tanh(c)
            out[t] = h
        return out

    fwd = run("fwd", [0, 1, 2])
    bwd = run("bwd", [2, 1, 0])
    per_step = [np.concatenate([fwd[t], bwd[t]]) for t in range(3)]
    pooled = sum(per_step) / 3.0
    expected = (pooled @ p["lstm.out3_w"] + p["lstm.out3_b"]) @ p["lstm.out4_w"] + p["lstm.out4_b"]
    assert got == pytest.approx(expected, abs=1e-12)


def test_bilstm_zero_rows_zero_vector():
    p = tiny_lstm_params(np.random.default_rng(23), units=3, embed_dim=4, layers=1)
    assert bilstm_forward(SequenceMatrix.empty(4), p, 1) == pytest.approx(np.zeros(32))


# --- fusion and scoring ---------------------------------------------------------

def test_classify_zero_weights():
    p = {"fusion.w": np.zeros((6, 2)), "fusion.b": np.zeros(2)}
    probs = classify(np.zeros(3), np.zeros(3), p)
    assert probs == pytest.approx([0.5, 0.5])
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_classify_shift_invariance():
    rng = np.random.default_rng(31)
    w = rng.normal(size=(6, 2))
    p1 = {"fusion.w": w, "fusion.b": np.array([0.3, -1.2])}
    p2 = {"fusion.w": w, "fusion.b": np.array([0.3 + 5.0, -1.2 + 5.0])}
    h = rng.normal(size=3), rng.normal(size=3)
    assert classify(*h, p1) == pytest.approx(classify(*h, p2), abs=1e-12)


def test_classify_known_logits():
    # fc arranged so logits come out as (2, 0)
    p = {"fusion.w": np.zeros((2, 2)), "fusion.b": np.array([2.0, 0.0])}
    probs = classify(np.array([0.0]), np.array([0.0]), p)
    expected = np.array([math.exp(2), 1.0]) / (math.exp(2) + 1.0)
    assert probs == pytest.approx(expected, abs=1e-12)
    assert probs == pytest.approx([0.8807970779778823, 0.11920292202211756], abs=1e-12)


def test_classify_sums_to_one_on_random_inputs():
    rng = np.random.default_rng(32)
    for _ in range(50):
        p = {"fusion.w": rng.normal(scale=3.0, size=(6, 2)), "fusion.b": rng.normal(size=2)}
        probs = classify(rng.normal(size=3), rng.normal(size=3), p)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert (probs >= 0).all()


def test_predict_reports_argmax_probability():
    hp = Hyperparams(seq_len=4, hidden_layers=1, lstm_units=3, label_dim=2,
                     iterations=3, epochs=1, batch_size=2)
    model = init_model(hp, seed=0, state_dim=4)
    model.weights["fusion.w"][...] = 0.0
    model.weights["fusion.b"][...] = np.array([math.log(9.0), 0.0])  # softmax -> (0.9, 0.1)
    [probs] = probabilities([(graph_of([], []), SequenceMatrix.empty(4))], model)
    assert np.argmax(probs) == 0
    assert probs[0] == pytest.approx(0.9)


def test_predict_tie_break_and_degenerate_inputs():
    hp = Hyperparams(seq_len=4, hidden_layers=1, lstm_units=3, label_dim=2,
                     iterations=3, epochs=1, batch_size=2)
    model = init_model(hp, seed=0, state_dim=4)
    # zero fusion weights force (0.5, 0.5): tie goes to label 0
    model.weights["fusion.w"][...] = 0.0
    model.weights["fusion.b"][...] = 0.0
    g = graph_of([], [])
    [probs] = probabilities([(g, SequenceMatrix.empty(4))], model)
    assert np.argmax(probs) == 0
    assert probs[0] == pytest.approx(0.5)


def test_predict_row_length_mismatch():
    hp = Hyperparams(seq_len=4, hidden_layers=1, lstm_units=3, label_dim=2,
                     iterations=3, epochs=1, batch_size=2)
    model = init_model(hp, seed=0, state_dim=4)
    with pytest.raises(RowLengthMismatchError):
        probabilities([(graph_of([], []), SequenceMatrix(np.array([[1, 2, 3]]), 3))], model)


# --- training -----------------------------------------------------------------

def toy_dataset(seq_len=8):
    rng = np.random.default_rng(77)
    data = []
    for i in range(4):
        malicious = i % 2 == 1
        if malicious:
            nodes = [chunk(0, [110, 112, 14]), chunk(1, [110, 26])]
            edges = [FlowEdge(0, 1, "ct"), FlowEdge(1, 0, "bct")]
            rows = np.tile(np.array([110, 26, 110, 34, 112, 41, 110, 14]), (2, 1))
        else:
            nodes = [chunk(0, [14]), chunk(1, [0, 14])]
            edges = []
            rows = np.tile(np.array([0, 1, 2, 1, 0, 2, 1, 0]), (2, 1))
        rows = rows + rng.integers(0, 2, rows.shape)  # tiny jitter
        data.append(
            (graph_of(nodes, edges), SequenceMatrix(rows, seq_len), int(malicious))
        )
    return data


TOY_HP = Hyperparams(seq_len=8, hidden_layers=1, lstm_units=4, label_dim=3,
                     iterations=3, epochs=6, batch_size=2)


def test_train_loss_decreases():
    data = toy_dataset()
    result = train(data, TOY_HP, TrainConfig(learning_rate=0.01, seed=1), state_dim=4)
    losses = result.epoch_losses
    assert len(losses) == 6
    for a, b in zip(losses, losses[1:5]):
        assert b < a


def test_train_zero_learning_rate_keeps_params():
    data = toy_dataset()
    result = train(data, replace(TOY_HP, epochs=2), TrainConfig(learning_rate=0.0, seed=3),
                   state_dim=4)
    fresh = init_model(TOY_HP, seed=(3, 0x11), state_dim=4)
    for (n1, a1), (n2, a2) in zip(result.params.weights.items(), fresh.weights.items()):
        assert n1 == n2
        assert np.array_equal(a1, a2)


def test_train_deterministic():
    data = toy_dataset()
    r1 = train(data, replace(TOY_HP, epochs=3), TrainConfig(seed=9), state_dim=4)
    r2 = train(data, replace(TOY_HP, epochs=3), TrainConfig(seed=9), state_dim=4)
    for (n1, a1), (n2, a2) in zip(r1.params.weights.items(), r2.params.weights.items()):
        assert n1 == n2 and np.array_equal(a1, a2)
    assert r1.epoch_losses == r2.epoch_losses


# --- persistence ----------------------------------------------------------------

def test_model_save_load_round_trip(tmp_path):
    data = toy_dataset()
    result = train(data, replace(TOY_HP, epochs=1), TrainConfig(seed=4), state_dim=4)
    path = tmp_path / "model.json"
    save_model(result.params, path)
    loaded = load_model(path)
    for (n1, a1), (n2, a2) in zip(result.params.weights.items(), loaded.weights.items()):
        assert n1 == n2 and np.array_equal(a1, a2)
    assert loaded.hyper == result.params.hyper

