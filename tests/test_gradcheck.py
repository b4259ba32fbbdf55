import numpy as np
import pytest

from droidflow.flowgraph import FlowEdge
from droidflow.nn import tape
from droidflow.nn.model import (
    Hyperparams,
    bilstm_batch_var,
    draw_init_states,
    forward_var,
    gnn_batch_var,
    init_model,
    logits_var,
    loss_var,
)
from droidflow.traces import SequenceMatrix

import nn_reference as ref
import tape_ops
from gradcheck import grad_check
from test_nn import chunk, graph_of, tiny_gnn_params, tiny_lstm_params


def probe_scalar(v, rng):
    r = tape.constant(rng.normal(size=v.value.shape))
    return tape_ops.pick(tape.sum_axis(tape.mul(v, r), axis=1), 0, 0)


def gnn_toy_graph():
    nodes = [chunk(0, [110, 14]), chunk(1, [26]), chunk(2, [112, 0, 14]), chunk(3, [18])]
    edges = [
        FlowEdge(0, 2, "ct"), FlowEdge(2, 0, "bct"),
        FlowEdge(0, 1, "is"), FlowEdge(1, 0, "bis"),
        FlowEdge(1, 3, "ic"), FlowEdge(3, 1, "bic"),
        FlowEdge(1, 3, "in"), FlowEdge(3, 1, "bin"),  # parallel pair, distinct types
        FlowEdge(2, 3, "nb"), FlowEdge(3, 2, "bnb"),
    ]
    return graph_of(nodes, edges)


def test_gnn_gradients():
    graph = gnn_toy_graph()
    rng = np.random.default_rng(41)
    arrays = tiny_gnn_params(rng, s=4, label_dim=3)
    probe_rng = np.random.default_rng(42)
    probe = probe_rng.normal(size=(1, 4))
    arrays_g = graph.arrays(3)
    init = np.random.default_rng(7).uniform(-0.1, 0.1, (len(arrays_g.labels), 4))

    def builder(pv):
        hg = gnn_batch_var([arrays_g], ref.rows_read([init], [arrays_g], 3), pv, 3)
        return tape_ops.pick(tape.sum_axis(tape.mul(hg, tape.constant(probe)), axis=1), 0, 0)

    err = grad_check(builder, arrays, epsilon=1e-4, n_coords=100, seed=1)
    assert err <= 1e-4, err


@pytest.mark.usefixtures("lstm_float64")
def test_bilstm_gradients():
    rng = np.random.default_rng(43)
    arrays = tiny_lstm_params(rng, units=3, embed_dim=4, layers=2)
    matrix = SequenceMatrix(np.array([[5, 110, 26, 14], [3, 3, 200, 14]]), 4)
    probe = np.random.default_rng(44).normal(size=(1, 32))

    def builder(pv):
        hb = bilstm_batch_var([matrix], pv, 2)
        return tape_ops.pick(tape.sum_axis(tape.mul(hb, tape.constant(probe)), axis=1), 0, 0)

    err = grad_check(builder, arrays, epsilon=1e-4, n_coords=100, seed=2)
    assert err <= 1e-4, err


def test_fusion_gradients():
    rng = np.random.default_rng(45)
    arrays = {
        "fusion.w": rng.normal(size=(8, 2)),
        "fusion.b": rng.normal(size=2),
    }
    hg = tape.constant(rng.normal(size=(1, 5)))
    hb = tape.constant(rng.normal(size=(1, 3)))

    def builder(pv):
        return loss_var(logits_var(hg, hb, pv), label=1)

    err = grad_check(builder, arrays, epsilon=1e-4, n_coords=100, seed=3)
    assert err <= 1e-6, err


@pytest.mark.usefixtures("lstm_float64")
def test_full_model_gradients():
    hp = Hyperparams(seq_len=4, hidden_layers=1, lstm_units=3, label_dim=3,
                     iterations=3, epochs=1, batch_size=1)
    model = init_model(hp, seed=5, state_dim=4)
    graph = gnn_toy_graph()
    matrix = SequenceMatrix(np.array([[5, 110, 26, 14]]), 4)
    arrays = model.weights

    graphs = [graph.arrays(hp.label_dim)]
    init_states = draw_init_states(graphs, [6], model.state_dim, hp.iterations)

    def builder(pv):
        return loss_var(forward_var(model, pv, graphs, [matrix], init_states), label=0)

    err = grad_check(builder, arrays, epsilon=1e-4, n_coords=100, seed=4)
    assert err <= 1e-4, err
