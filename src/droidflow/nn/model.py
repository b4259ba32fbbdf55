"""Hybrid classifier: gated graph network over the abstract flow graph,
stacked bidirectional LSTM over the opcode row matrix, decision-level fusion.

Graph branch: node states are seeded randomly in [-0.1, 0.1] and updated for
a fixed number of unrolled steps. Each directed edge (u, v) contributes the
message reshape(W1 [l_u ; l_uv ; l_v] + b1) h_u; node v averages its incoming
messages, adds W2 l_v + b2, and squashes with tanh (the linear transition
alone cannot keep the iteration bounded). The readout gates each final state
with sigmoid(affine(state)) and tanh-squashes the gated sum.

Sequence branch: opcode rows embed to 128-wide vectors, run through stacked
bidirectional LSTM layers, are mean-pooled over the row positions, projected
512 -> 64 -> 32, and mean-pooled over rows.

Fusion: one fully connected layer over the concatenated branch vectors,
softmax on top. Empty inputs (no nodes / no rows) map to zero vectors so
feature-less apps still classify.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..flowgraph import EDGE_TYPE_ORDER
from . import tape
from .tape import Var

VOCAB_SIZE = 256
EMBED_DIM = 128
STATE_DIM = 32
FUSED_CLASSES = 2


class RowLengthMismatchError(ValueError):
    pass


class ModelMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Hyperparams:
    """The seven tunable knobs, defaulted to their tuned optima."""

    seq_len: int = 100          # length of each opcode row
    hidden_layers: int = 2      # stacked BiLSTM layers
    lstm_units: int = 256       # hidden size per direction
    label_dim: int = 13         # opcodes per graph-node label vector
    iterations: int = 10        # unrolled node-state updates
    epochs: int = 25
    batch_size: int = 16

    def replace(self, **kw) -> "Hyperparams":
        from dataclasses import replace as _replace

        return _replace(self, **kw)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")


@dataclass
class GnnParams:
    w1: np.ndarray              # (2 * label_dim + 10, state_dim**2)
    b1: np.ndarray
    w2: np.ndarray              # (label_dim, state_dim)
    b2: np.ndarray
    gate_w: np.ndarray          # (state_dim, state_dim)
    gate_b: np.ndarray
    iterations: int

    @property
    def state_dim(self) -> int:
        return self.w2.shape[1]

    @property
    def label_dim(self) -> int:
        return self.w2.shape[0]

    def named(self, prefix="gnn"):
        yield f"{prefix}.w1", self.w1
        yield f"{prefix}.b1", self.b1
        yield f"{prefix}.w2", self.w2
        yield f"{prefix}.b2", self.b2
        yield f"{prefix}.gate_w", self.gate_w
        yield f"{prefix}.gate_b", self.gate_b


@dataclass
class BiLstmParams:
    embedding: np.ndarray       # (VOCAB_SIZE, embed_dim)
    layers: list                # per layer: {"fwd"|"bwd": (wx, wh, b)}
    out3_w: np.ndarray          # (2 * units, 64)
    out3_b: np.ndarray
    out4_w: np.ndarray          # (64, 32)
    out4_b: np.ndarray

    @property
    def units(self) -> int:
        return self.layers[0]["fwd"][1].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embedding.shape[1]

    def named(self, prefix="lstm"):
        yield f"{prefix}.embedding", self.embedding
        for i, layer in enumerate(self.layers):
            for d in ("fwd", "bwd"):
                wx, wh, b = layer[d]
                yield f"{prefix}.l{i}.{d}.wx", wx
                yield f"{prefix}.l{i}.{d}.wh", wh
                yield f"{prefix}.l{i}.{d}.b", b
        yield f"{prefix}.out3_w", self.out3_w
        yield f"{prefix}.out3_b", self.out3_b
        yield f"{prefix}.out4_w", self.out4_w
        yield f"{prefix}.out4_b", self.out4_b


@dataclass
class FusionParams:
    w: np.ndarray               # (state_dim + 32, 2)
    b: np.ndarray

    def named(self, prefix="fusion"):
        yield f"{prefix}.w", self.w
        yield f"{prefix}.b", self.b


@dataclass
class ModelParams:
    gnn: GnnParams
    lstm: BiLstmParams
    fusion: FusionParams
    hyper: Hyperparams

    def named(self):
        yield from self.gnn.named()
        yield from self.lstm.named()
        yield from self.fusion.named()


def _uniform(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


def init_model(hp: Hyperparams, seed: int = 0, state_dim: int = STATE_DIM,
               embed_dim: int = EMBED_DIM) -> ModelParams:
    rng = np.random.default_rng(seed)
    units = hp.lstm_units
    embedding = rng.uniform(-0.1, 0.1, (VOCAB_SIZE, embed_dim))
    layers = []
    for i in range(hp.hidden_layers):
        d_in = embed_dim if i == 0 else 2 * units
        layer = {}
        for direction in ("fwd", "bwd"):
            layer[direction] = (
                _uniform(rng, (d_in, 4 * units), d_in),
                _uniform(rng, (units, 4 * units), units),
                np.zeros(4 * units),
            )
        layers.append(layer)
    lstm = BiLstmParams(
        embedding=embedding,
        layers=layers,
        out3_w=_uniform(rng, (2 * units, 64), 2 * units),
        out3_b=np.zeros(64),
        out4_w=_uniform(rng, (64, 32), 64),
        out4_b=np.zeros(32),
    )
    edge_dim = 2 * hp.label_dim + len(EDGE_TYPE_ORDER)
    gnn = GnnParams(
        w1=_uniform(rng, (edge_dim, state_dim * state_dim), edge_dim),
        b1=np.zeros(state_dim * state_dim),
        w2=_uniform(rng, (hp.label_dim, state_dim), hp.label_dim),
        b2=np.zeros(state_dim),
        gate_w=_uniform(rng, (state_dim, state_dim), state_dim),
        gate_b=np.zeros(state_dim),
        iterations=hp.iterations,
    )
    fusion = FusionParams(
        w=_uniform(rng, (state_dim + 32, FUSED_CLASSES), state_dim + 32),
        b=np.zeros(FUSED_CLASSES),
    )
    return ModelParams(gnn, lstm, fusion, hp)


# --- tape-level forward builders ----------------------------------------------

def gnn_vector_var(graph, pv: dict, params: GnnParams, rng, init_state=None) -> Var:
    """Graph-level vector as a tape Var; pv maps parameter names to Vars.

    Initial node states come from rng (uniform in [-0.1, 0.1], one row per
    node in list order) unless init_state supplies them explicitly."""
    n_nodes = len(graph.nodes)
    s = params.state_dim
    if n_nodes == 0:
        return tape.constant(np.zeros((1, s)))
    labels = graph.node_labels
    if labels.shape[1] != params.label_dim:
        raise ModelMismatchError(
            f"graph label dim {labels.shape[1]} != model label dim {params.label_dim}"
        )
    id_to_index = {node.id: i for i, node in enumerate(graph.nodes)}
    edges = graph.edges
    if init_state is None:
        init_state = rng.uniform(-0.1, 0.1, (n_nodes, s))
    h = tape.constant(init_state)
    base = tape.add(
        tape.matmul(tape.constant(labels), pv["gnn.w2"]), pv["gnn.b2"]
    )
    if edges:
        src = np.array([id_to_index[e.source] for e in edges])
        dst = np.array([id_to_index[e.target] for e in edges])
        onehot = graph.edge_onehot()
        edge_feat = np.concatenate([labels[src], onehot, labels[dst]], axis=1)
        transform = tape.reshape(
            tape.add(tape.matmul(tape.constant(edge_feat), pv["gnn.w1"]), pv["gnn.b1"]),
            (len(edges), s, s),
        )
        indeg = np.zeros(n_nodes)
        np.add.at(indeg, dst, 1.0)
        coef = (1.0 / np.maximum(1.0, indeg))[:, None]
        for _ in range(params.iterations - 1):
            messages = tape.bmm_vec(transform, tape.gather_rows(h, src))
            agg = tape.segment_sum(messages, dst, n_nodes)
            h = tape.tanh(tape.add(tape.scale(agg, coef), base))
    else:
        for _ in range(params.iterations - 1):
            h = tape.tanh(base)
    gate = tape.sigmoid(tape.add(tape.matmul(h, pv["gnn.gate_w"]), pv["gnn.gate_b"]))
    return tape.tanh(tape.sum_axis(tape.mul(gate, h), axis=0, keepdims=True))


def _lstm_direction(xs, wx, wh, b, units, reverse=False):
    n = xs[0].shape[0]
    h = tape.constant(np.zeros((n, units)))
    c = tape.constant(np.zeros((n, units)))
    outputs = [None] * len(xs)
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for t in order:
        z = tape.add(tape.add(tape.matmul(xs[t], wx), tape.matmul(h, wh)), b)
        i = tape.sigmoid(tape.slice_cols(z, 0, units))
        f = tape.sigmoid(tape.slice_cols(z, units, 2 * units))
        g = tape.tanh(tape.slice_cols(z, 2 * units, 3 * units))
        o = tape.sigmoid(tape.slice_cols(z, 3 * units, 4 * units))
        c = tape.add(tape.mul(f, c), tape.mul(i, g))
        h = tape.mul(o, tape.tanh(c))
        outputs[t] = h
    return outputs


def bilstm_vector_var(matrix, pv: dict, params: BiLstmParams) -> Var:
    """App-level 32-vector from the opcode row matrix, as a tape Var."""
    if matrix.n == 0:
        return tape.constant(np.zeros((1, 32)))
    rows = matrix.rows
    units = params.units
    xs = [tape.gather_rows(pv["lstm.embedding"], rows[:, t]) for t in range(matrix.row_len)]
    for li in range(len(params.layers)):
        fwd = _lstm_direction(
            xs, pv[f"lstm.l{li}.fwd.wx"], pv[f"lstm.l{li}.fwd.wh"], pv[f"lstm.l{li}.fwd.b"], units
        )
        bwd = _lstm_direction(
            xs, pv[f"lstm.l{li}.bwd.wx"], pv[f"lstm.l{li}.bwd.wh"], pv[f"lstm.l{li}.bwd.b"], units,
            reverse=True,
        )
        xs = [tape.concat([f, b], axis=1) for f, b in zip(fwd, bwd)]
    acc = xs[0]
    for x in xs[1:]:
        acc = tape.add(acc, x)
    pooled = tape.scale(acc, 1.0 / len(xs))
    h3 = tape.add(tape.matmul(pooled, pv["lstm.out3_w"]), pv["lstm.out3_b"])
    h4 = tape.add(tape.matmul(h3, pv["lstm.out4_w"]), pv["lstm.out4_b"])
    return tape.scale(tape.sum_axis(h4, axis=0, keepdims=True), 1.0 / matrix.n)


def logits_var(hg: Var, hb: Var, pv: dict) -> Var:
    fused = tape.concat([hg, hb], axis=1)
    return tape.add(tape.matmul(fused, pv["fusion.w"]), pv["fusion.b"])


def loss_var(logits: Var, label: int) -> Var:
    return tape.neg(tape.pick(tape.log_softmax(logits), 0, int(label)))


def param_vars(params: ModelParams) -> dict:
    return {name: tape.parameter(arr) for name, arr in params.named()}


def sample_loss(params: ModelParams, graph, matrix, label, init_seed):
    """Tape loss for one sample; returns (loss Var, name -> Var dict)."""
    pv = param_vars(params)
    rng = np.random.default_rng(init_seed)
    hg = gnn_vector_var(graph, pv, params.gnn, rng)
    hb = bilstm_vector_var(_checked(matrix, params.hyper.seq_len), pv, params.lstm)
    return loss_var(logits_var(hg, hb, pv), label), pv


def _checked(matrix, seq_len):
    if matrix.row_len != seq_len:
        raise RowLengthMismatchError(
            f"matrix rows of length {matrix.row_len}, model expects {seq_len}"
        )
    return matrix


# --- inference-level API -------------------------------------------------------

def gnn_forward(graph, params: GnnParams, seed=0, init_state=None) -> np.ndarray:
    """Graph-level vector of size state_dim (zero vector for empty graphs)."""
    pv = {name: tape.constant(arr) for name, arr in params.named()}
    rng = np.random.default_rng(seed)
    return gnn_vector_var(graph, pv, params, rng, init_state).value[0]


def bilstm_forward(matrix, params: BiLstmParams) -> np.ndarray:
    """App-level vector of size 32 (zero vector for zero-row matrices)."""
    pv = {name: tape.constant(arr) for name, arr in params.named()}
    return bilstm_vector_var(matrix, pv, params).value[0]


def classify(h_g: np.ndarray, h_b: np.ndarray, params: FusionParams) -> np.ndarray:
    """Probability pair (benign, malicious); sums to one."""
    logits = np.concatenate([np.ravel(h_g), np.ravel(h_b)]) @ params.w + params.b
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def loss(probs, label: int) -> float:
    p = max(float(probs[int(label)]), 1e-12)
    return -math.log(p)


def probabilities(features, model: ModelParams, seed=0) -> np.ndarray:
    """Probability pair (benign, malicious) for a (flow graph, row matrix)
    feature pair: one forward pass through both branches and the fusion."""
    graph, matrix = features
    h_g = gnn_forward(graph, model.gnn, seed)
    h_b = bilstm_forward(_checked(matrix, model.hyper.seq_len), model.lstm)
    return classify(h_g, h_b, model.fusion)


def predict(features, model: ModelParams, seed=0):
    """(label, probability) for a (flow graph, row matrix) feature pair.

    Ties break toward the lower label index."""
    probs = probabilities(features, model, seed)
    label = int(np.argmax(probs))
    return label, float(probs[label])


def score(features, model: ModelParams, seed=0) -> float:
    """Probability of the malicious class (index 1)."""
    return float(probabilities(features, model, seed)[1])


# --- persistence ----------------------------------------------------------------

FORMAT_VERSION = 1


def save_model(model: ModelParams, path):
    payload = {
        "format_version": FORMAT_VERSION,
        "edge_type_order": list(EDGE_TYPE_ORDER),
        "state_dim": model.gnn.state_dim,
        "embed_dim": model.lstm.embed_dim,
        "hyperparams": {
            "seq_len": model.hyper.seq_len,
            "hidden_layers": model.hyper.hidden_layers,
            "lstm_units": model.hyper.lstm_units,
            "label_dim": model.hyper.label_dim,
            "iterations": model.hyper.iterations,
            "epochs": model.hyper.epochs,
            "batch_size": model.hyper.batch_size,
        },
        "weights": {name: arr.tolist() for name, arr in model.named()},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def load_model(path, expect_label_dim=None, expect_seq_len=None) -> ModelParams:
    payload = json.loads(Path(path).read_text())
    if payload.get("format_version") != FORMAT_VERSION:
        raise ModelMismatchError(f"unsupported model format: {payload.get('format_version')}")
    if payload.get("edge_type_order") != list(EDGE_TYPE_ORDER):
        raise ModelMismatchError("model edge-type order differs from this build")
    hp = Hyperparams(**payload["hyperparams"])
    if expect_label_dim is not None and hp.label_dim != expect_label_dim:
        raise ModelMismatchError(
            f"model label_dim {hp.label_dim} != expected {expect_label_dim}"
        )
    if expect_seq_len is not None and hp.seq_len != expect_seq_len:
        raise ModelMismatchError(f"model seq_len {hp.seq_len} != expected {expect_seq_len}")
    model = init_model(hp, seed=0, state_dim=payload["state_dim"], embed_dim=payload["embed_dim"])
    weights = payload["weights"]
    for name, arr in model.named():
        arr[...] = np.array(weights[name], dtype=np.float64).reshape(arr.shape)
    return model
