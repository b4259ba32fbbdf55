"""Hybrid classifier: gated graph network over the abstract flow graph,
stacked bidirectional LSTM over the opcode row matrix, decision-level fusion.

Graph branch: node states are seeded randomly in [-0.1, 0.1] and updated for
a fixed number of unrolled steps. Each directed edge (u, v) contributes the
message reshape(W1 [l_u ; l_uv ; l_v] + b1) h_u; node v averages its incoming
messages, adds W2 l_v + b2, and squashes with tanh (the linear transition
alone cannot keep the iteration bounded). The readout, one tape node that keeps
the final states and gates only, tanh-squashes the sum of sigmoid(affine(state)) * state.

Sequence branch: opcode rows embed to 128-wide vectors, run through stacked
bidirectional LSTM layers, are mean-pooled over the row positions, projected
512 -> 64 -> 32, and mean-pooled over rows.

Fusion: one fully connected layer over the concatenated branch vectors,
softmax on top. Empty inputs (no nodes / no rows) map to zero vectors so
feature-less apps still classify.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..flowgraph import EDGE_TYPE_ORDER
from ..tables import InputError
from . import tape
from .tape import Var

VOCAB_SIZE = 256
EMBED_DIM = 128
STATE_DIM = 32
FUSED_CLASSES = 2
# Opcode rows times LSTM units that one forward pass may hold: scoring groups
# apps into batches within it and training splits a mini-batch over it. The
# fused LSTM op keeps its gate buffer and states for every row at once: at 256
# units with 100-opcode rows and two layers, a training step peaks at about
# 3.12 MiB per row and scoring at about 0.79 MiB (tracemalloc, 64 rows).
BATCH_ROW_UNITS = 64 * 256


class RowLengthMismatchError(ValueError):
    pass


class ModelMismatchError(InputError):
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

    def __post_init__(self):
        for name, value in asdict(self).items():
            if type(value) is not int:   # a bool is an int subclass
                raise ValueError(f"{name} must be an integer, not {value!r}")
            least = 0 if name == "iterations" else 1
            if value < least:
                raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate >= 0:   # NaN fails too
            raise ValueError("learning_rate must be >= 0")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), not {getattr(self, name)!r}")
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, not {self.eps!r}")
        if type(self.seed) is not int or self.seed < 0:   # a bool is an int subclass
            raise ValueError(f"seed must be an integer >= 0, not {self.seed!r}")


@dataclass
class ModelParams:
    hyper: Hyperparams
    weights: dict               # name -> array, in model-file order (see _assemble)
    # per BiLSTM layer, its (fwd, bwd) tape.lstm_form, filled on first score
    _scoring: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def state_dim(self) -> int:
        return self.weights["gnn.w2"].shape[1]

    def scoring_form(self) -> list:
        """The BiLSTM's forward arrays that every score reads, built from the
        weights on the first call: scoring reads the weights as they were
        then. Training builds its own on every forward pass."""
        w = self.weights
        for li in range(len(self._scoring), self.hyper.hidden_layers):
            embedding = w["lstm.embedding"] if li == 0 else None
            self._scoring.append(tuple(
                tape.lstm_form(*(w[f"lstm.l{li}.{d}.{k}"] for k in ("wx", "wh", "b")), embedding)
                for d in ("fwd", "bwd")))
        return self._scoring


def init_model(hp: Hyperparams, seed: int = 0, state_dim: int = STATE_DIM,
               embed_dim: int = EMBED_DIM) -> ModelParams:
    rng = np.random.default_rng(seed)
    return _assemble(hp, state_dim, embed_dim,
                     lambda shape, bound: rng.uniform(-bound, bound, shape), np.zeros)


def _assemble(hp: Hyperparams, state_dim: int, embed_dim: int, uniform, zeros) -> ModelParams:
    """ModelParams of the given architecture, the one place that names,
    shapes and orders the weights. Each bias (every 1-D weight) is
    zeros(shape); every other weight is uniform(shape, bound), with bound 0.1
    for the embedding and 1/sqrt(fan_in) for the rest, called in this order:
    lstm.embedding; per layer i, lstm.l{i}.fwd.wx, .fwd.wh, .bwd.wx, .bwd.wh;
    lstm.out3_w, lstm.out4_w, gnn.w1, gnn.w2, gnn.gate_w, fusion.w. The
    weights are listed in model-file order: gnn.*, lstm.*, fusion.*."""
    units, s = hp.lstm_units, state_dim
    lstm = [("lstm.embedding", (VOCAB_SIZE, embed_dim))]
    for i in range(hp.hidden_layers):
        d_in = embed_dim if i == 0 else 2 * units
        for d in ("fwd", "bwd"):
            lstm += [(f"lstm.l{i}.{d}.wx", (d_in, 4 * units)),
                     (f"lstm.l{i}.{d}.wh", (units, 4 * units)),
                     (f"lstm.l{i}.{d}.b", (4 * units,))]
    lstm += [("lstm.out3_w", (2 * units, 64)), ("lstm.out3_b", (64,)),
             ("lstm.out4_w", (64, 32)), ("lstm.out4_b", (32,))]
    edge_dim = 2 * hp.label_dim + len(EDGE_TYPE_ORDER)
    gnn = [("gnn.w1", (edge_dim, s * s)), ("gnn.b1", (s * s,)),
           ("gnn.w2", (hp.label_dim, s)), ("gnn.b2", (s,)),
           ("gnn.gate_w", (s, s)), ("gnn.gate_b", (s,))]
    fusion = [("fusion.w", (s + 32, FUSED_CLASSES)), ("fusion.b", (FUSED_CLASSES,))]
    drawn = {
        name: zeros(shape) if len(shape) == 1
        else uniform(shape, 0.1 if name == "lstm.embedding" else 1.0 / math.sqrt(shape[0]))
        for name, shape in lstm + gnn + fusion
    }
    return ModelParams(hp, {name: drawn[name] for name, _ in gnn + lstm + fusion})


# --- tape-level forward builders ----------------------------------------------
#
# Every builder takes a batch. forward_var chains them into the fused logits:
# training runs it on one tape per mini-batch (or per capped part of one), and
# probabilities runs it on constant parameters over a batch of apps.

def gnn_batch_var(graphs, init_states, pv: dict, iterations: int) -> Var:
    """(B, state_dim) graph vectors for a batch of GraphArrays, run as one
    disjoint union with node positions offset per graph, over `iterations`
    unrolled steps. init_states[k] holds graph k's initial node states, of
    the rows that are read, as draw_init_states gives them. Graphs without
    nodes map to zero vectors."""
    sizes = [len(g.labels) for g in graphs]
    total = sum(sizes)
    if total == 0:
        return tape.constant(np.zeros((len(graphs), pv["gnn.w2"].shape[1])))
    receivers, h_recv = (), None
    if iterations < 2:
        h = tape.constant(np.concatenate(init_states))
    else:
        offsets = np.cumsum([0] + sizes[:-1])
        labels = np.concatenate([g.labels for g in graphs])
        base = tape.affine(tape.constant(labels), pv["gnn.w2"], pv["gnn.b2"])
        h = tape.tanh(base)
        src = np.concatenate([g.src + off for g, off in zip(graphs, offsets)])
        if len(src):
            dst = np.concatenate([g.dst + off for g, off in zip(graphs, offsets)])
            edge_feat = np.concatenate([g.edge_feat for g in graphs])
            receivers, h_recv = _message_updates(h, base, src, dst, edge_feat,
                                                 np.concatenate(init_states), pv, iterations)
        base.value = None   # read by no backward closure: tanh keeps its own output
    graph_index = np.repeat(np.arange(len(graphs)), sizes)
    return tape.tanh(tape.gated_readout(h, receivers, h_recv, pv["gnn.gate_w"],
                                        pv["gnn.gate_b"], graph_index, len(graphs)))


def _message_updates(unreached, base, src, dst, edge_feat, src_init, pv, iterations):
    """(receivers, their final states) for a graph union with edges (src, dst).

    Only the receivers, the nodes some edge points to, are iterated: from the
    first update on, every other node's state is exactly
    unreached = tanh(W2 l + b2), as its aggregated message is zero."""
    total, s = base.shape
    receivers, to_receiver = np.unique(dst, return_inverse=True)
    n_recv = len(receivers)
    coef = (1.0 / np.bincount(to_receiver))[:, None]
    transform = tape.reshape(tape.affine(tape.constant(edge_feat), pv["gnn.w1"], pv["gnn.b1"]),
                             (len(src), s, s))
    base_recv = tape.gather_rows(base, receivers)
    # From the second update on, a source's state is its receiver row, or
    # tanh(base) for a source that receives nothing.
    rank = np.full(total, -1)
    rank[receivers] = np.arange(n_recv)
    src_pos = np.where(rank[src] >= 0, rank[src], n_recv + np.arange(len(src)))
    src_unreached = tape.gather_rows(unreached, src)
    h_src = tape.constant(src_init)
    for step in range(iterations - 1):
        if step:
            h_src = tape.gather_rows(tape.concat([h_recv, src_unreached]), src_pos)
        agg = tape.segment_sum(tape.bmm_vec(transform, h_src), to_receiver, n_recv)
        h_recv = tape.tanh(tape.add(tape.scale(agg, coef), base_recv))
    return receivers, h_recv


def bilstm_batch_var(matrices, pv: dict, layers: int, forms=None) -> Var:
    """(B, 32) app vectors for a batch of row matrices. The rows of every app
    run through the `layers` stacked BiLSTM layers as one (N, seq_len) token
    matrix, one fused tape op per layer and direction, and are mean-pooled per app; apps without
    rows map to zero vectors. The layer outputs stay in the op's compute
    dtype up to the pooling, which sums in float64. forms, if given, is
    ModelParams.scoring_form of the weights in pv."""
    counts = np.array([m.n for m in matrices])
    if not counts.sum():
        return tape.constant(np.zeros((len(matrices), 32)))
    tokens = np.concatenate([m.rows for m in matrices])
    x = pv["lstm.embedding"]
    for li in range(layers):
        fwd, bwd = ([pv[f"lstm.l{li}.{d}.{w}"] for w in ("wx", "wh", "b")] for d in ("fwd", "bwd"))
        x = tape.bilstm(x, fwd, bwd, tokens=tokens if li == 0 else None,
                        forms=forms[li] if forms else (None, None))
    pooled = tape.scale(tape.sum_axis(x, axis=0, keepdims=False), 1.0 / tokens.shape[1])
    h3 = tape.affine(pooled, pv["lstm.out3_w"], pv["lstm.out3_b"])
    h4 = tape.affine(h3, pv["lstm.out4_w"], pv["lstm.out4_b"])
    app_sums = tape.segment_sum(h4, np.repeat(np.arange(len(matrices)), counts), len(matrices))
    return tape.scale(app_sums, (1.0 / np.maximum(1, counts))[:, None])


def logits_var(hg: Var, hb: Var, pv: dict) -> Var:
    fused = tape.concat([hg, hb], axis=1)
    return tape.affine(fused, pv["fusion.w"], pv["fusion.b"])


def draw_init_states(graphs, init_seeds, state_dim: int, iterations: int) -> list:
    """Initial node states, one array per graph, of the rows gnn_batch_var
    reads: every node's when iterations < 2, else each edge source's, in edge
    order. Each is its row of default_rng(init_seeds[k]).uniform(-0.1, 0.1,
    (n_k, state_dim)): a value takes one 64-bit step of the PCG64 stream, so
    the stream is advanced over the rows that are not read, and each run of
    consecutive rows is drawn in one call."""
    out = []
    for g, seed in zip(graphs, init_seeds):
        read = np.arange(len(g.labels)) if iterations < 2 else g.src
        rows, where = np.unique(read, return_inverse=True)
        rng, drawn, at = np.random.default_rng(seed), np.empty((len(rows), state_dim)), 0
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1).tolist() + [len(rows)]
        for lo, hi in zip(starts, starts[1:]):
            rng.bit_generator.advance((int(rows[lo]) - at) * state_dim)
            drawn[lo:hi] = rng.uniform(-0.1, 0.1, (hi - lo, state_dim))
            at = int(rows[hi - 1]) + 1   # rows of the stream spent
        out.append(drawn if iterations < 2 else drawn[where])
    return out


def forward_var(model: ModelParams, pv: dict, graphs, matrices, init_states,
                forms=None) -> Var:
    """(B, 2) fused logits for a batch of GraphArrays, their row matrices and
    their initial node states, with parameters pv (name -> Var). Training and
    scoring both run through here; scoring passes model.scoring_form() as forms."""
    hg = gnn_batch_var(graphs, init_states, pv, model.hyper.iterations)
    hb = bilstm_batch_var(matrices, pv, model.hyper.hidden_layers, forms)
    return logits_var(hg, hb, pv)


def loss_var(logits: Var, label) -> Var:
    """Mean cross-entropy of (B, 2) logits against B labels (or one label)."""
    labels = np.atleast_1d(label)
    onehot = np.zeros(logits.shape)
    onehot[np.arange(len(labels)), labels] = 1.0
    picked = tape.sum_axis(
        tape.mul(tape.log_softmax(logits), tape.constant(onehot)), axis=1, keepdims=False
    )
    return tape.scale(tape.sum_axis(picked, axis=0, keepdims=False), -1.0 / len(labels))


def param_vars(params: ModelParams) -> dict:
    return {name: tape.parameter(arr) for name, arr in params.weights.items()}


def capped_batches(items, rows, units: int):
    """Consecutive lists of items, in order, each as long as it can be while
    its rows times units stays within BATCH_ROW_UNITS; rows(item) is an
    item's opcode row count. An item counts at least one row, so a run of
    row-less apps stays bounded too, and an item over the cap is a batch of
    its own, never split."""
    batch, held = [], 0
    for item in items:
        cost = max(1, rows(item)) * units
        if batch and held + cost > BATCH_ROW_UNITS:
            yield batch
            batch, held = [], 0
        batch.append(item)
        held += cost
    if batch:
        yield batch


def _checked(matrix, seq_len):
    if matrix.row_len != seq_len:
        raise RowLengthMismatchError(
            f"matrix rows of length {matrix.row_len}, model expects {seq_len}"
        )
    return matrix


# --- scoring --------------------------------------------------------------------

def probabilities(pairs, model: ModelParams, seed=0) -> np.ndarray:
    """(B, 2) probabilities (benign, malicious) for a list of B (flow graph,
    row matrix) feature pairs: forward_var on the graphs' arrays(), on
    constant parameters and the model's scoring form over the whole list as
    one batch, each app's initial node states drawn from seed, as when it is
    scored alone. Constants record no tape links, so each branch's
    intermediates are freed once it is done."""
    graphs = [graph.arrays(model.hyper.label_dim) for graph, _ in pairs]
    matrices = [_checked(matrix, model.hyper.seq_len) for _, matrix in pairs]
    pv = {name: tape.constant(arr) for name, arr in model.weights.items()}
    init_states = draw_init_states(graphs, [seed] * len(graphs), model.state_dim,
                                   model.hyper.iterations)
    logits = forward_var(model, pv, graphs, matrices, init_states, model.scoring_form())
    return np.exp(tape.log_softmax(logits).value)


def score(features, model: ModelParams, seed=0) -> float:
    """Probability of the malicious class (index 1) for one feature pair."""
    return float(probabilities([features], model, seed)[0, 1])


# --- persistence ----------------------------------------------------------------
#
# A model file (format 3) is one line of compact, sorted JSON, the header,
# then each weight's little-endian float64 bytes, back to back, in the order
# the header's `weights` list names them (ModelParams.weights order), after
# the safetensors layout. A load therefore restores every parameter bit for
# bit. Shapes are not stored; they follow from the header.

FORMAT_VERSION = 3


def save_model(model: ModelParams, path):
    header = {
        "format_version": FORMAT_VERSION,
        "edge_type_order": list(EDGE_TYPE_ORDER),
        "state_dim": model.state_dim,
        "embed_dim": model.weights["lstm.embedding"].shape[1],
        "hyperparams": asdict(model.hyper),
        "weights": list(model.weights),
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for arr in model.weights.values():
            f.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_model(path) -> ModelParams:
    """The model saved at path; a file that does not fit this build is a
    ModelMismatchError naming it. The header's weights are checked against
    the file's size before any of them is allocated."""
    try:
        with open(path, "rb") as f:
            hp, shapes = _architecture(_header(f.readline()))
            size = os.fstat(f.fileno()).st_size - f.tell()
            expected = 8 * sum(map(math.prod, shapes.values()))
            if size != expected:
                raise ModelMismatchError(
                    f"model file holds {size} weight bytes, its header's weights need {expected}"
                )
            model = ModelParams(hp, {name: np.empty(shape, "<f8")
                                     for name, shape in shapes.items()})
            for arr in model.weights.values():
                f.readinto(arr)
    except ModelMismatchError as exc:
        raise ModelMismatchError(f"{path}: {exc}") from None
    return model


def _header(line: bytes) -> dict:
    """The checked header of a model file's first line. A file of an older
    format, one JSON document without a newline, is its own first line."""
    try:
        header = json.loads(line)
    except ValueError as exc:   # JSONDecodeError, or bytes that are not UTF-8
        raise ModelMismatchError(f"model header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ModelMismatchError(f"model file holds a JSON {type(header).__name__}, not an object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ModelMismatchError(f"unsupported model format: {header.get('format_version')}")
    if not line.endswith(b"\n"):
        raise ModelMismatchError("model file has no newline after its header")
    if header.get("edge_type_order") != list(EDGE_TYPE_ORDER):
        raise ModelMismatchError("model edge-type order differs from this build")
    return header


def _architecture(header: dict):
    """The header's Hyperparams and the shape of each weight of its
    architecture, by name in ModelParams.weights order, the order in which
    the header must list the names."""
    try:
        hyper = header["hyperparams"]
        sizes = {"state_dim": header["state_dim"], "embed_dim": header["embed_dim"]}
        sizes.update((f.name, hyper[f.name]) for f in fields(Hyperparams) if f.name in hyper)
    except KeyError as exc:
        raise ModelMismatchError(f"model header lacks {exc.args[0]!r}") from None
    except TypeError as exc:   # hyperparams not an object
        raise ModelMismatchError(f"malformed model hyperparams: {exc}") from None
    for key, value in sizes.items():
        if type(value) is not int or value < 0:   # a bool is an int subclass
            raise ModelMismatchError(
                f"model header {key} must be a non-negative integer, not {value!r}"
            )
    try:
        hp = Hyperparams(**hyper)
    except (TypeError, ValueError) as exc:   # an unknown name, a value out of range
        raise ModelMismatchError(f"malformed model hyperparams: {exc}") from None
    shapes = _assemble(hp, header["state_dim"], header["embed_dim"],
                       lambda shape, bound: shape, lambda shape: shape).weights
    names = list(shapes)
    listed = header.get("weights")
    if listed != names:
        found = {n for n in listed if isinstance(n, str)} if isinstance(listed, list) else set()
        missing, unexpected = sorted(set(names) - found), sorted(found - set(names))
        detail = (f"missing {missing}, unexpected {unexpected}" if missing or unexpected
                  else "listed out of order or more than once")
        raise ModelMismatchError(f"model weights do not match its hyperparameters: {detail}")
    return hp, shapes
