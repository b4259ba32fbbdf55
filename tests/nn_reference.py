"""Per-sample reference for the batched model and trainer.

The builders below build one tape per sample, with one node per LSTM gate
and timestep and one GNN update over every node per iteration, exactly as
the model did before it was batched. Tests compare the batched builders and
`train` against them; they are not used by droidflow itself.
composed_gnn_batch_var is the batched graph branch before its affine maps
and gated readout became single tape nodes, the reference they must match
bit for bit; it reads every node's initial state, as full_init_states
draws them, where the model draws only the rows it reads. composed_bilstm
is a BiLSTM layer as the concat of its two directions. gnn_vector_var
reads a flow graph's nodes as flowgraph_reference's ChunkNodes.
row_layout_lstm is tape.lstm as it was before its gate buffer became
gate-major: one (T, N, 4u) buffer and one (N, u) @ (u, 4u) recurrent
product per step.
"""

import numpy as np

from droidflow.flowgraph import EDGE_TYPE_ORDER
from droidflow.nn import tape
from droidflow.nn.model import init_model, logits_var, param_vars
from droidflow.nn.train import INIT_STREAM, SHUFFLE_STREAM, Adam, TrainResult

import tape_ops
from flowgraph_reference import as_chunk_graph, node_label


def gnn_vector_var(graph, pv, iterations, rng, init_state=None):
    graph = as_chunk_graph(graph)
    n_nodes = len(graph.nodes)
    label_dim, s = pv["gnn.w2"].shape
    if n_nodes == 0:
        return tape.constant(np.zeros((1, s)))
    labels = np.array([node_label(n, label_dim) for n in graph.nodes])
    id_to_index = {node.id: i for i, node in enumerate(graph.nodes)}
    edges = graph.edges
    if init_state is None:
        init_state = rng.uniform(-0.1, 0.1, (n_nodes, s))
    h = tape.constant(init_state)
    base = tape.add(tape_ops.matmul(tape.constant(labels), pv["gnn.w2"]), pv["gnn.b2"])
    if edges:
        src = np.array([id_to_index[e.source] for e in edges])
        dst = np.array([id_to_index[e.target] for e in edges])
        onehot = np.zeros((len(edges), len(EDGE_TYPE_ORDER)))
        for i, e in enumerate(edges):
            onehot[i, EDGE_TYPE_ORDER.index(e.type)] = 1.0
        edge_feat = np.concatenate([labels[src], onehot, labels[dst]], axis=1)
        transform = tape.reshape(
            tape.add(tape_ops.matmul(tape.constant(edge_feat), pv["gnn.w1"]), pv["gnn.b1"]),
            (len(edges), s, s),
        )
        indeg = np.zeros(n_nodes)
        np.add.at(indeg, dst, 1.0)
        coef = (1.0 / np.maximum(1.0, indeg))[:, None]
        for _ in range(iterations - 1):
            messages = tape.bmm_vec(transform, tape.gather_rows(h, src))
            agg = tape.segment_sum(messages, dst, n_nodes)
            h = tape.tanh(tape.add(tape.scale(agg, coef), base))
    else:
        for _ in range(iterations - 1):
            h = tape.tanh(base)
    gate = tape_ops.sigmoid(tape.add(tape_ops.matmul(h, pv["gnn.gate_w"]), pv["gnn.gate_b"]))
    return tape.tanh(tape.sum_axis(tape.mul(gate, h), axis=0, keepdims=True))


def full_init_states(graphs, init_seeds, state_dim, iterations=None):
    """Every node's initial state, one (n_k, state_dim) array per graph, drawn
    as model.draw_init_states drew them before it drew only the rows read
    (iterations, which it takes, changes nothing here)."""
    return [np.random.default_rng(seed).uniform(-0.1, 0.1, (len(g.labels), state_dim))
            for g, seed in zip(graphs, init_seeds)]


def rows_read(init_states, graphs, iterations):
    """The rows of every node's initial states that model.gnn_batch_var reads:
    all of them below two iterations, else each edge source's, in edge order."""
    return [s if iterations < 2 else s[g.src] for s, g in zip(init_states, graphs)]


def composed_bilstm(x, fwd, bwd, tokens=None, forms=(None, None)):
    """tape.bilstm as the concat of one lstm node per direction."""
    return tape.concat([tape.lstm(x, *fwd, tokens=tokens, form=forms[0]),
                        tape.lstm(x, *bwd, reverse=True, tokens=tokens, form=forms[1])], axis=2)


def composed_gnn_batch_var(graphs, init_states, pv, iterations):
    """model.gnn_batch_var built from single ops: each affine map as
    add(matmul), the final node states assembled by gather_rows over a concat
    of the receiver states and tanh(W2 l + b2), and the readout as
    sigmoid(add(matmul)), mul and segment_sum."""
    sizes = [len(g.labels) for g in graphs]
    total = sum(sizes)
    if total == 0:
        return tape.constant(np.zeros((len(graphs), pv["gnn.w2"].shape[1])))
    if iterations < 2:
        h = tape.constant(np.concatenate(init_states))
    else:
        offsets = np.cumsum([0] + sizes[:-1])
        labels = np.concatenate([g.labels for g in graphs])
        base = tape.add(tape_ops.matmul(tape.constant(labels), pv["gnn.w2"]), pv["gnn.b2"])
        h = tape.tanh(base)
        src = np.concatenate([g.src + off for g, off in zip(graphs, offsets)])
        if len(src):
            dst = np.concatenate([g.dst + off for g, off in zip(graphs, offsets)])
            edge_feat = np.concatenate([g.edge_feat for g in graphs])
            h = _composed_message_updates(h, base, src, dst, edge_feat,
                                          np.concatenate(init_states)[src], pv, iterations)
    gate = tape_ops.sigmoid(tape.add(tape_ops.matmul(h, pv["gnn.gate_w"]), pv["gnn.gate_b"]))
    graph_index = np.repeat(np.arange(len(graphs)), sizes)
    return tape.tanh(tape.segment_sum(tape.mul(gate, h), graph_index, len(graphs)))


def _composed_message_updates(unreached, base, src, dst, edge_feat, src_init, pv, iterations):
    total, s = base.shape
    receivers, to_receiver = np.unique(dst, return_inverse=True)
    n_recv = len(receivers)
    coef = (1.0 / np.bincount(to_receiver))[:, None]
    transform = tape.reshape(
        tape.add(tape_ops.matmul(tape.constant(edge_feat), pv["gnn.w1"]), pv["gnn.b1"]),
        (len(src), s, s),
    )
    base_recv = tape.gather_rows(base, receivers)
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
    node_pos = np.where(rank >= 0, rank, n_recv + np.arange(total))
    return tape.gather_rows(tape.concat([h_recv, unreached]), node_pos)


def row_layout_lstm(x, wx, wh, b, reverse=False, tokens=None, out=None):
    """One direction of an LSTM layer over a batch of rows, as one tape node.

    Time-major: x is (T, N, d), or, when tokens (N, T) are given, a lookup
    table (V, d) whose rows the tokens pick; the table is projected through
    wx once (V x 4u) and the projection gathered per token, so the (T*N, d)
    input is never built. Gates are packed i, f, g, o in wx, wh and b.
    Returns the hidden states H, (T, N, u), in input order, as LSTM_DTYPE,
    written into out (a (T, N, u) LSTM_DTYPE array or view) when given.

    The forward loop runs in plain numpy and keeps one (T, N, 4u) buffer of
    gate activations plus the states C and H. The backward pass overwrites
    the buffer in place with the gate pre-activation gradients dZ, from
    which every input gradient follows in one product each. The buffer, the
    states, the recurrent products and the gradients of H and of a layer
    input are LSTM_DTYPE; every parameter's gradient is float64."""
    dt = tape.LSTM_DTYPE
    units = wh.value.shape[0]
    wh_c = wh.value.astype(dt, copy=False)
    if tokens is None:
        x_c = x.value.astype(dt, copy=False)
        wx_c = wx.value.astype(dt, copy=False)
        steps, n, d = x_c.shape
        z = (x_c.reshape(-1, d) @ wx_c).reshape(steps, n, 4 * units)
    else:
        tokens = np.asarray(tokens).T
        steps, n = tokens.shape
        z = (x.value @ wx.value).astype(dt, copy=False)[tokens]
    z += b.value.astype(dt, copy=False)
    hs = np.empty((steps, n, units), dt) if out is None else out
    cs = np.empty((steps, n, units), dt)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    h = np.zeros((n, units), dt)
    c = np.zeros((n, units), dt)
    for t in order:
        zt = z[t]
        zt += h @ wh_c
        zt[:, : 2 * units] = tape._sigmoid(zt[:, : 2 * units])
        zt[:, 2 * units : 3 * units] = np.tanh(zt[:, 2 * units : 3 * units])
        zt[:, 3 * units :] = tape._sigmoid(zt[:, 3 * units :])
        i, f, g, o = (zt[:, k * units : (k + 1) * units] for k in range(4))
        c = f * c + i * g
        h = o * np.tanh(c)
        cs[t] = c
        hs[t] = h

    dz = []

    def gate_grads(dh_out):
        """dZ, computed once and shared by every input's gradient."""
        if dz:
            return dz[0]
        dh = np.zeros((n, units), dt)
        dc = np.zeros((n, units), dt)
        for k, t in enumerate(reversed(order)):
            zt = z[t]
            i, f, g, o = (zt[:, j * units : (j + 1) * units] for j in range(4))
            c_prev = cs[t + 1 if reverse else t - 1] if k < steps - 1 else 0.0
            tc = np.tanh(cs[t])
            dh = dh + dh_out[t]
            dc = dc + dh * o * (1.0 - tc * tc)
            d_i = dc * g * i * (1.0 - i)
            d_f = dc * c_prev * f * (1.0 - f)
            d_g = dc * i * (1.0 - g * g)
            d_o = dh * tc * o * (1.0 - o)
            dc = dc * f
            zt[:, :units] = d_i
            zt[:, units : 2 * units] = d_f
            zt[:, 2 * units : 3 * units] = d_g
            zt[:, 3 * units :] = d_o
            dh = zt @ wh_c.T
        dz.append(z)
        return z

    def flat(a):
        return a.reshape(-1, a.shape[-1])

    def wide(a):
        return a.astype(np.float64, copy=False)

    def d_wh(g):
        dzv = gate_grads(g)
        if reverse:
            return wide(flat(hs[1:]).T @ flat(dzv[:-1]))
        return wide(flat(hs[:-1]).T @ flat(dzv[1:]))

    if tokens is None:
        parents = (
            (x, lambda g: (flat(gate_grads(g)) @ wx_c.T).reshape(x.value.shape)),
            (wx, lambda g: wide(flat(x_c).T @ flat(gate_grads(g)))),
        )
    else:
        proj = []

        def d_proj(g):
            if not proj:
                proj.append(tape._add_rows(tokens.reshape(-1), flat(gate_grads(g)), len(x.value)))
            return proj[0]

        parents = (
            (x, lambda g: d_proj(g) @ wx.value.T),
            (wx, lambda g: x.value.T @ d_proj(g)),
        )
    b_grad = (b, lambda g: gate_grads(g).sum(axis=(0, 1), dtype=np.float64))
    return tape.Var(hs, parents + ((wh, d_wh), b_grad), dtype=dt)


def _lstm_direction(xs, wx, wh, b, units, reverse=False):
    n = xs[0].shape[0]
    h = tape.constant(np.zeros((n, units)))
    c = tape.constant(np.zeros((n, units)))
    outputs = [None] * len(xs)
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for t in order:
        z = tape.add(tape.add(tape_ops.matmul(xs[t], wx), tape_ops.matmul(h, wh)), b)
        i = tape_ops.sigmoid(tape_ops.slice_cols(z, 0, units))
        f = tape_ops.sigmoid(tape_ops.slice_cols(z, units, 2 * units))
        g = tape.tanh(tape_ops.slice_cols(z, 2 * units, 3 * units))
        o = tape_ops.sigmoid(tape_ops.slice_cols(z, 3 * units, 4 * units))
        c = tape.add(tape.mul(f, c), tape.mul(i, g))
        h = tape.mul(o, tape.tanh(c))
        outputs[t] = h
    return outputs


def bilstm_vector_var(matrix, pv, layers):
    if matrix.n == 0:
        return tape.constant(np.zeros((1, 32)))
    rows = matrix.rows
    units = pv["lstm.l0.fwd.wh"].shape[0]
    xs = [tape.gather_rows(pv["lstm.embedding"], rows[:, t]) for t in range(matrix.row_len)]
    for li in range(layers):
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
    h3 = tape.add(tape_ops.matmul(pooled, pv["lstm.out3_w"]), pv["lstm.out3_b"])
    h4 = tape.add(tape_ops.matmul(h3, pv["lstm.out4_w"]), pv["lstm.out4_b"])
    return tape.scale(tape.sum_axis(h4, axis=0, keepdims=True), 1.0 / matrix.n)


def sample_loss(params, graph, matrix, label, init_seed):
    """Tape loss for one sample; returns (loss Var, name -> Var dict)."""
    pv = param_vars(params)
    rng = np.random.default_rng(init_seed)
    hg = gnn_vector_var(graph, pv, params.hyper.iterations, rng)
    hb = bilstm_vector_var(matrix, pv, params.hyper.hidden_layers)
    logits = logits_var(hg, hb, pv)
    return tape_ops.neg(tape_ops.pick(tape.log_softmax(logits), 0, int(label))), pv


def batch_grads(params, samples, seed):
    """Per-sample losses and mean gradients over (index, (graph, matrix,
    label)) samples, one tape per sample; init states come from (seed, index)."""
    losses, grads = [], {}
    for idx, (graph, matrix, label) in samples:
        lv, pv = sample_loss(params, graph, matrix, label, init_seed=(seed, idx))
        losses.append(float(lv.value))
        tape.backward(lv)
        for name, var in pv.items():
            if var.grad is None:
                continue
            if name in grads:
                grads[name] += var.grad
            else:
                grads[name] = var.grad.copy()
    inv = 1.0 / len(samples)
    for name in grads:
        grads[name] *= inv
    return losses, grads


def train(dataset, hp, tc, state_dim=32, embed_dim=128):
    """The per-sample trainer: one tape per sample, gradients summed over
    the mini-batch and divided by its size."""
    model = init_model(hp, seed=(tc.seed, INIT_STREAM), state_dim=state_dim,
                       embed_dim=embed_dim)
    opt = Adam(model.weights, tc)
    shuffle_rng = np.random.default_rng((tc.seed, SHUFFLE_STREAM))
    epoch_losses = []
    for _ in range(hp.epochs):
        order = shuffle_rng.permutation(len(dataset))
        epoch_loss = 0.0
        for start in range(0, len(order), hp.batch_size):
            batch = [(int(i), dataset[int(i)]) for i in order[start : start + hp.batch_size]]
            losses, grads = batch_grads(model, batch, tc.seed)
            for value in losses:
                epoch_loss += value
            opt.step(grads)
        epoch_losses.append(epoch_loss / len(dataset))
    return TrainResult(model, epoch_losses)
