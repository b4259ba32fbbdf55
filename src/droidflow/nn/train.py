"""Mini-batch Adam training over the unrolled hybrid network.

Each mini-batch is one tape: the batch's graphs run as one disjoint union
and its opcode rows as one matrix, and the loss is the mean of the
per-sample losses. A mini-batch whose rows exceed model.BATCH_ROW_UNITS runs
as consecutive capped parts instead, one tape each, whose gradients add up
to the same mean's. All randomness (weight init, per-sample state seeding,
epoch shuffling) derives from the one seed in TrainConfig, so identical runs
produce bit-identical parameters.
"""

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import tape
from .model import (
    EMBED_DIM,
    STATE_DIM,
    Hyperparams,
    ModelParams,
    TrainConfig,
    _checked,
    capped_batches,
    draw_init_states,
    forward_var,
    init_model,
    loss_var,
    param_vars,
)

SHUFFLE_STREAM = 0x5F
INIT_STREAM = 0x11


class DivergedLossError(RuntimeError):
    pass


@dataclass
class TrainResult:
    params: ModelParams
    epoch_losses: list


class Adam:
    def __init__(self, named_arrays, tc: TrainConfig):
        self.arrays = dict(named_arrays)
        self.tc = tc
        self.m = {k: np.zeros_like(v) for k, v in self.arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.arrays.items()}
        self.t = 0

    def step(self, grads: dict):
        """One Adam update in place, through two scratch buffers that every
        weight shares; the textbook update's arithmetic, in its order."""
        tc = self.tc
        self.t += 1
        c1, c2 = 1 - tc.beta1**self.t, 1 - tc.beta2**self.t
        scratch = np.empty((2, max(a.size for a in self.arrays.values())))
        for name in sorted(self.arrays):
            g = grads.get(name)
            if g is None:
                continue
            arr, m, v = self.arrays[name], self.m[name], self.v[name]
            step, denom = (buf[: arr.size].reshape(arr.shape) for buf in scratch)
            m *= tc.beta1
            m += np.multiply(1 - tc.beta1, g, out=step)
            v *= tc.beta2
            v += np.multiply(np.multiply(1 - tc.beta2, g, out=step), g, out=step)
            np.sqrt(np.divide(v, c2, out=denom), out=denom)
            denom += tc.eps
            np.multiply(np.divide(m, c1, out=step), tc.learning_rate, out=step)
            arr -= np.divide(step, denom, out=step)


def train(dataset, hp: Hyperparams, tc: TrainConfig, state_dim: int = STATE_DIM,
          embed_dim: int = EMBED_DIM, progress=None) -> TrainResult:
    """Train on (flow graph, row matrix, label) triples, with graphs in either
    form of arrays(); returns the fitted parameters and the per-epoch losses.

    progress, if given, is called after every epoch with (epoch, mean loss,
    mean over the epoch's batches of the gradient's L2 norm, wall seconds)."""
    if not dataset:
        raise ValueError("empty training dataset")
    model = init_model(hp, seed=(tc.seed, INIT_STREAM), state_dim=state_dim,
                       embed_dim=embed_dim)
    graphs = [graph.arrays(hp.label_dim) for graph, _, _ in dataset]
    matrices = [_checked(matrix, hp.seq_len) for _, matrix, _ in dataset]
    labels = np.array([int(label) for _, _, label in dataset])
    opt = Adam(model.weights, tc)
    shuffle_rng = np.random.default_rng((tc.seed, SHUFFLE_STREAM))
    epoch_losses = []
    for epoch in range(hp.epochs):
        started = perf_counter()
        order = shuffle_rng.permutation(len(dataset))
        epoch_loss = 0.0
        norms = []
        for start in range(0, len(order), hp.batch_size):
            batch = order[start : start + hp.batch_size]
            sample_losses, grads = _batch_step(model, [graphs[i] for i in batch],
                                               [matrices[i] for i in batch], labels[batch],
                                               [(tc.seed, int(i)) for i in batch])
            for value in sample_losses:
                epoch_loss += value
            norms.append(math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())))
            opt.step(grads)
        mean_loss = epoch_loss / len(dataset)
        if not np.isfinite(mean_loss):
            raise DivergedLossError(f"non-finite loss at epoch {epoch}")
        epoch_losses.append(mean_loss)
        if progress is not None:
            progress(epoch, mean_loss, sum(norms) / len(norms), perf_counter() - started)
    return TrainResult(model, epoch_losses)


def _batch_step(model, graphs, matrices, labels, init_seeds):
    """Per-sample losses of a mini-batch and the gradients of their mean.
    Sample k draws its initial node states from init_seeds[k]. The batch
    runs on one tape, or, past the row cap, on one tape per part that
    capped_batches cuts, whose mean loss is weighted by its share of the
    batch and whose gradients are summed."""
    # Drawn once per step, and only the rows the graph branch reads: a few
    # hundred on large apps, where every node's state took 4.4 MB, so
    # holding them for the whole step leaves malloc no gap worth trimming.
    init_states = draw_init_states(graphs, init_seeds, model.state_dim, model.hyper.iterations)
    losses, grads = [], {}
    for part in capped_batches(range(len(graphs)), lambda k: matrices[k].n,
                               model.hyper.lstm_units):
        pv = param_vars(model)
        logits = forward_var(model, pv, [graphs[k] for k in part],
                             [matrices[k] for k in part], [init_states[k] for k in part])
        part_labels = labels[part]
        tape.backward(tape.scale(loss_var(logits, part_labels), len(part) / len(graphs)))
        logp = tape.log_softmax(logits).value
        losses += [-float(logp[row, label]) for row, label in enumerate(part_labels)]
        for name, var in pv.items():
            if var.grad is not None:
                grads[name] = grads[name] + var.grad if name in grads else var.grad
    return losses, grads
