"""The scoring form: the float32 BiLSTM arrays a model builds at its first
score (ModelParams.scoring_form) and every later score reads."""

import tracemalloc

import numpy as np

from droidflow.nn.model import (
    Hyperparams,
    TrainConfig,
    init_model,
    load_model,
    probabilities,
    save_model,
)
from droidflow.nn.train import train
from droidflow.traces import SequenceMatrix

from test_gradcheck import gnn_toy_graph
from test_nn import graph_of

PAPER_WIDTH = Hyperparams(seq_len=20, hidden_layers=2, lstm_units=256, label_dim=3, iterations=3)


def _pairs(seq_len, seed):
    """Three (graph, matrix) pairs: with edges, without nodes, without rows."""
    rows = np.random.default_rng(seed).integers(0, 256, (5, seq_len))
    return [(gnn_toy_graph(), SequenceMatrix(rows[:3], seq_len)),
            (graph_of([], []), SequenceMatrix(rows[3:], seq_len)),
            (gnn_toy_graph(), SequenceMatrix.empty(seq_len))]


def test_a_scored_model_scores_as_a_fresh_load_of_its_file(tmp_path):
    model = init_model(PAPER_WIDTH, seed=90, state_dim=4)
    path = tmp_path / "model.bin"
    save_model(model, path)
    pairs = _pairs(PAPER_WIDTH.seq_len, 91)
    probabilities(pairs, model)
    assert len(model.scoring_form()) == PAPER_WIDTH.hidden_layers
    for batch in [pairs, *([pair] for pair in pairs)]:   # in a batch, and each alone
        want = probabilities(batch, load_model(path))
        assert probabilities(batch, model).tobytes() == want.tobytes()


def test_a_second_score_builds_no_form_array():
    # The form at 256 units: per layer-0 direction a (256, 4, 256) table and
    # the (4, 256, 256) recurrent blocks; per layer-1 direction wx, the
    # blocks and the bias, float32, about 10 MB. The first score builds it
    # and keeps it. The second reads it: its peak, for one 20-opcode row,
    # stays below one direction's recurrent blocks (1 MiB), so it casts no
    # weight again.
    model = init_model(PAPER_WIDTH, seed=92, state_dim=4)
    seq_len = PAPER_WIDTH.seq_len
    pair = [(graph_of([], []), SequenceMatrix(np.arange(seq_len)[None], seq_len))]

    def traced(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def arrays():
        return [a for layer in model.scoring_form() for d in layer for a in d if a is not None]

    first_held, _ = traced(lambda: probabilities(pair, model))
    form = arrays()
    form_bytes = sum(a.nbytes for a in form)
    assert 9.9e6 < form_bytes < 1.1e7 and first_held >= form_bytes, (form_bytes, first_held)
    assert all(a.dtype == np.float32 and a.flags.c_contiguous for a in form)
    _, second_peak = traced(lambda: probabilities(pair, model))
    assert second_peak < 2**20, second_peak
    assert all(a is b for a, b in zip(form, arrays(), strict=True))


def test_training_leaves_the_form_empty():
    hp = Hyperparams(seq_len=6, hidden_layers=1, lstm_units=4, label_dim=3, iterations=2,
                     epochs=1, batch_size=2)
    rows = np.random.default_rng(93).integers(0, 256, (3, hp.seq_len))
    dataset = [(gnn_toy_graph(), SequenceMatrix(rows[:2], hp.seq_len), 1),
               (graph_of([], []), SequenceMatrix(rows[2:], hp.seq_len), 0)]
    result = train(dataset, hp, TrainConfig(seed=3), state_dim=4, embed_dim=5)
    assert result.params._scoring == []
