import base64
import json
from dataclasses import asdict

import numpy as np
import pytest

from droidflow.cli import main
from droidflow.flowgraph import EDGE_TYPE_ORDER
from droidflow.nn.model import (
    FORMAT_VERSION,
    Hyperparams,
    ModelMismatchError,
    init_model,
    load_model,
    probabilities,
    save_model,
)
from droidflow.pipeline import load_features

from synthcorpus import generate_corpus, write_corpus

PAPER_WIDTH = Hyperparams(lstm_units=256, hidden_layers=2)
SMALL = Hyperparams(hidden_layers=1, lstm_units=4, iterations=2)


@pytest.fixture(scope="module")
def paper_model():
    return init_model(PAPER_WIDTH, seed=5)


@pytest.fixture(scope="module")
def features(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_corpus(generate_corpus(2, seed=4), root / "apps")
    assert main(["extract", "--apps", str(root / "apps"), "--out", str(root / "features")]) == 0
    return root / "features"


def _split(path):
    """(header dict, weight bytes) of a saved model file."""
    line, _, body = path.read_bytes().partition(b"\n")
    return json.loads(line), body


def test_round_trip_is_exact_and_saves_are_byte_identical(tmp_path, paper_model):
    first, second = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(paper_model, first)
    save_model(paper_model, second)
    assert first.read_bytes() == second.read_bytes()
    loaded = load_model(first)
    assert loaded.hyper == PAPER_WIDTH
    for (n1, a1), (n2, a2) in zip(paper_model.weights.items(), loaded.weights.items(), strict=True):
        assert n1 == n2 and a1.shape == a2.shape and np.array_equal(a1, a2)
        assert a2.flags.writeable


def test_loaded_model_scores_bit_for_bit(tmp_path, paper_model, features):
    path = tmp_path / "model.bin"
    save_model(paper_model, path)
    loaded = load_model(path)
    rec = load_features(features)[0]
    pair = (rec.graph(PAPER_WIDTH.label_dim), rec.matrix(PAPER_WIDTH.seq_len, 8000))
    assert probabilities([pair], loaded).tobytes() == probabilities([pair], paper_model).tobytes()


def test_file_is_a_json_header_line_then_the_raw_weights(tmp_path):
    path = tmp_path / "model.bin"
    model = init_model(SMALL, seed=1)
    save_model(model, path)
    header, body = _split(path)
    assert header["format_version"] == FORMAT_VERSION == 3
    assert header["state_dim"] == 32 and header["embed_dim"] == 128
    assert header["hyperparams"]["lstm_units"] == 4
    assert len(header["edge_type_order"]) == 10
    assert header["weights"] == list(model.weights)
    assert body == b"".join(arr.astype("<f8").tobytes() for arr in model.weights.values())


def drawn_weights(hp, seed, state_dim, embed_dim):
    """The initial weights in model-file order, drawn with one
    default_rng(seed) in init_model's order: lstm.embedding; per layer
    fwd.wx, fwd.wh, bwd.wx, bwd.wh; lstm.out3_w, lstm.out4_w, gnn.w1, gnn.w2,
    gnn.gate_w, fusion.w. Biases are zeros and draw nothing."""
    rng = np.random.default_rng(seed)

    def fan_in(shape):
        bound = 1.0 / np.sqrt(shape[0])
        return rng.uniform(-bound, bound, shape)

    units, s = hp.lstm_units, state_dim
    lstm = {"lstm.embedding": rng.uniform(-0.1, 0.1, (256, embed_dim))}
    for i in range(hp.hidden_layers):
        for d in ("fwd", "bwd"):
            lstm[f"lstm.l{i}.{d}.wx"] = fan_in((embed_dim if i == 0 else 2 * units, 4 * units))
            lstm[f"lstm.l{i}.{d}.wh"] = fan_in((units, 4 * units))
            lstm[f"lstm.l{i}.{d}.b"] = np.zeros(4 * units)
    lstm["lstm.out3_w"], lstm["lstm.out3_b"] = fan_in((2 * units, 64)), np.zeros(64)
    lstm["lstm.out4_w"], lstm["lstm.out4_b"] = fan_in((64, 32)), np.zeros(32)
    gnn = {"gnn.w1": fan_in((2 * hp.label_dim + 10, s * s)), "gnn.b1": np.zeros(s * s)}
    gnn["gnn.w2"], gnn["gnn.b2"] = fan_in((hp.label_dim, s)), np.zeros(s)
    gnn["gnn.gate_w"], gnn["gnn.gate_b"] = fan_in((s, s)), np.zeros(s)
    fusion = {"fusion.w": fan_in((s + 32, 2)), "fusion.b": np.zeros(2)}
    return {**gnn, **lstm, **fusion}


@pytest.mark.parametrize("hp, state_dim, embed_dim", [
    (Hyperparams(lstm_units=32), 32, 128),
    (Hyperparams(seq_len=4, hidden_layers=2, lstm_units=3, label_dim=3, iterations=2), 4, 5),
])
def test_initial_weights_follow_the_documented_draw_and_file_order(tmp_path, hp, state_dim,
                                                                   embed_dim):
    path = tmp_path / "model.bin"
    save_model(init_model(hp, seed=7, state_dim=state_dim, embed_dim=embed_dim), path)
    header, body = _split(path)
    expected = drawn_weights(hp, 7, state_dim, embed_dim)
    assert header["weights"] == list(expected)
    assert body == b"".join(arr.astype("<f8").tobytes() for arr in expected.values())


def test_load_draws_no_random_numbers(tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    model = init_model(SMALL, seed=1)
    save_model(model, path)

    def no_rng(*args, **kwargs):
        raise AssertionError("load_model drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    loaded = load_model(path)
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(model.weights.items(), loaded.weights.items()))


def _one_document(model, version, encode):
    """A model file of an older format: one JSON document, no newline."""
    return json.dumps({
        "format_version": version,
        "edge_type_order": list(EDGE_TYPE_ORDER),
        "state_dim": model.state_dim,
        "embed_dim": model.weights["lstm.embedding"].shape[1],
        "hyperparams": asdict(model.hyper),
        "weights": {name: encode(arr) for name, arr in model.weights.items()},
    }, sort_keys=True, separators=(",", ":"))


def test_format_1_file_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(_one_document(init_model(SMALL, seed=1), 1, lambda arr: arr.tolist()))
    with pytest.raises(ModelMismatchError, match="unsupported model format: 1"):
        load_model(path)


def test_format_2_file_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(_one_document(init_model(SMALL, seed=1), 2,
                                  lambda arr: base64.b64encode(arr.tobytes()).decode()))
    with pytest.raises(ModelMismatchError, match="unsupported model format: 2"):
        load_model(path)


# Each corruption takes a saved file's header and weight bytes and returns
# the bytes of the corrupted file.

def _file(header, body):
    return json.dumps(header).encode() + b"\n" + body


def _drop(header, body):
    header["weights"].remove("fusion.b")
    return _file(header, body)


def _extra(header, body):
    header["weights"].append("fusion.c")
    return _file(header, body)


def _reordered(header, body):
    header["weights"][-2:] = header["weights"][:-3:-1]
    return _file(header, body)


def _one_float_short(header, body):
    return _file(header, body[:-8])


def _one_float_long(header, body):
    return _file(header, body + bytes(8))


def _header_not_json(header, body):
    return b"model\n" + body


def _no_newline(header, body):
    return json.dumps(header).encode()


def _a_list(header, body):
    return _file([header], body)


def _without(key):
    def corrupt(header, body):
        del header[key]
        return _file(header, body)
    return corrupt


def _unknown_hyperparam(header, body):
    header["hyperparams"]["dropout"] = 0.5
    return _file(header, body)


def _set(key, value, hyperparam=False):
    def corrupt(header, body):
        (header["hyperparams"] if hyperparam else header)[key] = value
        return _file(header, body)
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_drop, "missing ['fusion.b']"),
    (_extra, "unexpected ['fusion.c']"),
    (_reordered, "listed out of order or more than once"),
    (_one_float_short, "model file holds 633608 weight bytes, its header's weights need 633616"),
    (_one_float_long, "model file holds 633624 weight bytes, its header's weights need 633616"),
    (_header_not_json, "model header is not JSON: "),
    (_no_newline, "model file has no newline after its header"),
    (_a_list, "model file holds a JSON list, not an object"),
    (_without("hyperparams"), "model header lacks 'hyperparams'"),
    (_without("state_dim"), "model header lacks 'state_dim'"),
    (_without("embed_dim"), "model header lacks 'embed_dim'"),
    (_unknown_hyperparam, "malformed model hyperparams: "),
    (_set("state_dim", "32"), "model header state_dim must be a non-negative integer, not '32'"),
    (_set("lstm_units", 4.0, hyperparam=True),
     "model header lstm_units must be a non-negative integer, not 4.0"),
    (_set("embed_dim", True), "model header embed_dim must be a non-negative integer, not True"),
    (_set("state_dim", -32), "model header state_dim must be a non-negative integer, not -32"),
    (_set("hidden_layers", 0, hyperparam=True),
     "malformed model hyperparams: hidden_layers must be >= 1"),
])
def test_malformed_model_file_is_an_input_error(tmp_path, features, capsys, corrupt, message):
    path = tmp_path / "model.bin"
    save_model(init_model(SMALL, seed=1), path)
    path.write_bytes(corrupt(*_split(path)))
    capsys.readouterr()
    rc = main(["predict", "--model", str(path), "--features", str(features),
               "--out", str(tmp_path / "preds.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("input error: ") and message in err
