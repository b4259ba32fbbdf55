import base64
import json

import numpy as np
import pytest

from droidflow.cli import main
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


def test_round_trip_is_exact_and_saves_are_byte_identical(tmp_path, paper_model):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_model(paper_model, first)
    save_model(paper_model, second)
    assert first.read_bytes() == second.read_bytes()
    loaded = load_model(first)
    assert loaded.hyper == PAPER_WIDTH
    for (n1, a1), (n2, a2) in zip(paper_model.named(), loaded.named(), strict=True):
        assert n1 == n2 and a1.shape == a2.shape and np.array_equal(a1, a2)


def test_loaded_model_scores_bit_for_bit(tmp_path, paper_model, features):
    path = tmp_path / "model.json"
    save_model(paper_model, path)
    loaded = load_model(path)
    rec = load_features(features)[0]
    pair = (rec.graph(PAPER_WIDTH.label_dim), rec.matrix(PAPER_WIDTH.seq_len, 8000))
    assert probabilities(pair, loaded).tobytes() == probabilities(pair, paper_model).tobytes()


def test_file_is_json_with_the_header_fields(tmp_path):
    path = tmp_path / "model.json"
    model = init_model(SMALL, seed=1)
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == FORMAT_VERSION == 2
    assert payload["state_dim"] == 32 and payload["embed_dim"] == 128
    assert payload["hyperparams"]["lstm_units"] == 4
    assert len(payload["edge_type_order"]) == 10
    fusion_b = np.frombuffer(base64.b64decode(payload["weights"]["fusion.b"]), "<f8")
    assert np.array_equal(fusion_b, model.fusion.b)


def test_format_1_file_is_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_model(SMALL, seed=1), path)
    payload = json.loads(path.read_text())
    payload["format_version"] = 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelMismatchError, match="unsupported model format: 1"):
        load_model(path)


def _drop(payload):
    del payload["weights"]["fusion.b"]


def _extra(payload):
    payload["weights"]["fusion.c"] = payload["weights"]["fusion.b"]


def _not_a_string(payload):
    payload["weights"]["fusion.b"] = [0.0, 0.0]


def _bad_base64(payload):
    payload["weights"]["fusion.b"] = "not base64!"


def _short(payload):
    payload["weights"]["fusion.b"] = base64.b64encode(np.zeros(1, "<f8").tobytes()).decode()


def _a_list(payload):
    return [payload]


def _without(key):
    def corrupt(payload):
        del payload[key]
    return corrupt


def _unknown_hyperparam(payload):
    payload["hyperparams"]["dropout"] = 0.5


@pytest.mark.parametrize("corrupt, message", [
    (_drop, "missing ['fusion.b']"),
    (_extra, "unexpected ['fusion.c']"),
    (_not_a_string, "weight fusion.b is not a base64 string"),
    (_bad_base64, "weight fusion.b is not valid base64"),
    (_short, "weight fusion.b holds 8 bytes, its shape (2,) needs 16"),
    (_a_list, "model file holds a JSON list, not an object"),
    (_without("hyperparams"), "model header lacks 'hyperparams'"),
    (_without("state_dim"), "model header lacks 'state_dim'"),
    (_without("embed_dim"), "model header lacks 'embed_dim'"),
    (_unknown_hyperparam, "malformed model hyperparams: "),
])
def test_malformed_model_file_is_an_input_error(tmp_path, features, capsys, corrupt, message):
    path = tmp_path / "model.json"
    save_model(init_model(SMALL, seed=1), path)
    payload = json.loads(path.read_text())
    document = corrupt(payload)
    path.write_text(json.dumps(payload if document is None else document))
    capsys.readouterr()
    rc = main(["predict", "--model", str(path), "--features", str(features),
               "--out", str(tmp_path / "preds.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("input error: ") and message in err
