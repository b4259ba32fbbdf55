from types import SimpleNamespace

import pytest

from droidflow.metrics import MetricReport
from droidflow.nn.model import Hyperparams
from droidflow.tuning import (
    SEARCH_SPACE,
    GridPoint,
    grid_search,
    grid_to_csv,
    split_dataset,
    stratified_subset,
)


def mk_item(label, timestamp=None):
    return SimpleNamespace(label={"benign": 0, "malicious": 1}[label], timestamp=timestamp)


def dated_corpus(n_per_class=100):
    items = []
    for i in range(n_per_class):
        items.append(mk_item("benign", f"2019-{1 + i % 12:02d}-{1 + i % 28:02d}"))
        items.append(mk_item("malicious", f"2020-{1 + i % 12:02d}-{1 + i % 28:02d}"))
    return items


def report(f1):
    return MetricReport(f1, f1, f1, f1, 0.0, 0.0, f1, f1)


def test_newest_tenth_held_out_per_class():
    items = dated_corpus(100)
    train, val, test = split_dataset(items, seed=1)
    assert len(test) == 20
    test_b = [i for i in test if i.label == 0]
    test_m = [i for i in test if i.label == 1]
    assert len(test_b) == 10 and len(test_m) == 10
    cutoff_b = max(i.timestamp for i in train + val if i.label == 0)
    assert all(i.timestamp >= cutoff_b for i in test_b)
    assert len(train) + len(val) + len(test) == 200
    assert len(train) == 160 and len(val) == 20


def test_missing_timestamps_random_split_with_warning():
    items = [mk_item("benign") for _ in range(50)] + [mk_item("malicious") for _ in range(50)]
    with pytest.warns(UserWarning):
        train, val, test = split_dataset(items, seed=2)
    assert len(train) + len(val) + len(test) == 100
    assert len(test) == 10


def test_split_deterministic():
    items = dated_corpus(40)
    a = split_dataset(items, seed=5)
    b = split_dataset(items, seed=5)
    assert all(x is y for part_a, part_b in zip(a, b) for x, y in zip(part_a, part_b))


def test_stratified_subset_ratio_within_one():
    items = [mk_item("benign")] * 80 + [mk_item("malicious")] * 88
    sub = stratified_subset(items, 1 / 8, seed=3)
    n_b = sum(1 for i in sub if i.label == 0)
    n_m = len(sub) - n_b
    assert n_b == 10 and n_m == 11
    full_ratio = 80 / 88
    assert abs(n_b - full_ratio * n_m) <= 1.0


def test_single_point_space():
    items_t = [mk_item("benign"), mk_item("malicious")] * 8
    items_v = [mk_item("benign"), mk_item("malicious")] * 8
    result = grid_search(
        items_t, items_v,
        evaluate=lambda hp, tr, va: report(0.5),
        space={"seq_len": (100,)},
    )
    assert len(result.points) == 1
    assert result.best.hyper.seq_len == 100


def test_seq_len_sweep_enumerates_seven_points():
    items = [mk_item("benign"), mk_item("malicious")] * 16
    seen = []

    def fake_eval(hp, tr, va):
        seen.append(hp.seq_len)
        return report(0.8 if hp.seq_len == 100 else 0.4)

    result = grid_search(items, items, fake_eval, space={"seq_len": SEARCH_SPACE["seq_len"]})
    assert seen == [50, 75, 100, 125, 150, 175, 200]
    assert result.best.hyper.seq_len == 100
    assert result.tuned.seq_len == 100


def test_sweep_uses_current_optimum_for_later_factors():
    items = [mk_item("benign"), mk_item("malicious")] * 16
    observed = []

    def fake_eval(hp, tr, va):
        observed.append((hp.seq_len, hp.hidden_layers))
        f1 = 0.9 if hp.seq_len == 75 else 0.2
        f1 += 0.05 if hp.hidden_layers == 3 else 0.0
        return report(f1)

    result = grid_search(
        items, items, fake_eval,
        space={"seq_len": (50, 75), "hidden_layers": (1, 3)},
        defaults=Hyperparams(),
    )
    # after the seq_len sweep locks 75, the hidden_layers sweep must run at 75
    assert observed[:2] == [(50, 2), (75, 2)]
    assert observed[2:] == [(75, 1), (75, 3)]
    assert result.tuned.hidden_layers == 3


def test_grid_deterministic_and_tie_break():
    items = [mk_item("benign"), mk_item("malicious")] * 16
    evaluate = lambda hp, tr, va: report(0.5)  # all tie
    r1 = grid_search(items, items, evaluate, space={"seq_len": (50, 75, 100)})
    r2 = grid_search(items, items, evaluate, space={"seq_len": (50, 75, 100)})
    assert r1.best.hyper == r2.best.hyper
    assert r1.best.hyper.seq_len == 50  # first of the ties


def test_grid_csv_shape():
    pt = GridPoint(Hyperparams(), report(0.75))
    from droidflow.tuning import GridSearchResult

    text = grid_to_csv(GridSearchResult([pt], pt, Hyperparams()))
    lines = text.strip().splitlines()
    assert lines[0].startswith("seq_len,")
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "100"
