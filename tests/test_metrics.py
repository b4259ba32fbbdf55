import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import droidflow
from droidflow.metrics import (
    Confusion,
    LengthMismatchError,
    NonFiniteScoreError,
    SingleClassError,
    compute_metrics,
    confusion_counts,
    metrics_from_confusion,
    prc_auc,
    roc_auc,
)
from droidflow.tables import InputError


def oracle_metrics(tp, fp, tn, fn):
    """Independent formula oracle, all six ratios written out directly."""
    total = tp + fp + tn + fn
    return {
        "accuracy": (tp + tn) / total if total else 0.0,
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
        "f1": 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0,
        "fpr": fp / (tn + fp) if tn + fp else 0.0,
        "fnr": 1 - tp / (tp + fn) if tp + fn else 0.0,
    }


def rank_auc_oracle(scores, labels):
    """Mann-Whitney formulation: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_worked_confusion_example():
    r = metrics_from_confusion(Confusion(tp=3, fp=1, tn=4, fn=2))
    assert r.accuracy == pytest.approx(0.7)
    assert r.precision == pytest.approx(0.75)
    assert r.recall == pytest.approx(0.6)
    assert r.f1 == pytest.approx(6 / 9)
    assert r.fpr == pytest.approx(0.2)
    assert r.fnr == pytest.approx(0.4)


def test_all_correct():
    scores = [0.9, 0.8, 0.1, 0.2]
    labels = [1, 1, 0, 0]
    c, r = compute_metrics(scores, labels, 0.5)
    assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)
    assert r.fpr == 0.0 and r.fnr == 0.0
    assert r.roc_auc == 1.0


def test_zero_predicted_positives_flagged():
    c, r = compute_metrics([0.1, 0.2], [1, 0], threshold=0.9)
    assert r.precision == 0.0
    assert "precision" in r.degenerate
    assert r.recall == 0.0


def test_fnr_without_malware_is_flagged_zero():
    # No malware to miss: fnr is 0 and flagged, as fpr is on a malware-only set.
    _, r = compute_metrics([0.1, 0.7], [0, 0])
    assert r.fnr == 0.0 and "fnr" in r.degenerate
    _, r = compute_metrics([0.1, 0.7], [1, 1])
    assert r.fpr == 0.0 and "fpr" in r.degenerate
    assert r.fnr == 0.5 and "fnr" not in r.degenerate


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        compute_metrics([0.5], [1, 0])


@given(
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)
)
@settings(max_examples=300, deadline=None)
def test_confusion_metrics_match_oracle(tp, fp, tn, fn):
    r = metrics_from_confusion(Confusion(tp, fp, tn, fn))
    want = oracle_metrics(tp, fp, tn, fn)
    assert abs(r.accuracy - want["accuracy"]) <= 1e-12
    assert abs(r.precision - want["precision"]) <= 1e-12
    assert abs(r.recall - want["recall"]) <= 1e-12
    assert abs(r.f1 - want["f1"]) <= 1e-12
    assert abs(r.fpr - want["fpr"]) <= 1e-12
    assert abs(r.fnr - want["fnr"]) <= 1e-12


def test_f1_is_harmonic_mean():
    r = metrics_from_confusion(Confusion(tp=7, fp=3, tn=5, fn=2))
    p, rec = r.precision, r.recall
    assert r.f1 == pytest.approx(2 * p * rec / (p + rec))


def test_counting_threshold_rule():
    c = confusion_counts([0.5, 0.49], [1, 0], threshold=0.5)
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 0, 1, 0)


def test_roc_perfect_and_reversed():
    labels = [1, 1, 0, 0]
    assert roc_auc([0.9, 0.8, 0.2, 0.1], labels) == 1.0
    assert roc_auc([0.1, 0.2, 0.8, 0.9], labels) == 0.0


def test_roc_all_tied_scores_half():
    assert roc_auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == pytest.approx(0.5)


def test_roc_single_class_error():
    with pytest.raises(SingleClassError):
        roc_auc([0.5, 0.6], [1, 1])


@given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=4, max_size=60))
@settings(max_examples=200, deadline=None)
def test_roc_matches_rank_oracle(pairs):
    scores = [round(s, 2) for s, _ in pairs]
    labels = [y for _, y in pairs]
    if len(set(labels)) < 2:
        return
    assert roc_auc(scores, labels) == pytest.approx(rank_auc_oracle(scores, labels), abs=1e-12)


def test_roc_monotone_transform_invariant():
    rng = np.random.default_rng(0)
    scores = rng.uniform(size=40).tolist()
    labels = (rng.uniform(size=40) < 0.4).astype(int).tolist()
    if len(set(labels)) < 2:
        labels[0], labels[1] = 0, 1
    base = roc_auc(scores, labels)
    squashed = [1 / (1 + np.exp(-5 * (s - 0.5))) for s in scores]
    assert roc_auc(squashed, labels) == pytest.approx(base, abs=1e-12)


def test_roc_random_scores_near_half():
    rng = np.random.default_rng(7)
    n = 10_000
    scores = rng.uniform(size=n).tolist()
    labels = (rng.uniform(size=n) < 0.5).astype(int).tolist()
    assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.05)


def test_prc_perfect_classifier():
    assert prc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == pytest.approx(1.0)


def test_prc_in_unit_interval():
    rng = np.random.default_rng(3)
    scores = rng.uniform(size=50).tolist()
    labels = (rng.uniform(size=50) < 0.3).astype(int).tolist()
    if len(set(labels)) < 2:
        labels[0], labels[1] = 0, 1
    assert 0.0 <= prc_auc(scores, labels) <= 1.0


def test_majority_class_accuracy():
    labels = [1] * 7 + [0] * 3
    scores = [1.0] * 10  # predict everything malicious
    _, r = compute_metrics(scores, labels, 0.5)
    assert r.accuracy == pytest.approx(0.7)


def run_python(code, *args, timeout=60):
    """code run in a fresh interpreter that imports this droidflow, so that a
    hang fails the test at its timeout instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(droidflow.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_nan_score_neither_hangs_nor_passes():
    # _curve_points once closed a tie group on scores equal to its first,
    # which a NaN is not, and never advanced past it.
    proc = run_python(
        "from droidflow.metrics import compute_metrics, prc_auc, roc_auc\n"
        "nan = float('nan')\n"
        "print(roc_auc([nan, 0.2, 0.7], [1, 0, 1]), prc_auc([nan, 0.2, 0.7], [1, 0, 1]))\n"
        "try:\n"
        "    compute_metrics([nan, 0.2, 0.7], [1, 0, 1])\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == "NonFiniteScoreError"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_score_is_an_input_error(bad):
    with pytest.raises(NonFiniteScoreError):
        compute_metrics([0.3, bad, 0.7], [1, 0, 1])
    assert issubclass(NonFiniteScoreError, InputError)
