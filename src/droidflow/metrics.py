"""Confusion-matrix metrics and ROC / precision-recall curve areas.

Positive class is "malicious" (label 1); scores are the predicted
probability of that class. Degenerate denominators yield 0 and are flagged
on the report instead of raising, so batch evaluation never aborts.
"""

import json
import math
from dataclasses import asdict, dataclass, field

from .tables import InputError


class LengthMismatchError(InputError):
    pass


class NonFiniteScoreError(InputError):
    pass


class SingleClassError(ValueError):
    """Curve areas need at least one positive and one negative sample."""


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    fpr: float
    fnr: float
    roc_auc: float
    prc_auc: float
    degenerate: tuple = field(default=())

    def to_dict(self, confusion: Confusion | None = None) -> dict:
        out = asdict(self) | {"degenerate": sorted(self.degenerate)}
        if confusion is not None:
            out["confusion"] = asdict(confusion)
        return out

    def to_json(self, confusion: Confusion | None = None) -> str:
        return json.dumps(self.to_dict(confusion), sort_keys=True, indent=2) + "\n"


def confusion_counts(scores, labels, threshold: float = 0.5) -> Confusion:
    if len(scores) != len(labels):
        raise LengthMismatchError(f"{len(scores)} scores vs {len(labels)} labels")
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        predicted = s >= threshold
        if predicted and y == 1:
            tp += 1
        elif predicted and y == 0:
            fp += 1
        elif not predicted and y == 0:
            tn += 1
        else:
            fn += 1
    return Confusion(tp, fp, tn, fn)


def metrics_from_confusion(c: Confusion, roc=0.0, prc=0.0, extra_flags=()):
    flags = set(extra_flags)

    def ratio(num, den, name):
        if den == 0:
            flags.add(name)
            return 0.0
        return num / den

    accuracy = ratio(c.tp + c.tn, c.total, "accuracy")
    precision = ratio(c.tp, c.tp + c.fp, "precision")
    recall = ratio(c.tp, c.tp + c.fn, "recall")
    f1 = ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, "f1")
    fpr = ratio(c.fp, c.tn + c.fp, "fpr")
    fnr = 1.0 - recall if c.tp + c.fn else ratio(c.fn, 0, "fnr")
    return MetricReport(accuracy, precision, recall, f1, fpr, fnr, roc, prc,
                        tuple(sorted(flags)))


def compute_metrics(scores, labels, threshold: float = 0.5):
    """(Confusion, MetricReport) at the given decision threshold.

    Curve areas are included when both classes are present; otherwise they
    are flagged-0. A score that is not finite, as from a model whose weights
    went NaN, is a NonFiniteScoreError."""
    if not all(math.isfinite(s) for s in scores):
        raise NonFiniteScoreError("a score is NaN or infinite: the model's outputs are unusable")
    c = confusion_counts(scores, labels, threshold)
    flags = []
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        roc = prc = 0.0
        flags.append("roc_auc")
        flags.append("prc_auc")
    else:
        roc = roc_auc(scores, labels)
        prc = prc_auc(scores, labels)
    return c, metrics_from_confusion(c, roc, prc, flags)


def _curve_points(scores, labels):
    """Per-threshold (tp, fp) sweeping distinct scores descending; tied scores
    fall into one threshold group."""
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("need both classes for a curve")
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    points = []
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i + 1       # past i even when its score, NaN, equals none
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            j += 1
        positives = sum(labels[k] == 1 for k in order[i:j])
        tp += positives
        fp += j - i - positives
        points.append((tp, fp))
        i = j
    return points, n_pos, n_neg


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve by trapezoidal integration."""
    points, n_pos, n_neg = _curve_points(scores, labels)
    area = 0.0
    prev_tpr = prev_fpr = 0.0
    for tp, fp in points:
        tpr = tp / n_pos
        fpr = fp / n_neg
        area += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        prev_tpr, prev_fpr = tpr, fpr
    return area


def prc_auc(scores, labels) -> float:
    """Area under the precision-recall curve by trapezoidal integration,
    anchored at (recall 0, precision 1)."""
    points, n_pos, _ = _curve_points(scores, labels)
    area = 0.0
    prev_recall, prev_precision = 0.0, 1.0
    for tp, fp in points:
        recall = tp / n_pos
        precision = tp / (tp + fp) if tp + fp else 1.0
        area += (recall - prev_recall) * (precision + prev_precision) / 2.0
        prev_recall, prev_precision = recall, precision
    return area
