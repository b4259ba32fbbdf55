"""Dataset splitting and the one-factor-at-a-time hyperparameter sweep.

The test split holds the newest tenth of each class (falling back to a
seeded random split when timestamps are missing), and tuning runs on
stratified 1/8 subsets of the training and validation sets, sweeping one
hyperparameter at a time with every other knob held at its current best.
"""

import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .metrics import MetricReport
from .nn.model import Hyperparams

SEARCH_SPACE = {
    "seq_len": (50, 75, 100, 125, 150, 175, 200),
    "hidden_layers": (1, 2, 3, 4),
    "lstm_units": (64, 128, 256, 512),
    "label_dim": (9, 11, 13, 15),
    "iterations": (6, 8, 10, 12),
    "epochs": (15, 20, 25, 30),
    "batch_size": (4, 8, 16, 32),
}
SWEEP_ORDER = tuple(SEARCH_SPACE)
SPLIT_RATIOS = (8, 1, 1)        # train : val : test
SUBSET_FRACTION = 1 / 8


def _by_class(items) -> dict:
    """label -> [(position, item)] for items whose .label is 0 or 1."""
    by_class = {}
    for idx, item in enumerate(items):
        if item.label not in (0, 1):
            raise ValueError(f"item without usable label: {item!r}")
        by_class.setdefault(int(item.label), []).append((idx, item))
    return by_class


def split_dataset(items, seed: int = 0):
    """(train, val, test) split, per class, at SPLIT_RATIOS, of items with a
    .label, 0 or 1, and a .timestamp, None when unknown, as FeatureRecords.

    With timestamps on every item, the newest test share of each class is
    held out and the remainder splits randomly at the train:val ratio.
    Missing timestamps degrade to a fully random (but seeded) split with a
    warning.
    """
    r_train, r_val, r_test = SPLIT_RATIOS
    total = r_train + r_val + r_test
    rng = np.random.default_rng(seed)
    by_class = _by_class(items)
    have_timestamps = all(item.timestamp is not None for item in items)
    if not have_timestamps:
        warnings.warn(
            "timestamps missing: holding out a random test split instead of the newest share",
            stacklevel=2,
        )

    train, val, test = [], [], []
    for label in sorted(by_class):
        members = by_class[label]
        n = len(members)
        n_test = round(n * r_test / total)
        if have_timestamps:
            newest_first = sorted(members, key=lambda p: (p[1].timestamp, -p[0]),
                                  reverse=True)
            test_part = newest_first[:n_test]
            rest = newest_first[n_test:]
        else:
            order = rng.permutation(n)
            test_part = [members[i] for i in order[:n_test]]
            rest = [members[i] for i in order[n_test:]]
        rest = [rest[i] for i in rng.permutation(len(rest))]
        n_val = round(len(rest) * r_val / (r_train + r_val))
        val_part = rest[:n_val]
        train_part = rest[n_val:]
        test.extend(test_part)
        val.extend(val_part)
        train.extend(train_part)

    def restore(part):
        return [item for _, item in sorted(part, key=lambda p: p[0])]

    return restore(train), restore(val), restore(test)


def stratified_subset(items, fraction: float, seed: int = 0):
    """Per-class random subset of about `fraction`, at least one per class."""
    rng = np.random.default_rng(seed)
    by_class = _by_class(items)
    chosen = []
    for label in sorted(by_class):
        members = by_class[label]
        k = max(1, round(len(members) * fraction))
        order = rng.permutation(len(members))
        chosen.extend(members[i] for i in order[:k])
    return [item for _, item in sorted(chosen, key=lambda p: p[0])]


@dataclass(frozen=True)
class GridPoint:
    hyper: Hyperparams
    report: MetricReport


@dataclass
class GridSearchResult:
    points: list            # every evaluated GridPoint, in sweep order
    best: GridPoint         # max F1 over all points (first on ties)
    tuned: Hyperparams      # final value of each swept factor


def grid_search(train, val, evaluate, space=None, defaults: Hyperparams = Hyperparams(),
                seed: int = 0) -> GridSearchResult:
    """One-factor-at-a-time sweep on stratified SUBSET_FRACTION subsets.

    evaluate(hp, train_items, val_items) -> MetricReport does the actual
    training run. Factors sweep in declaration order; after each factor the
    best value (max F1, earliest on ties) is locked in.
    """
    space = dict(SEARCH_SPACE if space is None else space)
    train_sub = stratified_subset(train, SUBSET_FRACTION, seed)
    val_sub = stratified_subset(val, SUBSET_FRACTION, seed + 1)

    current = defaults
    points = []
    for factor in (f for f in SWEEP_ORDER if f in space):
        factor_points = []
        for value in space[factor]:
            hp = replace(current, **{factor: value})
            report = evaluate(hp, train_sub, val_sub)
            point = GridPoint(hp, report)
            points.append(point)
            factor_points.append(point)
        winner = max(factor_points, key=lambda p: p.report.f1)
        current = replace(current, **{factor: getattr(winner.hyper, factor)})

    best = max(points, key=lambda p: p.report.f1)
    return GridSearchResult(points, best, current)


def grid_to_csv(result: GridSearchResult) -> str:
    """One row per grid point: every Hyperparams field, then every
    MetricReport score to six decimals."""
    knobs = [f.name for f in fields(Hyperparams)]
    scores = [f.name for f in fields(MetricReport) if f.name != "degenerate"]
    lines = [",".join(knobs + scores)]
    for p in result.points:
        lines.append(",".join([str(getattr(p.hyper, k)) for k in knobs]
                              + [f"{getattr(p.report, k):.6f}" for k in scores]))
    return "\n".join(lines) + "\n"
