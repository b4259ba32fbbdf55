"""Command-line pipeline: mine-apis, extract, train, tune, predict, evaluate.

Exit codes: 0 success, 1 usage error, 2 input error, 3 numerical divergence.
An input error (tables.InputError, or an OSError naming its path) prints as
one "input error: <message>" line on stderr. Every file a command is given
is read by tables.read_input, so one that cannot be read, is not UTF-8 or
does not parse is one: the config and its tables, --api-docs, --tool-list,
--stopwords, corpus documents and index.json, --predictions, and each app's
report.json, traces.csv, nodes.csv and edges.csv. So is a --model that cannot
be opened or does not fit this build; that error, and one about the content
of --config, start with the file's path. An app's own file that extract cannot
load fails only that app, as an entry of its report.
A warning prints as one "warning: <message>" line on stderr.
All commands are deterministic given the same inputs and seed.
"""

import argparse
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .apimine import (
    DEFAULT_MIN_MATCHES,
    DEFAULT_TOP_KEYWORDS,
    EmptyCorpusError,
    load_api_docs,
    load_corpus_dir,
    load_stopwords,
    match_critical_apis,
    merge_tool_lists,
    rank_keywords,
    save_critical_apis,
    select_top,
)
from .metrics import compute_metrics
from .nn.model import capped_batches, load_model, probabilities, save_model
from .nn.train import DivergedLossError, train
from .pipeline import (
    ConfigError,
    PipelineConfig,
    build_dataset,
    extract_batch,
    load_features,
)
from .tables import InputError, data_file, load_name_list, read_input
from .tuning import SEARCH_SPACE, grid_search, grid_to_csv, split_dataset


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        return PipelineConfig.from_json(args.config)
    return PipelineConfig()


def cmd_mine_apis(args) -> int:
    if args.top_keywords < 1:
        raise UsageError("--top-keywords must be at least 1")
    if args.min_matches < 1:
        raise UsageError("--min-matches must be at least 1")
    corpus = load_corpus_dir(args.corpus)
    if not corpus:
        raise EmptyCorpusError(f"no corpus documents under {args.corpus}")
    stopwords = load_stopwords(args.stopwords or data_file("stopwords.txt"))
    ranked = rank_keywords(corpus, stopwords)
    top = select_top(ranked, args.top_keywords)
    apis = match_critical_apis(load_api_docs(args.api_docs), top, args.min_matches)
    for tool_file in args.tool_list or []:
        apis = merge_tool_lists(load_name_list(tool_file), top, apis)
    save_critical_apis(apis, args.out)
    print(f"wrote {len(apis)} critical APIs to {args.out}")
    return 0


def cmd_extract(args) -> int:
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    config = _config(args)
    critical = config.critical_apis()
    config.lifecycle(), config.callbacks(), config.intent_senders()   # a bad table fails once, here
    reports = extract_batch(args.apps, args.out, critical, config, workers=args.workers)
    failed = sum(1 for r in reports if r.get("status") != "ok")
    print(f"extracted {len(reports) - failed}/{len(reports)} apps into {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _config(args)
    if args.seed is not None:
        try:
            config.train = dataclasses.replace(config.train, seed=args.seed)
        except ValueError as exc:
            raise UsageError(f"--seed: {exc}") from None
    dataset = build_dataset(_labeled_records(args.features), config.hyper, config.opcode_budget)
    # Per-epoch telemetry goes to its own file, one JSON line per epoch as it
    # ends: the model and loss files stay byte-identical across reruns.
    with Path(args.out).with_suffix(".train_log.jsonl").open("w") as log:

        def progress(epoch, loss, grad_norm, seconds):
            log.write(json.dumps({"epoch": epoch, "loss": loss, "wall_s": seconds,
                                  "samples_per_s": len(dataset) / seconds,
                                  "grad_norm": grad_norm}) + "\n")
            log.flush()

        result = train(dataset, config.hyper, config.train, progress=progress)
    save_model(result.params, args.out)
    loss_path = Path(args.out).with_suffix(".losses.csv")
    lines = ["epoch,loss"] + [f"{i},{v!r}" for i, v in enumerate(result.epoch_losses)]
    loss_path.write_text("\n".join(lines) + "\n")
    print(f"trained {config.hyper.epochs} epochs; model at {args.out}")
    return 0


def _labeled_records(features):
    """The labeled FeatureRecords under features; none is a ConfigError."""
    records = [r for r in load_features(features) if r.label is not None]
    if not records:
        raise ConfigError(f"no labeled features under {features}")
    return records


def _probabilities(records, model, config):
    """Yield each record's probability pair (benign, malicious), in order.
    The records' features, rebuilt at the model's dimensions, are scored in
    batches of consecutive records capped by capped_batches, one forward
    pass per batch."""
    hp = model.hyper
    pairs = ((rec.graph(hp.label_dim), rec.matrix(hp.seq_len, config.opcode_budget))
             for rec in records)
    for batch in capped_batches(pairs, lambda pair: pair[1].n, hp.lstm_units):
        yield from probabilities(batch, model, seed=config.train.seed)


def _check_threshold(args):
    if not math.isfinite(args.threshold):
        raise UsageError("--threshold must be a finite number")


def cmd_tune(args) -> int:
    _check_threshold(args)
    config = _config(args)
    train_set, val_set, _ = split_dataset(_labeled_records(args.features), seed=config.train.seed)

    def evaluate(hp, train_items, val_items):
        dataset = build_dataset(train_items, hp, config.opcode_budget)
        result = train(dataset, hp, config.train)
        scores = [float(probs[1]) for probs in _probabilities(val_items, result.params, config)]
        _, report = compute_metrics(scores, [rec.label for rec in val_items], args.threshold)
        return report

    space = SEARCH_SPACE
    if args.factor:
        unknown = set(args.factor) - set(SEARCH_SPACE)
        if unknown:
            raise UsageError(f"unknown tuning factors: {sorted(unknown)}")
        space = {k: SEARCH_SPACE[k] for k in args.factor}
    result = grid_search(train_set, val_set, evaluate, space=space, defaults=config.hyper,
                         seed=config.train.seed)
    Path(args.out).write_text(grid_to_csv(result))
    best = result.best
    print(f"best F1 {best.report.f1:.4f} at {best.hyper}")
    return 0


def cmd_predict(args) -> int:
    config = _config(args)
    model = load_model(args.model)
    records = load_features(args.features)
    lines = ["app_id,label,probability,malicious_score"]
    for rec, probs in zip(records, _probabilities(records, model, config)):
        label = int(np.argmax(probs))
        lines.append(f"{rec.app_id},{label},{probs[label]:.6f},{probs[1]:.6f}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote predictions for {len(records)} apps to {args.out}")
    return 0


def _read_predictions(path):
    """Scores and true labels of a CSV, from its score and label columns; a
    malformed file is a ConfigError that names the line or missing column.
    predict's CSV has no score column: its label is the predicted one."""
    text = read_input(path, str.splitlines)
    if not text:
        raise ConfigError(f"predictions CSV {path} is empty")
    header = text[0].split(",")
    missing = [name for name in ("score", "label") if name not in header]
    if missing:
        raise ConfigError(f"predictions CSV {path} has no {' or '.join(missing)} column")
    s_col, l_col = header.index("score"), header.index("label")
    scores, labels = [], []
    for number, line in enumerate(text[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"predictions CSV {path} line {number} has {len(parts)} "
                              f"columns, its header {len(header)}")
        try:
            score, label = float(parts[s_col]), int(parts[l_col])
        except ValueError as exc:
            raise ConfigError(f"predictions CSV {path} line {number}: {exc}") from None
        if label not in (0, 1) or not math.isfinite(score):
            raise ConfigError(f"predictions CSV {path} line {number}: "
                              "the label must be 0 or 1 and the score finite")
        scores.append(score)
        labels.append(label)
    return scores, labels


def cmd_evaluate(args) -> int:
    _check_threshold(args)
    config = _config(args)
    if args.predictions:
        scores, labels = _read_predictions(args.predictions)
    else:
        if not args.model or not args.features:
            raise UsageError("evaluate needs --predictions or both --model and --features")
        model = load_model(args.model)
        records = _labeled_records(args.features)
        scores = [float(probs[1]) for probs in _probabilities(records, model, config)]
        labels = [rec.label for rec in records]
    confusion, report = compute_metrics(scores, labels, args.threshold)
    Path(args.out).write_text(report.to_json(confusion))
    print(f"accuracy {report.accuracy:.4f} F1 {report.f1:.4f} -> {args.out}")
    return 0


# Each command's function, help and arguments, as (flag, add_argument keywords).
_OUT, _CONFIG, _FEATURES = ("--out", dict(required=True)), ("--config", {}), \
    ("--features", dict(required=True))
_THRESHOLD = ("--threshold", dict(type=float, default=0.5))
_COMMANDS = {
    "mine-apis": (cmd_mine_apis, "rank corpus keywords and mine critical APIs", (
        ("--corpus", dict(required=True, help="directory of corpus .txt documents")),
        ("--api-docs", dict(required=True, help="JSON list of {signature, description}")),
        ("--tool-list", dict(action="append", help="tool API list file (repeatable)")),
        ("--stopwords", dict(help="stopword file (default: packaged list)")),
        ("--top-keywords", dict(type=int, default=DEFAULT_TOP_KEYWORDS)),
        ("--min-matches", dict(type=int, default=DEFAULT_MIN_MATCHES)), _OUT)),
    "extract": (cmd_extract, "extract graphs and opcode matrices for a dataset", (
        ("--apps", dict(required=True, help="root directory, one app per subdirectory")),
        _OUT, _CONFIG, ("--workers", dict(type=int, default=1,
                                          help="parallel extraction processes")))),
    "train": (cmd_train, "train the hybrid classifier on extracted features", (
        _FEATURES, ("--out", dict(required=True, help="model JSON path")), _CONFIG,
        ("--seed", dict(type=int)))),
    "tune": (cmd_tune, "grid-search hyperparameters on 1/8 stratified subsets", (
        _FEATURES, ("--out", dict(required=True, help="grid CSV path")), _CONFIG,
        ("--factor", dict(action="append", help="restrict sweep to this factor (repeatable)")),
        _THRESHOLD)),
    "predict": (cmd_predict, "label extracted apps with a trained model", (
        ("--model", dict(required=True)), _FEATURES, _OUT, _CONFIG)),
    "evaluate": (cmd_evaluate, "compute metrics from a model or a predictions CSV", (
        ("--model", {}), ("--features", {}),
        ("--predictions", dict(help="CSV with score and label columns")),
        _THRESHOLD, _OUT, _CONFIG)),
}


def make_parser(argv) -> _Parser:
    """The parser of every command, each with its arguments only if argv
    names it: help and an unknown command print as ever, and a run builds
    the arguments of its own command alone."""
    parser = _Parser(prog="droidflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        for flag, keywords in arguments if name in argv else ():
            p.add_argument(flag, **keywords)
    return parser


def _show_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = make_parser(argv).parse_args(argv)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DivergedLossError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
