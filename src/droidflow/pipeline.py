"""Per-app feature extraction and on-disk artifact layout.

extract_app turns one loaded app into its flow graph, trace sequences and
row matrix; extract_batch walks a dataset root (one subdirectory per app)
and writes, per app: nodes.csv, edges.csv, traces.csv and report.json. The
row matrix is not written: train, predict and evaluate rebuild it from
traces.csv. Batch failures are per-app report entries, never aborts.
"""

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .apimine import CriticalApiSet, load_critical_apis
from .appmodel import AppModel, load_app
from .callgraph import build_call_graph
from .flowgraph import (
    AbstractFlowGraph,
    FormatError,
    GraphArrays,
    build_flow_graph,
    deserialize_graph,
    opcode_lines,
    read_opcode_lines,
    serialize_graph,
)
from .nn.model import Hyperparams, TrainConfig
from .tables import (
    InputError,
    data_file,
    default_callbacks,
    default_intent_senders,
    default_lifecycle,
    load_lifecycle_table,
    load_name_list,
    read_input,
)
from .traces import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_TRACES_PER_ENTRY,
    DEFAULT_OPCODE_BUDGET,
    SequenceMatrix,
    build_matrix,
    find_call_traces,
)


class ConfigError(InputError):
    pass


@dataclass
class PipelineConfig:
    critical_apis_path: Path | None = None
    lifecycle_path: Path | None = None
    callbacks_path: Path | None = None
    intent_senders_path: Path | None = None
    hyper: Hyperparams = field(default_factory=Hyperparams)
    train: TrainConfig = field(default_factory=TrainConfig)
    max_depth: int = DEFAULT_MAX_DEPTH
    max_traces_per_entry: int = DEFAULT_MAX_TRACES_PER_ENTRY
    opcode_budget: int = DEFAULT_OPCODE_BUDGET
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        """The config in a JSON file; a ConfigError names the file."""
        data = read_input(path, json.loads)
        try:
            return cls.from_dict(data, base=Path(path).parent)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    @classmethod
    def from_dict(cls, data: dict, base: Path = Path(".")) -> "PipelineConfig":
        known = {
            "critical_apis", "lifecycle", "callbacks", "intent_senders",
            "hyperparams", "train", "caps", "opcode_budget",
        }
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, not {type(data).__name__}")
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

        def resolve(key):
            if key not in data:
                return None
            if not isinstance(data[key], str):
                raise ConfigError(f"config path for {key} must be a string, not {data[key]!r}")
            p = (base / data[key]).resolve()
            if not p.exists():
                raise ConfigError(f"config path for {key} does not exist: {p}")
            return p

        caps = data.get("caps", {})
        if not isinstance(caps, dict):
            raise ConfigError(f"caps must be a JSON object, not {caps!r}")
        unknown = set(caps) - {"max_depth", "max_traces_per_entry"}
        if unknown:
            raise ConfigError(f"unknown caps keys: {sorted(unknown)}")
        counts = {
            "caps.max_depth": caps.get("max_depth", DEFAULT_MAX_DEPTH),
            "caps.max_traces_per_entry": caps.get("max_traces_per_entry",
                                                  DEFAULT_MAX_TRACES_PER_ENTRY),
            "opcode_budget": data.get("opcode_budget", DEFAULT_OPCODE_BUDGET),
        }
        for key, value in counts.items():
            if type(value) is not int or value < 1:   # a bool is an int subclass
                raise ConfigError(f"{key} must be an integer >= 1, not {value!r}")
        try:
            hyper = Hyperparams(**data.get("hyperparams", {}))
            train = TrainConfig(**data.get("train", {}))
        except (TypeError, ValueError) as exc:   # an unknown name, a bad value
            raise ConfigError(f"bad hyperparams or train config: {exc}") from None
        return cls(
            critical_apis_path=resolve("critical_apis"),
            lifecycle_path=resolve("lifecycle"),
            callbacks_path=resolve("callbacks"),
            intent_senders_path=resolve("intent_senders"),
            hyper=hyper,
            train=train,
            max_depth=counts["caps.max_depth"],
            max_traces_per_entry=counts["caps.max_traces_per_entry"],
            opcode_budget=counts["opcode_budget"],
        )

    def critical_apis(self) -> CriticalApiSet:
        return self._table("critical_apis", self.critical_apis_path or data_file("critical_apis.txt"),
                           load_critical_apis)

    def lifecycle(self) -> Mapping:
        if self.lifecycle_path is None:
            return default_lifecycle()
        return MappingProxyType(self._table("lifecycle", self.lifecycle_path, load_lifecycle_table))

    def callbacks(self) -> tuple:
        if self.callbacks_path is None:
            return default_callbacks()
        return self._table("callbacks", self.callbacks_path, load_name_list)

    def intent_senders(self) -> frozenset:
        if self.intent_senders_path is None:
            return default_intent_senders()
        return self._table("intent_senders", self.intent_senders_path,
                           lambda path: frozenset(load_name_list(path)))

    def _table(self, name, path, parse):
        """parse(path), run at most once per table and path on this config.
        Every caller shares the result, so lifecycle() hands its dict out
        only behind a read-only proxy."""
        key = (name, path)
        if key not in self._tables:
            self._tables[key] = parse(path)
        return self._tables[key]


@dataclass
class ExtractResult:
    app_id: str
    graph: AbstractFlowGraph
    matrix: SequenceMatrix
    raw_sequences: list          # unsampled per-trace opcode sequences
    report: dict


def extract_app(app: AppModel, critical: CriticalApiSet, config: PipelineConfig) -> ExtractResult:
    # The report copies both as they are, and load_features accepts no other type.
    label, timestamp = app.metadata.get("label"), app.metadata.get("timestamp")
    if not all(v is None or isinstance(v, str) for v in (label, timestamp)):
        raise ValueError(f"{app.app_id}: label and timestamp must be strings or null")
    cg = build_call_graph(
        app,
        lifecycle=config.lifecycle(),
        callbacks=config.callbacks(),
        intent_senders=config.intent_senders(),
    )
    traces = find_call_traces(
        cg, critical,
        max_depth=config.max_depth,
        max_traces_per_entry=config.max_traces_per_entry,
    )
    raw_sequences = [t.opcode_seq for t in traces]
    matrix = build_matrix(raw_sequences, config.hyper.seq_len, config.opcode_budget)
    total_raw = sum(map(len, raw_sequences))
    graph, flow_diags = build_flow_graph(app, cg, traces)
    report = {
        "app_id": app.app_id,
        "label": label,
        "timestamp": timestamp,
        "classes": len(app.classes),
        "components": len(app.components),
        "entry_points": len(cg.entry_points),
        "call_graph_nodes": len(cg.nodes),
        "icc_edges": len(cg.icc_edges),
        "trace_count": len(traces),
        "total_trace_opcodes": total_raw,
        "sampling_applied": total_raw > config.opcode_budget,
        "matrix_rows": matrix.n,
        "empty_matrix": matrix.n == 0,
        "graph_nodes": len(graph),
        "graph_edges": len(graph.edges),
        "diagnostics": sorted(set(app.diagnostics + cg.diagnostics + flow_diags)),
        "status": "ok",
    }
    return ExtractResult(app.app_id, graph, matrix, raw_sequences, report)


def write_features(result: ExtractResult, out_dir) -> Path:
    app_dir = Path(out_dir) / result.app_id
    serialize_graph(result.graph, app_dir)   # first: it makes app_dir or writes nothing
    seqs = result.raw_sequences
    (app_dir / "traces.csv").write_bytes(
        opcode_lines(b"".join(map(bytes, seqs)), list(map(len, seqs))))
    (app_dir / "report.json").write_text(
        json.dumps(result.report, sort_keys=True, indent=2) + "\n"
    )
    return app_dir


def _extract_one(app_path, out_dir, critical, config):
    try:
        app = load_app(app_path)
        result = extract_app(app, critical, config)
        write_features(result, out_dir)
        return result.report
    except (ValueError, OSError, RecursionError) as exc:
        return {"app_id": Path(app_path).name, "status": "failed", "error": str(exc)}


def extract_batch(dataset_root, out_dir, critical: CriticalApiSet, config: PipelineConfig,
                  workers: int = 1):
    """Extract every app directory under dataset_root; one report entry each.

    Apps are independent, so workers > 1 fans extraction out over processes;
    reports keep app-path order either way."""
    dataset_root = Path(dataset_root)
    app_paths = sorted(p for p in dataset_root.iterdir() if p.is_dir())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(
                pool.map(_extract_one, app_paths,
                         [out_dir] * len(app_paths),
                         [critical] * len(app_paths),
                         [config] * len(app_paths))
            )
    else:
        reports = [_extract_one(p, out_dir, critical, config) for p in app_paths]
    summary = Path(out_dir) / "extraction_report.json"
    summary.parent.mkdir(parents=True, exist_ok=True)
    summary.write_text(json.dumps(reports, sort_keys=True, indent=2) + "\n")
    return reports


# --- feature loading for train / tune / predict --------------------------------

@dataclass
class FeatureRecord:
    app_id: str
    path: Path
    label: int | None
    timestamp: str | None
    raw_sequences: list

    def graph(self, label_dim: int) -> GraphArrays:
        return deserialize_graph(self.path, label_dim)

    def matrix(self, seq_len: int, opcode_budget: int) -> SequenceMatrix:
        return build_matrix(self.raw_sequences, seq_len, opcode_budget)


def load_features(features_dir) -> list:
    """FeatureRecords for every extracted app, sorted by app id."""
    features_dir = Path(features_dir)
    records = []
    for app_dir in sorted(p for p in features_dir.iterdir() if p.is_dir()):
        report_path = app_dir / "report.json"
        if not report_path.exists():
            continue
        report = read_input(report_path, json.loads)
        if not isinstance(report, dict) or not isinstance(report.get("app_id"), str):
            raise FormatError(f"{report_path} is not a JSON object with a string app_id")
        if report.get("status") != "ok":
            continue
        label, timestamp = report.get("label"), report.get("timestamp")
        if not all(v is None or isinstance(v, str) for v in (label, timestamp)):
            raise FormatError(f"{report_path}: label and timestamp must be strings or null")
        records.append(
            FeatureRecord(
                app_id=report["app_id"],
                path=app_dir,
                label={"benign": 0, "malicious": 1}.get(label),
                timestamp=timestamp,
                raw_sequences=read_opcode_lines(app_dir / "traces.csv"),
            )
        )
    return records


def build_dataset(records, hyper: Hyperparams, opcode_budget: int = DEFAULT_OPCODE_BUDGET):
    """(graph, matrix, label) triples for training; records must be labeled."""
    dataset = []
    for rec in records:
        if rec.label is None:
            raise ConfigError(f"feature record {rec.app_id} has no label")
        dataset.append(
            (rec.graph(hyper.label_dim), rec.matrix(hyper.seq_len, opcode_budget), rec.label)
        )
    return dataset
