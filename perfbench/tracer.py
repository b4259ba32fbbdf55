"""Per-layer spans and counts for the traced run.

Each wrapper replaces a droidflow function where its callers look it up (a
module attribute or a class attribute), times every call, and adds counts
taken from the call's result. Spans are attributed to the benchmark phase
running at the time. A function a later droidflow no longer calls simply
reads as zero calls.
"""

from collections import defaultdict
from time import perf_counter

EXTRACTING = ("extract", "scan")
LOADING = ("train", "predict")

PER_LAYER = (
    # name, unit, better
    ("appmodel.load_ms", "ms", "lower"),
    ("appmodel.instructions", "count", "lower"),
    ("callgraph.build_ms", "ms", "lower"),
    ("callgraph.nodes", "count", "lower"),
    ("callgraph.icc_edges", "count", "lower"),
    ("traces.search_ms", "ms", "lower"),
    ("traces.count", "count", "lower"),
    ("traces.opcodes_ms", "ms", "lower"),
    ("traces.opcodes", "count", "lower"),
    ("traces.rows_ms", "ms", "lower"),
    ("traces.rows", "count", "lower"),
    ("flowgraph.build_ms", "ms", "lower"),
    ("flowgraph.edges", "count", "lower"),
    ("flowgraph.read_ms", "ms", "lower"),
    ("pipeline.table_reads", "count", "lower"),
    ("pipeline.write_ms", "ms", "lower"),
    ("pipeline.load_features_ms", "ms", "lower"),
    ("pipeline.dataset_ms", "ms", "lower"),
    ("nn.gnn_forward_ms", "ms", "lower"),
    ("nn.lstm_forward_ms", "ms", "lower"),
    ("nn.backward_ms", "ms", "lower"),
    ("nn.tape_nodes", "count", "lower"),
    ("nn.adam_ms", "ms", "lower"),
    ("nn.score_ms", "ms", "lower"),
    ("nn.forwards_per_app", "count", "lower"),
    ("nn.save_s", "s", "lower"),
    ("nn.load_s", "s", "lower"),
)


def tape_nodes(root) -> int:
    """Tape nodes the loss depends on, counted through their parent links."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent, _ in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.phase = None
        self.stats = defaultdict(lambda: defaultdict(float))   # (span, phase) -> totals
        self._undo = []

    def wrap(self, owner, attr, span, counts=None, before=None):
        """Time owner.attr as `span`; counts(result) and before(*args) give
        dicts of counts added to the span's totals."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            extra = before(*args) if before else {}
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                totals = tracer.stats[(span, tracer.phase)]
                totals["calls"] += 1
                totals["s"] += perf_counter() - t0
            for key, value in extra.items():
                totals[key] += value
            for key, value in (counts(out) if counts else {}).items():
                totals[key] += value
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def total(self, span, phases, key="s"):
        return sum(self.stats[(span, p)][key] for p in phases if (span, p) in self.stats)


def install(tracer: Tracer):
    import importlib

    from droidflow import appmodel, cli, pipeline
    from droidflow.nn import model, tape

    train = importlib.import_module("droidflow.nn.train")   # nn re-exports train()

    def instructions(app):
        return {"n": sum(len(m.body) for c in app.classes.values() for m in c.methods)}

    w = tracer.wrap
    w(pipeline, "extract_app", "pipeline.extract_app")
    w(pipeline, "load_app", "appmodel.load", instructions)
    w(appmodel, "load_app", "appmodel.load", instructions)
    w(pipeline, "build_call_graph", "callgraph.build",
      lambda cg: {"nodes": len(cg.nodes), "icc": len(cg.icc_edges)})
    w(pipeline, "find_call_traces", "traces.search", lambda ts: {"n": len(ts)})
    w(pipeline, "with_opcode_seqs", "traces.opcodes",
      lambda ts: {"n": sum(len(t.opcode_seq) for t in ts)})
    w(pipeline, "sample_opcodes", "traces.rows")
    w(pipeline, "build_matrix", "traces.rows", lambda m: {"n": m.n})
    w(pipeline, "build_flow_graph", "flowgraph.build", lambda out: {"n": len(out[0].edges)})
    w(pipeline, "deserialize_graph", "flowgraph.read")
    w(pipeline, "write_features", "pipeline.write")
    for table in ("lifecycle", "callbacks", "intent_senders", "critical_apis"):
        w(pipeline.PipelineConfig, table, "pipeline.table")
    w(cli, "load_features", "pipeline.load_features", lambda rs: {"n": len(rs)})
    w(cli, "build_dataset", "pipeline.dataset", lambda ds: {"n": len(ds)})
    w(model, "gnn_vector_var", "nn.gnn_forward")
    w(model, "bilstm_vector_var", "nn.lstm_forward")
    w(tape, "backward", "nn.backward", before=lambda root: {"nodes": tape_nodes(root)})
    w(train.Adam, "step", "nn.adam")
    w(cli, "score", "nn.score")
    w(model, "score", "nn.score")
    for entry in ("predict", "probabilities"):
        w(cli, entry, "nn.forward")
    w(cli, "save_model", "nn.save")
    w(cli, "load_model", "nn.load")
    w(model, "load_model", "nn.load")


def layer_metrics(tr: Tracer, train_samples: int, predict_apps: int) -> dict:
    """Per-layer metric values, by the definitions in PER_LAYER's README table."""
    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(span, phases, key="s", scale=1e3):
        return ratio(tr.total(span, phases, key) * scale, tr.total(span, phases, "calls"))

    apps = tr.total("pipeline.extract_app", EXTRACTING, "calls")
    return {
        "appmodel.load_ms": per_call("appmodel.load", EXTRACTING),
        "appmodel.instructions": per_call("appmodel.load", EXTRACTING, "n", 1),
        "callgraph.build_ms": per_call("callgraph.build", EXTRACTING),
        "callgraph.nodes": per_call("callgraph.build", EXTRACTING, "nodes", 1),
        "callgraph.icc_edges": per_call("callgraph.build", EXTRACTING, "icc", 1),
        "traces.search_ms": per_call("traces.search", EXTRACTING),
        "traces.count": per_call("traces.search", EXTRACTING, "n", 1),
        "traces.opcodes_ms": per_call("traces.opcodes", EXTRACTING),
        "traces.opcodes": per_call("traces.opcodes", EXTRACTING, "n", 1),
        "traces.rows_ms": ratio(tr.total("traces.rows", EXTRACTING) * 1e3, apps),
        "traces.rows": ratio(tr.total("traces.rows", EXTRACTING, "n"), apps),
        "flowgraph.build_ms": per_call("flowgraph.build", EXTRACTING),
        "flowgraph.edges": per_call("flowgraph.build", EXTRACTING, "n", 1),
        "flowgraph.read_ms": per_call("flowgraph.read", LOADING),
        "pipeline.table_reads": ratio(tr.total("pipeline.table", ("extract",), "calls"),
                                      tr.total("pipeline.extract_app", ("extract",), "calls")),
        "pipeline.write_ms": per_call("pipeline.write", ("extract",)),
        "pipeline.load_features_ms": ratio(tr.total("pipeline.load_features", LOADING) * 1e3,
                                           tr.total("pipeline.load_features", LOADING, "n")),
        "pipeline.dataset_ms": ratio(tr.total("pipeline.dataset", ("train",)) * 1e3,
                                     tr.total("pipeline.dataset", ("train",), "n")),
        "nn.gnn_forward_ms": ratio(tr.total("nn.gnn_forward", ("train",)) * 1e3, train_samples),
        "nn.lstm_forward_ms": ratio(tr.total("nn.lstm_forward", ("train",)) * 1e3, train_samples),
        "nn.backward_ms": ratio(tr.total("nn.backward", ("train",)) * 1e3, train_samples),
        "nn.tape_nodes": ratio(tr.total("nn.backward", ("train",), "nodes"), train_samples),
        "nn.adam_ms": per_call("nn.adam", ("train",)),
        "nn.score_ms": per_call("nn.score", ("predict", "scan")),
        "nn.forwards_per_app": ratio(tr.total("nn.forward", ("predict",), "calls")
                                     + tr.total("nn.score", ("predict",), "calls"), predict_apps),
        "nn.save_s": per_call("nn.save", ("train",), scale=1),
        "nn.load_s": per_call("nn.load", ("predict", "setup"), scale=1),
    }
