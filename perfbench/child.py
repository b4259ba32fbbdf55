"""The measured process of one benchmark run, started by run.py.

    python3 perfbench/child.py run PLAN_JSON
        Runs whole rounds of the four phases on inputs already on disk and
        writes every timing, outputs for the checks, and (traced) per-layer
        numbers to the plan's result path.
    python3 perfbench/child.py setup CONFIG MODEL
        Times one set-up as a user pays it (import droidflow, build the
        config and critical-API set, load the model) and prints it as JSON.

Only the standard library is imported before timing starts, so the import
of droidflow and numpy counts as set-up.
"""

import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

REFERENCE_S = 0.0014    # CPU seconds reference() takes when the host runs at full speed
SAMPLE_EVERY_S = 0.1    # seconds between two samples of the host's speed
SCAN_PASSES = 2         # scans of every held-out app per round: more samples of a short operation


def cpu_time():
    """CPU seconds of this process and of any child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def reference(matrix):
    """A fixed piece of work, about half interpreter loop, half matrix products."""
    d = {}
    for i in range(6000):
        d[i % 97] = d.get(i % 89, 0) + i
    for _ in range(8):
        matrix @ matrix


class HostSpeed:
    """Samples the host's speed while the workload runs.

    Every SAMPLE_EVERY_S seconds a SIGALRM handler times reference(). (A
    CPU-time timer would not do: while one is armed, Linux may update the
    process's CPU clock only at scheduler ticks, and the loop would read as
    taking no time.)
    scaled() turns an operation's CPU time into the CPU time it would take
    at full speed (reference() in REFERENCE_S), leaving out the samples'
    own time."""

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).standard_normal((128, 128))
        self.factors, self.spent = [], 0.0

    def tick(self, *_):
        c0 = process_time()
        reference(self.matrix)
        dt = process_time() - c0
        self.factors.append(REFERENCE_S / dt)
        self.spent += dt

    def start(self):
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self):
        return len(self.factors), self.spent

    def scaled(self, mark, cpu_s):
        """CPU seconds at full speed of an operation that began at `mark`:
        each slice is scaled by the sample before it."""
        i, spent = mark
        return (cpu_s - (self.spent - spent)) * statistics.fmean(self.factors[i - 1:])


def setup(config_path, model_path):
    c0 = cpu_time()
    from droidflow import cli  # noqa: F401  (the import a user's command pays)
    from droidflow.nn.model import load_model
    from droidflow.pipeline import PipelineConfig

    config = PipelineConfig.from_json(config_path)
    config.critical_apis()
    load_model(model_path)
    cpu_s = cpu_time() - c0
    speed = HostSpeed()             # sampled right after, numpy being loaded by now
    for _ in range(20):
        speed.tick()
    print(json.dumps({"setup_s": cpu_s * statistics.fmean(speed.factors)}))


def _cli(cli, args, speed):
    """Run one droidflow command in-process; returns (exit code, CPU seconds
    at full speed).

    Garbage is collected and earlier writes are flushed first, so that no
    command pays for the memory or the file-system work of the one before it."""
    gc.collect()
    os.sync()
    with contextlib.redirect_stdout(io.StringIO()):
        mark, c0 = speed.mark(), cpu_time()
        code = cli.main([str(a) for a in args])
        return code, speed.scaled(mark, cpu_time() - c0)


def _dir_bytes(root):
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def run(plan):
    from droidflow import appmodel, callgraph, cli, pipeline, traces
    from droidflow.nn import model as nnmodel

    import checks

    tracer = None
    if plan["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    work = Path(plan["work"])
    apps = work / "apps"
    cfg, model_path = work / "config.json", work / "model.json"
    app_ids = plan["train"] + plan["heldout"]
    out = {"problems": [], "failed": 0, "attempted": 0, "rounds": 0, "phase_s": Counter(),
           "extract_s": {a: [] for a in app_ids}, "train_s": [], "predict_s": [],
           "scan_ms": {a: [] for a in plan["heldout"]}, "scan_scores": {}}

    def timed(name, args):
        phase(name)
        code, dt = _cli(cli, args, speed)
        phase(None)
        out["phase_s"][name] += dt
        out["attempted"] += 1
        if code:
            out["failed"] += 1
            out["problems"].append(f"{name} exited {code}")
        return code, dt

    # Whole rounds of extract -> train -> predict -> scan until --seconds have
    # passed, so every operation is sampled across the whole run.
    started, model = perf_counter(), None
    speed = HostSpeed()
    speed.start()
    try:
        while out["rounds"] < plan["min_rounds"] or perf_counter() - started < plan["seconds"]:
            r = out["rounds"]
            out["rounds"] += 1

            # 1. extract, one app per call: each app is its own dataset root;
            # each pass writes a fresh feature directory, the last one is used
            for k in range(plan["extract_passes"]):
                feats = work / f"features{r}-{k}"
                for app_id in app_ids:
                    code, dt = timed("extract", ["extract", "--apps", apps / app_id,
                                                 "--out", feats, "--config", cfg, "--workers", 1])
                    out["extract_s"][app_id].append(dt)
                    if code == 0:
                        summary = json.loads((feats / "extraction_report.json").read_text())
                        bad = checks.extraction_problems(summary, [app_id])
                        out["failed"] += len(bad)
                        out["problems"] += bad
            out["features"] = str(feats)
            feats_train = work / f"features_train{r}"
            feats_train.mkdir()
            for app_id in plan["train"]:
                (feats_train / app_id).symlink_to(Path("..") / feats.name / app_id)

            # 2. train on the training split
            code, dt = timed("train", ["train", "--features", feats_train, "--out", model_path,
                                       "--config", cfg])
            out["train_s"].append(dt)
            if code:
                return out

            # 3. predict over every extracted app, one batch
            code, dt = timed("predict", ["predict", "--model", model_path, "--features", feats,
                                         "--out", work / "predictions.csv", "--config", cfg])
            out["predict_s"].append(dt)

            # 4. the scan: one held-out app at a time, model loaded once beforehand
            if model is None:
                gc.collect()
                os.sync()
                phase("setup")
                mark, c0 = speed.mark(), cpu_time()
                config = pipeline.PipelineConfig.from_json(cfg)
                critical = config.critical_apis()
                model = nnmodel.load_model(model_path)
                out["phase_s"]["setup"] += speed.scaled(mark, cpu_time() - c0)
                seq_len, budget = config.hyper.seq_len, config.opcode_budget
            for app_id in plan["heldout"] * SCAN_PASSES:
                phase("scan")
                out["attempted"] += 1
                try:
                    mark, c0 = speed.mark(), cpu_time()
                    app = appmodel.load_app(apps / app_id / app_id)
                    result = pipeline.extract_app(app, critical, config)
                    score = nnmodel.score((result.graph, result.matrix), model,
                                          seed=config.train.seed)
                    dt = speed.scaled(mark, cpu_time() - c0)
                except Exception:
                    out["failed"] += 1
                    out["problems"].append(f"{app_id}: scan raised\n{traceback.format_exc()}")
                    continue
                finally:
                    phase(None)
                out["scan_ms"][app_id].append(dt * 1e3)
                out["phase_s"]["scan"] += dt
                if app_id not in out["scan_scores"]:
                    out["scan_scores"][app_id] = score
                    out["problems"] += checks.matrix_problems(
                        app_id, result.raw_sequences, result.matrix.rows.tolist(), seq_len, budget)
    finally:
        speed.stop()
    out["slow_share"] = sum(f < 0.8 for f in speed.factors) / len(speed.factors)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["features_bytes"] = _dir_bytes(feats)
    out["model_bytes"] = model_path.stat().st_size
    loss_lines = model_path.with_suffix(".losses.csv").read_text().split()[1:]
    out["losses"] = [float(line.split(",")[1]) for line in loss_lines]

    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        rounds = out["rounds"]
        out["layers"] = layer_metrics(tracer, rounds * len(plan["train"]) * config.hyper.epochs,
                                      rounds * len(app_ids))

    # Untimed: droidflow's call graph, traces and rows for every app, for the checks.
    out["analysis"] = {}
    for app_id in app_ids:
        app = appmodel.load_app(apps / app_id / app_id)
        cg = callgraph.build_call_graph(app, lifecycle=config.lifecycle(),
                                        callbacks=config.callbacks(),
                                        intent_senders=config.intent_senders())
        found = traces.find_call_traces(cg, critical, max_depth=config.max_depth,
                                        max_traces_per_entry=config.max_traces_per_entry)
        out["analysis"][app_id] = {
            "nodes": list(cg.nodes),
            "entry_traces": dict(Counter(t.methods[0] for t in found)),
            "apis": sorted({t.critical_api for t in found}),
            "icc_edges": [list(p) for p in cg.icc_edges],
        }
    for rec in pipeline.load_features(feats):
        rows = rec.matrix(seq_len, budget).rows.tolist()
        out["problems"] += checks.matrix_problems(rec.app_id, rec.raw_sequences, rows,
                                                  seq_len, budget)
    return out


def main(argv):
    if argv[:1] == ["setup"] and len(argv) == 3:
        setup(argv[1], argv[2])
        return 0
    if argv[:1] != ["run"] or len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    plan = json.loads(Path(argv[1]).read_text())
    out = run(plan)
    Path(plan["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
