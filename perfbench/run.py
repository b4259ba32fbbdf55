"""droidflow benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload large-apps --seed 1 --seconds 25 --trace 0

Run from the root of a droidflow checkout. The run generates its apps from
the seed and writes them under .perfbench_work/, then starts one fresh
process for the workload (hash seed and BLAS pools fixed before numpy
loads). That process repeats whole rounds of droidflow extract (one app per
call), train, predict and the per-app scan until --seconds have passed,
and samples the host's speed as it goes. Untraced runs also start a few
set-up probes. Every time is CPU time scaled to the host's full speed, and
every metric is a median over the rounds (README, "Times"). Outputs are
checked against the generator's record, and the last line printed is one
JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from gen import analyze, write_app  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import OPCODE_BUDGET, WORKLOADS  # noqa: E402

DEADLINE_S = 170            # every run ends within this, children included
TRAIN_SEED = 0
TRACE_CAP = 256             # droidflow's default per-entry trace cap
MIN_ROUNDS = 2              # rounds every run makes, however short --seconds is
ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "extract_apps_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "predict_apps_per_s": "1/s",
    "scan_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "features_kb_per_app": "KB",
    "model_mb": "MB",
}


class BenchError(Exception):
    pass


def _child(args, deadline, env):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before a child process could start")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=left)
    if proc.returncode:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def _read_predictions(path):
    rows = {}
    for line in Path(path).read_text().splitlines()[1:]:
        app_id, label, prob, mal = line.split(",")
        rows[app_id] = (int(label), float(prob), float(mal))
    return rows


def _read_edges(path):
    edges = []
    for line in Path(path).read_text().splitlines():
        s, t, kind = line.split(",")
        edges.append((int(s), int(t), kind))
    return edges


def _read_traces(path):
    return [[int(x) for x in line.split("|")]
            for line in Path(path).read_text().splitlines() if line]


def check(workload, records, train, heldout, out, work):
    """Problems found in one run's outputs; empty when everything is right."""
    problems = list(out["problems"])
    feats = Path(out["features"])
    for app_id, rec in records.items():
        app_dir = feats / app_id
        report = json.loads((app_dir / "report.json").read_text())
        problems += checks.report_problems(app_id, report, rec, TRACE_CAP)
        problems += checks.trace_problems(app_id, _read_traces(app_dir / "traces.csv"), rec)
        problems += checks.graph_problems(app_id, _read_edges(app_dir / "edges.csv"))
        problems += checks.analysis_problems(app_id, out["analysis"][app_id], rec, TRACE_CAP)
    problems += checks.prediction_problems(
        _read_predictions(work / "predictions.csv"), out["scan_scores"], list(records))
    problems += checks.loss_problems(out["losses"], "loss_falls" in workload.gates)
    if "f1" in workload.gates:
        labels = [1 if records[a]["label"] == "malicious" else 0 for a in heldout]
        f1 = checks.f1_score([out["scan_scores"][a] for a in heldout], labels)
        if f1 < 0.90:
            problems.append(f"held-out F1 {f1:.4f} below 0.90")
    return problems


def end_to_end(out, n_apps, setups):
    return {
        "setup_s": median(setups),
        "extract_apps_per_s": n_apps / sum(median(t) for t in out["extract_s"].values()),
        "train_samples_per_s": out["train_samples"] / median(out["train_s"]),
        "predict_apps_per_s": n_apps / median(out["predict_s"]),
        "scan_ms_p50": median(median(t) for t in out["scan_ms"].values()),
        "peak_rss_mb": out["peak_rss_kb"] * 1024 / 1e6,
        "features_kb_per_app": out["features_bytes"] / 1e3 / n_apps,
        "model_mb": out["model_bytes"] / 1e6,
    }


def bench(workload, seed, seconds, trace, root, deadline):
    src = root / "src"
    if not (src / "droidflow" / "cli.py").is_file():
        raise BenchError(f"no droidflow sources under {src}; run from a checkout's root")
    compileall.compile_dir(str(src), quiet=1)
    env = dict(os.environ, **ENV, PYTHONPATH=str(src))

    work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        train, heldout = workload.build(seed)
        records = {}
        for app in train + heldout:
            records[app.app_id] = analyze(app, cap=TRACE_CAP).to_json()
            write_app(app, work / "apps" / app.app_id, workload.form)   # one dataset root each
        hyper = dict(workload.hyper)
        (work / "config.json").write_text(json.dumps({
            "hyperparams": hyper, "train": {"seed": TRAIN_SEED},
            "opcode_budget": OPCODE_BUDGET}))
        plan = {"work": str(work), "result": str(work / "result.json"),
                "train": [a.app_id for a in train], "heldout": [a.app_id for a in heldout],
                "min_rounds": MIN_ROUNDS, "extract_passes": workload.extract_passes,
                "seconds": seconds,
                "trace": trace}
        (work / "plan.json").write_text(json.dumps(plan))
        os.sync()   # write the inputs back now, not while the workload is timed

        _child(["run", work / "plan.json"], deadline, env)
        out = json.loads((work / "result.json").read_text())
        if not out["predict_s"]:
            raise BenchError("workload stopped early:\n" + "\n".join(out["problems"]))
        out["train_samples"] = len(train) * workload.hyper.get("epochs", 25)
        setups = []
        if not trace:
            for _ in range(workload.setup_probes):
                line = _child(["setup", work / "config.json", work / "model.json"],
                              deadline, env).strip().splitlines()[-1]
                setups.append(json.loads(line)["setup_s"])

        problems = check(workload, records, plan["train"], plan["heldout"], out, work)
        for p in problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        phases = " ".join(f"{k}={v:.3f}s" for k, v in sorted(out["phase_s"].items()))
        print(f"# {workload.name} seed={seed} trace={trace} phase CPU at full speed: {phases}")
        samples = {k: out[k] for k in ("train_s", "predict_s")}
        samples.update(extract_s=[sum(t) for t in zip(*out["extract_s"].values())],
                       scan_ms=out["scan_ms"], setup_s=setups)
        print(f"# {out['rounds']} rounds, host slow in {out['slow_share']:.0%} of the speed "
              "samples; CPU seconds at full speed: " + json.dumps(samples))
        if trace:
            values = out["layers"]
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values = end_to_end(out, len(records), setups)
            units = END_TO_END_UNITS
        return {
            "correct": not problems,
            "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv=None):
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                       Path.cwd(), deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
