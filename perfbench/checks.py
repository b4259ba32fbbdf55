"""Output checks. Each returns a list of problems; an empty list means correct.

Outputs are compared with the generator's record or with properties of the
method (backward sampling, row splitting, mirrored edges, score agreement),
never with a saved copy of earlier output.
"""

import math

from gen import INVOKE_OPCODES

MIRROR = {"ct": "bct", "is": "bis", "nb": "bnb", "ic": "bic", "in": "bin"}
FORWARD = {b: f for f, b in MIRROR.items()}


def expected_traces(record: dict, cap: int) -> dict:
    """Per-entry trace counts after the per-entry cap, entries with traces only."""
    return {e: min(cap, n) for e, n in record["entry_traces"].items() if n}


def extraction_problems(summary: list, app_ids) -> list:
    """Every app has one entry in the extraction report, with status ok."""
    out = []
    seen = {r.get("app_id"): r for r in summary}
    for app_id in app_ids:
        r = seen.get(app_id)
        if r is None:
            out.append(f"{app_id}: missing from extraction report")
        elif r.get("status") != "ok":
            out.append(f"{app_id}: status {r.get('status')} ({r.get('error')})")
    return out


def report_problems(app_id: str, report: dict, record: dict, cap: int) -> list:
    out = []
    want = sum(expected_traces(record, cap).values())
    if report.get("trace_count") != want:
        out.append(f"{app_id}: trace_count {report.get('trace_count')}, generator {want}")
    if report.get("call_graph_nodes") != len(record["reachable"]):
        out.append(f"{app_id}: call_graph_nodes {report.get('call_graph_nodes')}, "
                   f"generator {len(record['reachable'])}")
    return out


def trace_problems(app_id: str, seqs: list, record: dict) -> list:
    """Raw trace sequences: the planted lengths, each ending in an invoke."""
    out = []
    lengths = sorted(len(s) for s in seqs)
    if lengths != record["seq_lengths"]:
        out.append(f"{app_id}: {len(lengths)} trace sequences of {sum(lengths)} opcodes, "
                   f"generator {len(record['seq_lengths'])} of {sum(record['seq_lengths'])}")
    if any(not s or s[-1] not in INVOKE_OPCODES for s in seqs):
        out.append(f"{app_id}: a trace sequence does not end in an invoke")
    return out


def matrix_problems(app_id: str, seqs: list, rows: list, seq_len: int, budget: int) -> list:
    """Rows built from raw sequences `seqs` under the opcode budget.

    Sampling keeps each sequence's tail, so every trace's last row is the
    last seq_len opcodes of its raw sequence; the rows number the sum of
    floor(len / seq_len) over the sampled lengths and hold at most
    max(budget, traces * seq_len) opcodes."""
    out = []
    lengths = [len(s) for s in seqs]
    if sum(lengths) > budget:
        per = budget // len(seqs)
        bound = max(seq_len, per // seq_len * seq_len)
        lengths = [min(n, bound) for n in lengths]
    blocks = [n // seq_len for n in lengths]
    if len(rows) != sum(blocks):
        return [f"{app_id}: {len(rows)} matrix rows, expected {sum(blocks)}"]
    if len(rows) * seq_len > max(budget, len(seqs) * seq_len):
        out.append(f"{app_id}: {len(rows)} rows exceed the opcode budget")
    end = 0
    for seq, q in zip(seqs, blocks):
        end += q
        if q and (list(rows[end - 1]) != list(seq[-seq_len:])
                  or rows[end - 1][-1] not in INVOKE_OPCODES):
            out.append(f"{app_id}: row {end - 1} lost its trace's critical-invoke tail")
            break
    return out


def graph_problems(app_id: str, edges: list) -> list:
    """Every flow-graph edge (source, target, type) has its mirror."""
    have = set(edges)
    for s, t, kind in edges:
        mirror = MIRROR.get(kind) or FORWARD.get(kind)
        if mirror is None:
            return [f"{app_id}: unknown edge type {kind}"]
        if (t, s, mirror) not in have:
            return [f"{app_id}: edge {s},{t},{kind} has no {mirror} mirror"]
    return []


def analysis_problems(app_id: str, found: dict, record: dict, cap: int) -> list:
    """droidflow's call graph and traces against the record."""
    out = []
    if found["nodes"] != record["reachable"]:
        extra = sorted(set(found["nodes"]) - set(record["reachable"]))[:2]
        missing = sorted(set(record["reachable"]) - set(found["nodes"]))[:2]
        out.append(f"{app_id}: call-graph nodes differ (extra {extra}, missing {missing})")
    if found["entry_traces"] != expected_traces(record, cap):
        out.append(f"{app_id}: per-entry trace counts differ from the generator's")
    if found["apis"] != record["critical_apis"]:
        out.append(f"{app_id}: critical APIs {found['apis']}, planted {record['critical_apis']}")
    if found["icc_edges"] != record["icc_edges"]:
        out.append(f"{app_id}: ICC edges {found['icc_edges']}, generator {record['icc_edges']}")
    return out


def prediction_problems(rows: dict, scan_scores: dict, app_ids) -> list:
    """rows: app_id -> (label, probability, malicious_score) as printed.

    Probabilities lie in [0, 1], each label agrees with its score, and the
    printed score equals the scan's score to the printed precision."""
    out = []
    if set(rows) != set(app_ids):
        out.append(f"predictions cover {len(rows)} apps, expected {len(app_ids)}")
    for app_id, (label, prob, mal) in sorted(rows.items()):
        if not (0.0 <= prob <= 1.0 and 0.0 <= mal <= 1.0) or label not in (0, 1):
            out.append(f"{app_id}: prediction out of range ({label}, {prob}, {mal})")
        elif (label == 1 and mal < 0.5 - 1e-6) or (label == 0 and mal > 0.5 + 1e-6) \
                or abs(prob - (mal if label else 1.0 - mal)) > 2e-6:
            out.append(f"{app_id}: label {label} disagrees with score {mal}")
        if app_id in scan_scores and abs(mal - scan_scores[app_id]) > 5e-7 + 1e-12:
            out.append(f"{app_id}: predicted score {mal}, scanned {scan_scores[app_id]:.9f}")
    return out


def loss_problems(losses: list, must_fall: bool) -> list:
    if not losses:
        return ["no epoch losses"]
    if not all(math.isfinite(v) for v in losses):
        return [f"non-finite epoch loss in {losses}"]
    if must_fall and any(b >= a for a, b in zip(losses, losses[1:])):
        return [f"epoch loss does not fall: {losses}"]
    return []


def f1_score(scores: list, labels: list, threshold: float = 0.5) -> float:
    tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 1)
    fp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 0)
    fn = sum(1 for s, y in zip(scores, labels) if s < threshold and y == 1)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0
