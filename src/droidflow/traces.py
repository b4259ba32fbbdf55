"""Call traces from entry points to critical-API call sites, and their
opcode sequences.

A trace is a simple path of user-defined methods whose last element contains
an invoke of a critical API. Its opcode sequence chains the prefix of each
method up to the call that continues the trace, descending into the callee,
and stops at (and includes) the critical invoke. The per-app sequence budget
is enforced by backward truncation so the trailing critical call always
survives, and sequences are split backward-aligned into fixed-length rows,
dropping the short leading remainder.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .appmodel import offsets
from .callgraph import reaching

DEFAULT_MAX_DEPTH = 64
DEFAULT_MAX_TRACES_PER_ENTRY = 256
DEFAULT_OPCODE_BUDGET = 8000
# Method visits the trace search may make per app, about one second of DFS.
DFS_VISIT_BUDGET = 100_000


class BrokenTraceError(ValueError):
    """Trace walk could not find the invoke continuing the path."""


@dataclass
class CallTrace:
    methods: tuple            # method ids, entry first, call-site method last
    critical_api: str
    site_offset: int          # offset of the critical invoke in methods[-1]
    hop_offsets: tuple = ()   # offset of the invoke continuing the trace, per hop
    opcode_seq: list = field(default_factory=list)

    @property
    def entry(self):
        return self.methods[0]


@dataclass
class SequenceMatrix:
    rows: np.ndarray          # (n, row_len) integer opcode values
    row_len: int

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @classmethod
    def empty(cls, row_len: int) -> "SequenceMatrix":
        return cls(np.zeros((0, row_len), dtype=np.int64), row_len)


def find_call_traces(
    cg,
    critical,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_traces_per_entry: int = DEFAULT_MAX_TRACES_PER_ENTRY,
):
    """All simple paths from each entry point to a critical-API call site.

    Depth-first in call-site order, so results are deterministic. The search
    only enters methods that can reach a critical call site at all (one
    reverse-reachability pass over the call sites), so branches that lead
    to no critical API cost nothing. Three caps bound the rest: the depth
    cap and the per-entry trace cap, and a per-app budget of DFS_VISIT_BUDGET
    method visits for strongly connected code with exponentially many simple
    paths. Hitting a cap is recorded on the call graph diagnostics, not an
    error; the visit budget ends the whole search.
    """
    sites = _critical_sites(cg, set(critical))
    live = reaching(cg, sites)
    traces = []
    visits_left = DFS_VISIT_BUDGET

    for entry in cg.entry_points:
        if entry not in live:
            continue
        traces_left = max_traces_per_entry
        path, hops, on_path = [entry], [], {entry}

        def dfs():
            """Extend path; return the name of the cap that ended the entry's
            search, or None."""
            nonlocal traces_left, visits_left
            if visits_left <= 0:
                return "visit budget"
            visits_left -= 1
            current = path[-1]
            for offset, api in sites.get(current, ()):
                if traces_left <= 0:
                    return "trace cap"
                traces.append(
                    CallTrace(
                        methods=tuple(path),
                        critical_api=api,
                        site_offset=offset,
                        hop_offsets=tuple(hops),
                    )
                )
                traces_left -= 1
            if len(path) >= max_depth:
                cg.diagnostics.append(f"depth cap hit at entry {entry}")
                return None
            for site_offset, targets in cg.call_sites.get(current, ()):
                for callee in targets:
                    if callee not in live or callee in on_path:
                        continue
                    if traces_left <= 0:
                        return "trace cap"
                    path.append(callee)
                    hops.append(site_offset)
                    on_path.add(callee)
                    stop = dfs()
                    path.pop()
                    hops.pop()
                    on_path.remove(callee)
                    if stop:
                        return stop
            return None

        stop = dfs()
        if stop:
            cg.diagnostics.append(f"{stop} hit at entry {entry}")
        if stop == "visit budget":
            break
    return traces


def _critical_sites(cg, critical_set):
    """Method id -> ((offset, critical API), ...) for call-graph methods with
    at least one critical invoke, in body order."""
    sites = {}
    for mid in cg.nodes:
        found = tuple(
            (offset, invoked)
            for _, offset, invoked in cg.app.methods_by_id[mid].calls
            if invoked in critical_set
        )
        if found:
            sites[mid] = found
    return sites


def extract_opcodes(trace: CallTrace, app):
    """Accumulate the trace's opcode sequence by prefix-chaining its methods.

    Within each method, every instruction up to the trace-continuing invoke
    (its hop offset) contributes its opcode (off-trace calls contribute one
    opcode and are not entered); the walk then descends into the next method.
    In the final method the sequence stops at, and includes, the critical
    invoke. A trace needs one hop offset per hop, as find_call_traces records.
    """
    if len(trace.hop_offsets) != len(trace.methods) - 1:
        raise BrokenTraceError(
            f"{len(trace.methods)} methods but {len(trace.hop_offsets)} hop offsets"
        )
    seq = []
    stops = (*trace.hop_offsets, trace.site_offset)
    for i, (mid, stop) in enumerate(zip(trace.methods, stops)):
        method = app.get_method(mid)
        if method is None:
            raise BrokenTraceError(f"method {mid} not in app")
        end = next((idx for idx, offset, _ in method.calls if offset == stop), None)
        if end is None:
            # Not an invoke: only the final method may stop there.
            at = offsets(method.body)
            if stop not in at:
                raise BrokenTraceError(f"offset {stop} missing in {mid}")
            if i < len(stops) - 1:
                raise BrokenTraceError(f"trace hop at {mid} offset {stop} is not an invoke")
            end = at.index(stop)
        seq.extend(method.body[: end + 1])
    return seq


def with_opcode_seqs(traces, app):
    """Copies of traces with opcode_seq filled in."""
    return [replace(t, opcode_seq=extract_opcodes(t, app)) for t in traces]


def sample_opcodes(seqs, budget: int = DEFAULT_OPCODE_BUDGET, row_len: int = 100):
    """Truncate opcode sequences so the app totals at most `budget` opcodes.

    No-op when the total already fits. Otherwise each sequence keeps its last
    floor(budget / y) opcodes, rounded down to a multiple of row_len but
    never below row_len, so truncation cannot strand a sequence below one
    row. The tail is kept, so the final opcode stays the critical invoke.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if sum(map(len, seqs)) <= budget:
        return list(seqs)
    bound = max(row_len, (budget // len(seqs) // row_len) * row_len)
    return [seq[-bound:] if len(seq) > bound else seq for seq in seqs]


def split_sequence(seq, row_len: int):
    """Backward-aligned fixed-length rows of a sequence.

    The trailing floor(k / row_len) * row_len elements are cut into rows;
    the short leading remainder is dropped, so a sequence shorter than one
    row yields nothing.
    """
    if row_len < 1:
        raise ValueError("row_len must be >= 1")
    k = len(seq)
    q = k // row_len
    start = k - q * row_len
    return [list(seq[start + j * row_len : start + (j + 1) * row_len]) for j in range(q)]


def build_matrix(seqs, row_len: int, budget: int = DEFAULT_OPCODE_BUDGET) -> SequenceMatrix:
    """The row matrix of an app's opcode sequences: sample them to the budget,
    split each into rows and stack the rows in sequence order. An app where
    no sequence fills a row gets the zero-row matrix, so it still classifies.
    """
    rows = [
        row
        for seq in sample_opcodes(seqs, budget, row_len)
        for row in split_sequence(seq, row_len)
    ]
    if not rows:
        return SequenceMatrix.empty(row_len)
    return SequenceMatrix(np.array(rows, dtype=np.int64), row_len)
