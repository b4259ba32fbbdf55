"""Call traces from entry points to critical-API call sites, and their
opcode sequences.

A trace is a simple path of user-defined methods whose last element contains
an invoke of a critical API. Its opcode sequence chains the prefix of each
method up to the call that continues the trace, descending into the callee
(off-trace calls add their one opcode and are not entered), and stops at
(and includes) the critical invoke. The per-app sequence budget
is enforced by backward truncation so the trailing critical call always
survives, and sequences are split backward-aligned into fixed-length rows,
dropping the short leading remainder.
"""

from dataclasses import dataclass

import numpy as np

from .callgraph import reaching

DEFAULT_MAX_DEPTH = 64
DEFAULT_MAX_TRACES_PER_ENTRY = 256
DEFAULT_OPCODE_BUDGET = 8000
# Method visits the trace search may make per app, about one second of DFS.
DFS_VISIT_BUDGET = 100_000


@dataclass
class CallTrace:
    methods: tuple            # method ids, entry first, call-site method last
    critical_api: str
    site_offset: int          # offset of the critical invoke in methods[-1]
    opcode_seq: list          # opcode values, ending at the critical invoke

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
    """All simple paths from each entry point to a critical-API call site,
    each with its opcode sequence (see the module docstring).

    Depth-first in call-site order on an explicit stack, so results are
    deterministic and no depth reaches Python's recursion limit. The search
    only enters methods that can reach a critical call site at all (one
    reverse-reachability pass over the call sites), so branches that lead
    to no critical API cost nothing. Three caps bound the rest: the depth
    cap and the per-entry trace cap, and a per-app budget of DFS_VISIT_BUDGET
    method visits for strongly connected code with exponentially many simple
    paths. Hitting a cap is recorded on the call graph diagnostics, not an
    error; the visit budget ends the whole search. The walk keeps each
    hop's opcode prefix and joins them only for the traces it emits.
    """
    sites = _critical_sites(cg, set(critical))
    live = reaching(cg, sites)
    methods = cg.app.methods_by_id
    steps = {}                # method id -> ((body index, live callee), ...)
    for mid in live:
        index_at = {offset: index for index, offset, _ in methods[mid].calls}
        steps[mid] = tuple(
            (index_at[offset], callee)
            for offset, targets in cg.call_sites.get(mid, ())
            for callee in targets
            if callee in live
        )
    traces = []
    visits_left = DFS_VISIT_BUDGET

    for entry in cg.entry_points:
        if entry not in live:
            continue
        traces_left = max_traces_per_entry
        # path[i]'s untried steps are pending[i]; slices[i] is its opcodes up
        # to the invoke of path[i + 1].
        path, on_path, pending, slices = [], set(), [], []
        callee, stop = entry, None
        while stop is None:
            if callee is not None:
                if visits_left <= 0:
                    stop = "visit budget"
                    break
                visits_left -= 1
                path.append(callee)
                on_path.add(callee)
                found = sites.get(callee, ())
                if found and traces_left > 0:
                    prefix = b"".join(slices)
                    body = methods[callee].body
                    for index, offset, api in found[:traces_left]:
                        traces.append(CallTrace(tuple(path), api, offset,
                                                list(prefix + body[: index + 1])))
                if len(found) > traces_left:
                    stop = "trace cap"
                    break
                traces_left -= len(found)
                if len(path) >= max_depth:
                    cg.diagnostics.append(f"depth cap hit at entry {entry}")
                    pending.append(iter(()))
                else:
                    pending.append(iter(steps[callee]))
            step = next((s for s in pending[-1] if s[1] not in on_path), None)
            callee = None
            if step is None:
                pending.pop()
                on_path.remove(path.pop())
                if not path:
                    break
                slices.pop()
            elif traces_left <= 0:
                stop = "trace cap"
            else:
                index, callee = step
                slices.append(methods[path[-1]].body[: index + 1])
        if stop:
            cg.diagnostics.append(f"{stop} hit at entry {entry}")
        if stop == "visit budget":
            break
    return traces


def _critical_sites(cg, critical_set):
    """Method id -> ((body index, offset, critical API), ...) for call-graph
    methods with at least one critical invoke, in body order."""
    sites = {}
    for mid in cg.nodes:
        found = tuple(
            call for call in cg.app.methods_by_id[mid].calls if call[2] in critical_set
        )
        if found:
            sites[mid] = found
    return sites


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
