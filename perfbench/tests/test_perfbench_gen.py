"""The generator's record against brute-force enumeration and against droidflow.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from gen import CRITICAL_SET, _Model, analyze, write_app  # noqa: E402
from workloads import desk_app, large_app, paper_app  # noqa: E402


def small_apps():
    return [
        desk_app(3, 0, True),                 # explicit ICC to a second activity
        desk_app(3, 1, True),
        desk_app(3, 3, False),                # carries an unreachable utility class
        large_app(3, 0, True, 30, 2),
        large_app(3, 1, False, 30, 3),
        paper_app(3, 0, "mal", (2, 1)),
        paper_app(3, 1, "over"),
        paper_app(3, 2, "ben"),
    ]


def brute_force(app, entries):
    """Every simple path from every entry, listed one by one."""
    model = _Model(app)
    visited, traces = set(), []

    def dfs(path, length):
        mid = path[-1]
        visited.add(mid)
        body = model.methods[mid].body
        for i, ins in enumerate(body):
            if ins.target in CRITICAL_SET:
                traces.append((path[0], ins.target, length + i + 1))
        for i, targets in model.call_sites(mid):
            for t in targets:
                if t not in path:
                    dfs(path + [t], length + i + 1)

    for e in entries:
        dfs([e], 0)
    return visited, traces


@pytest.mark.parametrize("app", small_apps(), ids=lambda a: a.app_id)
def test_record_matches_brute_force_enumeration(app):
    rec = analyze(app)
    visited, traces = brute_force(app, rec.entries)
    assert sorted(visited) == rec.reachable
    assert dict(Counter(e for e, _, _ in traces)) == {e: n for e, n in rec.entry_traces.items() if n}
    assert sorted(n for _, _, n in traces) == rec.seq_lengths
    assert sorted({api for _, api, _ in traces}) == rec.critical_apis


def test_planted_paths_by_construction():
    # every live graph leaf 0 is reached over 3 * 3 * 3 paths from each of four
    # setup() overrides, plus one task chain per override
    assert analyze(large_app(5, 0, True, 0, 2)).trace_count == 4 * 27 + 4
    assert analyze(large_app(5, 1, False, 0, 2)).trace_count == 0
    mal = analyze(paper_app(5, 0, "mal", (4, 5, 6)))
    assert [n // 100 for n in mal.seq_lengths] == [4, 5, 6]
    over = analyze(paper_app(5, 1, "over"))
    assert over.trace_count == 4 + 2 * 25 and sum(over.seq_lengths) > 8000
    assert analyze(paper_app(5, 2, "ben")).trace_count == 0


def test_dead_graphs_cost_search_visits():
    shallow = analyze(large_app(5, 0, False, 0, 3)).search_visits
    deep = analyze(large_app(5, 0, False, 0, 4)).search_visits
    # each of four onResume entries walks 4**layers more leaves per extra layer
    assert deep - shallow >= 4 * 4 ** 4


def test_seed_draws_content_not_shape(tmp_path):
    def texts(seed, copy):
        root = write_app(paper_app(seed, 0, "over"), tmp_path / f"{seed}-{copy}", "smali")
        return {p.relative_to(root): p.read_text() for p in sorted(root.rglob("*.smali"))}

    assert texts(9, 0) == texts(9, 1)
    assert texts(9, 2) != texts(10, 0)
    assert analyze(paper_app(9, 0, "over")).seq_lengths == \
        analyze(paper_app(10, 0, "over")).seq_lengths


@pytest.mark.parametrize("form", ["ir", "smali"])
def test_droidflow_reproduces_the_record(tmp_path, form):
    from droidflow.appmodel import load_app
    from droidflow.pipeline import PipelineConfig, extract_app

    config = PipelineConfig()
    critical = config.critical_apis()
    for app in small_apps():
        rec = analyze(app)
        result = extract_app(load_app(write_app(app, tmp_path / form, form)), critical, config)
        assert result.report["status"] == "ok"
        assert result.report["call_graph_nodes"] == len(rec.reachable)
        assert result.report["trace_count"] == rec.trace_count
        assert result.report["icc_edges"] == len(rec.icc_edges)
        assert sorted(len(s) for s in result.raw_sequences) == rec.seq_lengths
        assert result.report["diagnostics"] == []
