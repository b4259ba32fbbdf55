"""The package source stays within its line budget."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "droidflow"
BUDGET = 4000


def test_src_stays_under_its_line_budget():
    # Every .py of the package and its subpackages, so none sits outside the budget.
    files = SRC.rglob("*.py")
    # Newline characters, as `find src/droidflow -name '*.py' | xargs cat | wc -l` counts.
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert lines < BUDGET, f"{lines} lines of src, budget {BUDGET}"
