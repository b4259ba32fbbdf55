"""The packaged name tables under droidflow/data and their parsers.

The default entry-point and intent-sender tables are parsed from their data
files once per process and shared read-only; a table a config names is read
once per config (PipelineConfig).
"""

import functools
from importlib.resources import files as package_files
from pathlib import Path
from types import MappingProxyType


def data_file(name: str) -> Path:
    return Path(str(package_files("droidflow") / "data" / name))


def load_lifecycle_table(path) -> dict:
    """Component category -> method names, from "category method" lines."""
    table = {}
    for line in load_name_list(path):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"expected a category and a method name, not {line!r}")
        table.setdefault(fields[0], []).append(fields[1])
    return {k: tuple(v) for k, v in table.items()}


def load_name_list(path) -> tuple:
    """The names in a file, one per line; blank lines and lines whose first
    non-blank character is '#' are skipped."""
    names = (line.strip() for line in Path(path).read_text().splitlines())
    return tuple(name for name in names if name and not name.startswith("#"))


@functools.cache
def default_lifecycle() -> MappingProxyType:
    """Component category -> framework-invoked lifecycle method names."""
    return MappingProxyType(load_lifecycle_table(data_file("lifecycle_methods.txt")))


@functools.cache
def default_callbacks() -> tuple:
    """Event-listener callback names treated as framework entry points."""
    return load_name_list(data_file("callback_methods.txt"))


@functools.cache
def default_intent_senders() -> frozenset:
    """Method names that hand an Intent to the framework."""
    return frozenset(load_name_list(data_file("intent_senders.txt")))
