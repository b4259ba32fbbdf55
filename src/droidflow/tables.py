"""The packaged name tables under droidflow/data and their parsers, and
read_input, the one reader of every file a command is given.

The default entry-point and intent-sender tables are parsed from their data
files once per process and shared read-only; a table a config names is read
once per config (PipelineConfig).
"""

import functools
from importlib.resources import files as package_files
from pathlib import Path
from types import MappingProxyType


class InputError(ValueError):
    """An input a command cannot use; the CLI prints its message and exits 2."""


def read_input(path, parse=None):
    """The UTF-8 text of path, newlines as they are in the file, or parse(text).
    A file that cannot be read or decoded, or whose text parse rejects with a
    ValueError, is an InputError naming it."""
    try:
        text = Path(path).read_bytes().decode()
        return text if parse is None else parse(text)
    except (OSError, ValueError) as exc:   # UnicodeDecodeError is a ValueError
        raise InputError(f"cannot read {path}: {exc}") from None


def data_file(name: str) -> Path:
    return Path(str(package_files("droidflow") / "data" / name))


def load_lifecycle_table(path) -> dict:
    """Component category -> method names, from "category method" lines."""
    return read_input(path, _lifecycle_table)


def _lifecycle_table(text: str) -> dict:
    table = {}
    for line in _names(text):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"expected a category and a method name, not {line!r}")
        table.setdefault(fields[0], []).append(fields[1])
    return {k: tuple(v) for k, v in table.items()}


def load_name_list(path) -> tuple:
    """The names in a file, one per line; blank lines and lines whose first
    non-blank character is '#' are skipped."""
    return read_input(path, _names)


def _names(text: str) -> tuple:
    names = (line.strip() for line in text.splitlines())
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
