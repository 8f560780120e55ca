"""No module under ``src/repro`` writes the process environment.

Executor workers are forked and inherit campaign state directly, so the
program has no reason to write ``os.environ``: an exported variable
outlives the campaign and reaches every later child process, which then
writes into that campaign's store.  ``REPRO_TELEMETRY`` and
``REPRO_FAULTS`` are set by users and only read.

The check is syntactic: item assignment or deletion on ``environ``, the
mutating ``environ`` methods, and ``putenv``/``unsetenv``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_MUTATORS = {"pop", "popitem", "setdefault", "update", "clear",
             "__setitem__", "__delitem__"}


def _is_environ(node: ast.expr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def environ_writes(tree: ast.Module) -> list[int]:
    """Line numbers of every environment write in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            write = isinstance(node.ctx, (ast.Store, ast.Del))
            if write and _is_environ(node.value):
                lines.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and _is_environ(node.target):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in ("putenv", "unsetenv") or (
                name in _MUTATORS and _is_environ(func.value)
            ):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("snippet", [
    "os.environ['X'] = '1'",
    "del os.environ['X']",
    "os.environ.pop('X', None)",
    "os.environ.setdefault('X', '1')",
    "os.environ.update(X='1')",
    "os.environ |= {'X': '1'}",
    "os.putenv('X', '1')",
    "environ['X'] = '1'",
])
def test_detector_flags_each_kind_of_write(snippet):
    assert environ_writes(ast.parse(snippet)) == [1]


def test_detector_ignores_reads():
    reads = "os.environ.get('X')\nx = os.environ['X']\ndict(os.environ)\n"
    assert environ_writes(ast.parse(reads)) == []


def test_no_module_writes_the_environment():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in environ_writes(ast.parse(path.read_text("utf-8")))
    ]
    assert not found, "os.environ written at: " + ", ".join(found)
