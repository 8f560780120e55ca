"""Everything ``src/repro`` imports is installed by ``pip install repro``.

An import under ``src/repro`` must name the standard library, ``repro``
itself, or a package that ``pyproject.toml`` declares in
``[project] dependencies``: anything else works only on a machine that
happens to have it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _declared() -> set[str]:
    """The import names of the declared runtime dependencies (read by
    pattern: ``tomllib`` is not in Python 3.10's standard library)."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    requirements = re.findall(r'"([^"]+)"', block.group(1))
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in requirements
    }


def _imported(path: Path) -> set[str]:
    """The top-level package of every absolute import in ``path``."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_every_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | _declared()
    undeclared = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in SRC.rglob("*.py")
        for name in _imported(path)
        if name not in allowed
    )
    assert not undeclared, (
        "imports of packages pyproject.toml does not declare: "
        + ", ".join(undeclared)
    )


def test_the_guard_sees_a_third_party_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os.path\nfrom numpy import ones\nfrom . import x\n"
        "def f():\n    import networkx as nx\n"
    )
    assert _imported(module) == {"os", "numpy", "networkx"}
    assert "numpy" in _declared()
