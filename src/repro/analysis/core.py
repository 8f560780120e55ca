"""detlint core: findings, suppressions, the rule registry, and drivers.

The determinism-contract linter is a plain :mod:`ast` walk — no
third-party dependencies, same policy as the rest of the repository.
Each rule is a :class:`Rule` subclass registered with :func:`register`;
:func:`lint_source` runs every registered rule over one parsed module
and :func:`lint_paths` maps that over a file tree.

Suppression model (see ``docs/analysis.md``):

* inline — a ``# repro: allow[DET003]`` comment on the finding's line
  (or the line directly above it) suppresses that rule there.  Multiple
  rules separate with commas: ``allow[DET002,DET004]``.  Suppressions
  are collected from real comment tokens (:mod:`tokenize`), so the
  marker never matches inside a string literal.
* baseline — grandfathered findings live in a JSON file keyed by a
  line-number-independent fingerprint (:mod:`repro.analysis.baseline`),
  each entry carrying a mandatory justification string.
"""

from __future__ import annotations

import ast
import hashlib
import io
import os
import re
import tokenize
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

#: ``# repro: allow[DET002]`` / ``# repro: allow[DET002,DET004] -- why``.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9_,\s]+)\]")

#: Rule id shape: three letters + three digits (DET002 ... DET007).
_RULE_ID_RE = re.compile(r"^[A-Z]{3}\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One contract violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    fingerprint: str = ""

    def text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def github(self) -> str:
        return (
            f"::error file={self.path},line={self.line},col={self.col},"
            f"title={self.rule}::{self.message}"
        )

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }


class Rule:
    """Base class for detlint rules.

    Subclasses set :attr:`id` (``DETnnn``), :attr:`title` (one line),
    keep their full rationale in the class docstring (rendered by
    ``--explain`` and mirrored in ``docs/analysis.md``), and implement
    :meth:`check`.
    """

    id: str = ""
    title: str = ""

    def check(self, module: "Module") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: "Module", node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        snippet = module.line(line)
        return Finding(
            rule=self.id,
            path=module.path,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
            fingerprint=fingerprint(self.id, module, line),
        )


#: The global registry, in registration (= rule id) order.
RULES: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one rule instance to :data:`RULES`."""
    if not _RULE_ID_RE.match(getattr(cls, "id", "") or ""):
        raise ValueError(f"rule {cls!r} needs an id like 'DET002'")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    return [RULES[k] for k in sorted(RULES)]


class Module:
    """One parsed source file plus the per-module facts rules share."""

    def __init__(self, source: str, path: str, module: str | None = None):
        self.source = source
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self.name = module if module is not None else derive_module_name(path)
        self.suppressions = collect_suppressions(source)
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._imports: dict[str, str] | None = None

    # ------------------------------------------------------------ lookups

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child → parent map over the whole tree (built lazily once)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        parents = self.parents
        while node in parents:
            node = parents[node]
            yield node

    @property
    def imports(self) -> dict[str, str]:
        """Local name → fully-qualified imported target.

        ``import numpy as np`` maps ``np -> numpy``;
        ``from numpy.random import default_rng as mk`` maps
        ``mk -> numpy.random.default_rng``.  Relative imports are kept
        with their leading dots — rules match absolute targets only.
        """
        if self._imports is None:
            table: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        target = alias.name if alias.asname else alias.name.split(".")[0]
                        table[local] = target
                elif isinstance(node, ast.ImportFrom):
                    prefix = "." * node.level + (node.module or "")
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        local = alias.asname or alias.name
                        table[local] = f"{prefix}.{alias.name}" if prefix else alias.name
            self._imports = table
        return self._imports

    def resolve_call_target(self, func: ast.AST) -> str | None:
        """Fully-qualified dotted target of a call's ``func``, if the
        chain roots at an imported name; ``None`` otherwise."""
        chain = attr_chain(func)
        if not chain:
            return None
        head, *rest = chain.split(".")
        target = self.imports.get(head)
        if target is None:
            return None
        return ".".join([target, *rest])

    def is_suppressed(self, finding: Finding) -> bool:
        for lineno in (finding.line, finding.line - 1):
            if finding.rule in self.suppressions.get(lineno, ()):
                return True
        return False


# --------------------------------------------------------------- helpers


def attr_chain(node: ast.AST) -> str | None:
    """Dotted text of a pure Name/Attribute chain (``a.b.c``), else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def collect_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number → rule ids allowed on that line."""
    table: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if match is None:
                continue
            rules = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            table[tok.start[0]] = table.get(tok.start[0], frozenset()) | rules
    except tokenize.TokenError:
        # A torn file still gets linted from its AST (ast.parse would
        # have raised first if it were unparseable); comments past the
        # tear simply cannot suppress anything.
        pass
    return table


def derive_module_name(path: str) -> str:
    """Dotted module name from the filesystem package structure.

    Walks up while ``__init__.py`` siblings exist, so the result matches
    the import system's view regardless of where the lint root was —
    ``<anything>/src/repro/obs/telemetry.py`` → ``repro.obs.telemetry``,
    and fixture trees get their own package names the same way.
    """
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = os.path.splitext(filename)[0]
    parts: list[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        if not pkg:
            break
        parts.append(pkg)
    return ".".join(reversed(parts))


def fingerprint(rule: str, module: Module, lineno: int) -> str:
    """Line-number-independent identity for a finding.

    Hash of (rule, normalized path, the stripped source line, the
    occurrence index among identical lines in the file) — stable across
    unrelated edits that only shift line numbers, which is what lets a
    baseline survive rebases.
    """
    text = module.line(lineno)
    occurrence = sum(
        1 for prior in module.lines[: lineno - 1] if prior.strip() == text
    )
    path = module.path.replace(os.sep, "/")
    digest = hashlib.sha256(
        f"{rule}\x00{path}\x00{text}\x00{occurrence}".encode()
    ).hexdigest()
    return digest[:16]


# --------------------------------------------------------------- drivers


@dataclass
class LintResult:
    """Outcome of one lint run: surviving findings plus bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    errors: list[str] = field(default_factory=list)


def lint_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    rules: Iterable[Rule] | None = None,
) -> list[Finding]:
    """Lint one source string; returns non-suppressed findings."""
    mod = Module(source, path, module=module)
    selected = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    for rule in selected:
        for finding in rule.check(mod):
            if not mod.is_suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for root in sorted(paths):
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def lint_paths(
    paths: Iterable[str],
    rules: Iterable[Rule] | None = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``."""
    selected = list(rules) if rules is not None else all_rules()
    result = LintResult()
    for filepath in iter_python_files(paths):
        try:
            with open(filepath, encoding="utf-8") as handle:
                source = handle.read()
            mod = Module(source, filepath)
        except (OSError, SyntaxError, ValueError) as exc:
            result.errors.append(f"{filepath}: {exc}")
            continue
        result.files += 1
        for rule in selected:
            for finding in rule.check(mod):
                if mod.is_suppressed(finding):
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
