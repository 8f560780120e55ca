"""``python -m repro.analysis`` — the detlint command line.

Exit codes: 0 clean (every finding, if any, suppressed inline),
1 findings, 2 usage / IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.core import LintResult, all_rules, lint_paths

FORMATS = ("text", "github", "json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "detlint: statically enforce the repository's determinism "
            "contracts (rule catalogue: docs/analysis.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text",
        help="finding output format (default: text)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print one rule's full documentation and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary line on stderr",
    )
    return parser


def _select_rules(spec: str | None):
    rules = all_rules()
    if spec is None:
        return rules
    wanted = {part.strip().upper() for part in spec.split(",") if part.strip()}
    index = {rule.id: rule for rule in rules}
    unknown = wanted - set(index)
    if unknown:
        raise SystemExit(
            f"unknown rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(index))})"
        )
    return [index[rule_id] for rule_id in sorted(wanted)]


def _emit(result: LintResult, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "findings": [f.to_json() for f in result.findings],
            "files": result.files,
            "suppressed": result.suppressed,
            "errors": result.errors,
        }
        print(json.dumps(payload, indent=2))
        return
    for finding in result.findings:
        if fmt == "github":
            print(finding.github())
        else:
            print(finding.text())
            if finding.snippet:
                print(f"    {finding.snippet}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.title}")
        return 0
    if args.explain is not None:
        rule_id = args.explain.strip().upper()
        for rule in all_rules():
            if rule.id == rule_id:
                print(rule.__doc__ or f"{rule.id}: (undocumented)")
                return 0
        print(f"unknown rule {args.explain!r}", file=sys.stderr)
        return 2

    paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(
            f"no such path(s): {', '.join(missing)}", file=sys.stderr
        )
        return 2

    try:
        rules = _select_rules(args.rules)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    result = lint_paths(paths, rules=rules)
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)

    _emit(result, args.format)

    if not args.quiet:
        bits = [
            f"detlint: {result.files} file(s)",
            f"{len(result.findings)} finding(s)",
        ]
        if result.suppressed:
            bits.append(f"{result.suppressed} suppressed inline")
        print(", ".join(bits), file=sys.stderr)

    if result.errors:
        return 2
    return 1 if result.findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
