"""Non-gating perf-regression comparison of two ``BENCH_engine.json``.

CI runs the perf smoke against the committed artifact::

    python benchmarks/compare_bench.py BASELINE.json FRESH.json \
        --threshold 0.25

Only *ratio* metrics are compared — ``speedup`` and
``points_per_s_cold`` (higher is better) and ``overhead_pct`` (lower is
better, compared in absolute percentage points).  Absolute wall-clock
seconds are machine-dependent and say nothing across runner generations;
ratios of two timings taken on the same machine in the same process are
the portable part of the artifact.

Regressions print GitHub ``::warning::`` annotations; the exit status is
always 0 — this is a smoke alarm, not a gate (the committed artifact is
the *full* configuration while CI runs ``--quick``, so sizing-dependent
drift is expected and noted, not failed).
"""

from __future__ import annotations

import argparse
import json
import sys

#: case-key metrics where larger is better; regression = relative drop.
HIGHER_IS_BETTER = ("speedup", "points_per_s_cold")

#: metrics in percent where smaller is better; regression = absolute
#: growth in percentage points (relative comparison is unstable near 0).
LOWER_IS_BETTER_PCT = ("overhead_pct",)


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read bench artifact {path!r}: {exc}")
    if not isinstance(doc.get("cases"), dict):
        raise SystemExit(f"{path!r} is not a bench artifact (no cases)")
    return doc


def compare(baseline: dict, fresh: dict, threshold: float) -> list[str]:
    """Regression messages, one per ratio metric past ``threshold``."""
    problems: list[str] = []
    for case, base_row in sorted(baseline["cases"].items()):
        fresh_row = fresh["cases"].get(case)
        if fresh_row is None:
            problems.append(f"{case}: present in baseline, missing in "
                            f"fresh run")
            continue
        for key in HIGHER_IS_BETTER:
            if key not in base_row or key not in fresh_row:
                continue
            base, new = float(base_row[key]), float(fresh_row[key])
            if base > 0 and new < base * (1.0 - threshold):
                problems.append(
                    f"{case}.{key}: {new:.2f} vs baseline {base:.2f} "
                    f"({100.0 * (new / base - 1.0):+.0f}%)"
                )
        for key in LOWER_IS_BETTER_PCT:
            if key not in base_row or key not in fresh_row:
                continue
            base, new = float(base_row[key]), float(fresh_row[key])
            if new - base > threshold * 100.0:
                problems.append(
                    f"{case}.{key}: {new:.1f}% vs baseline {base:.1f}% "
                    f"(+{new - base:.1f} points)"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_engine.json")
    parser.add_argument("fresh", help="freshly generated artifact")
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="warn when a ratio metric drops by more than this fraction "
             "(default: 0.25)",
    )
    args = parser.parse_args(argv)
    baseline = _load(args.baseline)
    fresh = _load(args.fresh)

    if bool(baseline.get("quick")) != bool(fresh.get("quick")):
        print(
            f"note: comparing different sizings (baseline "
            f"quick={bool(baseline.get('quick'))}, fresh "
            f"quick={bool(fresh.get('quick'))}); ratio metrics are "
            f"sizing-sensitive, treat warnings as a smoke signal only"
        )

    problems = compare(baseline, fresh, args.threshold)
    if not problems:
        print(
            f"perf smoke: no ratio metric regressed more than "
            f"{args.threshold:.0%} vs {args.baseline}"
        )
    for problem in problems:
        # GitHub annotation syntax; plain stderr elsewhere.
        print(f"::warning title=perf regression::{problem}")
        print(f"perf regression: {problem}", file=sys.stderr)
    # Non-gating by design: warnings only, never a failing exit.
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
