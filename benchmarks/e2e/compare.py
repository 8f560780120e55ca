"""Compare two sets of benchmark results: parent commit against a change.

    python3 benchmarks/e2e/compare.py --parent P01.json ... P10.json \\
        --change C01.json ... C10.json

Each file is a ``run.py --out`` results file; the i-th parent file and the
i-th change file are one pair, run back to back with the side that runs
first alternating.  At least :data:`MIN_PAIRS` pairs are required.

One row per (metric, workload) gives each side's median and quartiles and
a verdict, using the bounds in ``BENCHMARK.json``:

* ``improved``: the change wins at least 9/10 of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: either side's spread (IQR / median) is wider than the
  metric's bound, unless every change run reads better than every parent
  run; never reported as ``unchanged``;
* ``regressed``: the change's median is worse by more than the bound;
* ``unchanged``: otherwise.

Per-layer metrics have no bound: they can read ``improved``, and
otherwise ``-``.  Result digests are compared pair by pair (run both
sides of a pair at one seed), so a change meant only to be faster can
show that its simulated outputs are identical.  Exits 1 if any row is
``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> str:
    """The verdict for one (metric, workload) from paired runs."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (c - p) > 0: worse
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    p_iqr = p_q[2] - p_q[0]
    wins = sum(1 for p, c in zip(parent, change, strict=True)
               if sign * (c - p) < 0)
    gap = sign * (c_med - p_med)
    if wins >= WIN_SHARE * len(parent) and -gap > p_iqr:
        return "improved"
    if bound is None:
        return "-"
    spread = max(p_iqr / abs(p_med) if p_med else 0.0,
                 (c_q[2] - c_q[0]) / abs(c_med) if c_med else 0.0)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    if gap > bound * abs(p_med):
        return "regressed"
    return "unchanged"


def _load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def _fmt(values: list[float]) -> str:
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(parents: list[dict], changes: list[dict], spec: dict) -> list[dict]:
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        if not all(workload in r["workloads"] for r in parents + changes):
            continue
        for name, metric in declared.items():
            def values(results):
                return [r["workloads"][workload]["metrics"][name]
                        for r in results]

            if not all(name in r["workloads"][workload]["metrics"]
                       for r in parents + changes):
                continue
            parent, change = values(parents), values(changes)
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": _fmt(parent), "change": _fmt(change),
                "verdict": verdict(parent, change, metric["better"],
                                   metric.get("bound")),
            })
    return rows


def _digest(result: dict, workload: str) -> str | None:
    return result["workloads"][workload]["extra"].get("result_digest")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change) or len(args.parent) < MIN_PAIRS:
        print(f"compare.py: need two equal sets of at least {MIN_PAIRS} "
              f"results files", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parents, changes = _load(args.parent), _load(args.change)
    rows = compare(parents, changes, spec)
    header = ("workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "verdict")
    table = [header] + [tuple(r[k] for k in (
        "workload", "metric", "unit", "parent", "change", "verdict"))
        for r in rows]
    widths = [max(len(str(row[i])) for row in table) for i in range(6)]
    for row in table:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    for workload in sorted({r["workload"] for r in rows}):
        pairs = [(_digest(p, workload), _digest(c, workload))
                 for p, c in zip(parents, changes)]
        if any(p is not None for p, _ in pairs):
            differ = sum(1 for p, c in pairs if p != c)
            print(f"{workload} result_digest: differs in {differ} of "
                  f"{len(pairs)} pairs")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
