"""Campaign result sets: filtering, grouping, ranking, Pareto fronts.

A :class:`ResultSet` is an ordered, immutable collection of
:class:`ResultRecord` — one per evaluated design point — with the query
operations the thesis's cross-configuration questions need: "rank the
barrier patterns per platform", "group the weak-scaling series by preset",
"which configurations are Pareto-optimal in (cost, messages)?".
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class ResultRecord:
    """One evaluated design point: inputs, outputs, and provenance."""

    key: str
    experiment: str
    point: Mapping[str, Any]
    metrics: Mapping[str, Any]

    def __post_init__(self):
        object.__setattr__(self, "point", dict(self.point))
        object.__setattr__(self, "metrics", dict(self.metrics))

    def value(self, name: str):
        """Look up ``name`` as a metric first, then as a point parameter
        (``None`` when neither has it)."""
        if name in self.metrics:
            return self.metrics[name]
        return self.point.get(name)

    @property
    def failed(self) -> bool:
        return "error" in self.metrics

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "experiment": self.experiment,
            "point": dict(self.point),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultRecord":
        return cls(
            key=data["key"],
            experiment=data["experiment"],
            point=data["point"],
            metrics=data["metrics"],
        )


@dataclass(frozen=True)
class ResultSet:
    """Ordered, immutable collection of result records."""

    records: tuple[ResultRecord, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ResultRecord]:
        return iter(self.records)

    def __getitem__(self, idx: int) -> ResultRecord:
        return self.records[idx]

    # -------------------------------------------------------------- queries

    def ok(self) -> "ResultSet":
        """Only the successfully-evaluated records."""
        return ResultSet(tuple(r for r in self.records if not r.failed))

    def filter(
        self,
        predicate: Callable[[ResultRecord], bool] | None = None,
        **equals: Any,
    ) -> "ResultSet":
        """Records matching the predicate and/or ``name=value`` equalities
        (names resolve against metrics, then point parameters)."""
        kept = []
        for record in self.records:
            if predicate is not None and not predicate(record):
                continue
            if any(record.value(name) != want for name, want in equals.items()):
                continue
            kept.append(record)
        return ResultSet(tuple(kept))

    def group_by(self, *names: str) -> dict[tuple, "ResultSet"]:
        """Partition by the tuple of values under ``names``, preserving
        first-seen group order and in-group record order."""
        groups: dict[tuple, list[ResultRecord]] = {}
        for record in self.records:
            group = tuple(record.value(name) for name in names)
            groups.setdefault(group, []).append(record)
        return {g: ResultSet(tuple(rs)) for g, rs in groups.items()}

    def rank_by(self, metric: str, ascending: bool = True) -> "ResultSet":
        """Stable sort by one metric; records lacking it sort last."""
        missing = [r for r in self.records if r.value(metric) is None]
        present = [r for r in self.records if r.value(metric) is not None]
        ordered = sorted(
            present, key=lambda r: r.value(metric), reverse=not ascending
        )
        return ResultSet(tuple(ordered + missing))

    def best(self, metric: str, ascending: bool = True) -> ResultRecord:
        ranked = self.ok().rank_by(metric, ascending=ascending)
        if not ranked.records or ranked[0].value(metric) is None:
            raise ValueError(f"no successful records carry metric {metric!r}")
        return ranked[0]

    def values(self, name: str) -> list:
        return [r.value(name) for r in self.records]

    # --------------------------------------------------------------- Pareto

    def pareto_front(
        self,
        objectives: Sequence[str],
        maximize: Iterable[str] = (),
    ) -> "ResultSet":
        """Non-dominated records under the named objectives.

        Objectives are minimised unless listed in ``maximize``.  A record
        dominates another when it is no worse in every objective and
        strictly better in at least one; records missing any objective are
        excluded.  Order is preserved and duplicates of identical objective
        vectors all survive (they dominate nobody and nobody dominates
        them strictly in every coordinate).
        """
        maximize = set(maximize)
        unknown = maximize - set(objectives)
        if unknown:
            raise ValueError(f"maximize names not in objectives: {sorted(unknown)}")
        if not objectives:
            raise ValueError("need at least one objective")

        scored: list[tuple[ResultRecord, tuple[float, ...]]] = []
        for record in self.records:
            raw = [record.value(name) for name in objectives]
            if any(v is None or isinstance(v, str) for v in raw):
                continue
            scored.append((
                record,
                tuple(
                    -float(v) if name in maximize else float(v)
                    for name, v in zip(objectives, raw)
                ),
            ))

        front = []
        for record, vec in scored:
            dominated = any(
                all(o <= v for o, v in zip(other, vec))
                and any(o < v for o, v in zip(other, vec))
                for _, other in scored
            )
            if not dominated:
                front.append(record)
        return ResultSet(tuple(front))

    # --------------------------------------------------------- presentation

    def to_rows(self, columns: Sequence[str]) -> list[list]:
        return [[r.value(c) for c in columns] for r in self.records]

    def metric_names(self) -> list[str]:
        names: dict[str, None] = {}
        for record in self.records:
            for name in record.metrics:
                names.setdefault(name)
        return list(names)

    def point_names(self) -> list[str]:
        names: dict[str, None] = {}
        for record in self.records:
            for name in record.point:
                names.setdefault(name)
        return list(names)

    def summary(self) -> dict:
        """A store-inspection digest: record/failure counts, experiments,
        per-parameter distinct value counts, and min/mean/max over every
        numeric metric (bools excluded) — what ``repro.explore results``
        prints so a campaign store is readable without writing Python."""
        experiments: dict[str, None] = {}
        for record in self.records:
            experiments.setdefault(record.experiment)
        parameters = {
            name: len({
                json.dumps(r.point.get(name), sort_keys=True, default=str)
                for r in self.records
            })
            for name in self.point_names()
        }
        metrics: dict[str, dict] = {}
        for name in self.metric_names():
            values = [
                v for r in self.records
                if isinstance(v := r.metrics.get(name), (int, float))
                and not isinstance(v, bool)
            ]
            if not values:
                continue
            metrics[name] = {
                "count": len(values),
                "min": float(min(values)),
                "mean": float(sum(values) / len(values)),
                "max": float(max(values)),
            }
        return {
            "records": len(self.records),
            "failed": sum(1 for r in self.records if r.failed),
            "experiments": list(experiments),
            "parameters": parameters,
            "metrics": metrics,
        }

    # -------------------------------------------------------- serialisation

    def to_csv(self, path_or_file) -> list[str]:
        """Write the records as CSV; returns the column list written.

        The columns are every point parameter followed by every metric
        (minus the multiline ``traceback``); names resolve through
        :meth:`ResultRecord.value`.  Non-scalar cells (lists, dicts) are
        serialised as canonical JSON so the file stays one row per record.
        """
        import csv

        columns = [
            c for c in self.point_names() + self.metric_names()
            if c != "traceback"
        ]

        def cell(value):
            if value is None or isinstance(value, (str, int, float, bool)):
                return value
            return json.dumps(value, sort_keys=True)

        def write(fh) -> None:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for record in self.records:
                writer.writerow([cell(record.value(c)) for c in columns])

        if hasattr(path_or_file, "write"):
            write(path_or_file)
        else:
            with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
                write(fh)
        return columns
