"""Declarative design spaces: named axes, explicit points, stable hashes.

A :class:`DesignSpace` describes *what to evaluate* without saying how: the
cartesian grid of its axes (cluster presets, barrier patterns, process
counts, problem sizes, ...), optionally unioned with hand-picked explicit
points, all merged over a dictionary of constants.  Expansion is fully
deterministic — axis order times declaration order — and every expanded
point carries a stable content hash, which is what makes campaign results
cacheable, resumable, and comparable across executors and sessions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any


def canonical_json(value: Any) -> str:
    """Key-sorted, whitespace-free JSON — the hashing wire format."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def jsonable(value: Any, context: str) -> Any:
    """Normalise a value to plain JSON types — tuples become lists, numpy
    scalars become Python scalars, dicts get string keys in sorted order —
    and reject everything else.  The single normaliser shared by design
    points and campaign metrics, so both sides of the cache round-trip
    agree on representation."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v, context) for v in value]
    if isinstance(value, dict):
        return {
            str(k): jsonable(v, context)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return jsonable(item(), context)
    raise TypeError(
        f"{context}: value {value!r} is not JSON-representable; use plain "
        f"scalars, lists, and dicts"
    )


@dataclass(frozen=True)
class ParamSpec:
    """One named axis: an ordered, non-empty tuple of candidate values."""

    name: str
    values: tuple

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("axis name must be a non-empty string")
        values = tuple(
            jsonable(v, f"axis {self.name!r}") for v in self.values
        )
        if not values:
            raise ValueError(f"axis {self.name!r} has no values")
        seen = set()
        for v in values:
            marker = canonical_json(v)
            if marker in seen:
                raise ValueError(f"axis {self.name!r} repeats value {v!r}")
            seen.add(marker)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


class DesignPoint(Mapping):
    """One fully-bound parameter assignment with a stable content hash.

    Behaves as an immutable mapping; ``key`` is a SHA-256 prefix of the
    canonical JSON encoding, so two points with equal parameters hash
    identically across processes, sessions, and machines.
    """

    __slots__ = ("_params", "_key", "_keyed")

    def __init__(self, params: Mapping[str, Any]):
        normalized = {
            str(k): jsonable(v, f"parameter {k!r}")
            for k, v in params.items()
        }
        self._params = MappingProxyType(dict(sorted(normalized.items())))
        digest = hashlib.sha256(canonical_json(dict(self._params)).encode())
        self._key = digest.hexdigest()[:16]
        self._keyed = None

    @property
    def key(self) -> str:
        return self._key

    def keyed(self, experiment: str, compute) -> str:
        """``compute(experiment, self)``, memoised for the experiment it
        was last asked for: one slot, so a point served again and again
        by one campaign is keyed once, and one keyed for another
        experiment computes (and keeps) that experiment's key."""
        if self._keyed is None or self._keyed[0] != experiment:
            self._keyed = (experiment, compute(experiment, self))
        return self._keyed[1]

    def as_dict(self) -> dict:
        return dict(self._params)

    def get(self, name: str, default=None):
        return self._params.get(name, default)

    def __getitem__(self, name: str):
        return self._params[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __eq__(self, other) -> bool:
        if isinstance(other, DesignPoint):
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._params.items())
        return f"DesignPoint({inner})"


@dataclass(frozen=True)
class DesignSpace:
    """A grid of axes, optional explicit points, and shared constants.

    Expansion semantics:

    * grid points enumerate ``itertools.product`` over the axes in
      declaration order (last axis fastest);
    * explicit points follow in declaration order, each a dict binding any
      subset of parameters (they need not mention the axes at all);
    * ``constants`` merge under every point (point values win);
    * duplicates (by content hash) collapse to their first occurrence.
    """

    axes: tuple[ParamSpec, ...] = ()
    points: tuple[Mapping[str, Any], ...] = ()
    constants: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        axes = tuple(
            a if isinstance(a, ParamSpec) else ParamSpec(*a) for a in self.axes
        )
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(
            self, "points", tuple(dict(p) for p in self.points)
        )
        object.__setattr__(self, "constants", dict(self.constants))
        if not axes and not self.points:
            raise ValueError("design space needs at least one axis or point")

    # ------------------------------------------------------------ expansion

    def expand(self) -> list[DesignPoint]:
        """Deterministic, duplicate-free list of all design points.

        Memoised: the space is deeply immutable after construction, so the
        product/hash work happens once however often len()/iter() are used.
        """
        cached = getattr(self, "_expanded", None)
        if cached is not None:
            return list(cached)
        expanded: list[DesignPoint] = []
        seen: set[str] = set()

        def emit(bound: Mapping[str, Any]) -> None:
            point = DesignPoint({**self.constants, **bound})
            if point.key not in seen:
                seen.add(point.key)
                expanded.append(point)

        if self.axes:
            names = [a.name for a in self.axes]
            for combo in itertools.product(*(a.values for a in self.axes)):
                emit(dict(zip(names, combo)))
        for explicit in self.points:
            emit(explicit)
        object.__setattr__(self, "_expanded", tuple(expanded))
        return expanded

    def __len__(self) -> int:
        return len(self.expand())

    def __iter__(self) -> Iterator[DesignPoint]:
        return iter(self.expand())

    def __contains__(self, point) -> bool:
        if not isinstance(point, DesignPoint):
            point = DesignPoint(point)
        cached = getattr(self, "_keys", None)
        if cached is None:
            cached = frozenset(p.key for p in self.expand())
            object.__setattr__(self, "_keys", cached)
        return point.key in cached

    # -------------------------------------------------------------- axis views

    def axis_names(self) -> list[str]:
        return [a.name for a in self.axes]

    def parameter_names(self) -> set[str]:
        """Every parameter name a point of the space can carry: the axes,
        the constants and the explicit points' keys."""
        return {*self.axis_names(), *self.constants}.union(*self.points)

    def axis(self, name: str) -> ParamSpec:
        for spec in self.axes:
            if spec.name == name:
                return spec
        known = ", ".join(self.axis_names())
        raise KeyError(f"no axis {name!r} (known: {known})")

    def restrict(self, **subsets: Sequence) -> "DesignSpace":
        """A sub-space keeping only the named axes' listed values.

        Axis declaration order, parent value order, constants, and the
        explicit points consistent with the restriction are preserved, so
        the sub-space expands to a subsequence of the parent expansion and
        every surviving point keeps its content hash.  A campaign over the
        sub-space therefore re-uses the parent campaign's store entries —
        :meth:`repro.explore.adaptive.DriftRegion.subspace` builds on this
        to re-run a localised drift region as its own focused campaign.
        """
        unknown = set(subsets) - set(self.axis_names())
        if unknown:
            raise KeyError(f"restrict names unknown axes: {sorted(unknown)}")

        def marker(name: str, value: Any) -> str:
            return canonical_json(jsonable(value, f"axis {name!r}"))

        allowed = {
            name: {marker(name, v) for v in values}
            for name, values in subsets.items()
        }
        axes = []
        for spec in self.axes:
            if spec.name not in allowed:
                axes.append(spec)
                continue
            values = tuple(
                v for v in spec.values
                if marker(spec.name, v) in allowed[spec.name]
            )
            if not values:
                raise ValueError(f"restriction empties axis {spec.name!r}")
            axes.append(ParamSpec(spec.name, values))
        points = [
            explicit for explicit in self.points
            if all(
                marker(name, value) in allowed[name]
                for name, value in {**self.constants, **explicit}.items()
                if name in allowed
            )
        ]
        return DesignSpace(
            axes=tuple(axes),
            points=tuple(points),
            constants=dict(self.constants),
        )

    # ---------------------------------------------------------- serialisation

    def to_dict(self) -> dict:
        return {
            "axes": {a.name: list(a.values) for a in self.axes},
            "points": [dict(p) for p in self.points],
            "constants": dict(self.constants),
        }

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "DesignSpace":
        """Build a space from the JSON spec format used by the CLI.

        ``{"axes": {name: [values...]}, "points": [...], "constants": {...}}``
        """
        unknown = set(spec) - {"axes", "points", "constants"}
        if unknown:
            raise ValueError(f"unknown design-space keys: {sorted(unknown)}")
        axes = tuple(
            ParamSpec(name, tuple(values))
            for name, values in dict(spec.get("axes", {})).items()
        )
        return cls(
            axes=axes,
            points=tuple(spec.get("points", ())),
            constants=dict(spec.get("constants", {})),
        )

    @classmethod
    def grid(cls, **axes: Sequence) -> "DesignSpace":
        """Convenience constructor: ``DesignSpace.grid(preset=[...], p=[...])``."""
        return cls(axes=tuple(ParamSpec(n, tuple(v)) for n, v in axes.items()))
