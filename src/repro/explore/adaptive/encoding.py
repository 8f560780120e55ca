"""Numeric encoding of design points for surrogates and distances.

Samplers and surrogates need a geometry over the (discrete, mixed-type)
design space: "how far apart are two configurations?" and "what does the
objective look like as a function of position?".  A :class:`SpaceEncoder`
maps every candidate point to a vector in the unit hypercube, one feature
per *varying* parameter:

* numeric parameters (ints/floats, not bools) are min-max scaled by
  value, so ``nprocs=8`` and ``nprocs=16`` are closer than ``nprocs=8``
  and ``nprocs=64`` — the ordering the surrogate exploits;
* everything else (pattern names, presets, bools, lists) is ordinal over
  the parameter's first-seen value order, which for grid axes is the
  declaration order of the axis;
* parameters constant across all candidates (the space's ``constants``,
  single-value axes, and numeric axes whose values are all equal, such as
  ``[1, 1.0]``) are dropped — they carry no information.

The encoder also gives every candidate an integer code per feature: two
candidates share a code exactly where their values compare equal under
``==`` (a point omitting a parameter reads it as None; a NaN equals
nothing, itself included), so :meth:`SpaceEncoder.differences` — in how
many parameters each candidate differs from one — is one vectorised
comparison.

Encoding is a pure function of the candidate list, so two encoders built
from the same expansion are bit-identical — a requirement for the seeded
determinism the samplers guarantee.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.explore.space import DesignPoint, canonical_json


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _equality_codes(values: Sequence) -> list[int]:
    """One code per value, equal exactly where the values are ``==``
    (``1``, ``1.0`` and ``True`` share one); ``-1`` for a value unequal to
    itself (NaN), which matches nothing."""
    codes: list[int] = []
    hashable: dict = {}
    unhashable: list[tuple[object, int]] = []
    for value in values:
        if value != value:
            codes.append(-1)
            continue
        try:
            code = hashable.setdefault(value, len(codes))
        except TypeError:  # lists and dicts equal only lists and dicts
            code = next((c for v, c in unhashable if v == value), len(codes))
            if code == len(codes):
                unhashable.append((value, code))
        codes.append(code)
    return codes


class SpaceEncoder:
    """Encode design points as vectors in ``[0, 1]^d``."""

    def __init__(self, points: Sequence[DesignPoint | Mapping]):
        points = [
            p if isinstance(p, DesignPoint) else DesignPoint(p)
            for p in points
        ]
        if not points:
            raise ValueError("cannot build an encoder from zero points")
        # One pass over the expansion: the first-seen value order per
        # parameter (marker -> position), and each point's position in it
        # (-1 where the point omits the parameter).  A value object already
        # seen under a parameter — grid expansion shares one object per
        # axis value — is not serialised again.
        values: dict[str, dict[str, int]] = {}
        firsts: dict[str, list] = {}
        positions: dict[str, list[int]] = {}
        by_object: dict[tuple[str, int], int] = {}
        for row, point in enumerate(points):
            for name, value in point.items():
                position = by_object.get((name, id(value)))
                if position is None:
                    seen = values.get(name)
                    if seen is None:
                        seen = values[name] = {}
                        firsts[name] = []
                        positions[name] = [-1] * len(points)
                    marker = canonical_json(value)
                    position = seen.get(marker)
                    if position is None:
                        position = seen[marker] = len(seen)
                        firsts[name].append(value)
                    by_object[name, id(value)] = position
                positions[name][row] = position
        self._features: list[str] = []
        self._scales: dict[str, tuple[float, float]] = {}
        self._ordinals: dict[str, dict[str, float]] = {}
        codes = []
        for name, seen in values.items():
            if len(seen) < 2:
                continue  # constant: no information
            first = firsts[name]
            if all(_is_numeric(v) for v in first):
                lo = min(float(v) for v in first)
                hi = max(float(v) for v in first)
                if hi == lo:
                    continue  # distinct markers, one number: constant
                self._scales[name] = (lo, hi - lo)
            else:
                k = len(seen) - 1
                self._ordinals[name] = {
                    marker: idx / k for idx, marker in enumerate(seen)
                }
            self._features.append(name)
            # Codes per position; a point omitting the parameter reads it
            # as None, the last entry, which position -1 selects.
            by_position = np.array(_equality_codes([*first, None]))
            codes.append(by_position[np.array(positions[name])])
        self._codes = (
            np.stack(codes, axis=1) if codes
            else np.empty((len(points), 0), dtype=int)
        )

    @property
    def features(self) -> list[str]:
        """The encoded parameter names, in first-seen order."""
        return list(self._features)

    @property
    def dimensions(self) -> int:
        return len(self._features)

    def differences(self, row: int) -> np.ndarray:
        """For every point the encoder was built from, the number of
        features whose value differs (``!=``) from point ``row``'s."""
        own = self._codes[row]
        return ((self._codes != own) | (own < 0)).sum(axis=1)

    def encode(self, point: DesignPoint | Mapping) -> np.ndarray:
        """One point as a ``(dimensions,)`` float vector.

        Unseen numeric values extrapolate through the min-max scale;
        unseen categorical values land just past the known range (1 + 1/k)
        so they are "far from everything" rather than an error — drift
        refinement may probe off-grid points.
        """
        if not isinstance(point, DesignPoint):
            point = DesignPoint(point)
        vec = np.empty(len(self._features))
        for i, name in enumerate(self._features):
            value = point.get(name)
            if name in self._scales:
                lo, span = self._scales[name]
                if not _is_numeric(value):
                    raise TypeError(
                        f"parameter {name!r} is numeric in the space but "
                        f"{value!r} is not"
                    )
                vec[i] = (float(value) - lo) / span
            else:
                ordinals = self._ordinals[name]
                marker = canonical_json(value)
                if marker in ordinals:
                    vec[i] = ordinals[marker]
                else:
                    vec[i] = 1.0 + 1.0 / max(len(ordinals), 1)
        return vec

    def encode_many(self, points: Sequence[DesignPoint | Mapping]) -> np.ndarray:
        """A ``(len(points), dimensions)`` matrix, row order preserved."""
        if not points:
            return np.empty((0, len(self._features)))
        return np.stack([self.encode(p) for p in points])
