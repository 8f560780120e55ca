"""Localise a failed golden check to the smallest offending axis region.

When CI reports that a goldened suite drifted, the artifact diff says
*that* numbers moved, not *where in the design space* the regression
lives.  Re-running the whole suite point by point answers that, but at
full regeneration cost.  :func:`localize_drift` answers it with a
bisection/refinement search instead:

1. **witness** — probe points in a seeded order until one drifted point
   is found (fast when the drift is broad, bounded by ``probe_limit``
   when it is not);
2. **per-axis refinement** — from the witness, vary one axis at a time:
   short axes are swept exactly; long ordered axes are bisected under the
   standard assumption that the offending values form a contiguous run
   around the witness (an experiment regression gated on "nprocs >= 48"
   or "payload > 4 KiB" — the common case — satisfies this);
3. **verification** — a few seeded extra points inside the claimed
   region confirm it drifts throughout (reported as purity, not assumed).

Every probe is one design-point evaluation through the ordinary campaign
machinery, so the total cost is ``O(witness search + Σ_axis log|axis|)``
evaluations instead of the full product — the difference between seconds
and a full tier-2 regeneration.
"""

from __future__ import annotations

import os
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.explore.campaign import Campaign
from repro.explore.golden import (
    ARTIFACT_FORMAT_VERSION,
    diff_rows,
    golden_path,
    load_golden,
)
from repro.explore.space import DesignPoint, DesignSpace

#: Axes at or below this length are swept exactly; longer ones bisected.
_SWEEP_LIMIT = 6

#: Seeded extra points the verification sweep probes inside the region.
_VERIFY_PROBES = 4


@dataclass(frozen=True)
class DriftRegion:
    """The offending axis-aligned region: values per axis, plus a witness.

    An axis listing *all* its values does not localise (the drift spans
    it); an axis listing a strict subset narrows the region.
    """

    axes: Mapping[str, tuple]
    full_axes: tuple[str, ...]
    witness: Mapping[str, Any]

    def __post_init__(self):
        object.__setattr__(
            self, "axes", {k: tuple(v) for k, v in self.axes.items()}
        )
        object.__setattr__(self, "full_axes", tuple(self.full_axes))
        object.__setattr__(self, "witness", dict(self.witness))

    def size(self) -> int:
        """Number of grid points inside the region."""
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def subspace(self, space) -> "DesignSpace":
        """The region as its own design space — same constants, same
        point hashes — ready to re-run as a focused campaign (e.g. a full
        sweep of just the offending region against the previous code)."""
        restricted = {
            name: values for name, values in self.axes.items()
            if name not in self.full_axes
        }
        return space.restrict(**restricted) if restricted else space

    def describe(self) -> str:
        parts = []
        for name, values in self.axes.items():
            if name in self.full_axes:
                parts.append(f"{name}: all {len(values)} values")
            else:
                shown = ", ".join(repr(v) for v in values)
                parts.append(f"{name} in {{{shown}}}")
        return "; ".join(parts) if parts else "(single-point space)"


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one localisation run."""

    suite: str
    drifted: bool
    structural: tuple[str, ...] = ()
    region: DriftRegion | None = None
    probes: int = 0
    space_size: int = 0
    verified: int = 0
    verified_drifting: int = 0
    sample_diffs: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.drifted and not self.structural

    def summary(self) -> str:
        if self.structural:
            lines = "\n  ".join(self.structural)
            return (
                f"{self.suite}: artifact shape changed — localisation "
                f"needs a same-shape golden:\n  {lines}"
            )
        if not self.drifted:
            return (
                f"{self.suite}: no drift found "
                f"({self.probes}/{self.space_size} points probed)"
            )
        region = self.region
        assert region is not None
        purity = (
            f", verified {self.verified_drifting}/{self.verified} "
            f"region probes drifting" if self.verified else ""
        )
        head = (
            f"{self.suite}: drift localised to {region.describe()} "
            f"[~{region.size()} of {self.space_size} points; "
            f"{self.probes} probed{purity}]"
        )
        if self.sample_diffs:
            shown = "\n  ".join(self.sample_diffs[:6])
            head += f"\n  witness diff:\n  {shown}"
        return head


def localize_drift(
    suite,
    goldens_dir: str | os.PathLike,
    store_dir: str | os.PathLike | None = None,
    executor: str | Any | None = None,
    workers: int | None = None,
    seed: int = 0,
    probe_limit: int | None = None,
) -> DriftReport:
    """Narrow a failed golden for ``suite`` to the offending axis region.

    ``suite`` is a spec or a registered suite name.  ``store_dir``
    defaults to None — probes must reflect the *current* code, and a
    store populated before the regression would mask it; pass a fresh
    directory to make repeated localisations share work.

    Returns a :class:`DriftReport`; ``report.ok`` means no drifted point
    was found within ``probe_limit`` (default: the whole space).
    """
    from repro.explore.suites import SuiteSpec, get_suite

    spec: SuiteSpec = suite if isinstance(suite, SuiteSpec) else get_suite(suite)
    golden = load_golden(golden_path(goldens_dir, spec.name))

    points = spec.space.expand()
    structural = []
    if golden.get("format_version") != ARTIFACT_FORMAT_VERSION:
        structural.append(
            f"format_version: golden {golden.get('format_version')!r} vs "
            f"current {ARTIFACT_FORMAT_VERSION}"
        )
    rows = golden.get("rows", [])
    if len(rows) != len(points):
        structural.append(
            f"rows: golden has {len(rows)}, the space expands to "
            f"{len(points)} — the space itself changed"
        )
    if structural:
        return DriftReport(
            suite=spec.name,
            drifted=False,
            structural=tuple(structural),
            space_size=len(points),
        )
    columns = list(golden["columns"])

    campaign = Campaign(
        spec.name,
        spec.space,
        spec.experiment,
        store_dir=store_dir,
        executor=executor,
        workers=workers,
        on_error="store",  # a crashing point is itself drift, not an abort
    )
    key_to_idx = {p.key: i for i, p in enumerate(points)}
    status: dict[int, list[str]] = {}

    def probe(idx: int) -> list[str]:
        """Diff lines for point ``idx`` against its golden row (memoised);
        empty means the point reproduces its golden numbers."""
        if idx not in status:
            (record,), _ = campaign.serve([points[idx]])
            if record.failed:
                status[idx] = [
                    f"point {idx}: evaluation failed: "
                    f"{record.metrics.get('error')}"
                ]
            else:
                fresh_row = [record.value(c) for c in columns]
                status[idx] = diff_rows(
                    columns, rows[idx], fresh_row, spec.tolerance
                )
        return status[idx]

    # ---- 1. witness search ------------------------------------------------
    rng = random.Random(f"drift:{spec.name}:{seed}")
    order = list(range(len(points)))
    rng.shuffle(order)
    limit = len(points) if probe_limit is None else min(probe_limit, len(points))
    witness = None
    for idx in order[:limit]:
        if probe(idx):
            witness = idx
            break
    if witness is None:
        return DriftReport(
            suite=spec.name,
            drifted=False,
            probes=len(status),
            space_size=len(points),
        )
    witness_point = points[witness]
    witness_diffs = tuple(status[witness])

    # ---- 2. per-axis refinement ------------------------------------------
    def at(axis: str, value) -> int | None:
        """Expansion index of the witness with ``axis`` rebound."""
        candidate = DesignPoint({**witness_point.as_dict(), axis: value})
        return key_to_idx.get(candidate.key)

    def drifts(axis: str, value) -> bool:
        idx = at(axis, value)
        # Off-grid (explicit-point spaces): treat as outside the region.
        return bool(probe(idx)) if idx is not None else False

    region_axes: dict[str, tuple] = {}
    full_axes: list[str] = []
    for axis_spec in spec.space.axes:
        values = list(axis_spec.values)
        j0 = next(
            (j for j, v in enumerate(values)
             if at(axis_spec.name, v) == witness),
            None,
        )
        if j0 is None:  # witness off this axis' grid; cannot refine it
            region_axes[axis_spec.name] = tuple(values)
            full_axes.append(axis_spec.name)
            continue
        if len(values) <= _SWEEP_LIMIT:
            offending = tuple(
                v for j, v in enumerate(values)
                if j == j0 or drifts(axis_spec.name, v)
            )
        else:
            # Bisect the boundaries of the contiguous run around j0.
            lo = 0
            if drifts(axis_spec.name, values[0]):
                left = 0
            else:
                hi = j0
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if drifts(axis_spec.name, values[mid]):
                        hi = mid
                    else:
                        lo = mid
                left = hi
            hi = len(values) - 1
            if drifts(axis_spec.name, values[-1]):
                right = hi
            else:
                lo = j0
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if drifts(axis_spec.name, values[mid]):
                        lo = mid
                    else:
                        hi = mid
                right = lo
            offending = tuple(values[left:right + 1])
        region_axes[axis_spec.name] = offending
        if len(offending) == len(values):
            full_axes.append(axis_spec.name)

    region = DriftRegion(
        axes=region_axes,
        full_axes=tuple(full_axes),
        witness=witness_point.as_dict(),
    )

    # ---- 3. verification sweep -------------------------------------------
    verified = verified_drifting = 0
    if region_axes:
        for _ in range(_VERIFY_PROBES):
            candidate = dict(witness_point.as_dict())
            for name, offending in region_axes.items():
                candidate[name] = offending[rng.randrange(len(offending))]
            idx = key_to_idx.get(DesignPoint(candidate).key)
            if idx is None:
                continue
            verified += 1
            if probe(idx):
                verified_drifting += 1

    return DriftReport(
        suite=spec.name,
        drifted=True,
        region=region,
        probes=len(status),
        space_size=len(points),
        verified=verified,
        verified_drifting=verified_drifting,
        sample_diffs=witness_diffs,
    )
