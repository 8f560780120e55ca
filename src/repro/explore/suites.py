"""Declarative figure/table suites over the campaign engine.

A *suite* is one thesis artifact — a figure or a table — written as data:
the design space that generates its points, the experiment that evaluates
them, the derived series its plot would draw, and the shape claims the
thesis makes about it.  Running a suite is exactly running a campaign, so
suites inherit everything campaigns have — content-hash caching,
resumability, executor choice — and add two things on top:

* an **artifact**: a canonical JSON rendering (columns × rows plus named
  series) suitable for the golden store in :mod:`repro.explore.golden`;
* **claims**: named predicates over the result, so "the linear barrier is
  worst at scale" is a machine-checked regression property instead of a
  sentence in a benchmark docstring.

The bench modules under ``benchmarks/`` are thin wrappers: load a spec by
name, :func:`run_suite`, assert its claims.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.explore.campaign import CampaignOutcome, run_campaign
from repro.explore.golden import ARTIFACT_FORMAT_VERSION, Tolerance
from repro.explore.results import ResultSet
from repro.explore.space import DesignSpace, jsonable

def _benchmarks_root() -> str:
    """The ``benchmarks/`` tree the defaults below live under: the nearest
    ancestor of this package containing one alongside an ``src/repro``
    layout (i.e. this repository's root, as seen by the usual editable
    install — the layout sentinel keeps the walk from adopting an
    unrelated project's ``benchmarks/`` when installed into
    site-packages).  Falls back to CWD-relative ``benchmarks`` when no
    such tree exists, so the ``suite`` CLI behaves identically from any
    working directory whenever the tree is findable."""
    root = os.path.dirname(os.path.abspath(__file__))
    while True:
        candidate = os.path.join(root, "benchmarks")
        if os.path.isdir(candidate) and os.path.isdir(
            os.path.join(root, "src", "repro")
        ):
            return candidate
        parent = os.path.dirname(root)
        if parent == root:
            return "benchmarks"
        root = parent


_BENCHMARKS_ROOT = _benchmarks_root()

#: Default on-disk store shared by all suite campaigns; one JSONL file per
#: suite, so re-running any suite is a cache read.
DEFAULT_SUITE_STORE = os.path.join(_BENCHMARKS_ROOT, ".suite-store")

#: Default golden directory — the checked-in regression fixtures.
DEFAULT_GOLDENS_DIR = os.path.join(_BENCHMARKS_ROOT, "goldens")


@dataclass(frozen=True)
class SeriesSpec:
    """One derived series: ``y`` over ``x`` for the records matching
    ``where`` — the declarative form of "the measured D curve"."""

    name: str
    y: str
    x: str
    where: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "where", dict(self.where))

    def extract(self, results: ResultSet) -> tuple[list, list]:
        sub = results.filter(**self.where) if self.where else results
        return sub.values(self.x), sub.values(self.y)


@dataclass(frozen=True)
class Claim:
    """A named shape claim: a callable that raises AssertionError on a
    result set violating it."""

    name: str
    check: Callable[["SuiteResult"], None]
    description: str = ""


class ClaimFailure(AssertionError):
    """A suite's shape claim did not hold on the regenerated results."""

    def __init__(self, suite: str, claim: Claim, cause: AssertionError):
        self.suite = suite
        self.claim = claim
        detail = f": {cause}" if str(cause) else ""
        super().__init__(
            f"suite {suite!r}: claim {claim.name!r} failed{detail}"
        )


@dataclass(frozen=True)
class SuiteSpec:
    """One thesis artifact as data: space × experiment × series × claims.

    ``columns`` names the artifact's table columns; names resolve against
    metrics first, then point parameters (empty means every point
    parameter followed by every metric).  ``tolerance`` bounds the golden
    comparison for this artifact's floats.
    """

    name: str
    title: str
    experiment: str
    space: DesignSpace
    columns: tuple[str, ...] = ()
    series: tuple[SeriesSpec, ...] = ()
    claims: tuple[Claim, ...] = ()
    tolerance: Tolerance = field(default_factory=Tolerance)
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("suite name must be non-empty")
        names = [s.name for s in self.series]
        if len(set(names)) != len(names):
            raise ValueError(f"suite {self.name!r} repeats series names")
        claim_names = [c.name for c in self.claims]
        if len(set(claim_names)) != len(claim_names):
            raise ValueError(f"suite {self.name!r} repeats claim names")


@dataclass(frozen=True)
class SuiteResult:
    """A regenerated suite: the campaign outcome plus artifact/claim views."""

    spec: SuiteSpec
    outcome: CampaignOutcome

    @property
    def results(self) -> ResultSet:
        return self.outcome.results

    @property
    def stats(self):
        return self.outcome.stats

    # ------------------------------------------------------------- series

    def series(self, name: str) -> tuple[list, list]:
        """The (x, y) value lists of one declared series."""
        for spec in self.spec.series:
            if spec.name == name:
                return spec.extract(self.results)
        known = ", ".join(s.name for s in self.spec.series)
        raise KeyError(
            f"suite {self.spec.name!r} has no series {name!r} (known: {known})"
        )

    def series_values(self, name: str) -> list:
        """Just the y values of one declared series."""
        return self.series(name)[1]

    # ----------------------------------------------------------- artifact

    def columns(self) -> list[str]:
        if self.spec.columns:
            return list(self.spec.columns)
        return [
            c for c in
            self.results.point_names() + self.results.metric_names()
            if c != "traceback"
        ]

    def artifact(self) -> dict:
        """The canonical JSON artifact this suite regenerates."""
        columns = self.columns()
        artifact = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "suite": self.spec.name,
            "title": self.spec.title,
            "experiment": self.spec.experiment,
            "points": len(self.results),
            "columns": columns,
            "rows": self.results.to_rows(columns),
            "series": {
                s.name: {"x_name": s.x, "y_name": s.y}
                | dict(zip(("x", "y"), s.extract(self.results)))
                for s in self.spec.series
            },
        }
        return jsonable(artifact, f"suite {self.spec.name!r} artifact")

    def render(self) -> str:
        """Human-readable artifact: title, serving stats, aligned table."""
        from repro.util.tables import format_table

        stats = self.stats
        lines = [
            self.spec.title,
            f"[{stats.total} points: {stats.evaluated} evaluated, "
            f"{stats.cached} cached ({stats.cache_hit_rate:.0%} hit), "
            f"{stats.failed} failed]",
        ]
        columns = self.columns()
        lines.append(format_table(columns, self.results.to_rows(columns)))
        return "\n".join(lines)

    # ------------------------------------------------------------- claims

    def check_claims(self) -> list[str]:
        """Run every claim; returns their names, raises on the first
        violation (an ordinary AssertionError subclass, so pytest wrappers
        and the CLI report it identically)."""
        checked = []
        for claim in self.spec.claims:
            try:
                claim.check(self)
            except ClaimFailure:
                raise
            except AssertionError as exc:
                raise ClaimFailure(self.spec.name, claim, exc) from exc
            checked.append(claim.name)
        return checked


# ------------------------------------------------------------------ registry

SUITES: dict[str, SuiteSpec] = {}


def register_suite(spec: SuiteSpec) -> SuiteSpec:
    """Register a suite spec under its name (last registration wins, so
    tests can shadow and restore)."""
    SUITES[spec.name] = spec
    return spec


def get_suite(name: str) -> SuiteSpec:
    _load_catalogue()
    try:
        return SUITES[name]
    except KeyError:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {name!r} (known: {known})") from None


def suite_names() -> list[str]:
    _load_catalogue()
    return sorted(SUITES)


def _load_catalogue() -> None:
    """Import the thesis catalogue lazily so suites.py itself stays free of
    experiment dependencies (and so the registry exists before the
    catalogue module runs)."""
    from repro.explore import figures  # noqa: F401  — import registers


# --------------------------------------------------------------------- run

def run_suite(
    suite: str | SuiteSpec,
    store_dir: str | os.PathLike | None = DEFAULT_SUITE_STORE,
    executor: str | Any | None = None,
) -> SuiteResult:
    """Regenerate one suite through the campaign engine.

    ``store_dir=None`` disables caching; the default store makes any
    re-run a near-pure cache read.  Claims are checked separately, by
    :meth:`SuiteResult.check_claims`.
    """
    spec = suite if isinstance(suite, SuiteSpec) else get_suite(suite)
    outcome = run_campaign(
        spec.name,
        spec.space,
        spec.experiment,
        store_dir=store_dir,
        executor=executor,
    )
    return SuiteResult(spec=spec, outcome=outcome)
