"""localize_drift: witness search, axis bisection, probe economy, CLI."""

import pytest

from repro.explore.adaptive import localize_drift
from repro.explore.experiments import register_experiment
from repro.explore.golden import update_golden
from repro.explore.space import DesignSpace
from repro.explore.suites import SuiteSpec, register_suite, run_suite

# A mutable switchboard the experiment reads, so tests inject regressions
# without re-registering anything.
REGRESSION = {"scale": 1.0, "min_nprocs": None, "pattern": None}


@register_experiment(
    "test-driftable", "regression-injectable (test only)",
    pattern=str, nprocs=int,
)
def _driftable(point):
    cost = float(point["nprocs"]) * 1.5 + {
        "lin": 0.0, "tree": 1.0, "dis": 2.0
    }[point["pattern"]]
    hit = True
    if REGRESSION["min_nprocs"] is not None:
        hit = hit and point["nprocs"] >= REGRESSION["min_nprocs"]
    if REGRESSION["pattern"] is not None:
        hit = hit and point["pattern"] == REGRESSION["pattern"]
    if hit:
        cost *= REGRESSION["scale"]
    return {"cost": cost}


NPROCS = [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 48, 56, 64]


def _spec(name="drift-unit"):
    return SuiteSpec(
        name=name,
        title="driftable sweep",
        experiment="test-driftable",
        space=DesignSpace.from_dict({
            "axes": {"pattern": ["lin", "tree", "dis"], "nprocs": NPROCS},
        }),
        columns=("pattern", "nprocs", "cost"),
    )


@pytest.fixture
def goldens(tmp_path):
    """A golden built from the clean experiment; restores cleanliness."""
    REGRESSION.update(scale=1.0, min_nprocs=None, pattern=None)
    spec = _spec()
    result = run_suite(spec, store_dir=None)
    update_golden(tmp_path, spec.name, result.artifact())
    yield spec, tmp_path
    REGRESSION.update(scale=1.0, min_nprocs=None, pattern=None)


def test_clean_suite_reports_no_drift(goldens):
    spec, goldens_dir = goldens
    report = localize_drift(spec, goldens_dir=goldens_dir)
    assert report.ok and not report.drifted
    assert "no drift" in report.summary()


def test_localises_an_injected_regression_to_its_axis_region(goldens):
    spec, goldens_dir = goldens
    REGRESSION.update(scale=1.5, min_nprocs=24, pattern="tree")
    report = localize_drift(spec, goldens_dir=goldens_dir, seed=5)
    assert report.drifted
    region = report.region
    assert region.axes["pattern"] == ("tree",)
    assert region.axes["nprocs"] == tuple(n for n in NPROCS if n >= 24)
    assert "pattern" not in region.full_axes
    # Bisection economy: far fewer probes than the 39-point space.
    assert report.probes < len(spec.space) / 2
    # The verification sweep confirmed the region drifts throughout.
    assert report.verified_drifting == report.verified > 0
    assert "tree" in report.summary()


def test_region_subspace_re_runs_only_the_offending_points(goldens):
    spec, goldens_dir = goldens
    REGRESSION.update(scale=1.5, min_nprocs=24, pattern="tree")
    report = localize_drift(spec, goldens_dir=goldens_dir, seed=5)
    sub = report.region.subspace(spec.space)
    offending = [n for n in NPROCS if n >= 24]
    assert len(sub) == len(offending)
    # Same content hashes as the parent expansion: a campaign over the
    # region re-uses the parent store.
    parent_keys = {p.key for p in spec.space.expand()}
    assert all(p.key in parent_keys for p in sub.expand())
    assert all(p["pattern"] == "tree" for p in sub)


def test_whole_axis_drift_is_reported_as_unlocalising(goldens):
    spec, goldens_dir = goldens
    REGRESSION.update(scale=2.0, min_nprocs=None, pattern=None)  # everywhere
    report = localize_drift(spec, goldens_dir=goldens_dir)
    assert report.drifted
    assert set(report.region.full_axes) == {"pattern", "nprocs"}
    assert "all" in report.region.describe()


def test_probe_limit_bounds_the_witness_search(goldens):
    spec, goldens_dir = goldens
    REGRESSION.update(scale=1.5, min_nprocs=64, pattern="dis")  # 1 point
    report = localize_drift(
        spec, goldens_dir=goldens_dir, seed=0, probe_limit=3
    )
    # With only 3 probes the single drifted point is (almost surely under
    # this seed) missed: the report must say how little was checked, not
    # claim cleanliness it did not establish.
    if not report.drifted:
        assert report.probes == 3


def test_space_shape_change_is_structural(goldens):
    spec, goldens_dir = goldens
    wider = SuiteSpec(
        name=spec.name,
        title=spec.title,
        experiment=spec.experiment,
        space=DesignSpace.from_dict({
            "axes": {
                "pattern": ["lin", "tree", "dis"],
                "nprocs": NPROCS + [128],
            },
        }),
        columns=spec.columns,
    )
    report = localize_drift(wider, goldens_dir=goldens_dir)
    assert report.structural
    assert not report.drifted
    assert "shape changed" in report.summary()


def test_missing_golden_raises(goldens, tmp_path):
    spec, _ = goldens
    with pytest.raises(FileNotFoundError):
        localize_drift(spec, goldens_dir=tmp_path / "empty")


def test_drift_cli_round_trip(goldens, capsys):
    from repro.explore.cli import main

    spec, goldens_dir = goldens
    register_suite(spec)
    try:
        assert main([
            "drift", spec.name, "--goldens-dir", str(goldens_dir),
        ]) == 0
        REGRESSION.update(scale=1.5, min_nprocs=24, pattern="tree")
        code = main([
            "drift", spec.name, "--goldens-dir", str(goldens_dir),
            "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "drift localised" in out and "tree" in out
    finally:
        from repro.explore.suites import SUITES

        SUITES.pop(spec.name, None)
