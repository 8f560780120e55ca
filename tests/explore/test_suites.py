"""Suite layer: specs, series, artifacts, claims, caching, registry."""

import pytest

from repro.explore.experiments import EXPERIMENTS, register_experiment
from repro.explore.golden import ARTIFACT_FORMAT_VERSION
from repro.explore.space import DesignSpace
from repro.explore.suites import (
    SUITES,
    Claim,
    ClaimFailure,
    SeriesSpec,
    SuiteSpec,
    get_suite,
    register_suite,
    run_suite,
    suite_names,
)

EXPERIMENT = "suite-test-square"


@pytest.fixture(autouse=True)
def _toy_experiment():
    register_experiment(EXPERIMENT, "x, tag -> x^2")(
        lambda point: {
            "y": point["x"] ** 2,
            "parity": "even" if point["x"] % 2 == 0 else "odd",
        }
    )
    yield
    EXPERIMENTS.pop(EXPERIMENT, None)


def _toy_spec(claims=(), columns=(), name="toy-suite"):
    return SuiteSpec(
        name=name,
        title="Toy: squares",
        experiment=EXPERIMENT,
        space=DesignSpace.from_dict({
            "axes": {"x": [1, 2, 3, 4]},
            "constants": {"tag": "t"},
        }),
        columns=tuple(columns),
        series=(
            SeriesSpec("all", y="y", x="x"),
            SeriesSpec("even", y="y", x="x", where={"parity": "even"}),
        ),
        claims=tuple(claims),
    )


def test_run_suite_series_and_artifact():
    result = run_suite(_toy_spec(), store_dir=None)
    assert result.series("all") == ([1, 2, 3, 4], [1, 4, 9, 16])
    assert result.series("even") == ([2, 4], [4, 16])
    with pytest.raises(KeyError, match="no series"):
        result.series("missing")

    artifact = result.artifact()
    assert artifact["format_version"] == ARTIFACT_FORMAT_VERSION
    assert artifact["suite"] == "toy-suite"
    assert artifact["experiment"] == EXPERIMENT
    assert artifact["points"] == 4
    # Default columns: point names then metric names (key-sorted, the
    # canonical JSON order the cache round-trip settles on).
    assert artifact["columns"] == ["tag", "x", "parity", "y"]
    assert artifact["rows"][0] == ["t", 1, "odd", 1]
    assert artifact["series"]["even"]["x"] == [2, 4]
    assert artifact["series"]["even"]["y_name"] == "y"


def test_explicit_columns_resolve_metrics_then_point():
    result = run_suite(_toy_spec(columns=("x", "y")), store_dir=None)
    assert result.artifact()["columns"] == ["x", "y"]
    assert result.artifact()["rows"] == [[1, 1], [2, 4], [3, 9], [4, 16]]


def test_claims_pass_and_fail():
    good = Claim("monotone", lambda r: None)

    def bad_check(r):
        assert False, "shape violated"

    bad = Claim("bad-shape", bad_check)
    assert run_suite(
        _toy_spec(claims=(good,)), store_dir=None
    ).check_claims() == ["monotone"]

    result = run_suite(_toy_spec(claims=(good, bad)), store_dir=None)
    with pytest.raises(ClaimFailure, match="'bad-shape' failed: shape"):
        result.check_claims()
    # ClaimFailure is an AssertionError, so pytest wrappers report it.
    assert issubclass(ClaimFailure, AssertionError)


def test_rerun_is_pure_cache_read(tmp_path):
    spec = _toy_spec()
    first = run_suite(spec, store_dir=tmp_path)
    again = run_suite(spec, store_dir=tmp_path)
    assert first.stats.evaluated == 4 and first.stats.cached == 0
    assert again.stats.cached == 4 and again.stats.evaluated == 0
    assert again.artifact() == first.artifact()


def test_spec_validation():
    with pytest.raises(ValueError, match="repeats series names"):
        SuiteSpec(
            name="dup", title="", experiment=EXPERIMENT,
            space=DesignSpace.from_dict({"axes": {"x": [1]}}),
            series=(SeriesSpec("s", y="y", x="x"),
                    SeriesSpec("s", y="z", x="x")),
        )
    with pytest.raises(ValueError, match="repeats claim names"):
        SuiteSpec(
            name="dup", title="", experiment=EXPERIMENT,
            space=DesignSpace.from_dict({"axes": {"x": [1]}}),
            claims=(Claim("c", lambda r: None), Claim("c", lambda r: None)),
        )


def test_registry_register_and_lookup():
    spec = _toy_spec(name="toy-registry-entry")
    register_suite(spec)
    try:
        assert get_suite("toy-registry-entry") is spec
        assert "toy-registry-entry" in suite_names()
    finally:
        SUITES.pop("toy-registry-entry", None)
    with pytest.raises(KeyError, match="unknown suite"):
        get_suite("no-such-suite")


def test_catalogue_suites_are_well_formed():
    """Every registered thesis suite names a real experiment, expands to a
    non-empty space, and declares resolvable series/claims."""
    names = suite_names()
    assert {"fig-4-2", "fig-5-6-to-5-9", "table-7-1"} <= set(names)
    for name in names:
        spec = get_suite(name)
        assert spec.experiment in EXPERIMENTS, name
        assert len(spec.space) > 0, name
        assert spec.claims, f"{name} must claim something"
        assert spec.title


def test_render_includes_title_and_stats():
    result = run_suite(_toy_spec(), store_dir=None)
    rendered = result.render()
    assert "Toy: squares" in rendered
    assert "4 points" in rendered
