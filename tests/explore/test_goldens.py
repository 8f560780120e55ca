"""The checked-in golden fixtures: schema, perturbation detection, and
(tier-2) full regeneration through ``suite --check``."""

import copy
import json
import os

import pytest

from repro.explore.figures import GOLDEN_SUITES
from repro.explore.golden import (
    ARTIFACT_FORMAT_VERSION,
    check_golden,
    golden_path,
    load_golden,
    update_golden,
)
from repro.explore.suites import DEFAULT_GOLDENS_DIR as GOLDENS_DIR, get_suite

#: Every checked-in fixture: the golden suites plus the Chapter 8 suites,
#: whose regeneration CI checks in a step of its own.
CHECKED_IN = GOLDEN_SUITES + ("fig-8-4-to-8-7", "fig-8-10-to-8-15", "fig-8-18")


def test_every_fixture_is_listed():
    assert sorted(os.listdir(GOLDENS_DIR)) == sorted(
        f"{suite}.json" for suite in CHECKED_IN
    )


@pytest.mark.parametrize("suite", CHECKED_IN)
def test_golden_fixture_checked_in_and_well_formed(suite):
    artifact = load_golden(golden_path(GOLDENS_DIR, suite))
    assert artifact["format_version"] == ARTIFACT_FORMAT_VERSION
    assert artifact["suite"] == suite
    spec = get_suite(suite)
    assert artifact["experiment"] == spec.experiment
    assert artifact["points"] == len(spec.space)
    assert len(artifact["rows"]) == artifact["points"]
    assert all(
        len(row) == len(artifact["columns"]) for row in artifact["rows"]
    )
    assert set(artifact["series"]) == {s.name for s in spec.series}


@pytest.mark.parametrize("suite", CHECKED_IN)
def test_golden_self_check_passes(suite):
    """A fixture compared against itself is a clean pass — the comparison
    machinery cannot reject the checked-in artifact."""
    artifact = load_golden(golden_path(GOLDENS_DIR, suite))
    spec = get_suite(suite)
    report = check_golden(GOLDENS_DIR, suite, artifact, spec.tolerance)
    assert report.ok, report.summary()


@pytest.mark.parametrize("suite", CHECKED_IN)
def test_perturbed_copy_fails_the_check(tmp_path, suite):
    """Drifted numbers and structural edits must both be caught."""
    artifact = load_golden(golden_path(GOLDENS_DIR, suite))
    update_golden(tmp_path, suite, artifact)
    spec = get_suite(suite)

    def drift(value):
        """Scale every float 2% — far beyond the suite tolerance."""
        if isinstance(value, float):
            return value * 1.02
        if isinstance(value, list):
            return [drift(v) for v in value]
        if isinstance(value, dict):
            return {k: drift(v) for k, v in value.items()}
        return value

    numeric = copy.deepcopy(artifact)
    numeric["rows"] = drift(numeric["rows"])
    assert numeric["rows"] != artifact["rows"], "artifact carries no floats"
    report = check_golden(tmp_path, suite, numeric, spec.tolerance)
    assert not report.ok
    assert report.diffs

    structural = copy.deepcopy(artifact)
    structural["rows"] = structural["rows"][:-1]
    structural["points"] -= 1
    report = check_golden(tmp_path, suite, structural, spec.tolerance)
    assert not report.ok


@pytest.mark.tier2
@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_suite_bit_identical_with_telemetry_on(tmp_path, suite):
    """Telemetry must never perturb a result: a fresh regeneration with
    telemetry enabled produces the byte-for-byte artifact of one without."""
    from repro import obs
    from repro.explore.suites import run_suite

    off = run_suite(suite, store_dir=tmp_path / "off")
    try:
        obs.enable(tmp_path / "telemetry")
        on = run_suite(suite, store_dir=tmp_path / "on")
    finally:
        obs.disable()
    assert json.dumps(on.artifact(), sort_keys=True) == json.dumps(
        off.artifact(), sort_keys=True
    )


@pytest.mark.tier2
@pytest.mark.parametrize("suite", GOLDEN_SUITES)
def test_suite_check_regenerates_within_tolerance(tmp_path, suite):
    """Full regeneration (fresh store, no cache) reproduces the golden —
    the CLI path CI runs on every push."""
    from repro.explore.cli import main

    code = main([
        "suite", suite,
        "--check",
        "--store-dir", str(tmp_path / "store"),
        "--goldens-dir", GOLDENS_DIR,
    ])
    assert code == 0
