"""Tests for the one-call adaptation evaluation."""

import dataclasses

import pytest

from repro.adapt.evaluate import evaluate_adaptation
from repro.cluster import presets
from repro.machine import SimMachine


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=31
    )


class TestEvaluateAdaptation:
    def test_without_ensemble_fields_absent(self, machine):
        ev = evaluate_adaptation(machine, 8, runs=4, comm_samples=3)
        assert ev.nprocs == 8
        assert ev.adapted_measured > 0
        assert ev.best_default_measured > 0
        # The parameter-stability ensemble had no caller and is gone.
        names = {f.name for f in dataclasses.fields(ev)}
        assert not any(n.startswith("ensemble_") for n in names)
        assert "choice_stability" not in names
