"""Unit tests for the Chapter 8 experiment harness."""

import pytest

from repro.cluster import presets
from repro.machine import SimMachine
from repro.stencil.experiments import (
    IMPLEMENTATIONS,
    default_configurations,
    run_strong_scaling,
)


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=101
    )


class TestConfigurations:
    def test_matrix_coverage(self):
        configs = default_configurations()
        assert len(configs) == 8  # 4 implementations x 2 problem sizes
        labels = [cfg.label for cfg in configs]
        assert len(set(labels)) == len(labels)
        for cfg in configs:
            assert cfg.process_counts == (4, 8, 16, 32, 64)

    def test_describe_row(self):
        cfg = default_configurations()[0]
        row = cfg.describe()
        assert len(row) == 5
        assert "x" in row[2]


class TestStrongScalingHarness:
    def test_all_implementations_run(self, machine):
        results = run_strong_scaling(
            machine, list(IMPLEMENTATIONS), 256, (4, 8), iterations=2
        )
        assert set(results) == set(IMPLEMENTATIONS)
        for per_count in results.values():
            assert set(per_count) == {4, 8}
