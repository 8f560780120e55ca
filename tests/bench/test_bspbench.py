"""Unit tests for the classic bspbench emulation (§3.1)."""

import pytest

from repro.bench.bspbench import (
    measure_h_relations,
    measure_rate_points,
    run_bspbench,
)
from repro.cluster import presets
from repro.machine import SimMachine


@pytest.fixture(scope="module")
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=81
    )


class TestRatePoints:
    def test_rate_rises_to_plateau(self, machine):
        """Fig. 4.2: small vectors are overhead-bound; the rate climbs and
        flattens near the sustained in-cache rate."""
        points = measure_rate_points(machine, 0, samples=6)
        rates = [p.rate_flops for p in points]
        assert rates[0] < rates[-1]
        assert rates[-1] == pytest.approx(rates[-2], rel=0.3)

    def test_plateau_near_1gflops(self, machine):
        points = measure_rate_points(machine, 0, samples=6)
        assert 0.5e9 < points[-1].rate_flops < 2e9


class TestHRelations:
    def test_time_grows_with_h(self, machine):
        hs, times = measure_h_relations(machine, 8, h_values=(0, 128, 255),
                                        samples=5)
        assert times[0] < times[-1]

    def test_single_process_skipped(self, machine):
        result = run_bspbench(machine, 1, samples=4)
        assert result.params.g == 0.0
        assert result.params.l == 0.0


class TestBSPBenchTable:
    @pytest.fixture(scope="class")
    def table(self, machine):
        return {p: run_bspbench(machine, p, samples=5) for p in (8, 16, 32)}

    def test_table_3_1_structure(self, table):
        """Table 3.1's qualitative content: r roughly constant near
        1 Gflop/s, l growing steeply once runs span several nodes."""
        rs = [res.params.r for res in table.values()]
        assert max(rs) / min(rs) < 1.5
        assert table[32].params.l > table[8].params.l

    def test_l_spans_orders_of_magnitude(self, table):
        """§3.1: the latency parameter spans orders of magnitude already at
        modest scale — the heterogeneity classic BSP hides."""
        assert table[32].params.l > 5 * table[8].params.l

    def test_g_positive_multinode(self, table):
        assert table[16].params.g >= 0.0

    def test_params_labelled_with_p(self, table):
        for p, result in table.items():
            assert result.params.p == p
