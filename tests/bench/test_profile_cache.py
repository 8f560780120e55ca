"""Tests for the memoized comm-profile cache (repro.bench.profile_cache)."""

import os

import numpy as np
import pytest

from repro.barriers.evaluate import FAST_COMM_SIZES, profile_placement
from repro.bench.comm_bench import DEFAULT_REQUEST_COUNTS
from repro.bench.profile_cache import (
    PROFILE_PROTOCOL,
    ProfileCache,
    machine_fingerprint,
    profile_key,
    store_path_for,
)
from repro.cluster import presets
from repro.machine.simmachine import SimMachine


@pytest.fixture
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=21
    )


def key_for(machine, placement, samples=3):
    return profile_key(
        machine, placement, samples, FAST_COMM_SIZES,
        DEFAULT_REQUEST_COUNTS, "comm-bench", 4096,
    )


class TestKeys:
    def test_key_stable_across_equal_machines(self, machine):
        other = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=21
        )
        assert key_for(machine, machine.placement(8)) == key_for(
            other, other.placement(8)
        )

    def test_key_sensitive_to_seed_placement_and_args(self, machine):
        base = key_for(machine, machine.placement(8))
        reseeded = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=22
        )
        assert key_for(reseeded, reseeded.placement(8)) != base
        assert key_for(machine, machine.placement(16)) != base
        assert key_for(
            machine, machine.placement(10, policy="block")
        ) != key_for(machine, machine.placement(10))
        assert key_for(machine, machine.placement(8), samples=5) != base

    def test_fingerprint_is_json_plain(self, machine):
        import json

        fp = machine_fingerprint(machine)
        assert json.loads(json.dumps(fp)) == fp
        assert fp["seed"] == 21
        assert "v2" in PROFILE_PROTOCOL


class TestServing:
    def test_memoizes_in_process(self, machine):
        cache = ProfileCache()
        placement = machine.placement(8)
        a = cache.get_or_benchmark(machine, placement, 3, FAST_COMM_SIZES)
        b = cache.get_or_benchmark(machine, placement, 3, FAST_COMM_SIZES)
        assert a is b
        assert cache.misses == 1 and cache.hits == 1

    def test_cached_equals_fresh_bitwise(self, machine):
        placement = machine.placement(8)
        cached = profile_placement(machine, placement, comm_samples=3)
        fresh = profile_placement(
            machine, placement, comm_samples=3, cache=False
        )
        np.testing.assert_array_equal(cached.overhead, fresh.overhead)
        np.testing.assert_array_equal(cached.latency, fresh.latency)
        np.testing.assert_array_equal(cached.inv_bandwidth, fresh.inv_bandwidth)

    def test_persistence_round_trip(self, machine, tmp_path):
        placement = machine.placement(8)
        path = store_path_for(tmp_path)
        writer = ProfileCache()
        writer.configure(path)
        first = writer.get_or_benchmark(machine, placement, 3, FAST_COMM_SIZES)
        assert os.path.exists(path)

        reader = ProfileCache()
        reader.configure(path)
        second = reader.get_or_benchmark(machine, placement, 3, FAST_COMM_SIZES)
        assert reader.misses == 0 and reader.hits == 1
        np.testing.assert_array_equal(first.overhead, second.overhead)
        np.testing.assert_array_equal(first.latency, second.latency)
        np.testing.assert_array_equal(
            first.inv_bandwidth, second.inv_bandwidth
        )

    def test_detach_persistence(self, machine, tmp_path):
        cache = ProfileCache()
        cache.configure(store_path_for(tmp_path))
        cache.configure(None)
        cache.get_or_benchmark(
            machine, machine.placement(4), 3, FAST_COMM_SIZES
        )
        assert not os.path.exists(store_path_for(tmp_path))


class TestCampaignIntegration:
    def test_campaign_persists_profiles(self, tmp_path):
        from repro.explore import DesignSpace, run_campaign

        space = DesignSpace.from_dict({
            "axes": {"pattern": ["linear", "tree"]},
            "constants": {"preset": "xeon-8x2x4", "nprocs": 8, "runs": 2},
        })
        run_campaign("pc", space, "barrier-cost", store_dir=tmp_path)
        path = store_path_for(tmp_path)
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        # Two patterns share one placement: exactly one profile computed.
        assert len(lines) == 1
