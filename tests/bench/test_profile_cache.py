"""Tests for the memoized comm-profile cache (repro.bench.profile_cache)."""

import base64
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.barriers.cost_model import CommParameters
from repro.barriers.evaluate import FAST_COMM_SIZES, profile_placement
from repro.bench import profile_cache as pc
from repro.bench.comm_bench import DEFAULT_REQUEST_COUNTS, benchmark_comm
from repro.bench.profile_cache import (
    ProfileCache,
    machine_fingerprint,
    profile_key,
    store_path_for,
)
from repro.cluster import presets
from repro.explore.cache import CorruptStoreWarning, ResultCache
from repro.explore.resilience import FaultPlan, FaultSpec, activate, deactivate
from repro.machine.simmachine import SimMachine
from repro.util import jsonl


@pytest.fixture
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=21
    )


def fresh_params(machine, placement):
    """A fresh benchmark, bypassing the cache: what a miss computes."""
    return benchmark_comm(
        machine, placement, samples=3, sizes=FAST_COMM_SIZES
    ).params


def key_for(machine, placement, samples=3):
    return profile_key(
        machine, placement, samples, FAST_COMM_SIZES,
        DEFAULT_REQUEST_COUNTS, "comm-bench", 4096,
    )


def assert_bit_identical(a, b):
    for name in ("overhead", "latency", "inv_bandwidth"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


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
        fresh = fresh_params(machine, placement)
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


# Matrices with every float64 class the record must carry exactly:
# signed zeros, subnormals, infinities, NaNs and ordinary values.
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308,
                     float("inf"), float("-inf")]),
)


def _matrices(p):
    return hnp.arrays(np.float64, (p, p), elements=_FLOATS)


@st.composite
def _params(draw):
    p = draw(st.integers(1, 64))
    inv = draw(st.none() | _matrices(p))
    return CommParameters(draw(_matrices(p)), draw(_matrices(p)), inv)


class TestRecordFormat:
    @settings(max_examples=60, deadline=None)
    @given(_params())
    def test_encode_decode_is_bit_exact(self, params):
        record = pc._params_to_record(params)
        assert_bit_identical(pc._params_from_record(record), params)

    def test_record_is_shape_plus_base64_little_endian_bytes(self):
        latency = np.arange(4.0).reshape(2, 2)
        record = pc._params_to_record(CommParameters(latency, latency))
        assert record["inv_bandwidth"] is None
        assert record["latency"] == {
            "shape": [2, 2],
            "f64le": base64.b64encode(latency.astype("<f8").tobytes()).decode(),
        }

    def test_served_matrices_are_read_only(self, machine):
        params = ProfileCache().get_or_benchmark(
            machine, machine.placement(4), 3, FAST_COMM_SIZES
        )
        for matrix in (params.overhead, params.latency, params.inv_bandwidth):
            assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            params.latency[0, 0] = 1.0

    def test_record_is_much_smaller_than_a_float_list(self, machine):
        import json

        params = ProfileCache().get_or_benchmark(
            machine, machine.placement(16), 3, FAST_COMM_SIZES
        )
        binary = len(json.dumps(pc._params_to_record(params)))
        listed = len(json.dumps({
            "overhead": params.overhead.tolist(),
            "latency": params.latency.tolist(),
            "inv_bandwidth": params.inv_bandwidth.tolist(),
        }))
        assert binary < 40 * 16 ** 2 < listed


def _good_record(machine, placement):
    params = fresh_params(machine, placement)
    return pc._params_to_record(params)


def _spoiled(record, how):
    bad = {name: (dict(field) if isinstance(field, dict) else field)
           for name, field in record.items()}
    if how == "missing-key":
        del bad["latency"]
    elif how == "bad-base64":
        bad["latency"]["f64le"] = "not base64!"
    elif how == "byte-count":
        bad["latency"]["f64le"] = bad["latency"]["f64le"][:-12]
    elif how == "not-square":
        p = bad["latency"]["shape"][0]
        bad["latency"]["shape"] = [p * p, 1]
    elif how == "list-format":
        bad["latency"] = [[0.0]]
    return bad


class TestBadRecords:
    @pytest.mark.parametrize("how", [
        "missing-key", "bad-base64", "byte-count", "not-square", "list-format",
    ])
    def test_undecodable_record_is_a_miss_and_superseded(
        self, machine, tmp_path, how
    ):
        placement = machine.placement(8)
        path = store_path_for(tmp_path)
        ResultCache(path).put(
            key_for(machine, placement),
            _spoiled(_good_record(machine, placement), how),
        )
        cache = ProfileCache()
        cache.configure(path)
        served = cache.get_or_benchmark(machine, placement, 3, FAST_COMM_SIZES)
        assert cache.misses == 1 and cache.hits == 0
        fresh = fresh_params(machine, placement)
        assert_bit_identical(served, fresh)

        assert list(ResultCache(path).keys()) == [key_for(machine, placement)]
        reader = ProfileCache()  # a later session: the re-append wins
        reader.configure(path)
        again = reader.get_or_benchmark(machine, placement, 3, FAST_COMM_SIZES)
        assert reader.misses == 0 and reader.hits == 1
        assert_bit_identical(again, fresh)

    def test_pre_bump_list_record_is_never_served(
        self, machine, tmp_path, monkeypatch
    ):
        placement = machine.placement(8)
        fresh = fresh_params(machine, placement)
        with monkeypatch.context() as patch:
            patch.setattr(pc, "PROFILE_PROTOCOL", "comm-bench/v2-batched-draws")
            old_key = key_for(machine, placement)
        assert old_key != key_for(machine, placement)
        path = store_path_for(tmp_path)
        # What the list-format code wrote, with values that would show if
        # served: the profile scaled by 2.
        ResultCache(path).put(old_key, {
            "overhead": (2 * fresh.overhead).tolist(),
            "latency": (2 * fresh.latency).tolist(),
            "inv_bandwidth": (2 * fresh.inv_bandwidth).tolist(),
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error", CorruptStoreWarning)  # still reads
            cache = ProfileCache()
            cache.configure(path)
            served = cache.get_or_benchmark(
                machine, placement, 3, FAST_COMM_SIZES
            )
            assert cache.misses == 1
            assert_bit_identical(served, fresh)
            assert set(ResultCache(path).keys()) == {
                old_key, key_for(machine, placement)
            }

    def test_torn_profile_append_is_quarantined_and_rebenchmarked(
        self, machine, tmp_path
    ):
        placement = machine.placement(8)
        path = store_path_for(tmp_path)
        writer = ProfileCache()
        writer.configure(path)
        activate(FaultPlan(
            faults=(FaultSpec(kind="torn-append", site="cache.put"),),
            state_dir=str(tmp_path / "faults"),
        ))
        try:
            first = writer.get_or_benchmark(
                machine, placement, 3, FAST_COMM_SIZES
            )
        finally:
            deactivate()
        with open(path, "rb") as fh:
            assert not fh.read().endswith(b"\n")  # the fault tore it

        reader = ProfileCache()
        with pytest.warns(CorruptStoreWarning):
            reader.configure(path)
        second = reader.get_or_benchmark(
            machine, placement, 3, FAST_COMM_SIZES
        )
        assert reader.misses == 1
        assert_bit_identical(first, second)
        assert os.path.exists(f"{path}.corrupt")

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # quarantined once, reported once
            third = ProfileCache()
            third.configure(path)
            served = third.get_or_benchmark(
                machine, placement, 3, FAST_COMM_SIZES
            )
        assert third.hits == 1 and third.misses == 0
        assert_bit_identical(served, first)


class TestLogReads:
    def test_configure_on_the_attached_path_does_not_reread(
        self, tmp_path, monkeypatch
    ):
        reads = []
        real_read = jsonl.read
        monkeypatch.setattr(
            jsonl, "read", lambda path, **kw: reads.append(path)
            or real_read(path, **kw),
        )
        cache = ProfileCache()
        path = store_path_for(tmp_path)
        cache.configure(path)
        cache.configure(path)
        cache.configure(os.fspath(path))
        assert reads == [path]
        cache.configure(store_path_for(tmp_path / "other"))
        assert len(reads) == 2

    def test_campaigns_on_one_store_parse_the_profile_log_once(
        self, tmp_path, monkeypatch
    ):
        from repro.explore import DesignSpace, run_campaign

        reads = []
        real_read = jsonl.read
        monkeypatch.setattr(
            jsonl, "read", lambda path, **kw: reads.append(os.fspath(path))
            or real_read(path, **kw),
        )
        for pattern in ("linear", "tree"):
            space = DesignSpace.from_dict({
                "axes": {"pattern": [pattern]},
                "constants": {"preset": "xeon-8x2x4", "nprocs": 4, "runs": 2},
            })
            run_campaign(f"pc-{pattern}", space, "barrier-cost",
                         store_dir=tmp_path)
        assert reads.count(store_path_for(tmp_path)) == 1
