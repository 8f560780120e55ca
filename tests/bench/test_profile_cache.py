"""Tests for the memoized comm-profile cache (repro.bench.profile_cache)."""

import base64
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import obs
from repro.barriers.cost_model import CommParameters
from repro.barriers.evaluate import FAST_COMM_SIZES, profile_placement
from repro.bench import profile_cache as pc
from repro.bench.comm_bench import benchmark_comm
from repro.bench.profile_cache import (
    ProfileCache,
    machine_fingerprint,
    node_block,
    store_path_for,
)
from repro.cluster import presets
from repro.cluster.presets import make_preset_machine
from repro.cluster.topology import Placement
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
    """What a served profile must equal, bypassing the cache: a fresh
    benchmark of every core on the nodes the placement touches, sliced
    to the placement's cores in rank order."""
    topology = placement.topology
    nodes = sorted({topology.node_of(int(c)) for c in placement.cores})
    per_node = topology.cores_per_node
    block_cores = [n * per_node + i for n in nodes for i in range(per_node)]
    full = benchmark_comm(
        machine, Placement(topology, block_cores), samples=3,
        sizes=FAST_COMM_SIZES,
    ).params
    idx = [block_cores.index(int(c)) for c in placement.cores]
    return CommParameters(*(
        m[np.ix_(idx, idx)]
        for m in (full.overhead, full.latency, full.inv_bandwidth)
    ))


def counted(call):
    """Run ``call`` with telemetry on; return its result with the
    profile-cache hits and misses it recorded, folded from the events as
    ``explore stats`` folds them."""
    tele = obs.enable()
    before = len(tele.events())
    try:
        result = call()
        counters = obs.merged_metrics(tele.events()[before:])["counters"]
    finally:
        obs.disable()

    def total(name):
        return int(counters.get(name, {}).get("total", 0))

    return result, total("profile_cache.hits"), total("profile_cache.misses")


def key_for(machine, placement, samples=3):
    return pc._key(pc._key_prefix(machine, samples, FAST_COMM_SIZES), placement)


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

    def test_key_bytes_pinned(self):
        """Persisted profiles stay findable: the keys (truncated sha256 of
        the key JSON) of round-robin P = 8 and P = 12 on the preset at the
        production sample count, and of each one's node block."""
        machine = make_preset_machine("xeon-8x2x4")
        keys = {
            p: (key_for(machine, machine.placement(p), samples=5),
                key_for(machine, node_block(machine.placement(p)), samples=5))
            for p in (8, 12)
        }
        assert keys == {
            8: ("1d856791d7ad1e343baf4a8e", "1d856791d7ad1e343baf4a8e"),
            12: ("e04ae047125c0df691a4ad61", "3ba1922708c8979534934e3d"),
        }

    def test_fingerprint_runs_once_per_machine(self, machine, monkeypatch):
        """The key prefix is encoded once per machine and served from it,
        however many placements and repeats ask for it."""
        calls = []

        def counted_fingerprint(m):
            calls.append(m)
            return machine_fingerprint(m)

        monkeypatch.setattr(pc, "machine_fingerprint", counted_fingerprint)
        cache = ProfileCache()
        for _ in range(3):
            for nprocs in (8, 12, 16):
                cache.get_or_benchmark(
                    machine, machine.placement(nprocs), 3, FAST_COMM_SIZES
                )
        assert calls == [machine]
        other = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=22
        )
        cache.get_or_benchmark(other, other.placement(8), 3, FAST_COMM_SIZES)
        assert calls == [machine, other]

    def test_fingerprint_is_json_plain(self, machine):
        import json

        fp = machine_fingerprint(machine)
        assert json.loads(json.dumps(fp)) == fp
        assert fp["seed"] == 21


class TestServing:
    def test_memoizes_in_process(self, machine):
        for nprocs in (8, 12):  # all of node 0; a slice of nodes 0-1
            cache = ProfileCache()
            placement = machine.placement(nprocs)
            a, hits, misses = counted(lambda: cache.get_or_benchmark(
                machine, placement, 3, FAST_COMM_SIZES
            ))
            assert (hits, misses) == (0, 1)
            b, hits, misses = counted(lambda: cache.get_or_benchmark(
                machine, placement, 3, FAST_COMM_SIZES
            ))
            assert a is b
            assert (hits, misses) == (1, 0)

    def test_cached_equals_fresh_bitwise(self, machine):
        for nprocs in (8, 12):
            placement = machine.placement(nprocs)
            cached = profile_placement(machine, placement, comm_samples=3)
            assert_bit_identical(cached, fresh_params(machine, placement))

    def test_persistence_round_trip(self, machine, tmp_path):
        placement = machine.placement(8)
        path = store_path_for(tmp_path)
        writer = ProfileCache()
        writer.configure(path)
        first = writer.get_or_benchmark(machine, placement, 3, FAST_COMM_SIZES)
        assert os.path.exists(path)

        reader = ProfileCache()
        reader.configure(path)
        second, hits, misses = counted(lambda: reader.get_or_benchmark(
            machine, placement, 3, FAST_COMM_SIZES
        ))
        assert (hits, misses) == (1, 0)
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


class TestNodeBlocks:
    """A placement is served as a slice of its node block's profile."""

    @pytest.mark.parametrize("policy", ["round_robin", "block"])
    @pytest.mark.parametrize("nprocs", [1, 2, 8, 9, 16, 64])
    def test_served_is_the_block_benchmark_sliced(
        self, machine, policy, nprocs
    ):
        placement = machine.placement(nprocs, policy=policy)
        served = ProfileCache().get_or_benchmark(
            machine, placement, 3, FAST_COMM_SIZES
        )
        assert_bit_identical(served, fresh_params(machine, placement))

    def test_115_processes_on_ten_nodes(self):
        machine = presets.make_preset_machine("cluster-10x2x6", seed=5)
        placement = machine.placement(115)
        assert node_block(placement).nprocs == 120
        served = ProfileCache().get_or_benchmark(
            machine, placement, 3, FAST_COMM_SIZES
        )
        assert_bit_identical(served, fresh_params(machine, placement))

    def test_non_prefix_nodes_in_shuffled_rank_order(self, machine):
        # Cores of nodes 1 (8-15) and 3 (24-31), ranks in no core order.
        placement = Placement(machine.topology, [27, 9, 30, 8, 14, 25, 24])
        block = node_block(placement)
        assert block.cores.tolist() == [*range(8, 16), *range(24, 32)]
        served = ProfileCache().get_or_benchmark(
            machine, placement, 3, FAST_COMM_SIZES
        )
        assert_bit_identical(served, fresh_params(machine, placement))
        assert served.latency[0, 1] > served.latency[1, 3]  # remote > local

    def test_sweep_appends_one_record_per_block(self, machine, tmp_path):
        path = store_path_for(tmp_path)
        cache = ProfileCache()
        cache.configure(path)
        for nprocs in range(2, 17):
            cache.get_or_benchmark(
                machine, machine.placement(nprocs), 3, FAST_COMM_SIZES
            )
        # P <= 8 sits on node 0, P = 9..16 on nodes 0-1: two blocks.
        assert len(jsonl.read(path)) == 2
        assert cache.misses == 2  # the probe the benchmark ledger reads


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
        for nprocs in (4, 8):  # a slice of node 0's block; all of it
            params = ProfileCache().get_or_benchmark(
                machine, machine.placement(nprocs), 3, FAST_COMM_SIZES
            )
            for matrix in (
                params.overhead, params.latency, params.inv_bandwidth
            ):
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
    # placement(8) is all of node 0, so it is its own node block and its
    # key is the key of the record the cache stores.

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
        served, hits, misses = counted(lambda: cache.get_or_benchmark(
            machine, placement, 3, FAST_COMM_SIZES
        ))
        assert (hits, misses) == (0, 1)
        fresh = fresh_params(machine, placement)
        assert_bit_identical(served, fresh)

        assert list(ResultCache(path).keys()) == [key_for(machine, placement)]
        reader = ProfileCache()  # a later session: the re-append wins
        reader.configure(path)
        again, hits, misses = counted(lambda: reader.get_or_benchmark(
            machine, placement, 3, FAST_COMM_SIZES
        ))
        assert (hits, misses) == (1, 0)
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
            served, _, misses = counted(lambda: cache.get_or_benchmark(
                machine, placement, 3, FAST_COMM_SIZES
            ))
            assert misses == 1
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
        second, _, misses = counted(lambda: reader.get_or_benchmark(
            machine, placement, 3, FAST_COMM_SIZES
        ))
        assert misses == 1
        assert_bit_identical(first, second)
        assert os.path.exists(f"{path}.corrupt")

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # quarantined once, reported once
            third = ProfileCache()
            third.configure(path)
            served, hits, misses = counted(lambda: third.get_or_benchmark(
                machine, placement, 3, FAST_COMM_SIZES
            ))
        assert (hits, misses) == (1, 0)
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
