"""One immutable machine per argument set, and what it memoises.

``make_preset_machine`` shares one :class:`SimMachine` per (preset,
nodes, seed, noise); the machine serves its placements once built.
Sharing is safe only because nothing can change a machine, so the tests
pin both halves: identity where things are shared, and a raise wherever
a shared value could be written.
"""

import sys
import threading
from types import MappingProxyType

import numpy as np
import pytest

from repro.barriers.patterns import dissemination_barrier
from repro.barriers.simulate import measure_barrier
from repro.bsplib.runtime import bsp_run
from repro.cluster import presets
from repro.cluster.noise import QUIET, NoiseModel
from repro.cluster.presets import (
    MACHINE_CACHE_SIZE,
    ClusterPreset,
    make_preset_machine,
    register_preset,
)
from repro.cluster.topology import Relation
from repro.kernels.numeric import DAXPY
from repro.machine.simmachine import SimMachine


class TestSharedPresetMachine:
    def test_equal_arguments_return_the_same_machine(self):
        machine = make_preset_machine("xeon-8x2x4", seed=5)
        assert make_preset_machine("xeon-8x2x4", seed=5) is machine
        assert make_preset_machine(
            "xeon-8x2x4", seed=5, noise=NoiseModel()
        ) is machine  # None means the default noise model
        scaled = make_preset_machine("xeon-8x2x4", nodes=3, seed=5)
        assert make_preset_machine("xeon-8x2x4", nodes=3, seed=5) is scaled

    @pytest.mark.parametrize("change", [
        {"seed": 6}, {"nodes": 3}, {"nodes": 8}, {"noise": QUIET},
    ])
    def test_different_arguments_return_a_different_machine(self, change):
        base = make_preset_machine("xeon-8x2x4", seed=5)
        other = make_preset_machine(
            "xeon-8x2x4", **{"seed": 5, **change}
        )
        assert other is not base

    def test_arguments_are_validated_before_the_lookup(self):
        make_preset_machine("xeon-8x2x4", nodes=2, seed=5)
        with pytest.raises(TypeError, match="seed"):
            make_preset_machine("xeon-8x2x4", nodes=2, seed=5.0)
        with pytest.raises(TypeError, match="nodes"):
            make_preset_machine("xeon-8x2x4", nodes=2.0, seed=5)

    def test_a_re_registered_preset_gets_its_own_machine(self):
        original = presets.PRESETS["xeon-8x2x4"]
        machine = make_preset_machine("xeon-8x2x4", seed=5)
        try:
            register_preset(ClusterPreset(
                name="xeon-8x2x4",
                params_factory=presets.xeon_8x2x4_ib_params,
                topology_factory=presets.xeon_8x2x4_topology,
            ))
            other = make_preset_machine("xeon-8x2x4", seed=5)
            assert other is not machine
            assert other.params == presets.xeon_8x2x4_ib_params()
        finally:
            register_preset(original)
        assert make_preset_machine("xeon-8x2x4", seed=5) is machine

    def test_the_cache_is_bounded(self):
        first = make_preset_machine("athlon-x2", seed=0)
        for seed in range(1, MACHINE_CACHE_SIZE + 1):
            make_preset_machine("athlon-x2", seed=seed)
        assert make_preset_machine("athlon-x2", seed=0) is not first


class TestImmutable:
    def test_assigning_or_deleting_an_attribute_raises(self):
        machine = make_preset_machine("xeon-8x2x4")
        for name, value in [("seed", 1), ("noise", QUIET), ("extra", 0)]:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(machine, name, value)
        with pytest.raises(AttributeError, match="immutable"):
            del machine.params
        assert machine.seed == 2012

    def test_params_mappings_are_read_only(self):
        params = make_preset_machine("xeon-8x2x4-fma").params
        link = params.links[Relation.REMOTE]
        with pytest.raises(TypeError):
            params.links[Relation.REMOTE] = link
        with pytest.raises(TypeError):
            params.socket_rate_scale[0] = 1.0
        assert isinstance(params.links, MappingProxyType)
        assert params.socket_rate_scale[0] == 2.0

    def test_params_copy_the_mappings_they_are_given(self):
        base = presets.xeon_8x2x4_params()
        links = dict(base.links)
        scale = {0: 2.0}
        params = type(base)(links=links, core=base.core, socket_rate_scale=scale)
        links[Relation.REMOTE] = links[Relation.SAME_SOCKET]
        scale[0] = 3.0
        assert params.links[Relation.REMOTE] == base.links[Relation.REMOTE]
        assert params.socket_rate_scale == {0: 2.0}
        assert params == type(base)(
            links=base.links, core=base.core, socket_rate_scale={0: 2.0}
        )


class TestMemoisedOnTheMachine:
    @pytest.fixture
    def machine(self):
        return SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=3
        )

    def test_a_placement_is_built_once(self, machine):
        for policy in ("round_robin", "block"):
            placement = machine.placement(12, policy=policy)
            assert machine.placement(12, policy=policy) is placement
            for array in (placement.cores, placement.nodes, placement.sockets):
                assert not array.flags.writeable
        assert machine.placement(12) is not machine.placement(12, "block")

    def test_a_served_placement_cannot_be_changed(self, machine):
        placement = machine.placement(4)
        other = presets.athlon_x2_topology()
        with pytest.raises(AttributeError, match="immutable"):
            placement.topology = other
        with pytest.raises(AttributeError, match="immutable"):
            del placement.cores
        assert machine.placement(4).topology is machine.topology

    def test_invalid_placements_still_raise(self, machine):
        machine.placement(1)
        with pytest.raises(TypeError, match="nprocs"):
            machine.placement(True)
        with pytest.raises(ValueError, match="policy"):
            machine.placement(4, policy="scatter")
        with pytest.raises(ValueError, match="nprocs"):
            machine.placement(65)

    def test_derived_values_are_built_once_per_key(self, machine):
        calls = []

        def build():
            calls.append(1)
            return object()

        value = machine.derived(("test", 1), build)
        assert machine.derived(("test", 1), build) is value
        assert machine.derived(("test", 2), build) is not value
        assert len(calls) == 2


def _barrier_program(ctx):
    p, pid = ctx.nprocs, ctx.pid
    window = np.zeros(8 * p)
    ctx.push_reg(window)
    ctx.sync()
    for _ in range(2):
        ctx.charge_kernel(DAXPY, 512)
        ctx.put((pid + 1) % p, np.ones(8), window, offset=8 * pid)
        ctx.sync()


def _work(machine, k):
    """Task ``k``: a barrier measurement or a BSP run on ``machine``, and
    the placement it ran on."""
    nprocs = (4, 6, 8, 12)[k % 4]
    placement = machine.placement(nprocs)
    if k % 2:
        result = bsp_run(machine, nprocs, _barrier_program, label=f"t{k}",
                         runs=2)
        times = np.concatenate(
            [np.ravel(rec.exit_times) for rec in result.supersteps]
        )
    else:
        times = measure_barrier(
            machine, dissemination_barrier(nprocs), placement, runs=4
        ).per_run_worst
    return times.tobytes(), placement


def test_threads_on_one_shared_machine_match_a_serial_run():
    """Eight threads race the cold builds of one machine's placements:
    each gets a serial run's result, and all threads share one placement
    per process count."""
    topology, params = presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params()
    serial_machine = SimMachine(topology, params, seed=9)
    serial = [_work(serial_machine, k)[0] for k in range(8)]
    shared = SimMachine(topology, params, seed=9)
    results = [None] * 8
    errors = []

    def worker(k):
        try:
            results[k] = _work(shared, k)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the cold builds finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert [r[0] for r in results] == serial
    for k in range(4):
        _, placement = results[k]
        _, other_placement = results[k + 4]
        assert other_placement is placement is shared.placement(placement.nprocs)
