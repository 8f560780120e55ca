"""The event engine's stage-plan cache.

Each stage's index plan (senders, receivers, degrees, slot layouts, node
maps) is a pure function of the stage's contents and the placement's node
map, so the engine caches it in a bounded LRU keyed on exactly those
bytes.  These tests pin the cache's contract: bounded, read-only,
bit-identical to a cold build, keyed on the node map, and safe under the
BSP runtime's threads.
"""

import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from repro.barriers.patterns import dissemination_barrier
from repro.bsplib import bsp_run
from repro.cluster import presets
from repro.kernels import DAXPY
from repro.machine.simmachine import SimMachine
from repro.simmpi import engine
from repro.simmpi.engine import PLAN_CACHE_SIZE, simulate_stages_batch


@pytest.fixture
def machine():
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=21
    )


def _plan(stage, placement):
    stage = np.asarray(stage, dtype=bool)
    return engine._stage_plan(stage.tobytes(), placement.nodes.tobytes())


def _arrays(plan):
    """Every ndarray of a plan and of its FIFO layouts, by name."""
    out = {}
    for prefix, holder in (
        ("", plan),
        ("tx_fifo.", plan.tx_fifo),
        ("rx_fifo.", plan.rx_fifo),
        ("recv_fifo.", plan.recv_fifo),
    ):
        for f in fields(holder) if holder is not None else ():
            value = getattr(holder, f.name)
            if isinstance(value, np.ndarray):
                out[prefix + f.name] = value
    return out


def test_size_never_exceeds_bound(machine):
    p = 20
    truth = machine.comm_truth(machine.placement(p))
    stages = []
    for i in range(p):
        for j in range(p):
            if i != j:
                stage = np.zeros((p, p), dtype=bool)
                stage[i, j] = True
                stages.append(stage)
    assert len(stages) > PLAN_CACHE_SIZE
    engine._stage_plan.cache_clear()
    simulate_stages_batch(truth, stages)
    info = engine._stage_plan.cache_info()
    assert info.misses == len(stages)
    assert info.currsize == info.maxsize == PLAN_CACHE_SIZE


def test_cached_arrays_read_only(machine):
    placement = machine.placement(16)
    plan = _plan(dissemination_barrier(16).stages[0], placement)
    arrays = _arrays(plan)
    assert {"src", "dst", "tx", "tx_fifo.dest", "recv_fifo.msgs"} <= set(arrays)
    for name, array in arrays.items():
        assert not array.flags.writeable, name
    with pytest.raises(ValueError):
        plan.src[0] = 3


def test_hit_is_bit_identical_to_cold_build(machine):
    pattern = dissemination_barrier(16)
    placement = machine.placement(16)
    truth = machine.comm_truth(placement)

    def run():
        return simulate_stages_batch(
            truth, pattern.stages, runs=3, rng=machine.rng("plans"),
            noise=machine.noise,
        )

    engine._stage_plan.cache_clear()
    cold_plans = [_plan(s, placement) for s in pattern.stages]
    cold = run()
    hits = engine._stage_plan.cache_info().hits
    warm = run()
    assert engine._stage_plan.cache_info().hits > hits
    assert cold.tobytes() == warm.tobytes()

    engine._stage_plan.cache_clear()
    for stage, cached in zip(pattern.stages, cold_plans):
        rebuilt = _plan(stage, placement)
        assert rebuilt is not cached
        a, b = _arrays(cached), _arrays(rebuilt)
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].dtype == b[name].dtype, name
            assert a[name].tobytes() == b[name].tobytes(), name
        assert cached.pad_width == rebuilt.pad_width


def test_node_map_is_part_of_the_key(machine):
    stage = dissemination_barrier(16).stages[0]
    spread = machine.placement(16, policy="round_robin")
    packed = machine.placement(16, policy="block")
    assert spread.nodes.tolist() != packed.nodes.tolist()
    engine._stage_plan.cache_clear()
    a, b = _plan(stage, spread), _plan(stage, packed)
    assert engine._stage_plan.cache_info().misses == 2
    assert a is not b
    assert a.src.tolist() == b.src.tolist()
    assert a.src_nodes.tolist() == spread.nodes[a.src].tolist()
    assert b.src_nodes.tolist() == packed.nodes[b.src].tolist()
    assert a.msg_remote.tolist() != b.msg_remote.tolist()


def test_concurrent_bsp_runs_share_the_cache_safely(machine):
    """The BSP runtime resolves supersteps on its SPMD threads; runs on
    parallel threads must each get the result of a serial run."""

    def program(ctx):
        p, pid = ctx.nprocs, ctx.pid
        window = np.zeros(8 * p)
        ctx.push_reg(window)
        ctx.sync()
        for _ in range(3):
            ctx.charge_kernel(DAXPY, 512)
            ctx.put((pid + 1) % p, np.ones(8), window, offset=8 * pid)
            ctx.sync()

    sizes = [4, 6, 8, 12, 16, 16]

    def run(k):
        result = bsp_run(machine, sizes[k], program, label=f"plans-{k}", runs=2)
        return np.concatenate([
            np.ravel(rec.exit_times) for rec in result.supersteps
        ])

    engine._stage_plan.cache_clear()
    serial = [run(k) for k in range(len(sizes))]
    engine._stage_plan.cache_clear()
    results = [None] * len(sizes)
    errors = []

    def worker(k):
        try:
            results[k] = run(k)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(k,)) for k in range(len(sizes))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the plan builds finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    for k in range(len(sizes)):
        assert results[k].tobytes() == serial[k].tobytes()
