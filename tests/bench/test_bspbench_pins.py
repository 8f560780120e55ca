"""Pinned h-relation streams of the bspbench emulation.

``measure_h_relations`` measures ``samples`` replications per h from one
generator, each drawn as a separate ``runs=1`` call would draw it.  Each
case pins the sha256 of the ``(hs, times)`` output, so a change that moves
any draw fails here with no tolerance; the per-sample loop it replaced
stays here as its oracle.
"""

import hashlib

import numpy as np
import pytest

from repro.barriers.patterns import all_to_all_barrier, dissemination_barrier
from repro.bench import bspbench
from repro.bench.bspbench import measure_h_relations
from repro.bench.stats import median
from repro.cluster import presets
from repro.machine.simmachine import SimMachine
from repro.simmpi.engine import row_batches, simulate_stages_batch


def _machine() -> SimMachine:
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=23
    )


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


#: sha256 of ``(hs, times)`` per process count (round-robin placement).
H_RELATION_PINS = {
    4: (
        "04263210c242c046469ed4c52bab1d3f"
        "5b95f17f46c107dc9678b1215563dc29"
    ),
    16: (
        "a6f7ed2c55d07c7182ed827bd780db14"
        "00309a9707de61caa23963f9539c5d16"
    ),
}


@pytest.mark.parametrize("nprocs", sorted(H_RELATION_PINS))
def test_h_relation_stream_pinned(nprocs):
    hs, times = measure_h_relations(
        _machine(), nprocs, h_values=(0, 1, 17, 64, 255), samples=5
    )
    assert hs == [0, 1, 17, 64, 255]
    assert _digest(hs, times) == H_RELATION_PINS[nprocs]



def _loop_oracle(machine, nprocs, h_values, samples):
    """The per-sample loop: one ``runs=1`` engine call per (h, sample)."""
    truth = machine.comm_truth(machine.placement(nprocs))
    rng = machine.rng("bspbench-h", nprocs)
    sync = dissemination_barrier(nprocs)
    stages = list(all_to_all_barrier(nprocs).stages) + list(sync.stages)
    hs, times = [], []
    for h in sorted(set(int(v) for v in h_values)):
        per_pair = 0.0
        if h > 0 and nprocs > 1:
            per_pair = h * bspbench.WORD_BYTES / (nprocs - 1)
        payloads = [per_pair] + [0.0] * len(sync.stages)
        worst = []
        for _ in range(samples):
            exits = simulate_stages_batch(
                truth, stages, payload_bytes=payloads, rng=rng,
                noise=machine.noise,
            )[0]
            worst.append(float(exits.max()))
        hs.append(h)
        times.append(median(worst))
    return hs, times


@pytest.mark.parametrize("nprocs", [1, 2, 3, 16, 24])
@pytest.mark.parametrize("samples", [3, 9])
def test_grouped_sweep_equals_per_sample_loop(nprocs, samples):
    h_values = (255, 0, 17, 17, 100)
    hs, times = measure_h_relations(
        _machine(), nprocs, h_values=h_values, samples=samples
    )
    want_hs, want_times = _loop_oracle(_machine(), nprocs, h_values, samples)
    assert hs == want_hs
    assert np.array(times).tobytes() == np.array(want_times).tobytes()


@pytest.mark.parametrize("cells", [1, 600, 1 << 30])
def test_budget_split_keeps_values(monkeypatch, cells):
    """Any draw budget, from one row per call to one call per P, gives the
    same times: each batch continues the stream where the last one left it."""
    want = measure_h_relations(_machine(), 16, samples=3)
    monkeypatch.setattr(bspbench, "H_RELATION_DRAW_CELLS", cells)
    calls = []
    real = bspbench.simulate_stages_batch

    def counted(*args, **kwargs):
        calls.append(kwargs["runs"])
        return real(*args, **kwargs)

    monkeypatch.setattr(bspbench, "simulate_stages_batch", counted)
    got = measure_h_relations(_machine(), 16, samples=3)
    assert got == want
    assert sum(calls) == 48
    assert max(calls) == {1: 1, 600: 2, 1 << 30: 48}[cells]


def test_row_batches_bound_rows_by_width():
    pairs = [("a", 2), ("b", 3), ("c", 9), ("d", 1), ("e", 1)]
    batches = list(row_batches(pairs, 10, 50))
    assert batches == [[("a", 2), ("b", 3)], [("c", 9)], [("d", 1), ("e", 1)]]
    assert list(row_batches([], 10, 50)) == []
