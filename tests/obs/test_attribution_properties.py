"""Property tests (S3): attribution exactness over the input space.

For *every* pattern family, process count, replication count, and noise
seed hypothesis explores, each replication's per-category attribution
must sum bit-exactly — as :class:`fractions.Fraction` arithmetic over
the IEEE doubles on the path — to that replication's simulated makespan.
Same property one layer up for BSP superstep programs.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.barriers.patterns import (
    dissemination_barrier,
    linear_barrier,
    pairwise_exchange_barrier,
    tree_barrier,
)
from repro.bsplib import bsp_run
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.kernels import DAXPY
from repro.machine import SimMachine

FAMILIES = {
    "linear": linear_barrier,
    "tree": tree_barrier,
    "dissemination": dissemination_barrier,
    "pairwise": pairwise_exchange_barrier,
}


def _machine(seed: int, noise=None) -> SimMachine:
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
        noise=noise, seed=seed,
    )


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    p=st.integers(2, 16),
    runs=st.integers(1, 4),
    noisy=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=30, deadline=None)
def test_engine_attribution_sums_exactly_to_makespan(
    family, p, runs, noisy, seed
):
    from repro.simmpi.engine import simulate_stages_batch

    if family == "pairwise":
        p = 1 << (p.bit_length() - 1)
    pattern = FAMILIES[family](p)
    machine = _machine(7)
    truth = machine.comm_truth(machine.placement(pattern.nprocs))
    prov = obs.EngineProvenance()
    rng = np.random.default_rng(seed) if noisy else None
    exits = simulate_stages_batch(
        truth, pattern.stages, runs=runs, rng=rng, provenance=prov
    )
    paths = obs.extract_paths(prov)
    assert len(paths) == runs
    for r, path in enumerate(paths):
        assert obs.validate_path(path) == []
        assert path.makespan == exits[r].max()
        assert sum(
            path.category_totals().values(), Fraction(0)
        ) == Fraction(path.makespan)
        # The same telescoping holds per process and per scope: each
        # partition covers all hops once.
        assert sum(
            path.process_totals().values(), Fraction(0)
        ) == Fraction(path.makespan)
        assert sum(
            path.scope_totals().values(), Fraction(0)
        ) == Fraction(path.makespan)


@given(
    p=st.integers(2, 6),
    payload=st.integers(1, 24),
    use_gets=st.booleans(),
    use_sends=st.booleans(),
    runs=st.integers(1, 3),
    noisy=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_bsp_attribution_sums_exactly_to_makespan(
    p, payload, use_gets, use_sends, runs, noisy
):
    def program(ctx):
        pid = ctx.pid
        window = np.zeros(payload * ctx.nprocs)
        scratch = np.zeros(payload)
        ctx.push_reg(window)
        ctx.sync()
        src = np.arange(payload, dtype=float) + pid
        ctx.charge_kernel(DAXPY, 256 + 64 * pid)
        ctx.put((pid + 1) % p, src, window, offset=payload * pid)
        if use_gets:
            ctx.get((pid + 2) % p, window, 0, scratch, nelems=payload)
        if use_sends:
            ctx.send((pid + 1) % p, b"", src[: min(4, payload)])
            if ctx.qsize()[0]:
                ctx.move()
        ctx.sync()
        return 0.0

    result = bsp_run(
        _machine(7, noise=None if noisy else QUIET), p, program,
        label="prop-bsp", runs=runs, provenance=True,
    )
    makespans = np.atleast_2d(result.provenance.final_times).max(axis=1)
    paths = obs.extract_paths(result.provenance)
    assert len(paths) == runs
    for r, path in enumerate(paths):
        assert obs.validate_path(path) == []
        assert path.makespan == makespans[r]
        assert sum(
            path.category_totals().values(), Fraction(0)
        ) == Fraction(path.makespan)
