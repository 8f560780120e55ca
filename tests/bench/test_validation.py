"""Stability of the §5.6.3 communication benchmark (§5.6.4).

The thesis accepts a benchmark protocol once its "reproducible
variability stabilised at approximately an order of magnitude lower than
the measured result".  These tests repeat ``benchmark_comm`` under
independent noise streams and check the per-pair relative spread of the
extracted latencies against that criterion.
"""

import numpy as np

from repro.bench.comm_bench import benchmark_comm
from repro.cluster import presets
from repro.cluster.noise import NoiseModel, QUIET
from repro.machine import SimMachine

FAST_SIZES = tuple(2**k for k in range(0, 17, 4))


def pair_spread(machine, nprocs, repeats, samples, field="latency"):
    """Per-pair (max - min) / median of the extracted ``field`` (latency by
    default) over ``repeats`` benchmark runs on independent streams,
    off-diagonal."""
    placement = machine.placement(nprocs)
    stack = np.stack([
        getattr(benchmark_comm(
            machine, placement, samples=samples, sizes=FAST_SIZES,
            stream=f"stability-{r}",
        ).params, field)
        for r in range(repeats)
    ])
    mask = ~np.eye(nprocs, dtype=bool)
    mid = np.median(stack, axis=0)[mask]
    mid = np.where(mid > 0, mid, 1.0)
    return (stack.max(axis=0)[mask] - stack.min(axis=0)[mask]) / mid


class TestBenchmarkStability:
    def test_quiet_machine_perfectly_stable(self):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
            noise=QUIET, seed=1,
        )
        spread = pair_spread(machine, 6, repeats=3, samples=3)
        assert spread.shape == (6 * 6 - 6,)
        assert spread.max() < 1e-9

    def test_default_noise_meets_criterion(self):
        """§5.6.4: variability an order of magnitude under the measurement."""
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=2
        )
        spread = pair_spread(machine, 8, repeats=4, samples=15)
        assert np.median(spread) <= 0.15

    def test_wild_noise_fails_criterion(self):
        """A platform too noisy for the protocol shows it — the thesis's
        signal to recalibrate the benchmark."""
        machine = SimMachine(
            presets.xeon_8x2x4_topology(),
            presets.xeon_8x2x4_params(),
            noise=NoiseModel(jitter_sigma=0.45, outlier_prob=0.2,
                             outlier_scale=30.0),
            seed=3,
        )
        spread = pair_spread(machine, 6, repeats=4, samples=5)
        assert np.median(spread) > 0.05

    def test_spread_shapes(self):
        machine = SimMachine(
            presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=5
        )
        p = 5
        for field in ("latency", "overhead"):
            spread = pair_spread(machine, p, repeats=2, samples=5,
                                    field=field)
            assert spread.shape == (p * p - p,)
