"""One-call measured-vs-predicted barrier evaluation.

The Chapter 5 experiment — benchmark the platform, predict a pattern's
cost from the extracted matrices, and measure the same pattern on the
event engine — used to live as a copy-pasted loop in every benchmark
script.  :func:`evaluate_barrier` is the thin API the exploration layer
(and any future sweep) calls per design point; :func:`profile_placement`
exposes the benchmark step separately so callers evaluating several
patterns on one placement can reuse a single profile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.barriers.cost_model import CommParameters, predict_barrier_cost
from repro.barriers.patterns import BarrierPattern
from repro.barriers.simulate import measure_barrier
from repro.cluster.topology import Placement
from repro.machine.simmachine import SimMachine

FAST_COMM_SIZES = tuple(2**k for k in range(0, 17, 4))


@dataclass(frozen=True)
class BarrierEvaluation:
    """Measured and predicted cost of one (pattern, placement) point."""

    pattern_name: str
    nprocs: int
    runs: int
    measured: float  # mean of per-run worst cases [s]
    predicted: float  # Eq. 5.4 critical-path prediction [s]
    num_stages: int
    total_messages: int

    @property
    def absolute_error(self) -> float:
        return self.predicted - self.measured

    @property
    def relative_error(self) -> float:
        return self.absolute_error / self.measured if self.measured else 0.0


def profile_placement(
    machine: SimMachine,
    placement: Placement,
    comm_samples: int = 5,
) -> CommParameters:
    """Benchmark-extracted model parameters for one placement (§5.6.3),
    over the message sizes ``FAST_COMM_SIZES``.

    Profiles are served through :mod:`repro.bench.profile_cache`: the
    benchmark is deterministic in (machine, cores, arguments), so a
    campaign pays for it once per node block, however many patterns and
    placements it evaluates on those nodes.  A served profile is
    bit-identical to a fresh :func:`repro.bench.comm_bench.benchmark_comm`
    of the same arguments over the placement's node block (every core on
    the nodes it touches), sliced to the placement's cores.
    """
    from repro.bench.profile_cache import PROFILE_CACHE

    return PROFILE_CACHE.get_or_benchmark(
        machine, placement, samples=comm_samples, sizes=FAST_COMM_SIZES
    )


def evaluate_barrier(
    machine: SimMachine,
    pattern: BarrierPattern,
    runs: int = 16,
    comm_samples: int = 5,
) -> BarrierEvaluation:
    """Measure and predict one barrier pattern on one machine, on the
    round-robin placement of its process count and that placement's
    :func:`profile_placement`."""
    placement = machine.placement(pattern.nprocs)
    params = profile_placement(machine, placement, comm_samples=comm_samples)
    timing = measure_barrier(machine, pattern, placement, runs=runs)
    predicted = predict_barrier_cost(pattern, params)
    return BarrierEvaluation(
        pattern_name=pattern.name,
        nprocs=pattern.nprocs,
        runs=runs,
        measured=timing.mean_worst,
        predicted=predicted,
        num_stages=pattern.num_stages,
        total_messages=pattern.total_messages,
    )
