"""Measured barrier timings on the simulated platform (§5.6.6 protocol).

The thesis collects worst-case times from 256 runs per process count and
reports their arithmetic mean.  :func:`measure_barrier` reproduces that
protocol on the event engine: each run executes the stage pattern with
fresh noise, the run's time is the latest process exit (all processes enter
at time zero, as in a tight timing loop), and the reported statistic is the
mean of the per-run worst cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.barriers.patterns import BarrierPattern
from repro.cluster.topology import Placement
from repro.machine.simmachine import SimMachine
from repro.simmpi.engine import simulate_stages_batch
from repro.util.validation import require_int


@dataclass(frozen=True)
class BarrierTiming:
    """Result of a measured barrier experiment."""

    pattern_name: str
    nprocs: int
    runs: int
    per_run_worst: np.ndarray  # worst-case process time per run [s]

    @property
    def mean_worst(self) -> float:
        """Thesis statistic: arithmetic mean of per-run worst cases."""
        return float(self.per_run_worst.mean())


def measure_barrier(
    machine: SimMachine,
    pattern: BarrierPattern,
    placement: Placement,
    runs: int = 64,
    payload_bytes=None,
    stream: str = "barrier-measure",
    provenance=None,
) -> BarrierTiming:
    """Run the measured-timing protocol for one pattern and placement.

    ``provenance`` (an :class:`repro.obs.provenance.EngineProvenance`)
    opts into event-provenance recording for critical-path extraction;
    the rng stream is deterministic in ``(stream, pattern, runs)``, so a
    provenance-enabled re-measure draws the exact noise of the original.
    """
    runs = require_int(runs, "runs")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if placement.nprocs != pattern.nprocs:
        raise ValueError(
            f"pattern is for P={pattern.nprocs} but placement has "
            f"P={placement.nprocs}"
        )
    truth = machine.comm_truth(placement)
    rng = machine.rng(stream, pattern.name, pattern.nprocs, runs)
    # All runs execute as one (runs, P) replication batch; the engine's
    # replication-major draw order replaces the old per-run loop's
    # interleaved scalar draws (docs/engine.md).
    exits = simulate_stages_batch(
        truth,
        pattern.stages,
        runs=runs,
        payload_bytes=payload_bytes,
        rng=rng,
        noise=machine.noise,
        provenance=provenance,
    )
    worst = exits.max(axis=1) if exits.shape[1] else np.zeros(runs)
    return BarrierTiming(
        pattern_name=pattern.name,
        nprocs=pattern.nprocs,
        runs=runs,
        per_run_worst=worst,
    )
