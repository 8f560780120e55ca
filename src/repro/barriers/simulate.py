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
from repro.simmpi.engine import row_batches, simulate_stages_batch
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


#: The rng stream name of a barrier measurement unless its caller names
#: another.
MEASURE_STREAM = "barrier-measure"

#: Most noise draws (rows x messages) of one stage that one grouped
#: engine call takes on: a group past it is split into several calls, so a
#: wide sweep's memory stays that of a few points.
GROUP_DRAW_CELLS = 1 << 18

#: Timings :func:`prefetch_barriers` measured ahead of the
#: :func:`measure_barrier` calls that ask for them, keyed by those calls'
#: arguments (:func:`_measure_key`), each with its machine, which keeps the
#: machine's ``id`` in the key its own.  A timing is served once; the next
#: prefetch drops what is left.
_prefetched: dict[tuple, tuple[SimMachine, BarrierTiming]] = {}


def _measure_key(machine, pattern, placement, runs, stream) -> tuple:
    return (
        id(machine), stream, runs, pattern.name, pattern.nprocs,
        b"".join(stage.tobytes() for stage in pattern.stages),
        placement.cores.tobytes(),
    )


def measure_barrier(
    machine: SimMachine,
    pattern: BarrierPattern,
    placement: Placement,
    runs: int = 64,
    payload_bytes=None,
    stream: str = MEASURE_STREAM,
    provenance=None,
) -> BarrierTiming:
    """Run the measured-timing protocol for one pattern and placement.

    ``provenance`` (an :class:`repro.obs.provenance.EngineProvenance`)
    opts into event-provenance recording for critical-path extraction;
    the rng stream is deterministic in ``(stream, pattern, runs)``, so a
    provenance-enabled re-measure draws the exact noise of the original.
    A timing :func:`prefetch_barriers` measured ahead for the same
    arguments is served instead of simulating again; it is bit-identical.
    """
    if _prefetched and payload_bytes is None and provenance is None:
        runs = require_int(runs, "runs")
        served = _prefetched.pop(
            _measure_key(machine, pattern, placement, runs, stream), None
        )
        if served is not None:
            return served[1]
    return measure_barriers(
        [(machine, runs)], pattern, placement, payload_bytes=payload_bytes,
        stream=stream, provenance=provenance,
    )[0]


def prefetch_barriers(groups) -> None:
    """Measure each ``(measures, pattern, placement)`` group ahead of the
    :func:`measure_barrier` calls that will ask for its timings.

    Each group is :func:`measure_barriers` input: ``(machine, runs)``
    pairs whose machines differ only in their seed, all measured in one
    engine pass, on the :data:`MEASURE_STREAM` streams.  The matching
    :func:`measure_barrier` call (same machine, pattern, placement and
    runs, the default stream, no payload and no provenance) then returns
    its timing without simulating.
    """
    _prefetched.clear()
    for measures, pattern, placement in groups:
        measures = list(measures)
        timings = measure_barriers(measures, pattern, placement)
        for (machine, runs), timing in zip(measures, timings):
            key = _measure_key(
                machine, pattern, placement, runs, MEASURE_STREAM
            )
            _prefetched[key] = (machine, timing)


def measure_barriers(
    measures,
    pattern: BarrierPattern,
    placement: Placement,
    payload_bytes=None,
    stream: str = MEASURE_STREAM,
    provenance=None,
) -> list[BarrierTiming]:
    """:func:`measure_barrier` for each ``(machine, runs)`` pair of
    ``measures``, in as few engine calls as :data:`GROUP_DRAW_CELLS`
    allows.

    The machines must be equal but for their seed (parameters, topology
    and noise model), so the first machine's comm truth of ``placement``
    is every machine's.  Each pair is one row group of the engine
    (:mod:`repro.simmpi.engine`), drawing from its own machine's stream,
    so every timing is bit-identical to its own :func:`measure_barrier`.
    ``provenance`` records one engine call, so it takes one pair.
    """
    measures = [(m, require_int(runs, "runs")) for m, runs in measures]
    if any(runs < 1 for _, runs in measures):
        raise ValueError("runs must be >= 1")
    if placement.nprocs != pattern.nprocs:
        raise ValueError(
            f"pattern is for P={pattern.nprocs} but placement has "
            f"P={placement.nprocs}"
        )
    if provenance is not None and len(measures) != 1:
        raise ValueError("provenance records one measurement at a time")
    first = measures[0][0]
    for machine, _ in measures[1:]:
        if machine is not first and (
            machine.params != first.params
            or machine.topology != first.topology
            or machine.noise != first.noise
        ):
            raise ValueError(
                "grouped barrier measurements need machines that differ "
                "only in their seed"
            )
    truth = first.comm_truth(placement)
    batches = [measures]
    if len(measures) > 1:
        widest = max(pattern.messages_per_stage(), default=0)
        batches = row_batches(measures, widest, GROUP_DRAW_CELLS)
    timings: list[BarrierTiming] = []
    for batch in batches:
        groups = [
            (machine.rng(stream, pattern.name, pattern.nprocs, runs), runs)
            for machine, runs in batch
        ]
        total = sum(runs for _, runs in batch)
        # All runs execute as one (runs, P) replication batch; the engine's
        # replication-major draw order replaces the old per-run loop's
        # interleaved scalar draws (docs/engine.md).
        exits = simulate_stages_batch(
            truth,
            pattern.stages,
            runs=total,
            payload_bytes=payload_bytes,
            rng=groups,
            noise=first.noise,
            provenance=provenance,
        )
        worst = exits.max(axis=1) if exits.shape[1] else np.zeros(total)
        start = 0
        for _, runs in batch:
            timings.append(BarrierTiming(
                pattern_name=pattern.name,
                nprocs=pattern.nprocs,
                runs=runs,
                per_run_worst=worst[start:start + runs].copy(),
            ))
            start += runs
    return timings

