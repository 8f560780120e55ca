"""L1 BLAS footprint sweep (§4.2, Figs. 4.5-4.6).

Page-locked batches of 64 consecutive runs per problem size, median time
reported as a function of *memory use in bytes*.  In-cache sizes show the
linear time/size relationship; growing past the L1 capacity exposes the
nonlinearity that motivates the piecewise-linear treatment of §4.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.stats import median
from repro.kernels.base import Kernel
from repro.machine.simmachine import SimMachine
from repro.util.validation import require_int


@dataclass(frozen=True)
class SweepPoint:
    """Median timing of one kernel at one problem size."""

    n: int
    memory_use_bytes: int
    median_seconds: float


@dataclass(frozen=True)
class KernelSweep:
    """A full footprint sweep for one kernel."""

    kernel_name: str
    points: tuple[SweepPoint, ...]

    def memory_axis(self) -> np.ndarray:
        return np.array([p.memory_use_bytes for p in self.points], dtype=float)

    def time_axis(self) -> np.ndarray:
        return np.array([p.median_seconds for p in self.points], dtype=float)

    def gradient_between(self, lo_bytes: float, hi_bytes: float) -> float:
        """Mean seconds-per-byte over points inside [lo, hi] — used to
        detect the cache knee by comparing segment gradients."""
        mem = self.memory_axis()
        t = self.time_axis()
        mask = (mem >= lo_bytes) & (mem <= hi_bytes)
        if mask.sum() < 2:
            raise ValueError("need at least two points in the window")
        mem, t = mem[mask], t[mask]
        return float(np.polyfit(mem, t, 1)[0])


def sweep_kernel(
    machine: SimMachine,
    core: int,
    kernel: Kernel,
    sizes,
    batch: int = 64,
) -> KernelSweep:
    """Median-of-batch sweep of one kernel over element counts ``sizes``."""
    batch = require_int(batch, "batch")
    if batch < 3:
        raise ValueError("batch must be >= 3")
    rng = machine.rng("blas-sweep", kernel.name, core)
    points = []
    for n in sizes:
        n = require_int(n, "size")
        times = [
            machine.kernel_time(core, kernel, n, reps=1, rng=rng)
            for _ in range(batch)
        ]
        points.append(
            SweepPoint(
                n=n,
                memory_use_bytes=kernel.memory_use(n),
                median_seconds=median(times),
            )
        )
    return KernelSweep(kernel_name=kernel.name, points=tuple(points))


def in_cache_sizes(kernel: Kernel, l1_bytes: int, points: int = 16) -> list[int]:
    """Element counts whose memory use stays within the L1 capacity
    (the Fig. 4.5 x-axis)."""
    require_int(l1_bytes, "l1_bytes")
    per_element = kernel.memory_use(1)
    max_n = l1_bytes // per_element
    if max_n < points:
        raise ValueError("cache too small for the requested point count")
    return [int(n) for n in np.linspace(max_n / points, max_n, points)]


def beyond_cache_sizes(kernel: Kernel, limit_bytes: int, points: int = 24) -> list[int]:
    """Element counts sweeping from well inside cache out to ``limit_bytes``
    of memory use (the Fig. 4.6 x-axis)."""
    require_int(limit_bytes, "limit_bytes")
    per_element = kernel.memory_use(1)
    max_n = limit_bytes // per_element
    if max_n < points:
        raise ValueError("limit too small for the requested point count")
    return [int(n) for n in np.linspace(max_n / points, max_n, points)]
