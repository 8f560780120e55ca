"""Computational kernel descriptors (Ch. 4).

The thesis replaces the single scalar "computation rate" of classic BSP with
*kernel-parametric* rates: operations are only comparable through the
execution time of a named kernel on a given processor (§3.3).  A
:class:`Kernel` couples

* the *model-facing* characteristics used by the rate model — flops and
  bytes moved per element, FMA eligibility, operand count — with
* an *executable* NumPy implementation, so programs really compute what the
  model charges for (init + apply, with a re-initialisation periodicity as
  in the thesis's benchmark framework, §4.1).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import require_int, require_nonnegative


@dataclass(frozen=True)
class Kernel:
    """One numerical kernel with model characteristics and a NumPy body."""

    name: str
    flops_per_element: float
    read_bytes_per_element: float
    write_bytes_per_element: float
    operand_arrays: int  # vectors touched; drives the memory-use metric
    dtype: np.dtype
    make_operands: Callable[[int, np.random.Generator], tuple]
    apply: Callable[[tuple], object]
    fma_eligible: bool = False  # can use fused multiply-accumulate (§3.3)
    periodicity: int = 0  # applications before operands must be rebuilt
    description: str = ""

    def __post_init__(self):
        require_nonnegative(self.flops_per_element, "flops_per_element")
        require_nonnegative(self.read_bytes_per_element, "read_bytes_per_element")
        require_nonnegative(self.write_bytes_per_element, "write_bytes_per_element")
        require_int(self.operand_arrays, "operand_arrays")
        if self.operand_arrays < 1:
            raise ValueError("operand_arrays must be >= 1")
        require_int(self.periodicity, "periodicity")

    @property
    def bytes_per_element(self) -> float:
        return self.read_bytes_per_element + self.write_bytes_per_element

    def memory_use(self, n: int) -> int:
        """Problem size in bytes as plotted by the thesis (Figs. 4.5-4.6):
        element count times operand width times the operand-vector count."""
        n = require_int(n, "n")
        if n < 0:
            raise ValueError("n must be >= 0")
        return n * self.operand_arrays * np.dtype(self.dtype).itemsize

    def operands(self, n: int) -> tuple:
        """Build fresh operand arrays for an ``n``-element application,
        drawn from a generator seeded with 0."""
        n = require_int(n, "n")
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.make_operands(n, np.random.default_rng(0))

    def run(self, operands: tuple):
        """Execute one application of the kernel on prepared operands."""
        return self.apply(operands)

    def flops(self, n: int) -> float:
        return self.flops_per_element * n


@dataclass
class KernelRegistry:
    """Name -> :class:`Kernel` lookup used by benchmarks and model setup."""

    _kernels: dict[str, Kernel] = field(default_factory=dict)

    def register(self, kernel: Kernel) -> Kernel:
        if kernel.name in self._kernels:
            raise ValueError(f"kernel {kernel.name!r} already registered")
        self._kernels[kernel.name] = kernel
        return kernel

    def get(self, name: str) -> Kernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise KeyError(
                f"unknown kernel {name!r}; known: {sorted(self._kernels)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._kernels)

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def __len__(self) -> int:
        return len(self._kernels)
