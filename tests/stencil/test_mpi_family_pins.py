"""Pinned iteration streams of the MPI-family stencil cost models.

``run_mpi_stencil``, ``run_mpi_r_stencil`` and ``run_hybrid_stencil``
draw each iteration's per-rank compute noise and then the exchange
stages' engine noise from one generator, in a fixed order.  Each case
pins the sha256 of one run's ``iteration_seconds``, noisy and clean (on
a QUIET machine), so
a change to how the models price compute or call the engine that moves
any draw or any event time fails here with no tolerance.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.machine.simmachine import SimMachine
from repro.stencil import impls

MODELS = {
    "mpi": impls.run_mpi_stencil,
    "mpi-r": impls.run_mpi_r_stencil,
    "hybrid": impls.run_hybrid_stencil,
}

#: (nprocs, n): one node, and four nodes with remote exchanges.  Hybrid
#: runs one rank per node, so it only communicates at the second size.
SIZES = ((8, 48), (32, 96))

ITERATIONS = 5


def _machine(noisy: bool) -> SimMachine:
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
        noise=None if noisy else QUIET, seed=41,
    )


def _digest(a) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
    ).hexdigest()


#: sha256 of ``iteration_seconds`` for every (model, nprocs, n, noisy).
PINS = {
    ("mpi", 8, 48, True): (
        "8282bc52e5df7b2983a594715646466e"
        "b90285643699a77bf378666850d11a25"
    ),
    ("mpi", 8, 48, False): (
        "9fb7272e55f4fb304377e1cc800c36ba"
        "a9d35357a2b22813a2d27a2fd5ef23ef"
    ),
    ("mpi", 32, 96, True): (
        "e9642906076acbdb16969f69da2dcde4"
        "f5647469ca28b030d151d0f6e1719b90"
    ),
    ("mpi", 32, 96, False): (
        "bea356faadd22e34ed7967baf1098b0f"
        "c2a5e982edf0923907abe21dc85cdf66"
    ),
    ("mpi-r", 8, 48, True): (
        "a5459d2be26363543bcc5759c18591d2"
        "e42de93f0851ed7f51e2da8f6a82c2fe"
    ),
    ("mpi-r", 8, 48, False): (
        "a9ddd7faa318538c7c2c851397745a1c"
        "3a77c953fa819c7a1f495e39f79c7fa9"
    ),
    ("mpi-r", 32, 96, True): (
        "ad062a1082c855155f6ea3523972f23a"
        "cfeebc71efd84e00bf170430c0f9c43d"
    ),
    ("mpi-r", 32, 96, False): (
        "f46e3b7c19e20cd8119c3be887edb808"
        "d1872f41ed906c4c859e172778c5c96d"
    ),
    ("hybrid", 8, 48, True): (
        "072b79f80292fa396381429ca4c02197"
        "3d0db1e7fa7608d6223a49409cb57526"
    ),
    ("hybrid", 8, 48, False): (
        "649ef9a8e9ff16defa0d768f86b4875f"
        "3e11800c89687c819448cdfb72966488"
    ),
    ("hybrid", 32, 96, True): (
        "e61af6ba0c800280d29b01fd3c179794"
        "21762906bcbdf0b0c72e45883db4b0c0"
    ),
    ("hybrid", 32, 96, False): (
        "b840d3f3eb8500bfb15259657922f0a5"
        "d42db3428e06b2890910990c4439451c"
    ),
}


@pytest.mark.parametrize("noisy", [True, False])
@pytest.mark.parametrize("nprocs,n", SIZES)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_iteration_seconds_pinned(model, nprocs, n, noisy):
    result = MODELS[model](_machine(noisy), nprocs, n, ITERATIONS)
    assert result.iteration_seconds.shape == (ITERATIONS,)
    assert _digest(result.iteration_seconds) == PINS[(model, nprocs, n, noisy)]
