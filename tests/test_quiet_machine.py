"""A noise-free run is a run on a QUIET machine.

Noise is a property of the simulated platform (``SimMachine.noise``),
not a switch on each simulator call.  Two checks keep it that way:

* noise-free means seed-free: on a machine built with ``noise=QUIET``
  every simulator's times are the same whatever the machine seed, so a
  QUIET machine is a complete way to ask for a clean run;
* no function or method under ``src/repro`` takes a ``noisy`` parameter,
  so a second way to ask for one does not come back.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.bsplib import bsp_run
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.kernels import DAXPY
from repro.machine import SimMachine
from repro.spinlocks import simulate_spinlock
from repro.stencil import (
    measure_halo_iteration,
    run_bsp_stencil,
    run_hybrid_stencil,
    run_mpi_r_stencil,
    run_mpi_stencil,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _quiet(seed: int) -> SimMachine:
    return SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(),
        noise=QUIET, seed=seed,
    )


def _bsp_program(ctx):
    p, pid = ctx.nprocs, ctx.pid
    window = np.zeros(16 * p)
    scratch = np.zeros(16)
    ctx.push_reg(window)
    ctx.sync()
    src = np.arange(16, dtype=float) + pid
    for step in range(2):
        ctx.charge_kernel(DAXPY, 512 + 128 * pid)
        ctx.put((pid + 1 + step) % p, src, window, offset=16 * pid)
        ctx.get((pid + 2) % p, window, 0, scratch, nelems=16)
        ctx.send((pid + 1) % p, b"", src[:4])
        ctx.sync()


def _bsp_times(machine):
    result = bsp_run(machine, 6, _bsp_program, label="quiet", runs=3)
    return [result.final_times] + [rec.exit_times for rec in result.supersteps]


SIMULATORS = {
    "bsp_run": _bsp_times,
    "run_bsp_stencil": lambda m: [run_bsp_stencil(
        m, 16, 64, 3, execute_numerics=False, runs=3
    ).iteration_seconds],
    "run_mpi_stencil": lambda m: [
        run_mpi_stencil(m, 16, 64, 3).iteration_seconds
    ],
    "run_mpi_r_stencil": lambda m: [
        run_mpi_r_stencil(m, 16, 64, 3).iteration_seconds
    ],
    "run_hybrid_stencil": lambda m: [
        run_hybrid_stencil(m, 32, 96, 3).iteration_seconds
    ],
    "measure_halo_iteration": lambda m: [
        measure_halo_iteration(m, 16, 96, 2, cycles=3, runs=4)
    ],
    # The queue lock's handoff order is FIFO; the other algorithms draw
    # their winner schedule from the machine seed, which is part of the
    # experiment, not its noise.
    "simulate_spinlock": lambda m: [simulate_spinlock(
        m, "mcs", m.placement(8, policy="block"), runs=5
    ).per_acquisition],
}


@pytest.mark.parametrize("simulator", sorted(SIMULATORS))
def test_quiet_times_do_not_depend_on_the_seed(simulator):
    run = SIMULATORS[simulator]
    first, second = run(_quiet(seed=3)), run(_quiet(seed=2012))
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def noisy_parameters(tree: ast.Module) -> list[int]:
    """Line numbers of every function, method or lambda in ``tree`` that
    takes a parameter named ``noisy``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      args.vararg, args.kwarg]
            if any(a is not None and a.arg == "noisy" for a in params):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("snippet", [
    "def f(noisy=True): pass",
    "def f(x, *, noisy): pass",
    "def f(noisy, /): pass",
    "class C:\n    def m(self, noisy=False): pass",
    "g = lambda noisy: noisy",
])
def test_detector_flags_each_kind_of_parameter(snippet):
    assert len(noisy_parameters(ast.parse(snippet))) == 1


def test_detector_ignores_other_uses():
    other = (
        "def f(point):\n    return point.get('noisy', True)\n"
        "def g(results):\n    return results.filter(noisy=False)\n"
        "def _noisy(noise, rng, values): pass\n"
    )
    assert noisy_parameters(ast.parse(other)) == []


def test_no_function_takes_a_noisy_parameter():
    found = [
        f"{path.relative_to(SRC).as_posix()}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in noisy_parameters(ast.parse(path.read_text("utf-8")))
    ]
    assert not found, (
        "a noise-free run is a run on a QUIET machine, not a `noisy` "
        "parameter: " + ", ".join(found)
    )
