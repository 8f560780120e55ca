"""Stencil case study: scaling, prediction, and model-driven halo tuning.

The Chapter 8 workflow in one script:

1. validate the BSP stencil numerically against a serial reference,
2. compare strong scaling of all four implementations,
3. predict the BSP iteration from independent platform profiles and
   compare with measurement, and
4. let the model pick the shadow-cell (halo) depth and check it against
   the measured sweep (§8.6 / Fig. 8.18).

Run:  python examples/stencil_overlap.py
"""

import numpy as np

from repro.bench import benchmark_comm
from repro.cluster import presets
from repro.cluster.noise import QUIET
from repro.machine import SimMachine
from repro.stencil import (
    decompose,
    optimize_halo_depth,
    predict_bsp_iteration,
    run_bsp_stencil,
    run_hybrid_stencil,
    run_mpi_r_stencil,
    run_mpi_stencil,
    serial_reference,
    stencil_sec_per_cell,
)
from repro.util.tables import format_table


def main() -> None:
    machine = SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=3
    )

    # 1. Numerical fidelity of the BSP implementation.
    rng = np.random.default_rng(0)
    initial = rng.standard_normal((24, 24))
    reference = serial_reference(initial, 5)
    result = run_bsp_stencil(machine, 4, 24, 5, initial=initial,
                             label="verify")
    print("BSP stencil max deviation from serial reference: "
          f"{np.abs(result.field - reference).max():.2e}")

    # 2. Strong scaling comparison (charge-only, noise-free for clarity:
    #    the same cluster with QUIET noise).
    quiet = SimMachine(
        machine.topology, machine.params, noise=QUIET, seed=machine.seed
    )
    n, iters = 1024, 5
    rows = []
    for nprocs in (4, 8, 16, 32, 64):
        row = [nprocs]
        for runner, kwargs in (
            (run_bsp_stencil, dict(execute_numerics=False,
                                   label=f"s{nprocs}")),
            (run_mpi_stencil, {}),
            (run_mpi_r_stencil, {}),
            (run_hybrid_stencil, {}),
        ):
            row.append(runner(quiet, nprocs, n, iters, **kwargs)
                       .mean_iteration * 1e3)
        rows.append(row)
    print(f"\nstrong scaling, {n}^2 grid, per-iteration time [ms]:")
    print(format_table(
        ["P", "BSP", "MPI", "MPI+R", "Hybrid"], rows
    ))

    # 3. Model prediction of the BSP iteration.
    nprocs = 32
    blocks = decompose(n, nprocs)
    placement = machine.placement(nprocs)
    report = benchmark_comm(machine, placement, samples=7)
    spc = stencil_sec_per_cell(machine, placement.core_of(0), blocks[0])
    prediction = predict_bsp_iteration(blocks, spc, report.params)
    measured = run_bsp_stencil(
        machine, nprocs, n, iters, execute_numerics=False, label="pred"
    ).mean_iteration
    print(f"\nBSP iteration at P={nprocs}: predicted "
          f"{prediction.per_iteration * 1e3:.3f} ms, measured "
          f"{measured * 1e3:.3f} ms "
          f"(predicted overlap saving "
          f"{prediction.predicted_overlap_saving * 1e6:.1f} us)")

    # 4. Model-driven halo-depth selection.
    chosen, points = optimize_halo_depth(
        machine, 64, 512, range(1, 11), spc, report.params, cycles=4
    )
    print("\nhalo-depth sweep at P=64, 512^2 (per-iteration, us):")
    print(format_table(
        ["depth", "predicted", "measured"],
        [[pt.depth, pt.predicted * 1e6, pt.measured * 1e6] for pt in points],
    ))
    measured_best = min(points, key=lambda p: p.measured).depth
    print(f"model chose depth {chosen}; measured optimum {measured_best}")


if __name__ == "__main__":
    main()
