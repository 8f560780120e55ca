"""bspinprod on the BSPlib runtime: real numerics plus virtual time.

The Chapter 3 warm-up experiment: a distributed inner product written
against the BSPlib interface (Table 6.1), executed with real NumPy data on
the threaded runtime, with per-superstep virtual-time accounting.  The
measured strong-scaling curve is compared against the classic BSP estimate
(Eq. 3.7) to reproduce the misprediction that motivates the framework.

Run:  python examples/bsplib_inner_product.py
"""

import numpy as np

from repro.bench.bspbench import run_bspbench
from repro.bsplib import bsp_run
from repro.cluster import presets
from repro.core.bsp_classic import inner_product_cost_seconds
from repro.kernels import DOT_PRODUCT
from repro.machine import SimMachine
from repro.util.tables import format_table

N_TOTAL = 1_000_000


def inner_product(ctx, n_total):
    """The bspinprod program: local dot products, a 1-relation scatter of
    the partial sums, and a global accumulation step."""
    p, pid = ctx.nprocs, ctx.pid
    local_n = n_total // p
    rng = np.random.default_rng(1000 + pid)
    x = rng.standard_normal(local_n)
    y = rng.standard_normal(local_n)

    sums = np.zeros(p)
    ctx.push_reg(sums)
    ctx.sync()

    local = ctx.run_kernel(DOT_PRODUCT, (x, y), local_n)
    for q in range(p):
        ctx.put(q, np.array([local]), sums, offset=pid)
    ctx.sync()

    ctx.charge_kernel(DOT_PRODUCT, p)  # accumulate p partial sums
    total = float(sums.sum())
    ctx.sync()
    return total


def main() -> None:
    machine = SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=5
    )
    rows = []
    for nprocs in (4, 8, 16, 32):
        result = bsp_run(machine, nprocs, inner_product, N_TOTAL,
                         label=f"ip-{nprocs}")
        values = set(round(v, 6) for v in result.return_values)
        assert len(values) == 1, "all processes must agree on the total"
        classic = inner_product_cost_seconds(
            run_bspbench(machine, nprocs, samples=5), N_TOTAL
        )
        rows.append([
            nprocs,
            result.total_seconds * 1e3,
            classic * 1e3,
            result.superstep_count,
        ])
    print("inner product on the BSPlib runtime (N = 1e6):")
    print(format_table(
        ["P", "measured [ms]", "classic estimate [ms]", "supersteps"], rows
    ))
    print("\n(the classic 4-scalar model's estimate drifts from the measured"
          "\n runtime as P grows — the Chapter 3 motivation)")


if __name__ == "__main__":
    main()
