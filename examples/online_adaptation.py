"""On-line barrier adaptivity under platform drift (§9.2.2).

The thesis's future-work proposal, implemented: a control loop that keeps
a platform profile fresh, watches the current barrier's predicted cost,
and re-synthesizes when conditions drift.  The drift scenario here is a
node whose links degrade by an order of magnitude (a failing NIC or a
noisy neighbour job).

Run:  python examples/online_adaptation.py
"""

from repro.adapt import OnlineBarrierAdapter, degrade_profile
from repro.barriers import predict_barrier_cost
from repro.bench import benchmark_comm
from repro.cluster import presets
from repro.machine import SimMachine
from repro.util.tables import format_table


def main() -> None:
    machine = SimMachine(
        presets.xeon_8x2x4_topology(), presets.xeon_8x2x4_params(), seed=13
    )
    nprocs = 48
    placement = machine.placement(nprocs)
    profile = benchmark_comm(machine, placement, samples=9).params

    adapter = OnlineBarrierAdapter(profile, switch_factor=1.15, smoothing=1.0)
    initial = adapter.pattern
    print(f"initial pattern: {initial.name} ({initial.num_stages} stages)")

    rows = []
    # Phase 1: stable platform — the adapter must hold its choice.
    for step in range(3):
        adapter.observe(profile)
        event = adapter.events[-1]
        rows.append([event.observation, "stable", event.pattern_name,
                     event.current_cost * 1e6, event.switched])

    # Phase 2: the links of node 0's ranks degrade 12x.
    degraded_ranks = [r for r in range(nprocs) if placement.node_of(r) == 0]
    drifted = degrade_profile(profile, degraded_ranks, latency_factor=12.0)
    for step in range(3):
        adapter.observe(drifted)
        event = adapter.events[-1]
        rows.append([event.observation, "degraded", event.pattern_name,
                     event.current_cost * 1e6, event.switched])

    print(format_table(
        ["obs", "phase", "pattern before", "pred cost [us]", "switched"],
        rows,
    ))
    print(f"\nswitches: {adapter.switches}; final pattern: "
          f"{adapter.pattern.name}")

    stale_cost = predict_barrier_cost(initial, drifted)
    fresh_cost = predict_barrier_cost(adapter.pattern, adapter.profile)
    print(f"stale pattern under drifted conditions: {stale_cost * 1e6:.1f} us; "
          f"re-adapted: {fresh_cost * 1e6:.1f} us")


if __name__ == "__main__":
    main()
