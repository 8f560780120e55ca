"""Property-based chaos: random seeded fault plans never change results.

Hypothesis draws a fault plan (kind mix, seed, rate) and an executor —
a name, or a pool executor whose chunks hold several points — runs the
campaign under injection, and asserts the final metrics are
bit-identical to the fault-free baseline.  The drawn plans always keep
each point's firing budget (``times``) below the policy's
``max_attempts``, which is the documented convergence condition: every
failed attempt consumes one firing, so the budget runs dry before the
attempts do.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.explore.campaign import PoolExecutor, run_campaign
from repro.explore.experiments import register_experiment
from repro.explore.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    activate,
    deactivate,
)
from repro.explore.space import DesignSpace


@register_experiment("chaos-prop-square", "square (chaos property tests)", n=int)
def _square(point):
    return {"square": point["n"] ** 2, "cube": point["n"] ** 3}


SPACE = DesignSpace.from_dict({"axes": {"n": [1, 2, 3, 4, 5]}})

#: max_attempts=3 with every drawn ``times`` <= 2 guarantees convergence.
POLICY = RetryPolicy(
    max_attempts=3, backoff_base_s=0.0, point_timeout_s=30.0
)


@pytest.fixture(scope="module")
def baseline_metrics():
    deactivate()
    outcome = run_campaign("chaos-prop", SPACE, "chaos-prop-square")
    return [r.metrics for r in outcome.results.records]


fault_specs = st.builds(
    FaultSpec,
    kind=st.sampled_from(["exception", "hang", "kill"]),
    rate=st.floats(min_value=0.1, max_value=1.0),
    times=st.integers(min_value=1, max_value=2),
    # Short hangs stay under the generous point timeout; the dedicated
    # chaos tests cover hang-past-timeout.
    hang_s=st.just(0.02),
)

fault_plans = st.builds(
    FaultPlan,
    # Convergence needs each point's TOTAL firing budget across every
    # matching spec to stay below max_attempts (3): budgets add up.
    faults=st.lists(fault_specs, min_size=1, max_size=2)
    .filter(lambda fs: sum(f.times for f in fs) <= 2)
    .map(tuple),
    seed=st.integers(min_value=0, max_value=2**16),
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    plan=fault_plans,
    executor=st.sampled_from(["serial", "process", "chunked"])
    | st.builds(
        PoolExecutor, workers=st.just(2), chunk_size=st.sampled_from([1, 2, 5])
    ),
)
def test_random_fault_plans_converge_bit_identically(
    plan, executor, baseline_metrics
):
    activate(plan)
    try:
        outcome = run_campaign(
            "chaos-prop", SPACE, "chaos-prop-square",
            executor=executor, workers=2, policy=POLICY,
        )
    finally:
        deactivate()
    assert outcome.stats.failed == 0
    assert [r.metrics for r in outcome.results.records] == baseline_metrics
