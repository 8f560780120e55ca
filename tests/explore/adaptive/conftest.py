"""Shared fixtures for the adaptive-sampling tests: a cheap, fully
deterministic experiment over a mixed numeric/categorical space with a
known optimum, so search behaviour is assertable without simulator cost."""

import pytest

from repro.explore.experiments import register_experiment
from repro.explore.space import DesignSpace

#: The analytic optimum of ``test-bowl`` over :func:`bowl_space` grids
#: that include these coordinates.
BOWL_OPTIMUM = {"a": 13, "b": 4, "mode": "m3"}

_MODE_PENALTY = {"m0": 1.5, "m1": 1.0, "m2": 0.5, "m3": 0.0, "m4": 2.0}


@register_experiment(
    "test-bowl", "separable bowl (test only)",
    a=int, b=int, mode=str, runs=(int, 1),
)
def _bowl(point):
    cost = (
        (point["a"] - 13) ** 2
        + 0.5 * (point["b"] - 4) ** 2
        + _MODE_PENALTY[point["mode"]]
    )
    return {
        "cost": float(cost),
        "weight": float(point["a"] + point["b"]),
    }


def bowl_space(na=18, nb=20, modes=5) -> DesignSpace:
    return DesignSpace.from_dict({
        "axes": {
            "a": list(range(na)),
            "b": list(range(nb)),
            "mode": [f"m{i}" for i in range(modes)],
        },
        "constants": {"runs": 1},
    })


@pytest.fixture
def small_space() -> DesignSpace:
    """6 x 5 x 3 = 90 points: big enough to sample, cheap to exhaust."""
    return bowl_space(na=6, nb=5, modes=3)
