"""Fig. 8.18 — C1: predicted vs measured iteration time, adapted superstep.

Thin wrapper over the ``fig-8-18`` suite spec: the §8.6 model-driven
optimization — sweep the shadow-cell depth, predict each depth's cost
with the adapted-superstep model, compare against charge-model
executions.  Shape claims (deepening the halo first pays then costs; the
model's chosen depth sits at or adjacent to the measured optimum) live
on the spec.
"""


def test_fig_8_18_c1(regenerate):
    regenerate("fig-8-18", golden=True)
