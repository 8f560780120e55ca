"""Figs. 8.10-8.15 — B1-B6: prediction vs measurement for the stencil.

Thin wrapper over the ``fig-8-10-to-8-15`` suite spec: {BSP, MPI, MPI+R}
x {large, small} prediction/measurement comparisons, each process count
profiled independently.  Shape claims (§8.5.2: predictions track the
strong-scaling trend everywhere and stay within a small factor) live on
the spec.
"""


def test_figs_8_10_to_8_15(regenerate):
    regenerate("fig-8-10-to-8-15", golden=True)
