"""Figs. 8.4-8.7 — A1-A4: strong scalability of the stencil implementations.

Thin wrapper over the ``fig-8-4-to-8-7`` suite spec: all four
implementations over both problem sizes and the A-series process counts,
plus two noise-free points isolating the BSP-vs-MPI sync overhead.  Shape
claims (§8.4: every implementation strong-scales, BSP carries a visible
sync overhead over raw MPI, overlap pays at scale, the small problem
saturates earlier) live on the spec.
"""


def test_figs_8_4_to_8_7(regenerate):
    regenerate("fig-8-4-to-8-7", golden=True)
