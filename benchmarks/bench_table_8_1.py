"""Table 8.1 — experimental configurations of the stencil case study.

The static configuration matrix is a property of
``default_configurations``, not of any experiment run; the
per-implementation sanity runs are the ``table-8-1`` suite in
``bench_suites.py``.
"""

from repro.stencil import IMPLEMENTATIONS, default_configurations
from repro.util.tables import format_table


def test_table_8_1(emit):
    configs = default_configurations()
    emit("\nTable 8.1: experimental configurations")
    emit(format_table(
        ["label", "implementation", "problem", "iters", "process counts"],
        [cfg.describe() for cfg in configs],
    ))
    assert len(configs) == len(IMPLEMENTATIONS) * 2
    assert {cfg.implementation for cfg in configs} == set(IMPLEMENTATIONS)
