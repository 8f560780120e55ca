"""Shared fixtures of the benchmark harness.

``bench_suites.py`` regenerates every figure/table suite spec of
:mod:`repro.explore.figures` through :func:`repro.explore.suites.run_suite`,
one test per suite: it prints the rendered table past pytest's capture,
asserts the spec's shape claims and, for the goldened suites, compares
the artifact against the checked-in fixture under ``benchmarks/goldens/``.

Sampling depth (``COMM_SIZES`` / ``COMM_SAMPLES`` / ``BARRIER_RUNS``) is
owned by the suite specs, not by fixtures here; see
``repro.explore.figures``.

The shared on-disk store under ``benchmarks/.suite-store`` makes re-runs
near-pure cache reads; delete the directory (or a single suite's JSONL
file) to force regeneration.
"""

from __future__ import annotations

from pathlib import Path

import pytest


_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Suite regeneration is tier-2 work: excluded from the default fast
    run, exercised by ``pytest -m tier2 benchmarks/``.  The hook sees the
    whole session's items, so only those under this directory are marked —
    a combined ``pytest tests benchmarks`` run must not drag tests/ into
    tier 2."""
    for item in items:
        if item.path is not None and item.path.resolve().is_relative_to(
            _BENCH_DIR
        ):
            item.add_marker(pytest.mark.tier2)


@pytest.fixture
def emit(capsys):
    """Print experiment output past pytest's capture."""

    def _emit(text: str) -> None:
        with capsys.disabled():
            print(text)

    return _emit
