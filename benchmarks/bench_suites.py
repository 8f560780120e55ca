"""Every registered figure/table suite, regenerated cold or from the store.

One test per suite of :mod:`repro.explore.figures`, under the suite's
name: regenerate it through ``run_suite`` on the chunked executor, print
the rendered table past pytest's capture, assert the suite's shape
claims and, when ``benchmarks/goldens/<name>.json`` exists, compare the
artifact against that golden.  What each suite shows is its
``SuiteSpec.title`` and ``description``.
"""

from __future__ import annotations

import os

import pytest

from repro.explore.golden import check_golden
from repro.explore.suites import (
    DEFAULT_GOLDENS_DIR,
    DEFAULT_SUITE_STORE,
    get_suite,
    run_suite,
    suite_names,
)


@pytest.mark.parametrize("name", suite_names())
def test_suite(name, emit):
    result = run_suite(
        get_suite(name), store_dir=DEFAULT_SUITE_STORE, executor="chunked"
    )
    emit("\n" + result.render())
    result.check_claims()
    if os.path.exists(os.path.join(DEFAULT_GOLDENS_DIR, f"{name}.json")):
        report = check_golden(
            DEFAULT_GOLDENS_DIR, name, result.artifact(),
            result.spec.tolerance,
        )
        assert report.ok, report.summary()
