"""The self-check meta-test: every DET rule catches its canonical
violation when seeded into a realistic fixture package.

This is the linter's own regression harness — if a refactor of the rule
pack silently stops detecting a contract violation, this test fails.
The fixture deliberately mirrors the repository's layout (a BSP runtime
module on a hot path, explore-layer campaign modules, an obs sink).
"""

import textwrap

import pytest

from repro.analysis import all_rules, lint_paths

#: module-relative path → (source, rule ids expected to fire there).
FIXTURES = {
    # DET002: module-global RNG state in a sampler.
    "fixtpkg/explore/samplers.py": (
        """
        import numpy as np

        def jitter(points):
            return [p + np.random.rand() for p in points]
        """,
        {"DET002"},
    ),
    # DET003: a wall-clock timestamp written into campaign results.
    "fixtpkg/explore/campaign.py": (
        """
        import time

        def summarise(records):
            return {"count": len(records), "time": time.time()}
        """,
        {"DET003"},
    ),
    # DET004: set iteration feeding a store append.
    "fixtpkg/explore/cache_sync.py": (
        """
        def persist(cache, updates):
            for key in set(updates):
                cache.put(key, updates[key])
        """,
        {"DET004"},
    ),
    # DET005: a lambda shipped to pool workers.
    "fixtpkg/explore/executors.py": (
        """
        def fan_out(pool, tasks):
            return pool.map(lambda task: task.run(), tasks)
        """,
        {"DET005"},
    ),
    # DET006: telemetry resolved and emitted per iteration of a BSP
    # superstep loop, with no disabled-fast-path guard.
    "fixtpkg/bsplib/runtime.py": (
        """
        from repro.obs import current

        def run_supersteps(supersteps):
            for step in supersteps:
                tele = current()
                tele.emit_span("bsp.superstep", 0.0, step.duration)
        """,
        {"DET006"},
    ),
    # DET007: a hand-rolled JSONL writer that skips the primitive's
    # torn-tail check.
    "fixtpkg/obs/sink.py": (
        """
        import json
        import os

        def flush(path, events):
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            os.write(fd, "".join(json.dumps(e) + "\\n" for e in events).encode())
            os.close(fd)
        """,
        {"DET007"},
    ),
}


@pytest.fixture(scope="module")
def fixture_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("detlint-fixtures")
    for relpath, (source, _) in FIXTURES.items():
        target = root / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        for parent in target.relative_to(root).parents:
            if str(parent) != ".":
                (root / parent / "__init__.py").touch()
        target.write_text(textwrap.dedent(source))
    return root


def test_every_rule_catches_its_seeded_violation(fixture_tree):
    import os

    result = lint_paths([str(fixture_tree)])
    assert not result.errors
    by_file: dict[str, set[str]] = {}
    for finding in result.findings:
        rel = os.path.relpath(finding.path, str(fixture_tree))
        by_file.setdefault(rel.replace(os.sep, "/"), set()).add(finding.rule)
    for relpath, (_, expected) in FIXTURES.items():
        assert by_file.get(relpath, set()) == expected, relpath


def test_fixture_set_covers_every_registered_rule():
    covered = set()
    for _, expected in FIXTURES.values():
        covered |= expected
    assert covered == {rule.id for rule in all_rules()}
