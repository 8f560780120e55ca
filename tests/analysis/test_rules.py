"""Per-rule unit tests: canonical positive and negative snippets.

Each rule gets at least one snippet that must fire and one that must
not, exercising the documented approximation boundaries (aliases,
seeded constructors, allowed modules, guards).
"""

import textwrap

from repro.analysis import lint_source


def lint(src, path="pkg/mod.py", module="pkg.mod"):
    return lint_source(textwrap.dedent(src), path=path, module=module)


def rule_ids(findings):
    return [f.rule for f in findings]


# ------------------------------------------------------------------ DET001


def test_det001_flags_sample_scalar_call():
    findings = lint("""
        def hot(noise, rng):
            return noise.sample_scalar(rng, 1.0)
    """)
    assert rule_ids(findings) == ["DET001"]
    assert "sample_matrix" in findings[0].message


def test_det001_reference_module_exempt():
    src = """
        def oracle(noise, rng):
            return noise.sample_scalar(rng, 1.0)
    """
    assert lint(src, path="pkg/reference.py", module="pkg.reference") == []


def test_det001_bulk_draws_pass():
    assert lint("""
        def hot(noise, rng):
            return noise.sample_matrix(rng, [1.0, 2.0], runs=8)
    """) == []


# ------------------------------------------------------------------ DET002


def test_det002_flags_numpy_global_state():
    findings = lint("""
        import numpy as np

        def draw():
            np.random.seed(0)
            return np.random.rand(4)
    """)
    assert rule_ids(findings) == ["DET002", "DET002"]


def test_det002_flags_unseeded_default_rng():
    findings = lint("""
        from numpy.random import default_rng

        def draw():
            return default_rng().normal()
    """)
    assert rule_ids(findings) == ["DET002"]


def test_det002_seeded_default_rng_passes():
    assert lint("""
        import numpy as np

        def draw(seed):
            rng = np.random.default_rng(seed)
            return rng.normal()
    """) == []


def test_det002_flags_stdlib_random_module():
    findings = lint("""
        import random

        def draw():
            random.shuffle([1, 2])
            return random.Random()
    """)
    assert rule_ids(findings) == ["DET002", "DET002"]


def test_det002_seeded_stdlib_random_passes():
    assert lint("""
        import random

        def draw(seed):
            return random.Random(f"stream:{seed}").random()
    """) == []


def test_det002_generator_methods_pass():
    # rng.random() is a Generator method, not the random module.
    assert lint("""
        def draw(rng):
            return rng.random(4)
    """) == []


# ------------------------------------------------------------------ DET003


def test_det003_flags_wall_clock_in_engine_module():
    findings = lint("""
        import time

        def simulate():
            return time.perf_counter()
    """, path="src/repro/simmpi/x.py", module="repro.simmpi.x")
    assert rule_ids(findings) == ["DET003"]
    assert "wallclock" in findings[0].message


def test_det003_flags_datetime_now():
    findings = lint("""
        from datetime import datetime

        def stamp():
            return datetime.now().isoformat()
    """, module="repro.explore.stamping")
    assert rule_ids(findings) == ["DET003"]


def test_det003_allowed_in_obs_bench_resilience():
    src = """
        import time

        def measure():
            return time.perf_counter()
    """
    for module in ("repro.obs.telemetry", "repro.bench.timers",
                   "repro.explore.resilience"):
        assert lint(src, module=module) == [], module


# ------------------------------------------------------------------ DET004


def test_det004_flags_set_iteration_feeding_store():
    findings = lint("""
        def persist(cache, items):
            for key in set(items):
                cache.put(key, {})
    """)
    assert rule_ids(findings) == ["DET004"]


def test_det004_flags_keys_iteration_feeding_output():
    findings = lint("""
        def emit(table):
            for name in table.keys():
                print(name)
    """)
    assert rule_ids(findings) == ["DET004"]


def test_det004_sorted_passes():
    assert lint("""
        def persist(cache, items):
            for key in sorted(set(items)):
                cache.put(key, {})
    """) == []


def test_det004_membership_building_passes():
    # No order-sensitive sink in the body: set iteration is fine.
    assert lint("""
        def widths(items):
            total = 0
            for key in set(items):
                total += len(key)
            return total
    """) == []


def test_det004_flags_comprehension_over_set():
    findings = lint("""
        def emit(rng, bases):
            return [rng.normal(b) for b in set(bases)]
    """)
    assert rule_ids(findings) == ["DET004"]


# ------------------------------------------------------------------ DET005


def test_det005_flags_lambda_submission():
    findings = lint("""
        def run(pool, tasks):
            return pool.map(lambda t: t * 2, tasks)
    """)
    assert rule_ids(findings) == ["DET005"]


def test_det005_flags_local_closure():
    findings = lint("""
        def run(executor, tasks, scale):
            def evaluate(t):
                return t * scale
            return [executor.submit(evaluate, t) for t in tasks]
    """)
    assert rule_ids(findings) == ["DET005"]


def test_det005_module_level_function_passes():
    assert lint("""
        def _evaluate(t):
            return t * 2

        def run(pool, tasks):
            return pool.map(_evaluate, tasks)
    """) == []


def test_det005_partial_over_module_function_passes():
    assert lint("""
        import functools

        def _evaluate(policy, t):
            return t

        def run(pool, tasks, policy):
            return pool.map(functools.partial(_evaluate, policy), tasks)
    """) == []


def test_det005_partial_over_lambda_flagged():
    findings = lint("""
        import functools

        def run(pool, tasks):
            return pool.map(functools.partial(lambda t: t), tasks)
    """)
    assert rule_ids(findings) == ["DET005"]


def test_det005_non_executor_receiver_passes():
    # `.map()` on non-pool receivers (e.g. pandas-style) is not a
    # submission site.
    assert lint("""
        def rename(frame):
            return frame.map(lambda v: v + 1)
    """) == []


# ------------------------------------------------------------------ DET006


HOT = dict(path="src/repro/simmpi/engine.py", module="repro.simmpi.engine")


def test_det006_flags_factory_in_loop():
    findings = lint("""
        from repro.obs import current

        def simulate(stages):
            for stage in stages:
                tele = current()
                if tele is not None:
                    tele.count("engine.stages")
    """, **HOT)
    assert rule_ids(findings) == ["DET006"]
    assert "once before the loop" in findings[0].message


def test_det006_flags_unguarded_emission_in_loop():
    findings = lint("""
        from repro.obs import current

        def simulate(stages):
            tele = current()
            for stage in stages:
                tele.emit_span("engine.stage", 0.0, 1.0)
    """, **HOT)
    assert rule_ids(findings) == ["DET006"]


def test_det006_early_return_guard_passes():
    assert lint("""
        from repro.obs import current

        def simulate(stages):
            tele = current()
            if tele is None:
                return _simulate(stages)
            for stage in stages:
                tele.emit_span("engine.stage", 0.0, 1.0)
            return _simulate(stages)
    """, **HOT) == []


def test_det006_is_not_none_guard_passes():
    assert lint("""
        from repro.obs import current

        def simulate(stages):
            tele = current()
            for stage in stages:
                if tele is not None:
                    tele.emit_span("engine.stage", 0.0, 1.0)
    """, **HOT) == []


def test_det006_only_applies_to_hot_modules():
    # The same unguarded shape outside an engine module is not flagged.
    assert lint("""
        from repro.obs import current

        def report(rows):
            tele = current()
            for row in rows:
                tele.count("rows")
    """, module="repro.explore.reporting") == []


def test_det006_unrelated_count_method_passes():
    # `.count()` on something that is not a telemetry context.
    assert lint("""
        def tally(rows):
            total = 0
            for row in rows:
                total += row.count("x")
            return total
    """, **HOT) == []


# ------------------------------------------------------------------ DET007


def test_det007_flags_raw_o_append_open():
    findings = lint("""
        import os

        def log(path, payload):
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            os.write(fd, payload)
    """)
    assert rule_ids(findings) == ["DET007"]
    assert "repro.util.jsonl" in findings[0].message


def test_det007_flags_append_mode_open():
    findings = lint("""
        import io

        def log(path, pathobj, line):
            with open(path, "a") as fh:
                fh.write(line)
            with io.open(path, mode="ab") as fh:
                fh.write(line)
            with pathobj.open("a+") as fh:
                fh.write(line)
            with Path(path).open(mode="at") as fh:
                fh.write(line)
    """)
    assert rule_ids(findings) == ["DET007"] * 4


def test_det007_read_and_write_opens_pass():
    assert lint("""
        import os

        def copy(src, dst, image):
            fd = os.open(dst, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.close(fd)
            with open(src, "rb") as fh, open(dst, mode="w") as out:
                out.write(fh.read())
            return image.open("data.png")
    """) == []


def test_det007_primitive_module_exempt():
    src = """
        import os

        def write(path, payload):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND)
            os.write(fd, payload)
    """
    assert lint(src, path="src/repro/util/jsonl.py",
                module="repro.util.jsonl") == []
