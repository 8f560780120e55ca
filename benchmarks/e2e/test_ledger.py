"""Tests of the end-to-end benchmark's ledger, host-speed scaling and
comparison rule.

Collected with the benchmarks, so tier 2: ``pytest -m tier2 benchmarks/e2e``.
"""

import multiprocessing
import threading
import time

import pytest
from compare import verdict
from ledger import (
    LAYERS,
    Span,
    TargetError,
    Tracer,
    attribute,
    import_all_repro,
    install,
    read_worker_spans,
    repro_modules,
    resolve,
    wrap,
)
from run import REFERENCE_PROBE_S, HostSampler, PassError, pass_cpus

from repro.explore.campaign import Campaign, run_campaign


def test_self_time_is_duration_minus_union_of_overlapping_children():
    spans = [
        Span(1, None, "outer", 0.0, 10.0, 1),
        Span(2, 1, "a", 2.0, 6.0, 1),  # one thread
        Span(3, 1, "b", 4.0, 8.0, 1),  # another thread, overlapping a
        Span(4, 2, "c", 3.0, 4.0, 1),  # nested in a
    ]
    led = attribute(spans, -1.0, 11.0)
    assert led.self_s["outer"] == pytest.approx(10.0 - 6.0)  # minus |[2, 8]|
    assert led.self_s["c"] == pytest.approx(1.0)
    # a alone on [2, 3]; a and b split their overlap [4, 6]
    assert led.self_s["a"] == pytest.approx(1.0 + 1.0)
    assert led.self_s["b"] == pytest.approx(1.0 + 2.0)
    assert led.unattributed_s == pytest.approx(2.0)
    assert sum(led.self_s.values()) + led.unattributed_s == pytest.approx(12.0)
    assert led.calls == {"outer": 1, "a": 1, "b": 1, "c": 1}


def test_thread_spans_hang_under_the_main_threads_innermost_span(tmp_path):
    tracer = Tracer(tmp_path)
    inner = wrap(tracer, "inner", lambda: time.sleep(0.02), "test:inner")

    def body():
        threads = [threading.Thread(target=inner) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    wrap(tracer, "outer", body, "test:outer")()
    (outer,) = [s for s in tracer.spans if s.layer == "outer"]
    inners = [s for s in tracer.spans if s.layer == "inner"]
    assert len(inners) == 3
    assert all(s.parent == outer.sid for s in inners)
    union = max(s.end for s in inners) - min(s.start for s in inners)
    led = attribute(tracer.spans, outer.start, outer.end)
    assert led.self_s["outer"] <= outer.end - outer.start - union + 1e-9
    assert sum(led.self_s.values()) == pytest.approx(outer.end - outer.start)


def _references(targets) -> dict:
    """Every repro module attribute or module-level dict value that is one
    of ``targets``."""
    refs = {}
    for module in repro_modules():
        for key, value in vars(module).items():
            if any(value is t for t in targets):
                refs[(module.__name__, key)] = value
            elif isinstance(value, dict):
                for dkey, dvalue in value.items():
                    if any(dvalue is t for t in targets):
                        refs[(module.__name__, key, dkey)] = dvalue
    return refs


def test_install_rebinds_every_reference_and_uninstall_restores(tmp_path):
    import_all_repro()
    targets = [resolve(p)[2] for paths in LAYERS.values() for p in paths]
    before = _references(targets)
    # ``from x import f`` copies and a registry dict are among them.
    assert ("repro.stencil.impls", "bsp_run") in before
    assert ("repro.stencil.experiments", "IMPLEMENTATIONS", "BSP") in before

    installation = install(Tracer(tmp_path))
    try:
        assert len(installation.originals) == len(targets)
        assert _references(targets) == {}
        for path, original in installation.originals.items():
            current = resolve(path)[2]
            assert current is not original
            assert current.__wrapped__ is original
    finally:
        installation.uninstall()
    assert _references(targets) == before
    for path, original in installation.originals.items():
        assert resolve(path)[2] is original


def test_a_target_that_no_longer_resolves_is_an_error(tmp_path):
    layers = {
        "campaign": ("repro.explore.campaign:Campaign.serve",),
        "moved": ("repro.explore.campaign:Campaign.no_such_method",),
    }
    with pytest.raises(TargetError, match="no_such_method"):
        install(Tracer(tmp_path), layers)
    assert not hasattr(Campaign.serve, "__wrapped__")
    inherited = {"x": ("repro.explore.campaign:ProcessPoolExecutor.__repr__",)}
    with pytest.raises(TargetError):
        install(Tracer(tmp_path), inherited)


def _call_times(fn, n: int) -> None:
    for _ in range(n):
        fn()


def test_worker_span_files_merge_under_the_forking_span(tmp_path):
    tracer = Tracer(tmp_path)
    installation = install(tracer, layers={})
    leaf = wrap(tracer, "leaf", lambda: None, "test:leaf")
    ctx = multiprocessing.get_context("fork")

    def fan_out() -> list[int]:
        procs = [ctx.Process(target=_call_times, args=(leaf, 3))
                 for _ in range(2)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
        assert [p.exitcode for p in procs] == [0, 0]
        return [p.pid for p in procs]

    try:
        pids = wrap(tracer, "outer", fan_out, "test:outer")()
    finally:
        installation.uninstall()
    (outer,) = tracer.spans
    merged = read_worker_spans(tmp_path)
    assert sorted(p.name for p in tmp_path.glob("spans-*.jsonl")) == sorted(
        f"spans-{pid}.jsonl" for pid in pids
    )
    assert sorted(s.pid for s in merged) == sorted(pids * 3)
    assert all(s.parent == outer.sid and s.layer == "leaf" for s in merged)
    assert len({s.sid for s in merged + [outer]}) == 7


def test_ledger_of_a_tiny_campaign_sums_to_its_wall_time(tmp_path):
    trace_dir = tmp_path / "trace"
    trace_dir.mkdir()
    tracer = Tracer(trace_dir)
    space = {
        "axes": {"pattern": ["tree", "linear"], "nprocs": [4, 6]},
        "constants": {"preset": "xeon-8x2x4", "runs": 2, "comm_samples": 3},
    }
    installation = install(tracer)
    try:
        start = time.perf_counter()
        run_campaign("tiny", space, "barrier-cost", store_dir=tmp_path)
        run_campaign("tiny-pool", space, "barrier-cost", store_dir=tmp_path,
                     executor="chunked", workers=2)
        end = time.perf_counter()
    finally:
        installation.uninstall()
    spans = tracer.spans + read_worker_spans(trace_dir)
    led = attribute(spans, start, end)
    assert sum(led.self_s.values()) + led.unattributed_s == pytest.approx(
        end - start, rel=1e-9
    )
    assert led.calls["adapter"] == 8  # 4 in-process, 4 in pool workers
    assert len({s.pid for s in spans if s.layer == "adapter"}) == 3
    for layer in ("campaign", "executor", "store", "machine", "barrier",
                  "cost_model", "engine", "noise", "profile_cache"):
        assert led.calls[layer] > 0, layer
    assert 0.0 < led.worker_busy_frac <= 1.0


def test_host_slowdown_is_the_mean_probe_inside_the_window():
    sampler = HostSampler([])
    sampler.samples = [(t, k * REFERENCE_PROBE_S)
                       for t, k in ((0.0, 9.0), (1.0, 1.0), (2.0, 2.0), (3.0, 9.0))]
    assert sampler.slowdown(0.5, 2.0) == pytest.approx(1.5)
    with pytest.raises(PassError):
        sampler.slowdown(3.5, 4.0)


def test_host_sampler_probes_each_cpu_until_its_block_ends():
    cpus = pass_cpus(workers=2)
    with HostSampler(cpus) as sampler:
        time.sleep(0.3)
    count = len(sampler.samples)
    assert count >= 2 * len(cpus)
    time.sleep(0.1)
    assert len(sampler.samples) == count
    assert pass_cpus(workers=None) == cpus[-1:]


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert verdict(parent, [v * 0.8 for v in parent], "lower", 0.1) == "improved"
    assert verdict(parent, [v + 0.001 for v in parent], "lower", 0.1) == "unchanged"
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "regressed"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert verdict(parent, [v * 1.2 for v in parent], "higher", 0.1) == "improved"
    assert verdict(parent, [v + 0.001 for v in parent], "lower", None) == "-"
