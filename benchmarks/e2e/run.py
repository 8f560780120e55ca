"""End-to-end benchmark of record: five campaign workloads, one ledger.

Run from the repository root:

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed 2012]
        [--trace] [--out FILE]

Each workload is a closed loop with one client: a pass (see
``workloads.py``) starts in a fresh process only after the previous pass
ended, and passes repeat while another one fits in the run length, which
is ``run_seconds`` in ``BENCHMARK.json`` for each workload.  ``--seed``
generates the inputs.

Untraced, the run reports the end-to-end metrics declared in
``BENCHMARK.json``: set-up time, wall time of the timed work and peak
resident memory, each a median over the run's passes.  With ``--trace``
the run alternates untraced and traced passes and reports the per-layer
ledger instead.

Times are reported at a reference host speed.  On the shared 2-vCPU host
the benchmark was built on, each vCPU switches between a fast state and
one about 1.5x slower every second or so, and the share of slow time
drifts over minutes; CPU time slows as much as wall time.  So while a
pass runs, one thread pinned to each CPU the pass runs on times a tiny
fixed probe (:func:`probe`, which calls nothing in repro) every
:data:`PROBE_PERIOD_S`.  The host's slowdown in a window is the mean
probe time inside it over :data:`REFERENCE_PROBE_S`; a pass's set-up
time is divided by the slowdown in its set-up, and its timed work by the
slowdown in that work raised to :data:`WORK_SLOWDOWN_EXPONENT`.  A serial
pass is pinned to one CPU, so that the probes sample the CPU it runs on.
The raw times and the host's slowdown are printed alongside.

The benchmark harness calls ``run.py --workload W --seed N --seconds S
--trace 0|1``.  That is why ``--trace`` also takes 0 or 1, and why
``--seconds`` exists; it accepts only ``run_seconds``, so every run of
the benchmark has the declared length.

The run prints every metric as ``workload metric value unit``, then, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; ``--out`` also writes the full results.  It exits 1 when
a correctness check fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

from ledger import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Per-pass stores and trace files live here, inside the checkout.
WORK_DIR = ROOT / ".bench_e2e"

PASS_TIMEOUT_S = 150
TRACE_CHECK_TOLERANCE = 0.01
#: The host's speed is sampled this often on each CPU a pass runs on.
PROBE_PERIOD_S = 0.02
#: Seconds one :func:`probe` takes on the 2-vCPU host of ``baseline.json``
#: in its fast state: the host's slowdown is 1 there.
REFERENCE_PROBE_S = 0.00033
#: The timed work slows more than the probe: over 560 passes of the five
#: workloads, the slope of log pass time on log slowdown was 1.10-1.34
#: (set-up: 0.75-1.03).  One exponent serves every workload, so all are
#: scaled by the same rule; it took the spread of run medians over ten
#: seeds from 0.03-0.08 of the median (exponent 1) to 0.03-0.06.
WORK_SLOWDOWN_EXPONENT = 1.2

#: Which end-to-end metric each layer metric should move, on which
#: workloads, and where it should not move.  The traced run checks that
#: every layer named here records calls on each of its main workloads.
LAYER_MAP = [
    {"layers": ["engine"], "moves": "wall_s",
     "main": ["hrelation-cold", "bsp-stencil-cold"],
     "control": "warm_serve_s on sweep-chunked"},
    {"layers": ["noise"], "moves": "wall_s",
     "main": ["golden-cold", "sweep-chunked"],
     "control": "hrelation-cold (about 6%)"},
    {"layers": ["profile_cache", "comm_bench"], "moves": "wall_s",
     "main": ["golden-cold"], "control": "hrelation-cold"},
    {"layers": ["cost_model"], "moves": "wall_s",
     "main": ["golden-cold", "sweep-chunked"], "control": "hrelation-cold"},
    {"layers": ["store"], "moves": "wall_s (sweep-chunked includes the warm "
     "re-serves)", "main": ["sweep-chunked", "golden-cold"],
     "control": "hrelation-cold"},
    {"layers": ["executor"], "moves": "wall_s", "main": ["sweep-chunked"],
     "control": "the serial workloads (executor below 1%)"},
    {"layers": ["bsp", "stencil"], "moves": "wall_s",
     "main": ["bsp-stencil-cold"], "control": "golden-cold"},
    {"layers": ["adaptive"],
     "moves": "wall_s; best_found_sim_s and result_digest must not move",
     "main": ["adaptive-surrogate"], "control": "every other workload"},
    {"layers": ["machine", "adapter"], "moves": "wall_s",
     "main": ["sweep-chunked"], "control": "hrelation-cold"},
    {"layers": ["campaign"], "moves": "wall_s",
     "main": ["golden-cold", "bsp-stencil-cold", "hrelation-cold",
              "sweep-chunked", "adaptive-surrogate"], "control": "none"},
    {"layers": ["bspbench"], "moves": "wall_s", "main": ["hrelation-cold"],
     "control": "every other workload"},
    {"layers": ["barrier"], "moves": "wall_s",
     "main": ["sweep-chunked", "golden-cold"], "control": "hrelation-cold"},
    {"layers": ["golden"], "moves": "wall_s", "main": ["golden-cold"],
     "control": "every other workload"},
    {"layers": [], "moves": "peak_rss_mb (engine batching, store indexes)",
     "main": ["hrelation-cold", "sweep-chunked"], "control": "n/a"},
]


class PassError(RuntimeError):
    """A pass process failed or timed out."""


def probe() -> None:
    """A fixed interpreter loop of about 0.4 ms.  It calls nothing in repro,
    so no change to the program moves its time; only the host's speed does."""
    acc = 0
    for i in range(5000):
        acc += i * i % 7


class HostSampler:
    """Times :func:`probe` every :data:`PROBE_PERIOD_S` on each of ``cpus``,
    from one thread pinned to each, while its ``with`` block runs."""

    def __init__(self, cpus: list[int]):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in cpus
        ]

    def __enter__(self) -> HostSampler:
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # on Linux, this thread only
        while not self._stop.wait(PROBE_PERIOD_S):
            start = perf_counter()
            probe()
            self.samples.append((start, perf_counter() - start))

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference the host ran between
        ``start`` and ``end``."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            raise PassError(f"no host speed sample in a {end - start:.3f} s window")
        return statistics.mean(inside) / REFERENCE_PROBE_S


def pass_cpus(workers: int | None) -> list[int]:
    """The CPUs a pass runs on: one for a serial pass, so that the probes
    sample the CPU it runs on (the BSP runtime's threads stay there too);
    all of them for a pool."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if workers else cpus[-1:]


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_TELEMETRY", "REPRO_PROFILE_CACHE")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def launch(workload: str, seed: int, traced: bool, cpus: list[int]) -> dict:
    """Run one pass in a fresh process on ``cpus`` and return its
    measurements, with the host's slowdown in its set-up and timed work."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        cmd = [sys.executable, str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(seed),
               "--store", str(Path(tmp) / "store")]
        if traced:
            trace_dir = Path(tmp) / "trace"
            trace_dir.mkdir()
            cmd += ["--trace-dir", str(trace_dir)]
        # The pass measures its set-up from this reading: perf_counter is
        # CLOCK_MONOTONIC on Linux, shared by every process.
        launched = perf_counter()
        cmd += ["--launched", repr(launched)]
        with HostSampler(cpus) as sampler:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                cwd=ROOT, start_new_session=True,
            )
            try:
                # Before the pass starts a thread or a pool worker, which
                # inherit the CPUs.
                os.sched_setaffinity(proc.pid, cpus)
                stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise PassError(
                    f"{workload}: pass exceeded {PASS_TIMEOUT_S} s"
                ) from None
            finally:
                # The pass and its pool workers share a session; none may
                # outlive the pass, however run.py leaves this block.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if proc.returncode != 0:
            raise PassError(f"{workload}: pass exited {proc.returncode}")
    record = json.loads(stdout.strip().splitlines()[-1])
    record["setup_slowdown"] = sampler.slowdown(
        launched, launched + record["setup_s"]
    )
    record["wall_slowdown"] = sampler.slowdown(record["start"], record["end"])
    return record


def run_passes(
    workload: str, seed: int, seconds: int, trace: bool, cpus: list[int]
) -> list[dict]:
    """Passes while another one fits in ``seconds``; traced runs alternate
    untraced and traced passes, starting untraced, and make at least one
    of each."""
    passes: list[dict] = []
    started = perf_counter()
    longest = 0.0
    minimum = 2 if trace else 1
    while len(passes) < minimum or (
        perf_counter() - started + longest <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        t0 = perf_counter()
        record = launch(workload, seed, traced, cpus)
        longest = max(longest, perf_counter() - t0)
        record["traced"] = traced
        passes.append(record)
    return passes


def _median(values) -> float:
    return float(statistics.median(values))


def scaled(p: dict, key: str) -> float:
    """Pass ``p``'s time ``key`` at the reference host speed."""
    if key == "setup_s":
        return p[key] / p["setup_slowdown"]
    return p[key] / p["wall_slowdown"] ** WORK_SLOWDOWN_EXPONENT


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """(metrics, extra) from untraced passes."""
    metrics = {
        "setup_s": (_median(scaled(p, "setup_s") for p in passes), "s"),
        "wall_s": (_median(scaled(p, "wall_s") for p in passes), "s"),
        "peak_rss_mb": (_median(p["peak_rss_mb"] for p in passes), "MiB"),
    }
    attempted = sum(p["attempted"] for p in passes)
    cold_s = _median(scaled(p, "cold_s") for p in passes)
    extra = {
        "passes": (len(passes), "count"),
        "host_slowdown": (_median(p["wall_slowdown"] for p in passes), "ratio"),
        "setup_raw_s": (_median(p["setup_s"] for p in passes), "s"),
        "wall_raw_s": (_median(p["wall_s"] for p in passes), "s"),
        "cold_s": (cold_s, "s"),
        "points_per_s": (passes[0]["points"] / cold_s, "1/s"),
        "failed_frac": (sum(p["failed"] for p in passes) / attempted, "ratio"),
    }
    warm = [t / p["wall_slowdown"] ** WORK_SLOWDOWN_EXPONENT
            for p in passes for t in p["warm_s"]]
    if warm:
        extra["warm_serve_s"] = (_median(warm), "s")
    if passes[0]["best_found_sim_s"] is not None:
        extra["best_found_sim_s"] = (passes[0]["best_found_sim_s"], "sim_s")
    return metrics, extra


def per_layer(passes: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """(metrics, extra) of the ledger, medians over the traced passes."""

    def med(fn) -> float:
        return _median(fn(p["ledger"]) for p in traced)

    def rate(ledger: dict, layer: str) -> float:
        hits, lookups = ledger["hits"].get(layer, (0, 0))
        return hits / lookups if lookups else 0.0

    metrics, extra = {}, {}
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = (
            med(lambda led: led["self_s"].get(layer, 0.0) / led["wall_s"]),
            "ratio",
        )
        metrics[f"{layer}.calls"] = (
            med(lambda led: led["calls"].get(layer, 0)), "count"
        )
        extra[f"{layer}.self_s"] = (
            med(lambda led: led["self_s"].get(layer, 0.0)), "s"
        )
    metrics["profile_cache.hit_rate"] = (
        med(lambda led: rate(led, "profile_cache")), "ratio"
    )
    metrics["store.hit_rate"] = (med(lambda led: rate(led, "store")), "ratio")
    metrics["store.bytes"] = (_median(p["store_bytes"] for p in traced), "bytes")
    metrics["executor.worker_busy_frac"] = (
        med(lambda led: led["worker_busy_frac"]), "ratio"
    )
    metrics["ledger.unattributed_frac"] = (
        med(lambda led: led["unattributed_s"] / led["wall_s"]), "ratio"
    )
    untraced_wall = _median(scaled(p, "wall_s") for p in passes)
    traced_wall = _median(scaled(p, "wall_s") for p in traced)
    metrics["ledger.trace_overhead_frac"] = (
        traced_wall / untraced_wall - 1.0, "ratio"
    )
    extra["ledger.traced_wall_s"] = (traced_wall, "s")
    extra["ledger.untraced_wall_s"] = (untraced_wall, "s")
    return metrics, extra


def checks(workload: str, all_passes: list[dict]) -> list[str]:
    """Every failed correctness check, as a message; passes are numbered
    in run order, and pass 0 is untraced."""
    failures = []
    digest = all_passes[0]["digest"]
    calls: Counter = Counter()
    for i, p in enumerate(all_passes):
        kind = "traced pass" if p["traced"] else "pass"
        if p["failed"]:
            failures.append(f"{kind} {i}: {p['failed']} points failed")
        failures += [f"{kind} {i}: golden: {g}" for g in p["golden_failures"]]
        if p["digest"] != digest:
            failures.append(f"{kind} {i}: result digest differs from pass 0")
        if not p["warm_digests_match"]:
            failures.append(f"{kind} {i}: a warm re-serve changed the records")
        if not p["traced"]:
            continue
        led = p["ledger"]
        calls.update(led["calls"])
        total = sum(led["self_s"].values()) + led["unattributed_s"]
        if abs(total - p["wall_s"]) > TRACE_CHECK_TOLERANCE * p["wall_s"]:
            failures.append(f"{kind} {i}: ledger sums to {total:.6f} s, "
                            f"not wall_s {p['wall_s']:.6f} s")
    if any(p["traced"] for p in all_passes):
        failures += [
            f"layer {layer} recorded no calls on its main workload"
            for row in LAYER_MAP if workload in row["main"]
            for layer in row["layers"] if not calls[layer]
        ]
    return failures


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like Ctrl-C, so ``launch`` stops the running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=int, default=seconds,
                        choices=[seconds],
                        help="run length per workload; fixed by BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report the per-layer ledger")
    parser.add_argument("--out", help="write the full results JSON here")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = args.workload or list(WORKLOADS)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}

    results = {
        "seed": args.seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(), "layer_map": LAYER_MAP, "workloads": {},
    }
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            all_passes = run_passes(name, args.seed, seconds, trace,
                                    pass_cpus(WORKLOADS[name].workers))
        except PassError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        passes = [p for p in all_passes if not p["traced"]]
        traced = [p for p in all_passes if p["traced"]]
        if trace:
            metrics, extra = per_layer(passes, traced)
        else:
            metrics, extra = end_to_end(passes)
        extra["result_digest"] = (passes[0]["digest"], "sha256")
        failures = checks(name, all_passes)
        undeclared = sorted(m for m, unit in declared.items()
                            if m not in metrics or metrics[m][1] != unit)
        if undeclared:
            print(f"run.py: BENCHMARK.json metrics not measured as declared: "
                  f"{undeclared}", file=sys.stderr)
            return 2
        for metric, (value, unit) in {**metrics, **extra}.items():
            print(f"{name} {metric} {value} {unit}")
        for failure in failures:
            print(f"{name} CHECK FAILED: {failure}")
        results["workloads"][name] = {
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "extra": {k: v for k, (v, _) in extra.items()},
            "failures": failures,
            "passes": all_passes,
        }
        summary["correct"] &= not failures
        summary["attempted"] += sum(p["attempted"] for p in all_passes)
        summary["failed"] += sum(p["failed"] for p in all_passes)
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric, unit in declared.items():
            summary["metrics"][prefix + metric] = {
                "value": metrics[metric][0], "unit": unit,
            }
    results["correct"] = summary["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
