"""The benchmark's workloads, and one measured pass of a workload.

A *pass* runs in a fresh process, so no in-process memo (such as the
profile cache) carries over from an earlier pass:

1. set-up: import repro, build the workload's campaigns from the seed,
   expand their design spaces and build each preset machine once;
2. cold serve: evaluate every point into a fresh store (and check the
   goldens where the workload has them);
3. warm re-serves (``sweep-chunked`` only): serve the same points again,
   each time through a new ``Campaign`` that reloads the store.

Steps 2 and 3 are the pass's timed work.  The pass reports when it
started and ended, on the monotonic clock all processes share, so that
``run.py`` can tell how fast the host ran in that window.

``python workloads.py --workload NAME --seed N --store DIR --launched T``
runs one pass and prints its measurements as one JSON line; ``run.py``
launches the passes.  With ``--trace-dir`` the pass installs the ledger's
spans first and reports the ledger of its timed work.

Targets the ledger wraps are called through their module (``golden.
check_golden``), so the wrapped binding is the one used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import ledger

import repro.cluster.presets as presets
import repro.explore.golden as golden
from repro.explore.adaptive import AdaptivePlan, run_adaptive
from repro.explore.campaign import Campaign, run_campaign
from repro.explore.figures import GOLDEN_SUITES
from repro.explore.space import DesignSpace, canonical_json
from repro.explore.suites import (
    DEFAULT_GOLDENS_DIR,
    SuiteResult,
    SuiteSpec,
    get_suite,
)

#: The barrier patterns of the adaptive acceptance space.
PATTERNS = ["linear", "tree", "dissemination", "sequential", "kary-dissemination"]


@dataclass(frozen=True)
class CampaignInput:
    """One campaign of a workload; ``suite`` is set when its artifact is
    checked against a golden."""

    name: str
    experiment: str
    space: DesignSpace
    suite: SuiteSpec | None = None


@dataclass(frozen=True)
class Workload:
    """How a pass builds and serves one workload (why each workload was
    chosen is recorded in BENCHMARK.json and the README)."""

    name: str
    build: Callable[[int], list[CampaignInput]]
    executor: str | None = None
    workers: int | None = None
    #: Warm re-serves timed after the cold serve, in the same pass (for
    #: exhaustive workloads: a warm re-serve serves the whole space).
    warm_serves: int = 0
    #: seed -> plan; set for the adaptive workload, whose single campaign
    #: is served by the adaptive driver rather than exhaustively.
    plan: Callable[[int], AdaptivePlan] | None = None


def _golden_suites(seed: int) -> list[CampaignInput]:
    # The goldens are defined at the catalogue seed, so the seed is unused.
    return [
        CampaignInput(spec.name, spec.experiment, spec.space, suite=spec)
        for spec in map(get_suite, GOLDEN_SUITES)
    ]


def _seeded_suites(seed: int) -> list[CampaignInput]:
    campaigns = []
    # The four stencil implementations on the BSP runtime, and the halo
    # depth sweep through ``measure_halo_iteration``.
    for name in ("fig-8-4-to-8-7", "fig-8-18"):
        spec = get_suite(name)
        space = DesignSpace(
            axes=spec.space.axes,
            points=spec.space.points,
            constants={**spec.space.constants, "seed": seed},
        )
        campaigns.append(CampaignInput(name, spec.experiment, space))
    return campaigns


def _hrelation(seed: int) -> list[CampaignInput]:
    return [CampaignInput("hrelation", "bspbench-params", DesignSpace.from_dict({
        "axes": {"nprocs": [16, 24, 32]},
        "constants": {"preset": "xeon-8x2x4", "samples": 3, "seed": seed},
    }))]


def _sweep(seed: int) -> list[CampaignInput]:
    return [CampaignInput("sweep", "barrier-cost", DesignSpace.from_dict({
        "axes": {
            "pattern": PATTERNS,
            "nprocs": [4, 6, 8, 10, 12, 16],
            "seed": list(range(seed, seed + 20)),
            "runs": [2, 3],
        },
        "constants": {"preset": "xeon-8x2x4", "comm_samples": 3},
    }))]


def _adaptive_space(seed: int) -> list[CampaignInput]:
    return [CampaignInput("adaptive", "barrier-cost", DesignSpace.from_dict({
        "axes": {
            "pattern": PATTERNS,
            "nprocs": [4, 6, 8, 10, 12, 16, 20, 24],
            "seed": list(range(seed, seed + 25)),
            "runs": [2, 3, 4, 5, 6],
        },
        "constants": {"preset": "xeon-8x2x4", "comm_samples": 3},
    }))]


def _adaptive_plan(seed: int) -> AdaptivePlan:
    return AdaptivePlan(
        budget=336, strategy="surrogate", objective="measured_s", batch=28,
        seed=seed,
    )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("golden-cold", _golden_suites),
    Workload("bsp-stencil-cold", _seeded_suites),
    Workload("hrelation-cold", _hrelation),
    Workload("sweep-chunked", _sweep, executor="chunked", workers=2,
             warm_serves=10),
    Workload("adaptive-surrogate", _adaptive_space, plan=_adaptive_plan),
)}


def setup(workload: Workload, seed: int) -> list[CampaignInput]:
    """Build the inputs: campaigns, expanded spaces, preset machines."""
    campaigns = workload.build(seed)
    preset_names = set()
    for campaign in campaigns:
        # ``expand`` memoises on the space, so serving reuses this work.
        preset_names.update(p["preset"] for p in campaign.space.expand())
    for name in sorted(preset_names):
        presets.make_preset_machine(name, seed=seed)
    return campaigns


@dataclass
class Served:
    """What one serve of a workload produced."""

    records: list[tuple[str, list]]  # (campaign, records in serve order)
    attempted: int
    failed: int
    golden_failures: list[str]
    best_found_sim_s: float | None = None


def serve_cold(
    workload: Workload, campaigns: list[CampaignInput], seed: int, store: str
) -> Served:
    served = Served([], 0, 0, [])
    for c in campaigns:
        if workload.plan is not None:
            outcome = run_adaptive(
                c.name, c.space, c.experiment, workload.plan(seed),
                store_dir=store, executor=workload.executor,
                workers=workload.workers, on_error="store",
            )
            served.best_found_sim_s = float(outcome.best().value("measured_s"))
        else:
            outcome = run_campaign(
                c.name, c.space, c.experiment, store_dir=store,
                executor=workload.executor, workers=workload.workers,
                on_error="store",
            )
        if c.suite is not None:
            report = golden.check_golden(
                DEFAULT_GOLDENS_DIR, c.name,
                SuiteResult(spec=c.suite, outcome=outcome).artifact(),
                c.suite.tolerance,
            )
            if not report.ok:
                served.golden_failures.append(report.summary())
        served.records.append((c.name, list(outcome.results)))
        served.attempted += outcome.stats.total
        served.failed += outcome.stats.failed
    return served


def serve_warm(
    workload: Workload, campaigns: list[CampaignInput], store: str
) -> Served:
    """Re-serve every point of the (exhaustive) campaigns, each through a
    new ``Campaign`` that reloads the store."""
    served = Served([], 0, 0, [])
    for c in campaigns:
        campaign = Campaign(
            c.name, c.space, c.experiment, store_dir=store,
            executor=workload.executor, workers=workload.workers,
            on_error="store",
        )
        records, stats = campaign.serve(c.space.expand())
        served.records.append((c.name, records))
        served.attempted += stats.total
        served.failed += stats.failed
    return served


def result_digest(served: Served) -> str:
    """sha256 of the canonical JSON of every record in serve order (for
    the adaptive workload, serve order is the proposal sequence)."""
    h = hashlib.sha256()
    for name, records in served.records:
        h.update(canonical_json(
            {"campaign": name, "records": [r.to_dict() for r in records]}
        ).encode())
    return h.hexdigest()


def peak_rss_mib() -> float:
    """Largest resident set of this process and its waited-for children
    (the pool workers), in MiB (``ru_maxrss`` is KiB on Linux)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def run_pass(args: argparse.Namespace) -> dict:
    tracer = None
    if args.trace_dir:
        tracer = ledger.Tracer(args.trace_dir)
        ledger.install(tracer)
    workload = WORKLOADS[args.workload]
    campaigns = setup(workload, args.seed)
    out: dict = {"setup_s": perf_counter() - args.launched}

    # The timed work: the cold serve, then the warm re-serves.
    start = perf_counter()
    cold = serve_cold(workload, campaigns, args.seed, args.store)
    out["cold_s"] = perf_counter() - start
    out["warm_s"] = []
    warm_digests = []
    attempted, failed = cold.attempted, cold.failed
    for _ in range(workload.warm_serves):
        warm_start = perf_counter()
        warm = serve_warm(workload, campaigns, args.store)
        out["warm_s"].append(perf_counter() - warm_start)
        warm_digests.append(result_digest(warm))
        attempted += warm.attempted
        failed += warm.failed
    end = perf_counter()

    digest = result_digest(cold)
    out.update(
        start=start,
        end=end,
        wall_s=end - start,
        points=cold.attempted,
        attempted=attempted,
        failed=failed,
        golden_failures=cold.golden_failures,
        digest=digest,
        warm_digests_match=all(d == digest for d in warm_digests),
        best_found_sim_s=cold.best_found_sim_s,
        store_bytes=sum(
            p.stat().st_size for p in Path(args.store).rglob("*") if p.is_file()
        ),
        peak_rss_mb=peak_rss_mib(),
    )
    if tracer is not None:
        spans = tracer.spans + ledger.read_worker_spans(args.trace_dir)
        out["ledger"] = asdict(ledger.attribute(spans, start, end))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True,
                        help="fresh directory for this pass's result store")
    parser.add_argument("--launched", type=float, required=True,
                        help="perf_counter() reading when the pass launched")
    parser.add_argument("--trace-dir", help="record spans (a traced pass)")
    print(json.dumps(run_pass(parser.parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
