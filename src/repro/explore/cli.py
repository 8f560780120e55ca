"""``python -m repro.explore`` — run and inspect experiment campaigns.

Subcommands:

* ``run SPEC.json``  — execute a campaign described by a JSON spec file,
* ``adapt SPEC.json --budget N`` — explore the spec's design space
  adaptively: evaluate only the points the chosen ``--strategy``
  (``surrogate``, ``stratified``, ``halving``, ``random``) proposes,
* ``suite [NAME]``   — regenerate a thesis figure/table suite, check its
  shape claims, and optionally compare against / refresh its golden
  artifact (``--check`` / ``--update-goldens``); without a name, list
  the registered suites,
* ``drift NAME``     — localise a failed golden to the smallest
  offending axis region by bisection probing,
* ``ls``             — list the campaigns in a store directory,
* ``results STORE``  — summarise a campaign store (counts, metric
  ranges, the last telemetry-enabled run and what changed since the one
  before), print its records as a table (``--table --sort M --limit
  N``), and optionally export them as CSV,
* ``trace [STORE_DIR]`` — export a store's recorded telemetry as a
  Chrome ``trace_event`` file (``--chrome out.json``, loadable in
  Perfetto) or a merged metrics snapshot (``--metrics out.json``);
  ``--explain`` renders recorded critical-path reports and adds a
  flow-arrow lane to the Chrome export,
* ``explain [STORE_DIR]`` — render the critical-path/attribution
  reports recorded in a store's telemetry sink,
* ``stats [STORE_DIR]`` — report each campaign's last recorded run,
  profile-cache hit rates, and (``--telemetry``) top-k slowest points
  and per-worker utilization from the recorded spans,
* ``presets``        — list the registered cluster presets,
* ``experiments``    — list the registered experiments, each with its
  point parameters, their types and defaults.  A spec whose space names
  a parameter its experiment does not declare fails before any point
  runs.

``run``, ``adapt``, and ``suite`` accept ``--telemetry`` to record
spans and metrics under ``<store>/.telemetry`` while they work (the
``REPRO_TELEMETRY`` environment variable does the same); telemetry
never changes computed results.

A spec file is pure data::

    {
      "name": "barrier-ranking",
      "experiment": "barrier-cost",
      "space": {
        "axes": {
          "preset": ["xeon-8x2x4", "opteron-12x2x6"],
          "pattern": ["linear", "tree", "dissemination"],
          "nprocs": [8, 16, 32]
        },
        "constants": {"runs": 16}
      }
    }
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.explore.campaign import (
    Campaign,
    CampaignPointError,
    EXECUTORS,
    make_executor,
)
from repro.explore.results import ResultSet
from repro.explore.space import DesignSpace
from repro.util.tables import format_table

DEFAULT_STORE = os.path.join(".", "campaigns")


def _load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read spec {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"spec {path!r} is not valid JSON: {exc}") from None
    for field in ("name", "experiment", "space"):
        if field not in spec:
            raise SystemExit(f"spec {path!r} is missing the {field!r} field")
    return spec


def _maybe_enable_telemetry(args: argparse.Namespace) -> None:
    if getattr(args, "telemetry", False):
        from repro import obs

        obs.enable()


def _policy_from_args(args: argparse.Namespace):
    """Build the :class:`RetryPolicy` the resilience flags describe, or
    ``None`` when neither flag was given (plain execution)."""
    retries = getattr(args, "max_retries", 0) or 0
    timeout = getattr(args, "point_timeout", None)
    if retries < 0:
        raise SystemExit("--max-retries must be >= 0")
    if not retries and timeout is None:
        return None
    from repro.explore.resilience import RetryPolicy

    return RetryPolicy(max_attempts=retries + 1, point_timeout_s=timeout)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    _maybe_enable_telemetry(args)
    try:
        campaign = Campaign(
            spec["name"],
            DesignSpace.from_dict(spec["space"]),
            spec["experiment"],
            store_dir=args.store_dir,
            executor=args.executor,
            workers=args.workers,
            on_error="store" if args.keep_going else "raise",
            policy=_policy_from_args(args),
            degrade=args.degrade,
        )
        outcome = campaign.run()
    except CampaignPointError as exc:
        raise SystemExit(f"{exc}\n(use --keep-going to record failed "
                         f"points and continue)") from None
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    stats = outcome.stats
    quarantined = (
        f", {stats.quarantined} quarantined" if stats.quarantined else ""
    )
    print(
        f"campaign {outcome.name!r}: {stats.total} points "
        f"({stats.evaluated} computed, {stats.cached} served "
        f"from cache, {stats.failed} failed{quarantined}; cache hit rate "
        f"{stats.cache_hit_rate:.0%})"
    )
    _print_results(outcome.results, sort=args.sort, limit=args.limit)
    return 0


def _parse_option(item: str) -> tuple[str, object]:
    """One ``key=value`` strategy option; the value parses as JSON when it
    can (``eta=2`` is a number, ``fidelity=runs`` a string)."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise SystemExit(f"--option wants KEY=VALUE, got {item!r}")
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _cmd_adapt(args: argparse.Namespace) -> int:
    from repro.explore.adaptive import AdaptivePlan, run_adaptive

    spec = _load_spec(args.spec)
    _maybe_enable_telemetry(args)
    if args.objective is None and not args.objectives:
        raise SystemExit(
            "adapt needs --objective METRIC (or --objectives for Pareto "
            "search)"
        )
    if args.maximize is None:
        maximize: bool | tuple[str, ...] = False
    elif args.maximize == []:
        maximize = True
    else:
        maximize = tuple(args.maximize)
    try:
        plan = AdaptivePlan(
            budget=args.budget,
            strategy=args.strategy,
            objective=args.objective,
            objectives=tuple(args.objectives or ()),
            maximize=maximize,
            batch=args.batch,
            seed=args.seed,
            options=dict(
                _parse_option(item) for item in (args.option or [])
            ),
        )
        outcome = run_adaptive(
            spec["name"],
            DesignSpace.from_dict(spec["space"]),
            spec["experiment"],
            plan,
            store_dir=args.store_dir,
            executor=args.executor,
            workers=args.workers,
            on_error="store" if args.keep_going else "raise",
            policy=_policy_from_args(args),
            degrade=args.degrade,
        )
    except CampaignPointError as exc:
        raise SystemExit(f"{exc}\n(use --keep-going to record failed "
                         f"points and continue)") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    stats = outcome.stats
    quarantined = (
        f", {stats.quarantined} quarantined" if stats.quarantined else ""
    )
    print(
        f"adaptive campaign {outcome.name!r} [{plan.strategy}]: "
        f"{stats.proposed} of {stats.space_size} points "
        f"({stats.coverage:.1%} coverage) in {stats.rounds} rounds; "
        f"{stats.evaluated} evaluated, {stats.cached} cached, "
        f"{stats.failed} failed{quarantined}"
    )
    if plan.objective is not None:
        try:
            best = outcome.best()
        except ValueError as exc:
            # No successful record carries the objective: a typo'd metric
            # name, or every point failed under --keep-going.  The store
            # has the evaluations; the report must say why there is no
            # ranking rather than traceback.
            raise SystemExit(
                f"{exc}\n(check the metric name against "
                f"`python -m repro.explore experiments`, and the store "
                f"for failed points)"
            ) from None
        print(f"best {plan.objective}: {best.value(plan.objective)!r} "
              f"at {dict(best.point)!r}")
        shown = outcome.results.rank_by(
            plan.objective, ascending=plan.ascending
        )
    else:
        shown = outcome.front()
        print(f"observed Pareto front: {len(shown)} points")
    _print_results(shown, sort=args.sort, limit=args.limit or 10)
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    from repro.explore.adaptive import localize_drift
    from repro.explore.suites import get_suite

    try:
        spec = get_suite(args.name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    _maybe_enable_telemetry(args)
    try:
        report = localize_drift(
            spec,
            goldens_dir=args.goldens_dir,
            store_dir=args.store_dir,
            executor=args.executor,
            workers=args.workers,
            seed=args.seed,
            probe_limit=args.probe_limit,
        )
    except FileNotFoundError as exc:
        raise SystemExit(
            f"no golden for suite {args.name!r}: {exc}"
        ) from None
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.explore.golden import check_golden, update_golden
    from repro.explore.suites import (
        ClaimFailure,
        get_suite,
        run_suite,
        suite_names,
    )

    if args.name is None:
        rows = []
        for name in suite_names():
            spec = get_suite(name)
            rows.append([name, spec.experiment, len(spec.space),
                         len(spec.claims), spec.title])
        print(format_table(
            ["suite", "experiment", "points", "claims", "title"], rows
        ))
        return 0

    try:
        spec = get_suite(args.name)
    except KeyError as exc:
        # str() of a KeyError wraps the message in repr quotes.
        raise SystemExit(exc.args[0]) from None
    _maybe_enable_telemetry(args)
    # Validate the executor spec up front: the --update-goldens path below
    # destroys the suite's cache, which must not happen on an invocation
    # that was never going to run.
    try:
        executor = make_executor(args.executor, args.workers)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    # Golden updates must reflect the current code: store keys hash only
    # (experiment, point), so a cached entry can predate an experiment
    # change — drop this suite's store file and let the run repopulate it,
    # keeping cache and golden consistent for follow-up --check runs.
    if args.update_goldens:
        stale = Campaign.results_path(args.store_dir, spec.name)
        if os.path.exists(stale):
            os.remove(stale)
        # Memoized comm profiles are also store state: drop them so the
        # regenerated golden reflects the current benchmark protocol.
        from repro.bench.profile_cache import PROFILE_CACHE, store_path_for

        stale_profiles = store_path_for(args.store_dir)
        if os.path.exists(stale_profiles):
            os.remove(stale_profiles)
        PROFILE_CACHE.clear_memory()
        PROFILE_CACHE.configure(None)
    try:
        result = run_suite(spec, store_dir=args.store_dir, executor=executor)
    except CampaignPointError as exc:
        raise SystemExit(str(exc)) from None
    print(result.render())

    try:
        checked = result.check_claims()
    except ClaimFailure as exc:
        print(f"CLAIM FAILED: {exc}")
        return 1
    if checked:
        print(f"claims ok: {', '.join(checked)}")

    if args.update_goldens:
        path = update_golden(args.goldens_dir, spec.name, result.artifact())
        print(f"golden updated: {path}")
    elif args.check:
        if result.stats.cached:
            print(
                f"note: {result.stats.cached}/{result.stats.total} points "
                f"served from the store cache; delete "
                f"{Campaign.results_path(args.store_dir, spec.name)!r} "
                f"to check against a from-scratch regeneration"
            )
        report = check_golden(
            args.goldens_dir, spec.name, result.artifact(), spec.tolerance
        )
        print(report.summary())
        if not report.ok:
            return 1
    return 0


def _store_files(store_dir: str) -> list[str]:
    if not os.path.isdir(store_dir):
        return []
    return sorted(
        f for f in os.listdir(store_dir)
        if f.endswith(".jsonl") and not f.endswith(".quarantine.jsonl")
    )


def _cmd_ls(args: argparse.Namespace) -> int:
    files = _store_files(args.store_dir)
    if not files:
        print(f"no campaigns under {args.store_dir!r}")
        return 0
    from repro.explore.cache import ResultCache

    rows = []
    for fname in files:
        path = os.path.join(args.store_dir, fname)
        # Live records only: torn lines and superseded puts don't count.
        rows.append([fname[: -len(".jsonl")], len(ResultCache(path)), path])
    print(format_table(["campaign", "records", "path"], rows))
    return 0


def _load_store(path: str) -> ResultSet:
    """A store's live records as a ResultSet, rebuilt from its cache
    entries through ResultCache (which skips unreadable lines)."""
    from repro.explore.cache import ResultCache
    from repro.explore.results import ResultRecord

    cache = ResultCache(path)
    records = []
    # Store append order *is* the canonical display order (one JSONL
    # file read sequentially — deterministic per store, and the run
    # order is what a human wants to see).
    for key in cache.keys():  # repro: allow[DET004]
        entry = cache.get(key)
        records.append(ResultRecord(
            key=key,
            experiment=entry.get("experiment", ""),
            point=entry.get("point", {}),
            metrics=entry.get("metrics", entry),
        ))
    return ResultSet(tuple(records))


def _store_records(args: argparse.Namespace) -> tuple[str, ResultSet]:
    """Resolve the ``results`` argument: a JSONL path, or a campaign name
    under ``--store-dir``; returns (path, records)."""
    from repro.explore.resilience import quarantine_path

    if os.path.exists(args.store) and not os.path.isdir(args.store):
        path = args.store
    else:
        path = Campaign.results_path(args.store_dir, args.store)
        if not os.path.exists(path) and not os.path.exists(
            quarantine_path(path)
        ):
            # A store whose every point quarantined has a sidecar but no
            # result file; that is still a reportable campaign.
            raise SystemExit(
                f"no store file {args.store!r} and no stored campaign "
                f"{args.store!r} under {args.store_dir!r} (expected {path})"
            )
    return path, _load_store(path)


def _cmd_results(args: argparse.Namespace) -> int:
    path, results = _store_records(args)
    summary = results.summary()
    print(f"{path}: {summary['records']} records "
          f"({summary['failed']} failed), "
          f"experiments: {', '.join(summary['experiments']) or '(none)'}")
    _print_last_run(path)
    quarantined = _print_quarantine(path)
    if summary["parameters"]:
        rows = [[n, c] for n, c in summary["parameters"].items()]
        print(format_table(["parameter", "distinct values"], rows))
    if summary["metrics"]:
        rows = [
            [name, m["count"], m["min"], m["mean"], m["max"]]
            for name, m in summary["metrics"].items()
        ]
        print(format_table(["metric", "count", "min", "mean", "max"], rows))
    if args.csv:
        columns = results.to_csv(args.csv)
        print(f"wrote {len(results)} records x {len(columns)} columns "
              f"to {args.csv}")
    if args.table:
        _print_results(results, sort=args.sort, limit=args.limit)
    if args.strict and (quarantined or summary["failed"]):
        print(
            f"strict: {quarantined} quarantined point(s), "
            f"{summary['failed']} failed record(s) — failing"
        )
        return 1
    return 0


def _print_quarantine(store_path: str) -> int:
    """Report the store's quarantine sidecar (points that exhausted a
    retry policy), newest record per point; returns the distinct-point
    count.  Silent when no sidecar exists."""
    from repro.explore.resilience import quarantine_path, read_quarantine

    records = read_quarantine(quarantine_path(store_path))
    if not records:
        return 0
    latest: dict[str, dict] = {}
    for record in records:  # append order: later entries are newer
        latest[str(record.get("key"))] = record
    print(f"quarantined: {len(latest)} point(s) exhausted their retry "
          f"budget")
    rows = []
    for key, record in latest.items():
        error = str(record.get("error") or "?")
        if len(error) > 60:
            error = error[:57] + "..."
        rows.append([
            key,
            record.get("attempts") or "?",
            record.get("reason") or "?",
            error,
        ])
    print(format_table(["key", "attempts", "reason", "last error"], rows))
    return len(latest)


def _print_last_run(store_path: str) -> None:
    """Report the last telemetry-enabled run against one store file:
    served-from-cache vs computed split, and what changed vs the run
    before.  Silent when the store's sink records no run of it."""
    from repro import obs
    from repro.obs.summary import RUN_COUNTS

    store_dir = os.path.dirname(store_path) or "."
    name = os.path.basename(store_path)
    if name.endswith(".jsonl"):
        name = name[: -len(".jsonl")]
    events = obs.read_events(obs.telemetry_dir_for(store_dir))
    runs = obs.campaign_runs(events)
    if name not in runs:
        return
    *earlier, last = runs[name]
    st = last["attrs"]
    rate = st["cached"] / st["total"] if st["total"] else 0.0
    qpart = f" ({st['quarantined']} quarantined)" if st["quarantined"] else ""
    print(
        f"last run: {st['evaluated']} computed, "
        f"{st['cached']} served from cache (hit rate {rate:.0%}), "
        f"{st['failed']} failed{qpart} in {last['dur']:.2f}s"
    )
    if earlier:
        before = earlier[-1]["attrs"]
        parts = [
            f"{key} {st[key] - before[key]:+d}"
            for key in RUN_COUNTS if st[key] != before[key]
        ]
        parts.append(f"wall {last['dur'] - earlier[-1]['dur']:+.2f}s")
        print(f"vs previous run: {', '.join(parts)}")


def _telemetry_store(args: argparse.Namespace) -> str:
    store = args.store if args.store is not None else args.store_dir
    if not os.path.isdir(store):
        raise SystemExit(f"no store directory {store!r}")
    return store


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    store = _telemetry_store(args)
    sink = obs.telemetry_dir_for(store)
    events = obs.read_events(sink)
    if not events:
        raise SystemExit(
            f"{obs.describe_empty_sink(sink)}\n(run campaigns with "
            f"--telemetry or REPRO_TELEMETRY=1 first)"
        )
    n_spans = sum(1 for e in events if e.get("type") == "span")
    n_metrics = sum(1 for e in events if e.get("type") == "metric")
    pids = sorted({int(e.get("pid", 0)) for e in events})
    print(f"{sink}: {len(events)} events ({n_spans} spans, {n_metrics} "
          f"metric updates) from {len(pids)} process(es)")
    critpath = None
    if args.explain:
        critpath = obs.critpath_records(events)
        if critpath:
            for record in critpath:
                print(obs.render_record(record))
        else:
            print("no critpath reports in this sink — run a "
                  "provenance-enabled simulation first (see `explain -h`)")
            critpath = None
    if args.chrome:
        doc = obs.chrome_trace(events, critpath=critpath)
        complete = obs.validate_chrome_trace(doc)
        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        print(f"wrote Chrome trace: {args.chrome} ({complete} complete "
              f"events; load in Perfetto or chrome://tracing)")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(obs.merged_metrics(events), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"wrote metrics snapshot: {args.metrics}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro import obs

    store = _telemetry_store(args)
    sink = obs.telemetry_dir_for(store)
    events = obs.read_events(sink)
    if not events:
        raise SystemExit(obs.describe_empty_sink(sink))
    records = obs.critpath_records(events)
    if not records:
        raise SystemExit(
            f"telemetry sink {sink} holds {len(events)} event(s) but no "
            f"critpath reports — run a provenance-enabled simulation "
            f"(e.g. the stencil-run experiment with critpath=true) or "
            f"emit one with repro.obs.emit_report()"
        )
    if args.label is not None:
        matched = [r for r in records if r.get("label") == args.label]
        if not matched:
            labels = sorted({
                str(r.get("label") or "(unlabelled)") for r in records
            })
            raise SystemExit(
                f"no critpath report labelled {args.label!r}; recorded "
                f"labels: {', '.join(labels)}"
            )
        records = matched
    if args.last:
        records = records[-args.last:]
    for index, record in enumerate(records):
        if index:
            print()
        print(obs.render_record(record))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import time as _time

    from repro import obs

    store = _telemetry_store(args)
    sink = obs.telemetry_dir_for(store)
    events = obs.read_events(sink)
    runs = obs.campaign_runs(events)
    if runs:
        rows = []
        for name, (*_, last) in sorted(runs.items()):
            st = last["attrs"]
            rows.append([
                name,
                _time.strftime(
                    "%Y-%m-%d %H:%M:%S",
                    _time.localtime(last["ts"] + last["dur"]),
                ),
                f"{last['dur']:.2f}",
                st["total"],
                st["evaluated"],
                st["cached"],
                st["failed"],
            ])
        print(format_table(
            ["campaign", "last run", "wall [s]", "points", "computed",
             "cached", "failed"],
            rows,
        ))
    else:
        print(f"no run summaries under {sink!r}")

    metrics = obs.merged_metrics(events)
    counters = metrics["counters"]
    hits = int(counters.get("profile_cache.hits", {}).get("total", 0))
    misses = int(counters.get("profile_cache.misses", {}).get("total", 0))
    if hits or misses:
        bench_s = metrics["histograms"].get(
            "profile_cache.benchmark_seconds", {}
        ).get("total", 0.0)
        print(
            f"profile cache: {hits} hits, {misses} misses "
            f"(hit rate {hits / (hits + misses):.0%}); "
            f"{bench_s:.2f}s spent benchmarking"
        )

    if args.telemetry:
        if not events:
            print(obs.describe_empty_sink(sink), file=sys.stderr)
            return 1
        top = obs.top_spans(events, k=args.top)
        if top:
            rows = [
                [
                    f"{s.get('dur', 0.0) * 1e3:.2f}",
                    int(s.get("pid", 0)),
                    s.get("attrs", {}).get("experiment", ""),
                    json.dumps(s.get("attrs", {}).get("point", {}),
                               sort_keys=True),
                ]
                for s in top
            ]
            print(f"top {len(top)} slowest points:")
            print(format_table(["host ms", "pid", "experiment", "point"],
                               rows))
        workers = obs.worker_utilization(events)
        if workers:
            rows = [
                [
                    w["pid"], w["tid"], w["spans"], f"{w['busy_s']:.3f}",
                    f"{w['utilization']:.0%}",
                    f"{w['start_offset_s']:.3f}",
                    f"{w['end_offset_s']:.3f}",
                ]
                for w in workers
            ]
            print("worker utilization (campaign.point and .group spans):")
            print(format_table(
                ["pid", "tid", "points", "busy [s]", "util",
                 "first start [s]", "last end [s]"],
                rows,
            ))
        if not top and not workers:
            print("no recorded campaign.point spans")
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    from repro.cluster.presets import PRESETS

    rows = [
        [name, preset.total_cores, preset.description]
        for name, preset in sorted(PRESETS.items())
    ]
    print(format_table(["preset", "cores", "description"], rows))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.explore.experiments import EXPERIMENTS, REQUIRED

    for i, (name, exp) in enumerate(sorted(EXPERIMENTS.items())):
        rows = [
            [key, cast.__name__.lstrip("_"),
             "(required)" if default is REQUIRED else json.dumps(default)]
            for key, (cast, default) in exp.params.items()
        ]
        print(("\n" if i else "") + f"{name}: {exp.description}")
        print(format_table(["parameter", "type", "default"], rows))
    return 0


def _print_results(results: ResultSet, sort: str | None, limit: int | None):
    if not len(results):
        print("(no records)")
        return
    if sort:
        results = results.rank_by(sort)
    if limit:
        results = ResultSet(results.records[:limit])
    columns = [
        c for c in results.point_names() + results.metric_names()
        if c != "traceback"  # multiline; available in the stored record
    ]
    rows = results.to_rows(columns)
    print(format_table(columns, rows))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-explore",
        description="declarative design-space exploration campaigns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p):
        p.add_argument(
            "--store-dir", default=DEFAULT_STORE,
            help=f"campaign result store (default: {DEFAULT_STORE})",
        )

    def add_display(p):
        p.add_argument("--sort", help="metric to sort the table by")
        p.add_argument("--limit", type=int, help="show at most N rows")

    def add_telemetry(p):
        p.add_argument(
            "--telemetry", action="store_true",
            help="record spans/metrics under <store>/.telemetry "
                 "(never changes results; see `trace` and `stats`)",
        )

    def add_resilience(p):
        p.add_argument(
            "--max-retries", type=int, default=0, metavar="N",
            help="retry a failed point up to N times with deterministic "
                 "exponential backoff before quarantining it (default: 0)",
        )
        p.add_argument(
            "--point-timeout", type=float, default=None, metavar="SECONDS",
            help="per-point wall-clock deadline, enforced by the pool "
                 "executors (a blown deadline counts as one failed "
                 "attempt); the serial executor cannot preempt and "
                 "ignores it",
        )
        p.add_argument(
            "--degrade", action="store_true",
            help="after repeated worker-pool death, finish the remaining "
                 "points serially in-process instead of aborting",
        )

    p_run = sub.add_parser("run", help="run a campaign from a JSON spec")
    p_run.add_argument("spec", help="path to the campaign spec file")
    p_run.add_argument(
        "--executor", choices=sorted(EXECUTORS), default="serial"
    )
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument(
        "--keep-going", action="store_true",
        help="record failed points instead of aborting",
    )
    add_resilience(p_run)
    add_store(p_run)
    add_display(p_run)
    add_telemetry(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_adapt = sub.add_parser(
        "adapt",
        help="explore a spec's design space adaptively under a budget",
    )
    p_adapt.add_argument("spec", help="path to the campaign spec file")
    p_adapt.add_argument(
        "--budget", type=int, required=True,
        help="maximum number of design points to observe",
    )
    p_adapt.add_argument(
        "--strategy", default="surrogate",
        help="sampling strategy: surrogate (default), stratified, "
             "halving, random (aliases: lhs, active)",
    )
    p_adapt.add_argument(
        "--objective", default=None,
        help="metric to optimise (minimised unless --maximize)",
    )
    p_adapt.add_argument(
        "--objectives", nargs="+", default=None, metavar="METRIC",
        help="several metrics: Pareto search instead of a single optimum",
    )
    p_adapt.add_argument(
        "--maximize", nargs="*", default=None, metavar="METRIC",
        help="maximise the objective (bare flag) or the named metrics",
    )
    p_adapt.add_argument("--batch", type=int, default=16)
    p_adapt.add_argument("--seed", type=int, default=0)
    p_adapt.add_argument(
        "--option", action="append", metavar="KEY=VALUE",
        help="strategy option, repeatable (e.g. fidelity=runs, eta=2, "
             "explore=0.5)",
    )
    p_adapt.add_argument(
        "--executor", choices=sorted(EXECUTORS), default="serial"
    )
    p_adapt.add_argument("--workers", type=int, default=None)
    p_adapt.add_argument(
        "--keep-going", action="store_true",
        help="record failed points instead of aborting",
    )
    add_resilience(p_adapt)
    add_store(p_adapt)
    add_display(p_adapt)
    add_telemetry(p_adapt)
    p_adapt.set_defaults(fn=_cmd_adapt)

    from repro.explore.suites import DEFAULT_GOLDENS_DIR, DEFAULT_SUITE_STORE

    p_suite = sub.add_parser(
        "suite",
        help="regenerate a figure/table suite and check its claims/golden",
    )
    p_suite.add_argument(
        "name", nargs="?", default=None,
        help="suite to regenerate (omit to list registered suites)",
    )
    p_suite.add_argument(
        "--executor", choices=sorted(EXECUTORS), default="chunked"
    )
    p_suite.add_argument("--workers", type=int, default=None)
    group = p_suite.add_mutually_exclusive_group()
    group.add_argument(
        "--check", action="store_true",
        help="compare the regenerated artifact against its golden",
    )
    group.add_argument(
        "--update-goldens", action="store_true",
        help="write the regenerated artifact as the new golden",
    )
    p_suite.add_argument(
        "--goldens-dir", default=DEFAULT_GOLDENS_DIR,
        help=f"golden artifact directory (default: {DEFAULT_GOLDENS_DIR})",
    )
    p_suite.add_argument(
        "--store-dir", default=DEFAULT_SUITE_STORE,
        help=f"suite campaign store (default: {DEFAULT_SUITE_STORE})",
    )
    add_telemetry(p_suite)
    p_suite.set_defaults(fn=_cmd_suite)

    p_drift = sub.add_parser(
        "drift",
        help="localise a failed golden to the offending axis region",
    )
    p_drift.add_argument("name", help="suite whose golden drifted")
    p_drift.add_argument(
        "--goldens-dir", default=DEFAULT_GOLDENS_DIR,
        help=f"golden artifact directory (default: {DEFAULT_GOLDENS_DIR})",
    )
    p_drift.add_argument(
        "--store-dir", default=None,
        help="probe store (default: none — probes must reflect current "
             "code, not a stale cache)",
    )
    p_drift.add_argument(
        "--executor", choices=sorted(EXECUTORS), default="serial"
    )
    p_drift.add_argument("--workers", type=int, default=None)
    p_drift.add_argument("--seed", type=int, default=0)
    p_drift.add_argument(
        "--probe-limit", type=int, default=None,
        help="stop the witness search after N probes (default: the "
             "whole space)",
    )
    add_telemetry(p_drift)
    p_drift.set_defaults(fn=_cmd_drift)

    p_ls = sub.add_parser("ls", help="list stored campaigns")
    add_store(p_ls)
    p_ls.set_defaults(fn=_cmd_ls)

    p_results = sub.add_parser(
        "results",
        help="summarise a campaign store and optionally export CSV",
    )
    p_results.add_argument(
        "store", help="path to a store .jsonl file, or a campaign name "
                      "resolved under --store-dir",
    )
    p_results.add_argument("--csv", help="write the records to this CSV file")
    p_results.add_argument(
        "--table", action="store_true", help="also print the full table"
    )
    p_results.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when the store holds failed records or its "
             "quarantine sidecar holds any points",
    )
    add_store(p_results)
    add_display(p_results)
    p_results.set_defaults(fn=_cmd_results)

    p_trace = sub.add_parser(
        "trace",
        help="export recorded telemetry (Chrome trace, metrics snapshot)",
    )
    p_trace.add_argument(
        "store", nargs="?", default=None,
        help="store directory holding .telemetry (default: --store-dir)",
    )
    p_trace.add_argument(
        "--chrome", metavar="OUT.json",
        help="write a Chrome trace_event file (Perfetto-loadable)",
    )
    p_trace.add_argument(
        "--metrics", metavar="OUT.json",
        help="write the merged metrics snapshot",
    )
    p_trace.add_argument(
        "--explain", action="store_true",
        help="render recorded critical-path reports and add a "
             "flow-arrow lane to the --chrome export",
    )
    add_store(p_trace)
    p_trace.set_defaults(fn=_cmd_trace)

    p_explain = sub.add_parser(
        "explain",
        help="render recorded critical-path / attribution reports",
    )
    p_explain.add_argument(
        "store", nargs="?", default=None,
        help="store directory holding .telemetry (default: --store-dir)",
    )
    p_explain.add_argument(
        "--label", default=None,
        help="only reports with this label",
    )
    p_explain.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the N most recent matching reports",
    )
    add_store(p_explain)
    p_explain.set_defaults(fn=_cmd_explain)

    p_stats = sub.add_parser(
        "stats",
        help="report recorded runs, cache rates, and span-derived stats",
    )
    p_stats.add_argument(
        "store", nargs="?", default=None,
        help="store directory (default: --store-dir)",
    )
    p_stats.add_argument(
        "--telemetry", action="store_true",
        help="also report top-k slowest points and worker utilization "
             "from the recorded spans",
    )
    p_stats.add_argument(
        "--top", type=int, default=10,
        help="slowest points to list with --telemetry (default: 10)",
    )
    add_store(p_stats)
    p_stats.set_defaults(fn=_cmd_stats)

    sub.add_parser(
        "presets", help="list cluster presets"
    ).set_defaults(fn=_cmd_presets)
    sub.add_parser(
        "experiments",
        help="list registered experiments and their point parameters",
    ).set_defaults(fn=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
