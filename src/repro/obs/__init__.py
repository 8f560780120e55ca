"""``repro.obs`` — unified telemetry: spans, metrics, trace export.

The repository's own observability layer, applying the source paper's
discipline — attribute wall-clock to the stages of a heterogeneous
system — to the runtime itself.  Dependency-free and **disabled by
default**: instrumented hot paths call :func:`current` and pay one
``if`` when telemetry is off, and enabling it never changes a computed
result (the golden suites are bit-identical either way; a test enforces
this).

Typical use::

    from repro import obs

    obs.enable("campaigns/.telemetry")     # or REPRO_TELEMETRY=<dir>
    ...run campaigns / engines...
    obs.current().flush()

    events = obs.read_events("campaigns/.telemetry")

and export the recorded spans as a Chrome trace (open it in Perfetto)::

    python -m repro.explore trace campaigns --chrome trace.json

See ``docs/observability.md`` for the span/metric model and the CLI
(``python -m repro.explore trace/stats``).
"""

from repro.obs.attribution import (
    CRITPATH_EVENT,
    ExplainReport,
    critpath_records,
    edge_criticality,
    emit_report,
    explain,
    render_record,
)
from repro.obs.chrome import (
    chrome_trace,
    validate_chrome_trace,
)
from repro.obs.critpath import (
    CriticalPath,
    EventGraph,
    Hop,
    bsp_event_graph,
    engine_event_graph,
    event_graph,
    extract_paths,
    validate_path,
)
from repro.obs.provenance import (
    BSPProvenance,
    EngineProvenance,
    StageProvenance,
    SuperstepProvenance,
    TransferPassProvenance,
    rep_row,
)
from repro.obs.summary import (
    DEFAULT_SECONDS_EDGES,
    TELEMETRY_DIRNAME,
    campaign_runs,
    describe_empty_sink,
    merged_metrics,
    read_events,
    spans,
    telemetry_dir_for,
    top_spans,
    worker_utilization,
)
from repro.obs.telemetry import (
    ENV_VAR,
    Span,
    Telemetry,
    current,
    disable,
    enable,
    wallclock,
)

__all__ = [
    "CRITPATH_EVENT",
    "ENV_VAR",
    "TELEMETRY_DIRNAME",
    "DEFAULT_SECONDS_EDGES",
    "BSPProvenance",
    "CriticalPath",
    "EngineProvenance",
    "EventGraph",
    "ExplainReport",
    "Hop",
    "Span",
    "StageProvenance",
    "SuperstepProvenance",
    "Telemetry",
    "TransferPassProvenance",
    "bsp_event_graph",
    "campaign_runs",
    "chrome_trace",
    "critpath_records",
    "current",
    "describe_empty_sink",
    "disable",
    "edge_criticality",
    "emit_report",
    "enable",
    "engine_event_graph",
    "event_graph",
    "explain",
    "extract_paths",
    "merged_metrics",
    "read_events",
    "render_record",
    "rep_row",
    "spans",
    "telemetry_dir_for",
    "top_spans",
    "validate_chrome_trace",
    "validate_path",
    "wallclock",
    "worker_utilization",
]
