"""Observability: pipeline tracing, metrics, and trace exporters.

The substrate behind ``dce-hunt analyze --trace``, ``dce-hunt
profile`` and ``dce-hunt campaign --metrics-out``: a span tracer wired
through the pass pipeline, interpreter and campaign runner, a metrics
registry for campaign-level tallies and latency histograms, and
JSON/JSONL exporters plus per-pass attribution readers.  The telemetry
pipeline lives here too: the typed campaign event stream
(:mod:`.events`), the persistent SQLite run ledger (:mod:`.ledger`),
run reports and cross-run regression comparison (:mod:`.report`), and
the live TTY dashboard (:mod:`.dashboard`).
"""

from .attribution import (
    PASS_SPAN,
    PIPELINE_SPAN,
    PassContribution,
    PassProfile,
    aggregate_contributions,
    marker_attribution,
    pass_profiles,
)
from .export import (
    format_trace,
    read_spans_jsonl,
    spans_to_dicts,
    write_spans_jsonl,
    write_trace_json,
)
from .dashboard import LiveDashboard, ProgressPrinter
from .events import (
    Event,
    EventBus,
    JsonlEventWriter,
    read_events_jsonl,
    strip_timestamps,
)
from .ledger import (
    CASE_STATES,
    CaseRow,
    FindingRow,
    RunLedger,
    RunRow,
    finding_fingerprint,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .report import (
    CompareThresholds,
    RunComparison,
    compare_runs,
    comparison_text,
    run_report_html,
    run_report_text,
)
from .tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "CASE_STATES",
    "NULL_SPAN",
    "PASS_SPAN",
    "PIPELINE_SPAN",
    "CaseRow",
    "CompareThresholds",
    "Counter",
    "Event",
    "EventBus",
    "FindingRow",
    "Gauge",
    "Histogram",
    "JsonlEventWriter",
    "LiveDashboard",
    "MetricsRegistry",
    "PassContribution",
    "PassProfile",
    "ProgressPrinter",
    "RunComparison",
    "RunLedger",
    "RunRow",
    "Span",
    "Tracer",
    "aggregate_contributions",
    "compare_runs",
    "comparison_text",
    "current_tracer",
    "finding_fingerprint",
    "format_trace",
    "marker_attribution",
    "pass_profiles",
    "read_events_jsonl",
    "read_spans_jsonl",
    "run_report_html",
    "run_report_text",
    "set_tracer",
    "spans_to_dicts",
    "strip_timestamps",
    "use_tracer",
    "write_spans_jsonl",
    "write_trace_json",
]
