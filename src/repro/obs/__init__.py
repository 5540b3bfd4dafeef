"""Telemetry spine: metrics registry, span tracing, simulation event taps.

Three layers, all stdlib-only and all pure observers (a metric-instrumented,
traced, tapped run is bitwise-identical to a bare one — pinned in tests):

``metrics`` / ``prometheus``
    Process-global :class:`MetricsRegistry` of counters, gauges and
    histograms, rendered as Prometheus exposition text by the service's
    ``GET /metrics`` route and the ``repro-experiments metrics`` CLI.
``tracing`` / ``chrome_trace``
    :func:`trace_span` structured spans written as JSON lines (monotonic
    clock, pid/tid, parent span), exportable to Chrome/Perfetto trace-event
    JSON for a visual timeline of a whole sweep.
``taps``
    Opt-in hooks recording the hot loops' scheduling decisions
    (owner arrivals, preemptions, migrations, admissions) into the same
    trace stream — the first event-by-event policy debugging tool.

Layering (enforced by lint rule SL007): engine, service and backend modules
may import ``repro.obs``; the bitwise-pinned cores — ``repro.desim``, the
kernel's agenda and state machines — never do.  They expose bare ``tap``
hooks instead, which the backends wire up.
"""

from .chrome_trace import export_chrome_trace, read_trace_events, to_chrome_trace
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .prometheus import (
    CONTENT_TYPE,
    escape_help,
    escape_label_value,
    parse_prometheus_text,
    render_prometheus,
)
from .taps import (
    SIM_EVENT_KINDS,
    SimEventTap,
    get_sim_tap,
    install_sim_tap,
    uninstall_sim_tap,
)
from .tracing import (
    Tracer,
    active_trace_path,
    configure_tracing,
    disable_tracing,
    get_tracer,
    trace_instant,
    trace_span,
)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
    "REGISTRY",
    "SIM_EVENT_KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SimEventTap",
    "Tracer",
    "active_trace_path",
    "configure_tracing",
    "disable_tracing",
    "escape_help",
    "escape_label_value",
    "export_chrome_trace",
    "get_sim_tap",
    "get_tracer",
    "install_sim_tap",
    "parse_prometheus_text",
    "read_trace_events",
    "render_prometheus",
    "to_chrome_trace",
    "trace_instant",
    "trace_span",
    "uninstall_sim_tap",
]
