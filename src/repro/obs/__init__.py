"""Unified observability layer: tracing, metrics, run manifests.

The instrumentation counterpart to the paper's central claim — MIL/PIL
validation is only useful if you can *see* what the controller, the
link, and the surrounding tooling actually did.  One process-wide
:class:`Tracer` collects span/instant events from every layer (engine
major steps, ARQ frame lifecycle, fault-campaign cells, SimServe job
flow) onto a single timeline with both wall-clock and sim-time stamps;
one :class:`MetricsRegistry` holds counters/gauges/histograms with
Prometheus-text export; a :class:`RunManifest` pins each exported trace
to the code, config and library versions that produced it.

Quick use::

    from repro import obs
    obs.configure(enabled=True)
    ... run something instrumented ...
    obs.get_tracer().export_chrome("run.trace.json")   # open in Perfetto

CLI: ``python -m repro.obs summary run.trace.json``.
"""

from .flight import (
    NULL_RECORDER,
    FlightRecorder,
    configure_flight,
    get_flight_recorder,
)
from .manifest import RunManifest
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .report import build_report, load_ops_input, render_html, render_text
from .server import OpsServer
from .summary import format_summary, format_top, summarize, top_spans, validate
from .trace import Span, Tracer, configure, get_tracer, load_trace, use_tracer

__all__ = [
    "Span",
    "Tracer",
    "configure",
    "get_tracer",
    "use_tracer",
    "load_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "RunManifest",
    "summarize",
    "validate",
    "format_summary",
    "top_spans",
    "format_top",
    "FlightRecorder",
    "NULL_RECORDER",
    "get_flight_recorder",
    "configure_flight",
    "OpsServer",
    "load_ops_input",
    "build_report",
    "render_html",
    "render_text",
]
