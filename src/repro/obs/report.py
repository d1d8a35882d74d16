"""Ops report: per-phase latency waterfalls rendered from live data.

``python -m repro.obs report INPUT [-o report.html]`` turns either of
the two ops-plane artifacts into one HTML page (or a JSON summary):

* a **metrics snapshot** — the JSON from
  :meth:`repro.service.metrics.ServiceMetrics.snapshot` (e.g. saved from
  ``/statusz`` or ``python -m repro.service --json``), whose
  ``waterfall`` section already carries per-phase percentiles;
* a **flight-recorder dump** — the JSONL trace written on a trigger
  event (or its Chrome conversion; both load through
  :func:`~repro.obs.trace.load_trace`); the per-job ``job.finish``
  instants carry raw phase durations, so the report recomputes the
  waterfall from the black box alone (this is how a crash that took the
  process down is profiled post-mortem).

The phase taxonomy matches the paper's E3 profiling decomposition: the
MIL/PIL experiments split a control period into stage timings; SimServe
splits a job into queue → coalesce → cache → run → demux → store.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from .trace import load_trace

__all__ = ["load_ops_input", "build_report", "render_html", "render_text"]

#: canonical phase ordering for display (waterfall top-to-bottom)
PHASE_ORDER = ("queue", "coalesce", "cache", "run", "demux", "store")


def _phase_sort_key(name: str) -> tuple:
    try:
        return (0, PHASE_ORDER.index(name))
    except ValueError:
        return (1, name)


def load_ops_input(path) -> dict:
    """Load a snapshot JSON or a flight dump (any :func:`load_trace`
    format), tagging which it was."""
    path = os.fspath(path)
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError:
            doc = None  # JSONL
    if isinstance(doc, dict) and "traceEvents" not in doc and "ph" not in doc:
        return {"kind": "snapshot", "snapshot": doc, "path": path}
    return {"kind": "flight", "events": load_trace(path), "path": path}


def _percentile(sorted_vals: list, q: float) -> float:
    """Linear-interpolated percentile on a pre-sorted list (numpy-free so
    a dump is readable even where the sim stack is not installed)."""
    if not sorted_vals:
        return 0.0
    if len(sorted_vals) == 1:
        return float(sorted_vals[0])
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return float(sorted_vals[lo] * (1.0 - frac) + sorted_vals[hi] * frac)


def _phase_rows_from_samples(samples: dict) -> list[dict]:
    rows = []
    for phase in sorted(samples, key=_phase_sort_key):
        vals = sorted(samples[phase])
        if not vals:
            continue
        rows.append({
            "phase": phase,
            "count": len(vals),
            "mean": sum(vals) / len(vals),
            "p50": _percentile(vals, 50),
            "p95": _percentile(vals, 95),
            "p99": _percentile(vals, 99),
            "max": vals[-1],
        })
    return rows


def _report_from_flight(events: Iterable[dict]) -> dict:
    events = list(events)
    samples: dict[str, list] = {}
    jobs = {"finished": 0, "done": 0, "failed": 0, "cancelled": 0, "shed": 0}
    triggers: dict[str, int] = {}
    failing: list[dict] = []
    for ev in events:
        name = ev.get("name", "")
        args = ev.get("args") or {}
        if name == "job.finish":
            jobs["finished"] += 1
            state = str(args.get("state", "")).lower()
            if state in jobs:
                jobs[state] += 1
            elif state == "expired":
                jobs["shed"] += 1
            for phase, dur in (args.get("phases") or {}).items():
                samples.setdefault(phase, []).append(float(dur))
            if state not in ("done", ""):
                failing.append({
                    "job": args.get("job"),
                    "state": state,
                    "error": args.get("error"),
                    "phases": args.get("phases") or {},
                })
        elif name.startswith("flight.trigger."):
            reason = name[len("flight.trigger."):]
            triggers[reason] = triggers.get(reason, 0) + 1
    return {
        "source": "flight",
        "jobs": jobs,
        "phases": _phase_rows_from_samples(samples),
        "triggers": triggers,
        "failing_jobs": failing[-20:],
        "events": len(events),
    }


def _report_from_snapshot(snap: dict) -> dict:
    rows = []
    for phase, stats in sorted(
        (snap.get("waterfall") or {}).items(), key=lambda kv: _phase_sort_key(kv[0])
    ):
        if not stats.get("count"):
            continue
        rows.append({
            "phase": phase,
            "count": stats.get("count", 0),
            "mean": stats.get("mean", 0.0),
            "p50": stats.get("p50", 0.0),
            "p95": stats.get("p95", 0.0),
            "p99": stats.get("p99", 0.0),
            "max": stats.get("max", 0.0),
        })
    j = snap.get("jobs") or {}
    return {
        "source": "snapshot",
        "jobs": {
            "finished": j.get("completed", 0) + j.get("failed", 0)
            + j.get("cancelled", 0) + j.get("shed", 0),
            "done": j.get("completed", 0),
            "failed": j.get("failed", 0),
            "cancelled": j.get("cancelled", 0),
            "shed": j.get("shed", 0),
        },
        "phases": rows,
        "triggers": snap.get("flight", {}).get("trigger_counts", {}),
        "failing_jobs": [],
        "latency": snap.get("latency"),
        "coalesce": snap.get("coalesce"),
    }


def build_report(data: dict) -> dict:
    """Normalize either input kind into one report dict."""
    if data["kind"] == "snapshot":
        report = _report_from_snapshot(data["snapshot"])
    else:
        report = _report_from_flight(data["events"])
    report["input"] = data.get("path")
    return report


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def render_text(report: dict) -> str:
    """Terminal rendering (also what ``--json``-less stdout shows)."""
    j = report["jobs"]
    lines = [
        f"ops report ({report['source']}: {report.get('input')})",
        f"  jobs: {j['finished']} finished — {j['done']} done, "
        f"{j['failed']} failed, {j['cancelled']} cancelled, {j['shed']} shed",
    ]
    if report.get("triggers"):
        trig = ", ".join(f"{k}={v}" for k, v in sorted(report["triggers"].items()))
        lines.append(f"  flight triggers: {trig}")
    if report["phases"]:
        lines.append(
            f"  {'phase':<10} {'count':>7} {'mean ms':>9} {'p50 ms':>9} "
            f"{'p95 ms':>9} {'p99 ms':>9} {'max ms':>9}"
        )
        for row in report["phases"]:
            lines.append(
                f"  {row['phase']:<10} {row['count']:>7} {_fmt_ms(row['mean']):>9} "
                f"{_fmt_ms(row['p50']):>9} {_fmt_ms(row['p95']):>9} "
                f"{_fmt_ms(row['p99']):>9} {_fmt_ms(row['max']):>9}"
            )
    else:
        lines.append("  (no phase samples)")
    return "\n".join(lines)


def render_html(report: dict, title: str = "SimServe ops report") -> str:
    """Self-contained HTML: phase waterfall bars + percentile table."""
    def esc(text) -> str:
        return (
            str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;")
        )

    j = report["jobs"]
    max_p95 = max((r["p95"] for r in report["phases"]), default=0.0) or 1.0
    phase_rows = []
    for row in report["phases"]:
        width = max(1.0, 100.0 * row["p95"] / max_p95)
        phase_rows.append(
            "<tr>"
            f"<td>{esc(row['phase'])}</td><td>{row['count']}</td>"
            f"<td>{_fmt_ms(row['mean'])}</td><td>{_fmt_ms(row['p50'])}</td>"
            f"<td>{_fmt_ms(row['p95'])}</td><td>{_fmt_ms(row['p99'])}</td>"
            f"<td>{_fmt_ms(row['max'])}</td>"
            f"<td><div class='bar' style='width:{width:.1f}%'></div></td>"
            "</tr>"
        )
    trigger_rows = "".join(
        f"<tr><td>{esc(k)}</td><td>{v}</td></tr>"
        for k, v in sorted(report.get("triggers", {}).items())
    )
    failing_rows = []
    for entry in report.get("failing_jobs", []):
        phases = " ".join(
            f"{k}={_fmt_ms(float(v))}ms" for k, v in (entry.get("phases") or {}).items()
        )
        failing_rows.append(
            f"<tr><td>{esc(entry.get('job'))}</td><td>{esc(entry.get('state'))}</td>"
            f"<td>{esc(entry.get('error') or '')}</td><td>{esc(phases)}</td></tr>"
        )
    sections = [
        f"<h1>{esc(title)}</h1>",
        f"<p class='meta'>source: {esc(report['source'])} "
        f"({esc(report.get('input'))})</p>",
        "<h2>Jobs</h2>",
        f"<p>{j['finished']} finished — {j['done']} done, {j['failed']} failed, "
        f"{j['cancelled']} cancelled, <b>{j['shed']} shed</b></p>",
        "<h2>Phase waterfall (ms)</h2>",
        "<table><tr><th>phase</th><th>count</th><th>mean</th><th>p50</th>"
        "<th>p95</th><th>p99</th><th>max</th><th>p95 waterfall</th></tr>"
        + "".join(phase_rows) + "</table>",
    ]
    if trigger_rows:
        sections += [
            "<h2>Flight triggers</h2>",
            f"<table><tr><th>reason</th><th>count</th></tr>{trigger_rows}</table>",
        ]
    if failing_rows:
        sections += [
            "<h2>Recent failing jobs</h2>",
            "<table><tr><th>job</th><th>state</th><th>error</th><th>phases</th></tr>"
            + "".join(failing_rows) + "</table>",
        ]
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>{esc(title)}</title>"
        "<style>body{font-family:monospace;margin:2em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "td,th{border:1px solid #999;padding:3px 8px;text-align:right}"
        "td:first-child,th:first-child{text-align:left}"
        ".bar{background:#4a79a4;height:0.9em;min-width:1px}"
        "td:last-child{min-width:220px;text-align:left}"
        ".meta{color:#666}</style></head><body>"
        + "".join(sections)
        + "</body></html>"
    )

