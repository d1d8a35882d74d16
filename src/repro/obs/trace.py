"""Process-wide structured tracer: spans, instants, ring buffer, exporters.

One :class:`Tracer` per process collects *events* — completed spans
(``ph == "X"``) and instant markers (``ph == "i"``) — into a bounded,
thread-safe ring buffer.  Every event carries **two clocks**:

* ``ts``/``dur`` — wall time from a monotonic clock, seconds relative to
  the tracer's epoch (what a worker actually spent);
* ``sim_t`` — the simulated timeline position, when the emitting layer
  has one (engine step time, MCU device time), else ``None``.

Span identity is hierarchical: ids are ``"<pid>-<n>"`` strings, each
span records its parent (the innermost open span on the emitting
thread).  :meth:`Tracer.attach` grafts a foreign parent id under the
current thread — that is how job spans tie to their submitter and how
spans re-parent across process-pool boundaries (the child runs under a
fresh capture tracer, returns its events, and the parent
:meth:`Tracer.ingest`\\ s them; pids keep the ids collision-free).

The disabled tracer is free: every instrumentation site in the hot
layers guards with ``if tracer.enabled`` before building any event, and
the engine additionally samples major-step spans at
:attr:`Tracer.step_stride` so enabling tracing stays within the perf
harness's <5 % overhead gate.

The tracer pickles safely (process workers may drag it along inside
closures): only the configuration crosses the boundary, the buffer and
lock are rebuilt empty on the far side.

Exporters: :meth:`Tracer.export_jsonl` (one JSON object per line) and
:meth:`Tracer.export_chrome` (Chrome ``chrome://tracing`` / Perfetto
trace-event JSON).  Both write a :class:`~repro.obs.manifest.RunManifest`
next to the trace unless told otherwise; its ``tracer_stats`` carry the
ring's wall-clock epoch (``epoch_wall``), so ``ts`` maps back to Unix
time without a per-event wall stamp.

The always-on flight recorder (:mod:`repro.obs.flight`) is a
:class:`Tracer` subclass, so its dumps are ordinary JSONL traces.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterable, Optional

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "configure",
    "use_tracer",
    "load_trace",
]

#: engine major-step spans are sampled 1-in-N while tracing is enabled
DEFAULT_STEP_STRIDE = 100

#: ring-buffer capacity (events); overflow keeps the newest events
DEFAULT_CAPACITY = 1 << 16


class Span:
    """An open span handle; mutate :attr:`args` freely before the end."""

    __slots__ = ("id", "name", "cat", "t0", "sim_t", "args", "parent", "tid")

    def __init__(self, id, name, cat, t0, sim_t, args, parent, tid):
        self.id = id
        self.name = name
        self.cat = cat
        self.t0 = t0
        self.sim_t = sim_t
        self.args = args
        self.parent = parent
        self.tid = tid


class Tracer:
    """Structured span/instant event collector (see module docstring)."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = False,
        step_stride: int = DEFAULT_STEP_STRIDE,
    ):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        if step_stride < 1:
            raise ValueError("step_stride must be >= 1")
        self.capacity = int(capacity)
        self.enabled = bool(enabled)
        self.step_stride = int(step_stride)
        self.dropped_events = 0
        self._overflow_noted = False
        self._buf: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._t0 = time.perf_counter()
        #: Unix time at the ring's epoch (``ts == 0``)
        self.epoch_wall = time.time()
        self.pid = os.getpid()

    # ------------------------------------------------------------------
    # pickle safety (process workers): ship config, rebuild state
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {
            "capacity": self.capacity,
            "enabled": self.enabled,
            "step_stride": self.step_stride,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Monotonic seconds since the tracer's epoch."""
        return time.perf_counter() - self._t0

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _emit(self, event: dict) -> None:
        buf = self._buf
        with self._lock:
            if len(buf) == self.capacity:
                self.dropped_events += 1
                if not self._overflow_noted:
                    # one-time marker so an exported trace says *that* it
                    # wrapped, not just how much was lost; the marker's own
                    # append is bookkeeping, not a caller event, so it does
                    # not count toward dropped_events
                    self._overflow_noted = True
                    buf.append({
                        "ph": "i",
                        "name": "obs.ring_overflow",
                        "cat": "obs",
                        "ts": time.perf_counter() - self._t0,
                        "dur": 0.0,
                        "sim_t": None,
                        "id": None,
                        "parent": None,
                        "pid": self.pid,
                        "tid": threading.get_ident(),
                        "args": {"capacity": self.capacity},
                    })
            buf.append(event)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current_span(self) -> Optional[str]:
        """Id of the innermost open (or attached) span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(
        self,
        name: str,
        cat: str = "app",
        sim_t: Optional[float] = None,
        parent: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> Optional[Span]:
        """Open a span; returns ``None`` when the tracer is disabled."""
        if not self.enabled:
            return None
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else None
        span = Span(
            id=f"{self.pid}-{next(self._ids)}",
            name=name,
            cat=cat,
            t0=time.perf_counter(),
            sim_t=sim_t,
            args=args if args is not None else {},
            parent=parent,
            tid=threading.get_ident(),
        )
        stack.append(span.id)
        return span

    def end(self, span: Optional[Span]) -> None:
        """Close a span opened by :meth:`begin` (no-op on ``None``)."""
        if span is None:
            return
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()
        elif span.id in stack:  # pragma: no cover - unbalanced end guard
            stack.remove(span.id)
        now = time.perf_counter()
        self._emit({
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "ts": span.t0 - self._t0,
            "dur": now - span.t0,
            "sim_t": span.sim_t,
            "id": span.id,
            "parent": span.parent,
            "pid": self.pid,
            "tid": span.tid,
            "args": span.args,
        })

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "app",
        sim_t: Optional[float] = None,
        parent: Optional[str] = None,
        args: Optional[dict] = None,
    ):
        """``with tracer.span("engine.run"): ...`` — yields the open
        :class:`Span` (or ``None`` when disabled) so callers can add
        result args before the span closes."""
        span = self.begin(name, cat, sim_t=sim_t, parent=parent, args=args)
        try:
            yield span
        finally:
            self.end(span)

    def complete(
        self,
        name: str,
        cat: str,
        t0: float,
        sim_t: Optional[float] = None,
        parent: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Emit an already-timed span: ``t0`` is an absolute
        ``time.perf_counter()`` reading taken by the caller before the
        work.  This is the hot-loop form — no handle, no stack push."""
        if not self.enabled:
            return
        now = time.perf_counter()
        if parent is None:
            parent = self.current_span()
        self._emit({
            "ph": "X",
            "name": name,
            "cat": cat,
            "ts": t0 - self._t0,
            "dur": now - t0,
            "sim_t": sim_t,
            "id": f"{self.pid}-{next(self._ids)}",
            "parent": parent,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "args": args if args is not None else {},
        })

    def instant(
        self,
        name: str,
        cat: str = "app",
        sim_t: Optional[float] = None,
        parent: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Emit a point-in-time marker event."""
        if not self.enabled:
            return
        if parent is None:
            parent = self.current_span()
        self._emit({
            "ph": "i",
            "name": name,
            "cat": cat,
            "ts": time.perf_counter() - self._t0,
            "dur": 0.0,
            "sim_t": sim_t,
            "id": None,
            "parent": parent,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "args": args if args is not None else {},
        })

    # ------------------------------------------------------------------
    # cross-boundary re-parenting
    # ------------------------------------------------------------------
    @contextmanager
    def attach(self, parent_id: Optional[str]):
        """Make ``parent_id`` the parent of spans opened on this thread
        for the duration — ties worker-side spans to the submitting
        span, including across process boundaries."""
        if parent_id is None:
            yield
            return
        stack = self._stack()
        stack.append(parent_id)
        try:
            yield
        finally:
            if stack and stack[-1] == parent_id:
                stack.pop()
            elif parent_id in stack:  # pragma: no cover - unbalanced guard
                stack.remove(parent_id)

    def ingest(self, events: Iterable[dict]) -> int:
        """Merge foreign events (a child process's capture) into the
        buffer; returns the number ingested.  Ids already embed the
        producing pid, so merged traces cannot collide."""
        n = 0
        for ev in events:
            self._emit(dict(ev))
            n += 1
        return n

    # ------------------------------------------------------------------
    # access / export
    # ------------------------------------------------------------------
    def events(self) -> list[dict]:
        """Snapshot of the buffered events, oldest first."""
        with self._lock:
            return list(self._buf)

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    def clear(self) -> None:
        with self._lock:
            self._buf.clear()
            self.dropped_events = 0
            self._overflow_noted = False

    def resize(self, capacity: int) -> None:
        """Change the ring capacity in place (newest events are kept)."""
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        with self._lock:
            if capacity != self.capacity:
                self.capacity = int(capacity)
                self._buf = deque(self._buf, maxlen=self.capacity)
                self._overflow_noted = False

    @staticmethod
    def _jsonl(events: list) -> str:
        return "".join(json.dumps(ev, default=str) + "\n" for ev in events)

    def to_jsonl(self) -> str:
        """The buffered events as JSONL text."""
        return self._jsonl(self.events())

    def export_jsonl(self, path, manifest: bool = True, config: Optional[dict] = None) -> str:
        """Write one JSON object per line; returns the path written."""
        path = os.fspath(path)
        events = self.events()
        with open(path, "w") as fh:
            fh.write(self._jsonl(events))
        if manifest:
            self._write_manifest(path, config, len(events))
        return path

    def export_chrome(self, path, manifest: bool = True, config: Optional[dict] = None) -> str:
        """Write Chrome/Perfetto trace-event JSON; returns the path."""
        path = os.fspath(path)
        events = self.events()
        out = []
        for ev in events:
            args = dict(ev.get("args") or {})
            if ev.get("sim_t") is not None:
                args["sim_t"] = ev["sim_t"]
            if ev.get("id"):
                args["span_id"] = ev["id"]
            if ev.get("parent"):
                args["parent"] = ev["parent"]
            entry = {
                "name": ev["name"],
                "cat": ev.get("cat", "app"),
                "ph": ev["ph"],
                "ts": ev["ts"] * 1e6,           # trace-event format is µs
                "pid": ev.get("pid", 0),
                "tid": ev.get("tid", 0),
                "args": args,
            }
            if ev["ph"] == "X":
                entry["dur"] = (ev.get("dur") or 0.0) * 1e6
            else:
                entry["s"] = "t"
            out.append(entry)
        doc = {"traceEvents": out, "displayTimeUnit": "ms"}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        if manifest:
            self._write_manifest(path, config, len(events))
        return path

    def _write_manifest(self, trace_path: str, config: Optional[dict], events: int) -> None:
        from .manifest import RunManifest

        RunManifest.collect(
            config=config,
            tracer_stats={
                "events": events,
                "dropped_events": self.dropped_events,
                "capacity": self.capacity,
                "epoch_wall": self.epoch_wall,
            },
        ).write_next_to(trace_path)


# ---------------------------------------------------------------------------
# the process-wide tracer
# ---------------------------------------------------------------------------
_GLOBAL = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumented layer binds to."""
    return _GLOBAL


# scrape-visible drop counter: late-bound through get_tracer() so
# use_tracer() swaps are reflected in the gauge
from .metrics import get_registry as _get_registry  # noqa: E402

_get_registry().gauge(
    "obs_tracer_dropped_events",
    help="events dropped by the global tracer ring buffer (overflow)",
    fn=lambda: get_tracer().dropped_events,
)


def configure(
    enabled: Optional[bool] = None,
    capacity: Optional[int] = None,
    step_stride: Optional[int] = None,
) -> Tracer:
    """Reconfigure the global tracer in place and return it.

    Changing ``capacity`` goes through :meth:`Tracer.resize`.
    """
    tr = _GLOBAL
    if step_stride is not None and step_stride < 1:
        raise ValueError("step_stride must be >= 1")
    if capacity is not None:
        tr.resize(capacity)
    if step_stride is not None:
        tr.step_stride = int(step_stride)
    if enabled is not None:
        tr.enabled = bool(enabled)
    return tr


@contextmanager
def use_tracer(tracer: Tracer):
    """Temporarily swap the global tracer (tests, child-process capture).

    Instrumented objects bind ``get_tracer()`` at construction, so build
    the objects *inside* the ``with`` block.
    """
    global _GLOBAL
    prev = _GLOBAL
    _GLOBAL = tracer
    try:
        yield tracer
    finally:
        _GLOBAL = prev


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------
def load_trace(path) -> list[dict]:
    """Load an exported trace, auto-detecting JSONL vs Chrome JSON.

    Chrome events are mapped back to the JSONL schema (seconds, span
    ids recovered from ``args``), so both formats summarize and
    validate identically.
    """
    path = os.fspath(path)
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None  # multiple lines: JSONL
    if isinstance(doc, dict) and "traceEvents" not in doc:
        doc = [doc]  # a single-event JSONL file parses as one dict
    if doc is not None and not (isinstance(doc, list) and doc and "sim_t" in doc[0]):
        raw = doc["traceEvents"] if isinstance(doc, dict) else doc
        events = []
        for ev in raw:
            args = dict(ev.get("args") or {})
            events.append({
                "ph": ev["ph"],
                "name": ev["name"],
                "cat": ev.get("cat", "app"),
                "ts": ev.get("ts", 0.0) / 1e6,
                "dur": ev.get("dur", 0.0) / 1e6,
                "sim_t": args.pop("sim_t", None),
                "id": args.pop("span_id", None),
                "parent": args.pop("parent", None),
                "pid": ev.get("pid", 0),
                "tid": ev.get("tid", 0),
                "args": args,
            })
        return events
    return [json.loads(line) for line in text.splitlines() if line.strip()]
