"""Black-box flight recorder: an always-on, auto-dumping :class:`Tracer`.

The user-facing :class:`~repro.obs.trace.Tracer` is *opt-in* — it stays
disabled unless someone is actively profiling, so when a worker crashes
at 3am there is nothing to look at.  The flight recorder is the same
ring kept **always enabled**: a small, separate :class:`Tracer` holding
recent operational instants (job lifecycle edges, phase waterfalls,
link recoveries), independent of the global tracer's enable state.

On a *trigger event* — worker crash, deadline shed, job exception,
watchdog reset, campaign interrupt — the recorder exports the ring with
:meth:`Tracer.export_jsonl` (plus the usual
:class:`~repro.obs.manifest.RunManifest` sidecar, whose ``config``
carries the trigger reason, trigger args and per-reason counts) so the
minutes leading up to the failure survive the process.  Dumps are
rate-limited and capped so a crash loop cannot fill a disk.

Events use the tracer schema (``ph == "i"`` instants), so a dump loads
with :func:`~repro.obs.trace.load_trace` and summarizes, validates and
converts like any trace.  ``job.finish`` instants carry the job's full
phase waterfall in ``args["phases"]`` — a flight dump alone
reconstructs what every recent job spent in
queue/coalesce/cache/run/demux/store
(``python -m repro.obs report dump.jsonl``).

A process-wide recorder (:func:`get_flight_recorder`) is shared by the
service, campaign and PIL layers; :func:`configure_flight` points it at
a dump directory (default: record-only, never write).  SimServe can
alternatively carry a private recorder (``SimServe(flight=...)``).
"""

from __future__ import annotations

import os
import time
from typing import Optional

from .trace import Tracer

__all__ = [
    "FlightRecorder",
    "get_flight_recorder",
    "configure_flight",
    "TRIGGER_REASONS",
]

#: default ring capacity (events); overflow drops the oldest
DEFAULT_CAPACITY = 4096

#: dumps closer together than this are coalesced into the first one
DEFAULT_MIN_DUMP_INTERVAL_S = 1.0

#: hard cap on auto-dumps per recorder lifetime (crash-loop protection)
DEFAULT_MAX_DUMPS = 16

#: the trigger taxonomy (DESIGN §13); ``manual`` is the CLI/HTTP dump
TRIGGER_REASONS = (
    "worker_crash",
    "deadline_shed",
    "job_exception",
    "watchdog_reset",
    "campaign_interrupt",
    "manual",
)

ENV_FLIGHT_DIR = "REPRO_FLIGHT_DIR"


class FlightRecorder(Tracer):
    """Always-enabled tracer ring with rate-limited trigger dumps."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = True,
        dump_dir: Optional[str] = None,
        max_dumps: int = DEFAULT_MAX_DUMPS,
        min_dump_interval_s: float = DEFAULT_MIN_DUMP_INTERVAL_S,
    ):
        super().__init__(capacity=capacity, enabled=enabled)
        self.dump_dir = os.fspath(dump_dir) if dump_dir is not None else None
        self.max_dumps = int(max_dumps)
        self.min_dump_interval_s = float(min_dump_interval_s)
        self.trigger_counts: dict[str, int] = {}
        self.dumps: list[str] = []
        self._last_dump_at: Optional[float] = None
        self._dump_seq = 0

    def trigger(self, reason: str, args: Optional[dict] = None) -> Optional[str]:
        """Record a ``flight.trigger.<reason>`` instant and auto-dump.

        Returns the dump path, or ``None`` when no dump was written
        (recorder disabled, no ``dump_dir`` configured, rate-limited, or
        the ``max_dumps`` cap was reached — the trigger is still counted
        and recorded in the ring in every case).
        """
        if not self.enabled:
            return None
        now = time.monotonic()
        seq = None
        with self._lock:
            self.trigger_counts[reason] = self.trigger_counts.get(reason, 0) + 1
            if (
                self.dump_dir is not None
                and self._dump_seq < self.max_dumps
                and (
                    self._last_dump_at is None
                    or now - self._last_dump_at >= self.min_dump_interval_s
                )
            ):
                # reserve the slot under the lock, so concurrent triggers
                # cannot overrun the cap before their dumps land
                self._last_dump_at = now
                seq = self._dump_seq = self._dump_seq + 1
        self.instant(f"flight.trigger.{reason}", cat="flight", args=args)
        return None if seq is None else self._dump(seq, reason, args)

    def dump(self, path: Optional[str] = None, reason: str = "manual") -> str:
        """Write the ring to ``path`` (or an auto-named file under
        ``dump_dir`` / the current directory) unconditionally."""
        with self._lock:
            seq = self._dump_seq = self._dump_seq + 1
        return self._dump(seq, reason, None, path)

    def _dump(self, seq: int, reason: str, args: Optional[dict], path=None) -> str:
        if path is None:
            path = os.path.join(
                self.dump_dir or ".", f"flight-{self.pid}-{seq:03d}-{reason}.jsonl"
            )
        path = os.fspath(path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with self._lock:
            counts = dict(self.trigger_counts)
        self.export_jsonl(path, config={
            "kind": "flight-dump",
            "reason": reason,
            "trigger_args": args or {},
            "trigger_counts": counts,
        })
        with self._lock:
            self.dumps.append(path)
        return path

    def stats(self) -> dict:
        with self._lock:
            return {
                "events": len(self._buf),
                "capacity": self.capacity,
                "dropped_events": self.dropped_events,
                "enabled": self.enabled,
                "dump_dir": self.dump_dir,
                "dumps": list(self.dumps),
                "trigger_counts": dict(self.trigger_counts),
            }


#: a permanently disabled recorder — what ``SimServe(flight=False)`` uses
NULL_RECORDER = FlightRecorder(capacity=1, enabled=False)


# ---------------------------------------------------------------------------
# the process-wide recorder
# ---------------------------------------------------------------------------
_GLOBAL = FlightRecorder(dump_dir=os.environ.get(ENV_FLIGHT_DIR) or None)


def get_flight_recorder() -> FlightRecorder:
    """The process-wide black box every operational layer records into."""
    return _GLOBAL


def configure_flight(
    dump_dir: Optional[str] = None,
    capacity: Optional[int] = None,
    enabled: Optional[bool] = None,
    max_dumps: Optional[int] = None,
    min_dump_interval_s: Optional[float] = None,
) -> FlightRecorder:
    """Reconfigure the global recorder in place and return it
    (``capacity`` goes through :meth:`Tracer.resize`)."""
    fr = _GLOBAL
    if capacity is not None:
        fr.resize(capacity)
    if dump_dir is not None:
        fr.dump_dir = os.fspath(dump_dir)
    if enabled is not None:
        fr.enabled = bool(enabled)
    if max_dumps is not None:
        fr.max_dumps = int(max_dumps)
    if min_dump_interval_s is not None:
        fr.min_dump_interval_s = float(min_dump_interval_s)
    return fr
