"""Metric primitives and the registry: counters, gauges, histograms.

This is the single metrics substrate the repo's layers share (the
engine's step counters, the ARQ link ledger exports, SimServe's job
metrics — :mod:`repro.service.metrics` is now a thin compatibility
facade over these types).  Everything is in-process, lock-cheap and
dependency-free.

* :class:`Counter` — monotonically increasing value;
* :class:`Gauge` — settable value or late-bound callback;
* :class:`Histogram` — fixed bucket boundaries (cumulative counts, the
  Prometheus shape) *plus* a bounded reservoir of recent observations
  for the percentile snapshot the service dashboards already consume;
* :class:`MetricsRegistry` — named metric directory with a JSON-ready
  :meth:`~MetricsRegistry.snapshot` and a Prometheus text exporter.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
]

#: default latency bucket upper bounds (seconds), Prometheus-style
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonic counter.  ``inc`` is thread-safe.

    ``labels`` (optional, immutable) carries Prometheus-style label
    pairs; labelled counters registered via
    :meth:`MetricsRegistry.counter` share one ``# TYPE`` family in the
    exposition output (e.g. ``kernel_fallback_total{reason="..."}``).
    """

    __slots__ = ("name", "help", "labels", "_value", "_lock")

    def __init__(self, name: str = "", help: str = "",
                 labels: Optional[dict] = None):
        self.name = name
        self.help = help
        self.labels = dict(labels) if labels else None
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> float:
        return self._value


class Gauge:
    """Settable value, or a late-bound provider via ``fn``."""

    __slots__ = ("name", "help", "_value", "_fn")

    def __init__(self, name: str = "", help: str = "", fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bucket histogram + bounded reservoir for percentiles.

    The bucket counts are cumulative-compatible (each slot counts
    observations ``<= bound``; the implicit ``+Inf`` bucket is
    ``count``), which is exactly the Prometheus exposition shape.  The
    reservoir keeps the most recent ``capacity`` observations in a ring
    so :meth:`snapshot` can report min/mean/max and p50/p90/p99 without
    unbounded growth — the exact dashboard dict SimServe always served.
    """

    __slots__ = (
        "name", "help", "buckets", "bucket_counts",
        "_buf", "_len", "_next", "count", "total", "_min", "_max", "_lock",
    )

    def __init__(
        self,
        buckets: Optional[Sequence[float]] = None,
        capacity: int = 4096,
        name: str = "",
        help: str = "",
    ):
        if capacity < 1:
            raise ValueError("histogram capacity must be >= 1")
        self.name = name
        self.help = help
        bounds = tuple(sorted(float(b) for b in (buckets if buckets is not None else DEFAULT_BUCKETS)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)
        self._buf = np.empty(capacity)
        self._len = 0
        self._next = 0
        self.count = 0
        self.total = 0.0
        self._min = float("inf")
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._buf[self._next] = value
            self._next = (self._next + 1) % self._buf.shape[0]
            self._len = min(self._len + 1, self._buf.shape[0])
            self.count += 1
            self.total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            i = bisect.bisect_left(self.buckets, value)
            if i < len(self.bucket_counts):
                self.bucket_counts[i] += 1

    def snapshot(self) -> dict:
        """The dashboard dict (format pinned by the service tests)."""
        with self._lock:
            if self.count == 0:
                return {"count": 0}
            window = self._buf[: self._len]
            count, total = self.count, self.total
            lo, hi = self._min, self._max
        p50, p90, p99 = np.percentile(window, [50, 90, 99])
        return {
            "count": count,
            "mean": total / count,
            "min": lo,
            "max": hi,
            "p50": float(p50),
            "p90": float(p90),
            "p99": float(p99),
        }

    def percentiles(self, qs: Sequence[float] = (50, 95, 99)) -> dict:
        """``{"p50": ..., "p95": ...}`` from the reservoir.

        Separate from :meth:`snapshot` so callers can ask for quantiles
        (e.g. p95 for the latency waterfalls) without disturbing the
        dashboard dict's pinned key set."""
        with self._lock:
            if self._len == 0:
                return {f"p{q:g}": 0.0 for q in qs}
            window = self._buf[: self._len].copy()
        vals = np.percentile(window, list(qs))
        return {f"p{q:g}": float(v) for q, v in zip(qs, vals)}

    def bucket_snapshot(self) -> dict:
        """Cumulative ``le -> count`` pairs plus sum/count (Prometheus)."""
        with self._lock:
            cum, acc = {}, 0
            for bound, n in zip(self.buckets, self.bucket_counts):
                acc += n
                cum[bound] = acc
            return {"buckets": cum, "sum": self.total, "count": self.count}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    s = "".join(out)
    return ("_" + s) if s and s[0].isdigit() else (s or "_")


def _prom_float(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    as_int = int(v)
    return str(as_int) if v == as_int else repr(float(v))


class MetricsRegistry:
    """Named directory of metrics with snapshot + Prometheus export.

    Registration is idempotent by name: re-registering returns the
    existing metric (type-checked), so independent layers can share one
    registry without coordination.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, object] = {}

    # ------------------------------------------------------------------
    def _register(self, name: str, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[dict] = None) -> Counter:
        if labels:
            pairs = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
            key = f"{name}{{{pairs}}}"
            metric = self._register(key, lambda: Counter(name, help, labels))
        else:
            metric = self._register(name, lambda: Counter(name, help))
        if not isinstance(metric, Counter):
            raise TypeError(f"{name!r} is already a {type(metric).__name__}")
        return metric

    def gauge(self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None) -> Gauge:
        metric = self._register(name, lambda: Gauge(name, help, fn))
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name!r} is already a {type(metric).__name__}")
        return metric

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        capacity: int = 4096,
        help: str = "",
    ) -> Histogram:
        metric = self._register(
            name, lambda: Histogram(buckets=buckets, capacity=capacity, name=name, help=help)
        )
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is already a {type(metric).__name__}")
        return metric

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """``{name: value | histogram-dict}`` for every registered metric."""
        with self._lock:
            items = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(items)}

    def prometheus_text(self) -> str:
        """The ``text/plain; version=0.0.4`` exposition format."""
        with self._lock:
            items = sorted(self._metrics.items())
        lines: list[str] = []
        seen_families: set[str] = set()
        for name, metric in items:
            if isinstance(metric, Counter) and metric.labels:
                # labelled counter: one HELP/TYPE per family, one sample
                # line per label set
                pname = _prom_name(metric.name)
                if pname not in seen_families:
                    seen_families.add(pname)
                    if metric.help:
                        lines.append(f"# HELP {pname} {metric.help}")
                    lines.append(f"# TYPE {pname} counter")
                pairs = ",".join(
                    f'{_prom_name(k)}="{v}"'
                    for k, v in sorted(metric.labels.items())
                )
                lines.append(f"{pname}{{{pairs}}} {_prom_float(metric.value)}")
                continue
            pname = _prom_name(name)
            if metric.help:
                lines.append(f"# HELP {pname} {metric.help}")
            if isinstance(metric, Counter):
                if pname not in seen_families:
                    seen_families.add(pname)
                lines.append(f"# TYPE {pname} counter")
                lines.append(f"{pname} {_prom_float(metric.value)}")
            elif isinstance(metric, Gauge):
                lines.append(f"# TYPE {pname} gauge")
                lines.append(f"{pname} {_prom_float(metric.value)}")
            elif isinstance(metric, Histogram):
                lines.append(f"# TYPE {pname} histogram")
                b = metric.bucket_snapshot()
                for bound, cum in b["buckets"].items():
                    lines.append(f'{pname}_bucket{{le="{_prom_float(bound)}"}} {cum}')
                lines.append(f'{pname}_bucket{{le="+Inf"}} {b["count"]}')
                lines.append(f"{pname}_sum {_prom_float(b['sum'])}")
                lines.append(f"{pname}_count {b['count']}")
        return "\n".join(lines) + ("\n" if lines else "")

# ---------------------------------------------------------------------------
# the process-wide registry (engine counters, link ledgers, ...)
# ---------------------------------------------------------------------------
_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry the instrumented layers share.
    SimServe instances keep private registries (several can coexist in
    one process); everything else registers here."""
    return _GLOBAL
