"""SimServe synchronous client facade.

One object wires the whole backend together — scheduler, worker pool,
compiled-model cache, result store, metrics — and exposes the blocking
client API every harness in this repo can call::

    from repro.service import SimServe, MILRequest

    with SimServe(workers=4) as svc:
        h = svc.submit(MILRequest(builder=my_model, dt=1e-4, t_final=0.1))
        result = h.result()          # a SimulationResult, bit-identical
        print(svc.metrics.report())  # to a direct Simulator run

The facade is the architectural seam the ROADMAP's scaling PRs plug
into: an async transport or a sharded fleet replaces this class, not the
job/scheduler/worker substrates underneath it.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Union

from repro.obs.flight import NULL_RECORDER, get_flight_recorder
from repro.obs.trace import get_tracer

from .coalesce import CoalesceConfig, coalesce_key
from .jobs import (
    Job,
    JobHandle,
    JobPriority,
    JobState,
    ServiceClosed,
    SweepRequest,
)
from .metrics import ServiceMetrics
from .model_cache import ModelCache
from .results import JobRecord, ResultStore
from .scheduler import Scheduler
from .workers import WorkerPool

_sweep_counter = itertools.count(1)


class SweepHandle:
    """Aggregate view over one expanded sweep's child jobs."""

    def __init__(self, sweep_id: str, handles: list[JobHandle]):
        self.sweep_id = sweep_id
        self.handles = handles

    def __len__(self) -> int:
        return len(self.handles)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """True when every child reached a terminal state."""
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        for h in self.handles:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not h.wait(remaining):
                return False
        return True

    def results(self, timeout: Optional[float] = None) -> list:
        """Child payloads in grid order (raises on the first failed child)."""
        return [h.result(timeout) for h in self.handles]

    def records(self, timeout: Optional[float] = None) -> list[JobRecord]:
        return [h.record(timeout) for h in self.handles]


class BatchSweepHandle(SweepHandle):
    """Sweep view backed by ONE batched job instead of N children.

    ``results()`` splits the single
    :class:`~repro.model.BatchSimulationResult` back into per-lane
    :class:`~repro.model.SimulationResult` objects in scenario order, so
    callers written against the fan-out path keep working unchanged.
    """

    def __init__(self, sweep_id: str, handle: JobHandle, n_lanes: int):
        super().__init__(sweep_id, [handle])
        self.handle = handle
        self.n_lanes = n_lanes

    def __len__(self) -> int:
        return self.n_lanes

    def result(self, timeout: Optional[float] = None):
        """The whole-batch payload (a BatchSimulationResult)."""
        return self.handle.result(timeout)

    def results(self, timeout: Optional[float] = None) -> list:
        batched = self.handle.result(timeout)
        if hasattr(batched, "split"):
            return batched.split()
        return [batched]


class SimServe:
    """The batched simulation job service (synchronous, in-process)."""

    def __init__(
        self,
        workers: int = 2,
        backend: str = "thread",
        queue_depth: int = 64,
        cache_capacity: int = 32,
        store_capacity: int = 256,
        autostart: bool = True,
        coalesce: Union[bool, CoalesceConfig, None] = None,
        flight=None,
        waterfall: bool = True,
        ops_port: Optional[int] = None,
        ops_host: str = "127.0.0.1",
    ):
        # continuous batching: None = env-controlled (SIMSERVE_COALESCE*),
        # True = defaults, False = off, or an explicit CoalesceConfig
        if coalesce is None:
            coalesce_cfg = CoalesceConfig.from_env()
        elif coalesce is True:
            coalesce_cfg = CoalesceConfig()
        elif coalesce is False:
            coalesce_cfg = None
        else:
            coalesce_cfg = coalesce
        # black-box flight recorder: None/True = the process-global
        # recorder, False = disabled, or a private FlightRecorder instance
        if flight is False:
            self.flight = NULL_RECORDER
        elif flight is None or flight is True:
            self.flight = get_flight_recorder()
        else:
            self.flight = flight
        self.metrics = ServiceMetrics()
        self.cache = ModelCache(capacity=cache_capacity)
        self.store = ResultStore(capacity=store_capacity)
        self.scheduler = Scheduler(
            queue_depth=queue_depth,
            on_shed=self._record_skipped,
            on_cancel=self._record_skipped,
            coalesce=coalesce_cfg,
        )
        self.pool = WorkerPool(
            self.scheduler,
            self.cache,
            self.store,
            self.metrics,
            n_workers=workers,
            backend=backend,
            flight=self.flight,
            waterfall=waterfall,
        )
        self.metrics.queue_depth_fn = lambda: self.scheduler.depth
        self.metrics.cache_stats_fn = self.cache.stats
        self.metrics.flight_stats_fn = self.flight.stats
        from repro.native import native_cache_stats

        self.metrics.native_stats_fn = native_cache_stats
        #: embedded HTTP ops plane (``ops_port=0`` = ephemeral port)
        self.ops_port = ops_port
        self.ops_host = ops_host
        self._ops_server = None
        self._closed = False
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.pool.start()
        if self.ops_port is not None and self._ops_server is None:
            from repro.obs.metrics import get_registry
            from repro.obs.server import OpsServer

            self._ops_server = OpsServer(
                metrics_text_fn=lambda: (
                    self.metrics.registry.prometheus_text()
                    + get_registry().prometheus_text()
                ),
                health_fn=self.health,
                status_fn=self.status,
                flight=self.flight if self.flight.enabled else None,
                host=self.ops_host,
                port=self.ops_port,
            ).start()

    @property
    def ops_url(self) -> Optional[str]:
        """Base URL of the embedded ops endpoint (None when not serving)."""
        return self._ops_server.url if self._ops_server is not None else None

    def health(self) -> dict:
        """Liveness payload for ``/healthz`` (``ok: false`` -> HTTP 503)."""
        pool = self.pool.health()
        ok = (
            not self._closed
            and pool["started"]
            and pool["workers_alive"] > 0
            and not pool["process_pool_broken"]
        )
        return {
            "ok": ok,
            "closed": self._closed,
            "queue_depth": self.scheduler.depth,
            "pool": pool,
            "flight": self.flight.stats(),
        }

    def status(self, recent: int = 32) -> dict:
        """``/statusz`` payload: counters plus the most recent jobs with
        their per-phase latency waterfalls."""
        records = self.store.records()[-recent:]
        jobs = [
            {
                "job": rec.job_id,
                "kind": rec.kind,
                "state": rec.state.value,
                "priority": rec.priority,
                "queued_s": rec.queued_s,
                "exec_s": rec.exec_s,
                "total_s": rec.total_s,
                "cache_hit": rec.cache_hit,
                "error": rec.error,
                "phases": dict(rec.phase_s),
            }
            for rec in reversed(records)
        ]
        return {
            "metrics": self.metrics_snapshot(),
            "jobs": jobs,
        }

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop admission and wind the pool down.

        ``cancel_pending=True`` aborts still-queued jobs (marked
        cancelled); otherwise the queue drains before workers exit.
        """
        if self._closed:
            return
        self._closed = True
        if cancel_pending:
            for job in self.scheduler.drain():
                job.cancel_event.set()
                job.state = JobState.CANCELLED
                import time

                job.finished_at = time.monotonic()
                self._record_skipped(job)
                job.done_event.set()
        self.pool.shutdown(wait=wait)
        if self._ops_server is not None:
            self._ops_server.stop()
            self._ops_server = None

    def __enter__(self) -> "SimServe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        request,
        priority: JobPriority = JobPriority.NORMAL,
        deadline_s: Optional[float] = None,
    ) -> JobHandle:
        """Admit one request; raises :class:`QueueFull` on backpressure.

        The reject is explicit and immediate — a full queue never blocks
        the submitter.  Callers are expected to retry with backoff or
        shed load themselves.
        """
        if isinstance(request, SweepRequest):
            raise TypeError("use submit_sweep() for SweepRequest")
        if self._closed:
            raise ServiceClosed("service is shut down")
        job = Job(request, priority=priority, deadline_s=deadline_s)
        if self.scheduler.coalesce is not None:
            job.coalesce_key = coalesce_key(request)
        tracer = get_tracer()
        if tracer.enabled:
            job.trace_parent = tracer.current_span()
            tracer.instant("service.submit", cat="service",
                           args={"job": job.id, "kind": job.kind})
        try:
            self.scheduler.submit(job)
        except Exception as exc:
            self.metrics.on_reject()
            if tracer.enabled:
                tracer.instant("service.reject", cat="service", args={
                    "job": job.id, "reason": type(exc).__name__,
                })
            raise
        self.metrics.on_submit(job.kind)
        return JobHandle(job, self.store)

    def submit_sweep(
        self,
        request: SweepRequest,
        priority: JobPriority = JobPriority.NORMAL,
        deadline_s: Optional[float] = None,
    ) -> SweepHandle:
        """Fan a sweep out into one MIL job per grid point.

        Admission is all-or-nothing: if any point is rejected the already
        admitted ones are cancelled, so a half-admitted sweep never runs.

        ``execution="batch"`` sweeps submit as a single vector job instead
        — one compiled model, every point a batch lane — and come back as
        a :class:`BatchSweepHandle` whose ``results()`` still yields one
        per-lane result per scenario.
        """
        sweep_id = f"sweep-{next(_sweep_counter):04d}"
        if request.execution == "batch":
            if self._closed:
                raise ServiceClosed("service is shut down")
            job = Job(request, priority=priority, deadline_s=deadline_s,
                      sweep_id=sweep_id)
            if self.scheduler.coalesce is not None:
                job.coalesce_key = coalesce_key(request)
            tracer = get_tracer()
            if tracer.enabled:
                job.trace_parent = tracer.current_span()
                tracer.instant("service.submit", cat="service", args={
                    "job": job.id, "kind": job.kind,
                    "lanes": len(request.scenarios),
                })
            try:
                self.scheduler.submit(job)
            except Exception as exc:
                self.metrics.on_reject()
                if tracer.enabled:
                    tracer.instant("service.reject", cat="service", args={
                        "sweep": sweep_id, "reason": type(exc).__name__,
                    })
                raise
            self.metrics.on_submit("sweep_batch")
            return BatchSweepHandle(
                sweep_id, JobHandle(job, self.store), len(request.scenarios)
            )
        handles: list[JobHandle] = []
        tracer = get_tracer()
        trace_parent = tracer.current_span() if tracer.enabled else None
        try:
            for child in request.expand():
                if self._closed:
                    raise ServiceClosed("service is shut down")
                job = Job(
                    child, priority=priority, deadline_s=deadline_s, sweep_id=sweep_id
                )
                job.trace_parent = trace_parent
                self.scheduler.submit(job)
                self.metrics.on_submit("sweep_point")
                handles.append(JobHandle(job, self.store))
        except Exception as exc:
            self.metrics.on_reject()
            if tracer.enabled:
                tracer.instant("service.reject", cat="service", args={
                    "sweep": sweep_id, "reason": type(exc).__name__,
                })
            for h in handles:
                h.cancel()
            raise
        return SweepHandle(sweep_id, handles)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def wait_all(
        self, handles: Sequence[JobHandle], timeout: Optional[float] = None
    ) -> bool:
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        for h in handles:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            if not h.wait(remaining):
                return False
        return True

    def metrics_snapshot(self) -> dict:
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    def _record_skipped(self, job: Job) -> None:
        """Store + count a job the queue finished without running."""
        job.mark_queue_phases()
        self.store.put(JobRecord.from_job(job))
        self.metrics.on_finish(job)
        self.pool._record_finish(job)
