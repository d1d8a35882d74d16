"""Fixed-step simulation engine (the MIL executor).

Executes a :class:`~repro.model.compiled.CompiledModel` with Simulink
fixed-step semantics:

* **major step** — output pass in sorted order (discrete blocks only at
  their sample hits; outputs hold in between), event dispatch, scope
  logging, discrete update pass, then continuous-state integration;
* **minor steps** — the RK4 solver re-evaluates outputs of continuous and
  inherited-rate blocks at intermediate states with ``ctx.minor`` set, so
  events do not fire and discrete state never mutates off the grid.

The per-step hook mechanism (``SimulationOptions.step_hook``) is how the
PIL co-simulation in :mod:`repro.sim` splices a serial-line exchange into
the loop without changing the model — the paper's single-model property.

Two execution paths share these semantics:

* the **reference interpreter** (`_ref_*` methods) dispatches every block
  through its Python callbacks — simple, always available;
* the **kernel fast path** (:mod:`repro.model.kernels`) compiles the
  schedule into flat generated pass functions with fused affine kernels,
  per-rate phase tables and a pruned minor-step schedule.  It is selected
  automatically at :meth:`Simulator.initialize` (default on, disable with
  ``SimulationOptions(use_kernels=False)``) and falls back to the
  reference interpreter when planning fails; the equivalence suite in
  ``tests/model/test_kernels.py`` pins the two paths bit-identical.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..obs.trace import get_tracer
from .block import Block, BlockContext
from .compiled import CompiledModel
from .graph import Model
from .result import SignalLog, SimulationResult


@dataclass
class SimulationOptions:
    """Knobs for a simulation run."""

    dt: float = 1e-3
    t_final: float = 1.0
    solver: str = "rk4"  # "euler" | "rk4"
    log_all_signals: bool = False
    #: called after every major step as hook(t, engine)
    step_hook: Optional[Callable[[float, "Simulator"], None]] = None
    #: use the compiled kernel fast path when the model supports it
    use_kernels: bool = True
    #: compile the model to a native C extension and run the step loop
    #: there: ``True`` forces it, ``False`` disables it, ``"auto"``
    #: (default) engages only when the run is big enough to amortize the
    #: compile/dlopen cost.  ``$REPRO_NATIVE`` (off/on/auto) overrides.
    native: Union[bool, str] = "auto"

    def __post_init__(self) -> None:
        if self.solver not in ("euler", "rk4"):
            raise ValueError(f"unknown solver '{self.solver}'")
        if self.t_final <= 0 or self.dt <= 0:
            raise ValueError("dt and t_final must be positive")
        if self.native not in (True, False, "auto"):
            raise ValueError("native must be True, False or 'auto'")


#: minimum estimated block-steps (steps x scheduled blocks) before
#: ``native="auto"`` bothers compiling; override with
#: ``$REPRO_NATIVE_THRESHOLD``
NATIVE_AUTO_THRESHOLD = 100_000


class Simulator:
    """Runs one compiled model.  Create, then :meth:`run`.

    The instance is also usable incrementally (``initialize`` +
    ``advance``), which the PIL/HIL co-simulation layers rely on to
    interleave the plant with the MCU simulator step by step.
    """

    def __init__(self, model: Union[Model, CompiledModel], options: SimulationOptions):
        self.options = options
        self.cm = model if isinstance(model, CompiledModel) else model.compile(options.dt)
        if self.cm.dt != options.dt:
            raise ValueError("compiled model base step differs from options.dt")
        self._ctxs: dict[str, BlockContext] = {}
        # plain list: scalar loads/stores in the hot loop beat ndarray access
        self.signals: list[float] = [0.0] * self.cm.n_signals
        self.x = np.zeros(self.cm.n_states)
        self.step_index = 0
        self.time = 0.0
        self._scope_logs: dict[str, SignalLog] = {}
        self._signal_trace: Optional[np.ndarray] = None
        self._trace_len = 0
        self._times = SignalLog()
        self._pending_events: deque[tuple[str, int]] = deque()
        # reference-interpreter schedules, precomputed in initialize():
        #   (block, ctx, in_indices, out_indices, divisor, u_scratch)
        self._sched: list[tuple] = []
        self._minor_sched: list[tuple] = []
        self._upd_sched: list[tuple] = []
        self._deriv_sched: list[tuple] = []  # (block, ctx, in_idx, off, n, u)
        self._scope_sched: list[tuple] = []  # (qname, input_index)
        # RK4 work buffers; tiny state vectors (the usual case — a servo
        # plant has a handful of states) integrate through scalar Python
        # arithmetic, which beats NumPy's per-call overhead and performs
        # the exact same IEEE operations elementwise
        n = self.cm.n_states
        self._x0 = np.zeros(n)
        self._k = [np.zeros(n) for _ in range(4)]
        self._scalar_states = 0 < n <= 16
        if self._scalar_states:
            self._x0 = [0.0] * n
            self._k = [[0.0] * n for _ in range(4)]
            self._srange = range(n)
        # active pass implementations (bound in initialize)
        self._out_major: Callable[[float, int], None] = self._ref_out_major
        self._out_minor: Callable[[float], None] = self._ref_out_minor
        self._update: Callable[[float, int], None] = self._ref_update
        self._deriv: Callable[[float, np.ndarray], None] = self._ref_deriv
        #: the bound kernel plan / fast path (None on the reference path)
        self.fast_path = None
        #: why the fast path was not used (None when it is active)
        self.kernel_fallback_reason: Optional[str] = None
        #: the bound native C executor (None on the Python paths)
        self.native_path = None
        #: why the native path was not used (None when it is active)
        self.native_fallback_reason: Optional[str] = None
        self._initialized = False
        self._tracer = get_tracer()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Allocate contexts, call every block's ``start``, build the
        reference execution schedules, and bind the kernel fast path
        (planned against the blocks' *current* modes — PE peripherals may
        have been switched to PIL/HW after the model was compiled)."""
        cm = self.cm
        from .library.sinks import Scope

        for qname in cm.order:
            block = cm.nodes[qname]
            ctx = BlockContext()
            off, n = cm.state_offset[qname], cm.state_count[qname]
            if n:
                self.x[off : off + n] = np.asarray(block.initial_continuous_states())
            ctx.x = self.x[off : off + n]
            ctx._fire = self._make_fire(qname)
            self._ctxs[qname] = ctx
            block.start(ctx)

            if getattr(block, "triggerable", False):
                continue
            in_idx = tuple(cm.input_map[qname])
            out_idx = tuple(cm.sig_index[(qname, p)] for p in range(block.n_out))
            divisor = cm.divisors[qname]
            # preallocated input scratch, refilled in place each visit
            entry = (block, ctx, in_idx, out_idx, divisor, [0.0] * len(in_idx))
            self._sched.append(entry)
            if divisor == 0:
                self._minor_sched.append(entry)
            if type(block).update is not Block.update:
                self._upd_sched.append(entry)
            if n:
                self._deriv_sched.append(
                    (block, ctx, in_idx, off, n, [0.0] * len(in_idx))
                )
            if isinstance(block, Scope):
                self._scope_sched.append((qname, in_idx[0]))
        self._bind_fast_path()
        self._bind_native()
        self._initialized = True

    def _bind_fast_path(self) -> None:
        """Swap in the generated kernel passes, or record why not."""
        tr = self._tracer
        if not self.options.use_kernels:
            self.kernel_fallback_reason = "disabled by SimulationOptions"
            self._count_fallback("kernel_disabled")
            if tr.enabled:
                tr.instant("engine.kernel_fallback", cat="engine",
                           args={"reason": self.kernel_fallback_reason})
            return
        from .kernels import KernelPlanError, build_fast_path

        try:
            fp = build_fast_path(self)
        except KernelPlanError as exc:
            self.kernel_fallback_reason = str(exc)
            self._count_fallback("kernel_plan_refused")
            if tr.enabled:
                tr.instant("engine.kernel_fallback", cat="engine",
                           args={"reason": self.kernel_fallback_reason})
            return
        self.fast_path = fp
        self._out_major = fp.out_major
        self._out_minor = fp.out_minor
        self._update = fp.update
        self._deriv = fp.deriv

    # ------------------------------------------------------------------
    # native C executor binding
    # ------------------------------------------------------------------
    @property
    def native_active(self) -> bool:
        return self.native_path is not None

    @staticmethod
    def _count_fallback(reason: str) -> None:
        from ..obs.metrics import get_registry

        get_registry().counter(
            "kernel_fallback_total",
            "native/kernel fast-path fallbacks by reason",
            labels={"reason": reason},
        ).inc()

    def _native_fallback(self, reason: str, detail: str = "") -> None:
        self.native_fallback_reason = (
            f"{reason}: {detail}" if detail else reason
        )
        self._count_fallback(reason)
        if self._tracer.enabled:
            self._tracer.instant(
                "engine.native_fallback", cat="engine",
                args={"reason": reason, "detail": detail[:200]},
            )

    def _native_mode(self):
        """The effective native switch after the env override."""
        env = os.environ.get("REPRO_NATIVE", "").strip().lower()
        if env in ("off", "0", "false", "no"):
            return False
        if env in ("on", "1", "force", "true"):
            return True
        if env == "auto":
            return "auto"
        return self.options.native

    def _bind_native(self) -> None:
        """Lower the plan to C, compile (or reuse the disk cache), and
        take over the step loop — or record why not and keep the Python
        paths untouched.  The fallback ladder: disabled ->
        below_auto_threshold -> plan_refused -> toolchain_missing ->
        compile_error."""
        mode = self._native_mode()
        if mode is False:
            self._native_fallback("disabled")
            return
        if mode == "auto":
            n_steps = int(round(self.options.t_final / self.options.dt)) + 1
            work = n_steps * max(1, len(self._sched))
            threshold = int(
                os.environ.get("REPRO_NATIVE_THRESHOLD", "")
                or NATIVE_AUTO_THRESHOLD
            )
            if work < threshold:
                self._native_fallback("below_auto_threshold")
                return
        from ..native import (
            NativeLoweringError,
            NativePath,
            ToolchainError,
            doc_hash_for,
            ensure_compiled,
            find_cc,
            generate_program,
        )
        from .kernels import KernelPlanError, plan_kernels

        try:
            if self.fast_path is not None:
                plan = self.fast_path.plan
            else:
                plan = plan_kernels(self.cm)
            program = generate_program(self, plan)
        except (KernelPlanError, NativeLoweringError) as exc:
            self._native_fallback("plan_refused", str(exc))
            return
        if find_cc() is None:
            self._native_fallback("toolchain_missing",
                                  "no C compiler on PATH (cc/gcc/clang)")
            return
        try:
            so_path = ensure_compiled(program.source, doc_hash_for(self))
        except ToolchainError as exc:
            self._native_fallback("compile_error", str(exc))
            return
        # Commit: the extension borrows the signal buffer, so the scalar
        # list becomes an ndarray now.  The generated FastPath passes
        # captured the *old list* in their default args — route the
        # Python passes back through the reference methods (they read
        # ``self.signals`` fresh each call) so co-simulation taps and
        # the legacy shims stay correct alongside the native loop.
        signals = np.ascontiguousarray(self.signals, dtype=np.float64)
        try:
            native = NativePath(program, so_path, signals, self.x)
        except Exception as exc:  # dlopen/ABI trouble: keep Python paths
            self._native_fallback("compile_error", f"load failed: {exc}")
            return
        self.signals = signals
        self._out_major = self._ref_out_major
        self._out_minor = self._ref_out_minor
        self._update = self._ref_update
        self._deriv = self._ref_deriv
        self.native_path = native

    def _make_fire(self, qname: str) -> Callable[[int], None]:
        # events are queued and dispatched right after the firing block's
        # outputs are stored, so the "ISR" reads current data — the same
        # ordering a real end-of-conversion interrupt sees
        pending = self._pending_events

        def fire(event_port: int) -> None:
            pending.append((qname, event_port))

        return fire

    def _dispatch_events(self) -> None:
        pending = self._pending_events
        while pending:
            qname, event_port = pending.popleft()
            for target in self.cm.event_targets.get((qname, event_port), ()):
                self._execute_triggered(target)

    # ------------------------------------------------------------------
    # reference interpreter passes
    # ------------------------------------------------------------------
    def _inputs_of(self, qname: str) -> list[float]:
        sigs = self.signals
        return [sigs[i] for i in self.cm.input_map[qname]]

    def _store_outputs(self, qname: str, values: Sequence[float]) -> None:
        cm = self.cm
        sigs = self.signals
        for port, v in enumerate(values):
            sigs[cm.sig_index[(qname, port)]] = float(v)

    def _is_hit(self, qname: str) -> bool:
        return self.cm.is_hit(qname, self.step_index)

    def _execute_triggered(self, qname: str) -> None:
        """Synchronously run a function-call target (ISR semantics)."""
        block = self.cm.nodes[qname]
        ctx = self._ctxs[qname]
        u = self._inputs_of(qname)
        out = block.outputs(self.time, u, ctx)
        self._store_outputs(qname, out)
        block.update(self.time, u, ctx)

    def _ref_out_major(self, t: float, step: int) -> None:
        sigs = self.signals
        pending = self._pending_events
        for block, ctx, in_idx, out_idx, div, u in self._sched:
            if div != 0 and step % div:
                continue  # discrete block holds between hits
            k = 0
            for i in in_idx:
                u[k] = sigs[i]
                k += 1
            out = block.outputs(t, u, ctx)
            for j, v in zip(out_idx, out):
                sigs[j] = float(v)
            if pending:
                self._dispatch_events()

    def _ref_out_minor(self, t: float) -> None:
        # only continuous/inherited blocks participate in minor steps
        sigs = self.signals
        for block, ctx, in_idx, out_idx, _div, u in self._minor_sched:
            k = 0
            for i in in_idx:
                u[k] = sigs[i]
                k += 1
            ctx.minor = True
            try:
                out = block.outputs(t, u, ctx)
            finally:
                ctx.minor = False
            for j, v in zip(out_idx, out):
                sigs[j] = float(v)

    def _ref_update(self, t: float, step: int) -> None:
        sigs = self.signals
        for block, ctx, in_idx, _out_idx, div, u in self._upd_sched:
            if div == 0 or step % div == 0:
                k = 0
                for i in in_idx:
                    u[k] = sigs[i]
                    k += 1
                block.update(t, u, ctx)

    def _ref_deriv(self, t: float, xdot: np.ndarray) -> None:
        sigs = self.signals
        for block, ctx, in_idx, off, n, u in self._deriv_sched:
            k = 0
            for i in in_idx:
                u[k] = sigs[i]
                k += 1
            xdot[off : off + n] = block.derivatives(t, u, ctx)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _integrate(self, t: float) -> None:
        if self.cm.n_states == 0:
            return
        dt = self.options.dt
        deriv = self._deriv
        x = self.x
        x0 = self._x0
        k1, k2, k3, k4 = self._k
        # classic RK4 (or forward Euler) with minor-step output
        # re-evaluation; every expression keeps the historical association
        # order — ``x0 + (0.5*dt)*k1``, ``((k1 + 2*k2) + 2*k3) + k4`` —
        # so neither the buffer reuse nor the scalar small-state loop
        # moves a single bit relative to the fresh-array NumPy form
        if self._scalar_states:
            rng = self._srange
            if self.options.solver == "euler":
                deriv(t, k1)
                for i in rng:
                    x[i] += dt * k1[i]
                return
            for i in rng:
                x0[i] = x[i]
            half_dt = 0.5 * dt
            half = t + half_dt
            sixth = dt / 6.0
            deriv(t, k1)
            for i in rng:
                x[i] = x0[i] + half_dt * k1[i]
            self._out_minor(half)
            deriv(half, k2)
            for i in rng:
                x[i] = x0[i] + half_dt * k2[i]
            self._out_minor(half)
            deriv(half, k3)
            for i in rng:
                x[i] = x0[i] + dt * k3[i]
            self._out_minor(t + dt)
            deriv(t + dt, k4)
            for i in rng:
                x[i] = x0[i] + sixth * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            return
        if self.options.solver == "euler":
            deriv(t, k1)
            x += dt * k1
            return
        x0[:] = x
        half = t + 0.5 * dt
        deriv(t, k1)
        x[:] = x0 + 0.5 * dt * k1
        self._out_minor(half)
        deriv(half, k2)
        x[:] = x0 + 0.5 * dt * k2
        self._out_minor(half)
        deriv(half, k3)
        x[:] = x0 + dt * k3
        self._out_minor(t + dt)
        deriv(t + dt, k4)
        x[:] = x0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def advance(self) -> float:
        """Execute one major step; returns the new time."""
        if not self._initialized:
            raise RuntimeError("call initialize() first")
        t = self.time
        step = self.step_index
        tr = self._tracer
        native = self.native_path
        if native is not None:
            if tr.enabled and step % tr.step_stride == 0:
                return self._advance_native_traced(t, step, tr)
            native.out_major(step)
            self._log_step(t)
            if self.options.step_hook is not None:
                self.options.step_hook(t, self)
            native.finish(step)
            self.step_index = step + 1
            self.time = self.step_index * self.options.dt
            return self.time
        if tr.enabled and step % tr.step_stride == 0:
            return self._advance_traced(t, step, tr)
        self._out_major(t, step)
        self._log_step(t)
        if self.options.step_hook is not None:
            self.options.step_hook(t, self)
        self._update(t, step)
        self._integrate(t)
        self.step_index = step + 1
        self.time = self.step_index * self.options.dt
        # restore outputs consistent with the post-integration state for
        # anyone peeking between steps
        return self.time

    def _advance_traced(self, t: float, step: int, tr) -> float:
        """The sampled 1-in-``step_stride`` variant of :meth:`advance`:
        same pass sequence, wrapped in a major-step span with per-pass
        child spans."""
        span = tr.begin("engine.major_step", cat="engine", sim_t=t,
                        args={"step": step})
        t0 = perf_counter()
        self._out_major(t, step)
        tr.complete("engine.output_pass", "engine", t0, sim_t=t)
        self._log_step(t)
        if self.options.step_hook is not None:
            self.options.step_hook(t, self)
        t0 = perf_counter()
        self._update(t, step)
        tr.complete("engine.update_pass", "engine", t0, sim_t=t)
        t0 = perf_counter()
        self._integrate(t)
        tr.complete("engine.integrate", "engine", t0, sim_t=t)
        self.step_index = step + 1
        self.time = self.step_index * self.options.dt
        tr.end(span)
        return self.time

    def _advance_native_traced(self, t: float, step: int, tr) -> float:
        """Sampled tracing around one native major step (the extension
        runs both halves; pass-level spans do not apply)."""
        span = tr.begin("engine.major_step", cat="engine", sim_t=t,
                        args={"step": step, "native": True})
        self.native_path.out_major(step)
        self._log_step(t)
        if self.options.step_hook is not None:
            self.options.step_hook(t, self)
        self.native_path.finish(step)
        self.step_index = step + 1
        self.time = self.step_index * self.options.dt
        tr.end(span)
        return self.time

    def _reserve_logs(self, n_steps: int) -> None:
        """Pre-size the ring buffers when the step count is known."""
        self._times.reserve(n_steps)
        for qname, _idx in self._scope_sched:
            self._scope_logs.setdefault(qname, SignalLog()).reserve(n_steps)
        if self.options.log_all_signals:
            self._grow_trace(n_steps)

    def _grow_trace(self, capacity: int) -> None:
        old = self._signal_trace
        if old is not None and old.shape[0] >= capacity:
            return
        new = np.empty((capacity, self.cm.n_signals))
        if old is not None and self._trace_len:
            new[: self._trace_len] = old[: self._trace_len]
        self._signal_trace = new

    def _log_step(self, t: float) -> None:
        self._times.append(t)
        logs = self._scope_logs
        sigs = self.signals
        for qname, idx in self._scope_sched:
            log = logs.get(qname)
            if log is None:
                log = logs[qname] = SignalLog()
            log.append(sigs[idx])
        if self.options.log_all_signals:
            trace = self._signal_trace
            if trace is None or self._trace_len >= trace.shape[0]:
                self._grow_trace(max(64, 2 * self._trace_len))
                trace = self._signal_trace
            trace[self._trace_len] = sigs
            self._trace_len += 1

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run from t=0 to ``t_final`` and collect logged signals."""
        if not self._initialized:
            self.initialize()
        n_steps = int(round(self.options.t_final / self.options.dt)) + 1
        self._reserve_logs(n_steps)
        advance = self.advance
        tr = self._tracer
        if not tr.enabled:
            if (self.native_path is not None
                    and self.options.step_hook is None):
                return self._run_native(n_steps)
            for _ in range(n_steps):
                advance()
            return self.result()
        opts = self.options
        with tr.span("engine.run", cat="engine", args={
            "dt": opts.dt, "t_final": opts.t_final, "solver": opts.solver,
            "steps": n_steps, "fast_path": self.fast_path is not None,
        }):
            for _ in range(n_steps):
                advance()
        self._count_run(n_steps)
        return self.result()

    #: steps per native whole-loop call — keeps scope/trace staging
    #: buffers modest while amortizing the FFI call overhead
    _NATIVE_CHUNK = 65536

    def _run_native(self, n_steps: int) -> SimulationResult:
        """Whole-loop execution inside the extension: ``nx_run`` steps
        in chunks, scope samples (and optionally full signal rows) come
        back as arrays and extend the logs in bulk."""
        native = self.native_path
        dt = self.options.dt
        want_trace = self.options.log_all_signals
        scope_names = [qname for qname, _idx in self._scope_sched]
        done = 0
        while done < n_steps:
            n = min(self._NATIVE_CHUNK, n_steps - done)
            start = self.step_index
            scope, trace = native.run_chunk(start, n, want_trace)
            # t = step * dt per step, the reference advance() product
            self._times.extend(np.arange(start, start + n) * dt)
            for k, qname in enumerate(scope_names):
                log = self._scope_logs.get(qname)
                if log is None:
                    log = self._scope_logs[qname] = SignalLog()
                log.extend(scope[:, k])
            if want_trace and trace is not None:
                self._append_trace_rows(trace)
            self.step_index = start + n
            self.time = self.step_index * dt
            done += n
        return self.result()

    def _append_trace_rows(self, rows: np.ndarray) -> None:
        n = rows.shape[0]
        trace = self._signal_trace
        if trace is None or self._trace_len + n > trace.shape[0]:
            self._grow_trace(max(64, 2 * self._trace_len, self._trace_len + n))
            trace = self._signal_trace
        trace[self._trace_len : self._trace_len + n] = rows
        self._trace_len += n

    def _count_run(self, n_steps: int) -> None:
        """Roll the run into the process-wide metrics registry."""
        from ..obs.metrics import get_registry

        reg = get_registry()
        reg.counter("engine_steps_total", "major steps executed").inc(n_steps)
        if self.cm.n_states:
            per_step = 1 if self.options.solver == "euler" else 4
            reg.counter(
                "engine_solver_minor_steps_total",
                "derivative evaluations by the fixed-step solver",
            ).inc(n_steps * per_step)

    def result(self) -> SimulationResult:
        """Assemble a :class:`SimulationResult` from the logs so far."""
        t = self._times.array()
        signals: dict[str, np.ndarray] = {}
        for qname, samples in self._scope_logs.items():
            label = getattr(self.cm.nodes[qname], "label", None) or qname
            signals[label] = samples.array()
        if self.options.log_all_signals and self._trace_len:
            trace = self._signal_trace[: self._trace_len]
            for (qname, port), idx in self.cm.sig_index.items():
                signals.setdefault(f"{qname}:{port}", trace[:, idx].copy())
        for qname in self.cm.order:
            self.cm.nodes[qname].terminate(self._ctxs[qname])
        return SimulationResult(t, signals)

    # ------------------------------------------------------------------
    # external access (used by the PIL/HIL co-simulation)
    # ------------------------------------------------------------------
    def read_signal(self, qname: str, port: int = 0) -> float:
        """Current value on an output line."""
        return float(self.signals[self.cm.sig_index[(qname, port)]])

    def read_input(self, qname: str, port: int = 0) -> float:
        """Current value arriving at an input port (co-simulation tap)."""
        return float(self.signals[self.cm.input_map[qname][port]])

    def write_signal(self, qname: str, port: int, value: float) -> None:
        """Force a value onto an output line (co-simulation injection)."""
        self.signals[self.cm.sig_index[(qname, port)]] = float(value)


def simulate(
    model: Union[Model, CompiledModel],
    t_final: float,
    dt: float = 1e-3,
    solver: str = "rk4",
    **kwargs,
) -> SimulationResult:
    """One-call convenience wrapper: compile (if needed) and run."""
    opts = SimulationOptions(dt=dt, t_final=t_final, solver=solver, **kwargs)
    return Simulator(model, opts).run()
