"""Span recording for the traced run, from outside the program.

``Recorder.install()`` wraps public functions of each layer.  Three
kinds of wrapper:

* **span** — a layer boundary crossed a few times per op
  (``build_servo_model``, ``Simulator.initialize``/``run``,
  ``BatchSimulator.run``,
  ``PEERTTarget.build``, ``PILSimulator.run``, ``MCUDevice.run_until``,
  ``evaluate_plan``, ``extract_signature``, ``ensure_compiled``, the
  service's ``execute_request``).  Each call becomes one record with
  name, start, end, parent span and op id, kept in memory and written
  as JSONL at exit.
* **leaf** — a boundary crossed thousands of times per op (the PIL
  plant's ``Simulator.advance``, ``PacketCodec.encode``,
  ``PacketDecoder.feed``).  Recording each call would cost more than
  the call, so leaves add their count and self time to per-thread
  totals instead; their duration still counts as child time of the
  enclosing span.
* **count** — ``MCUDevice.schedule``: a call count only.

A span's self time is its duration minus the time its children on the
same thread cover.  Service job spans run on worker threads and name
the client's op span as parent; their time is not subtracted from it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter


class _ThreadState:
    __slots__ = ("stack", "leaf", "counts", "pil_depth")

    def __init__(self):
        # frames: [span id or None, child seconds]
        self.stack: list = []
        self.leaf: dict = {}
        self.counts: dict = {}
        self.pil_depth = 0


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self.op_span = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list = []
        self._op_frame = None

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _span(self, name, fn, tags=None, pil=False):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec._state()
            stack = st.stack
            parent = stack[-1][0] if stack else rec.op_span
            sid = next(rec._ids)
            frame = [sid, 0.0]
            stack.append(frame)
            st.pil_depth += pil
            t0 = perf_counter()
            out = err = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                st.pil_depth -= pil
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                span = {"id": sid, "parent": parent, "name": name,
                        "op": rec.op, "thread": threading.get_ident(),
                        "start": t0, "end": t1,
                        "self": t1 - t0 - frame[1]}
                if err is not None:
                    span["error"] = err
                elif tags is not None:
                    span.update(tags(args, out))
                rec.spans.append(span)

        return wrapper

    def _leaf(self, name, fn, pil_only=False):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec._state()
            if pil_only and not st.pil_depth:
                return fn(*args, **kwargs)
            stack = st.stack
            frame = [None, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg = st.leaf.get(name)
                if agg is None:
                    agg = st.leaf[name] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur - frame[1]

        return wrapper

    def _count(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = rec._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], wrapper))

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Put the wrappers in place (built on the first call)."""
        if not self._patches:
            self._build()
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self) -> None:
        from repro import casestudy, fuzz, native
        from repro.comm.packets import PacketCodec, PacketDecoder
        from repro.core.target import PEERTTarget
        from repro.fuzz import signature
        from repro.mcu.device import MCUDevice
        from repro.model.batch import BatchSimulator
        from repro.model.engine import Simulator
        from repro.service import workers
        from repro.sim.pil import PILSimulator

        def init_tags(args, _out):
            sim = args[0]
            if sim.native_path is not None:
                return {"native": "active"}
            reason = sim.native_fallback_reason or "none"
            return {"native": reason.split(":")[0]}

        def run_tags(args, out):
            return {"steps": len(out.t), "native": args[0].native_path is not None}

        def pil_tags(_args, out):
            return {"line_bytes": out.bytes_to_mcu + out.bytes_to_host,
                    "retransmits": out.retransmits}

        orig_ensure = native.ensure_compiled

        def ensure(source, doc_hash):
            before = native.native_cache_stats()["misses"]
            path = orig_ensure(source, doc_hash)
            return path, native.native_cache_stats()["misses"] == before

        ensure_span = self._span("native.ensure", ensure,
                                 lambda _a, out: {"hit": out[1]})

        @functools.wraps(orig_ensure)
        def ensure_compiled(source, doc_hash):
            return ensure_span(source, doc_hash)[0]

        self._patch(casestudy, "build_servo_model",
                    self._span("model.build", casestudy.build_servo_model))
        self._patch(Simulator, "__init__",
                    self._span("engine.new", Simulator.__init__))
        self._patch(Simulator, "initialize",
                    self._span("engine.init", Simulator.initialize, init_tags))
        self._patch(Simulator, "run",
                    self._span("engine.run", Simulator.run, run_tags))
        self._patch(BatchSimulator, "run",
                    self._span("batch.run", BatchSimulator.run))
        self._patch(native, "ensure_compiled", ensure_compiled)
        self._patch(PEERTTarget, "build",
                    self._span("codegen.build", PEERTTarget.build))
        self._patch(PILSimulator, "run",
                    self._span("pil.run", PILSimulator.run, pil_tags, pil=True))
        self._patch(MCUDevice, "run_until",
                    self._span("mcu.run_until", MCUDevice.run_until))
        self._patch(fuzz, "evaluate_plan",
                    self._span("fuzz.eval", fuzz.evaluate_plan))
        self._patch(signature, "extract_signature",
                    self._span("fuzz.signature", signature.extract_signature,
                               lambda a, _o: {"events": len(a[0])}))
        self._patch(workers, "execute_request",
                    self._span("service.exec", workers.execute_request))
        self._patch(Simulator, "advance",
                    self._leaf("pil.plant", Simulator.advance, pil_only=True))
        self._patch(PacketCodec, "encode",
                    self._leaf("comm.codec", PacketCodec.encode))
        self._patch(PacketDecoder, "feed",
                    self._leaf("comm.codec", PacketDecoder.feed))
        self._patch(MCUDevice, "schedule",
                    self._count("mcu.schedule_calls", MCUDevice.schedule))

    # ------------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        st = self._state()
        sid = next(self._ids)
        self.op, self.op_span = op, sid
        self._op_frame = [sid, 0.0]
        st.stack.append(self._op_frame)
        self._op_t0 = perf_counter()

    def end_op(self) -> None:
        t1 = perf_counter()
        self._state().stack.pop()
        sid, child = self._op_frame
        self.spans.append({"id": sid, "parent": None, "name": "op",
                           "op": self.op, "thread": threading.get_ident(),
                           "start": self._op_t0, "end": t1,
                           "self": t1 - self._op_t0 - child})
        self.op = self.op_span = None

    def leaf_totals(self) -> dict:
        out: dict = {}
        for st in self._states:
            for name, (n, s) in st.leaf.items():
                agg = out.setdefault(name, [0, 0.0])
                agg[0] += n
                agg[1] += s
        return out

    def counts(self) -> dict:
        out: dict = {}
        for st in self._states:
            for name, n in st.counts.items():
                out[name] = out.get(name, 0) + n
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
            f.write(json.dumps({"leaf": self.leaf_totals(),
                                "counts": self.counts()}) + "\n")

    # ------------------------------------------------------------------
    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics over the ``n_ops`` traced ops (README.md)."""
        by_name: dict[str, list] = {}
        for span in self.spans:
            by_name.setdefault(span["name"], []).append(span)

        def self_ms(*names):
            return 1e3 * sum(s["self"] for n in names
                             for s in by_name.get(n, ())) / n_ops

        runs = by_name.get("engine.run", [])
        inits = by_name.get("engine.init", [])
        ensures = by_name.get("native.ensure", [])
        ensure_by_parent = {s["parent"]: s for s in ensures}

        def steps_per_s(native_flag):
            sel = [s for s in runs if s.get("native") is native_flag]
            busy = sum(s["self"] for s in sel)
            return sum(s["steps"] for s in sel) / busy if busy else 0.0

        ensures = [s for s in ensures if "hit" in s]
        compiles = [s for s in ensures if not s["hit"]]
        bind = [s["end"] - s["start"]
                - (ensure_by_parent[s["id"]]["end"] - ensure_by_parent[s["id"]]["start"])
                for s in inits
                if s.get("native") == "active" and ensure_by_parent.get(s["id"], {}).get("hit")]
        leaf = self.leaf_totals()
        plant = leaf.get("pil.plant", [0, 0.0])
        codec = leaf.get("comm.codec", [0, 0.0])
        pil_runs = by_name.get("pil.run", [])
        m = {
            "model.build_ms": self_ms("model.build"),
            "engine.init_ms": self_ms("engine.new", "engine.init"),
            "engine.run_ms": self_ms("engine.run"),
            "batch.run_ms": self_ms("batch.run"),
            "engine.steps": sum(s.get("steps", 0) for s in runs),
            "engine.py_steps_per_s": steps_per_s(False),
            "engine.native_steps_per_s": steps_per_s(True),
            "native.compiles": len(compiles),
            "native.hits": len(ensures) - len(compiles),
            "native.compile_ms": 1e3 * sum(s["end"] - s["start"] for s in compiles)
            / len(compiles) if compiles else 0.0,
            "native.bind_ms": 1e3 * sum(bind) / len(bind) if bind else 0.0,
            "native.active_frac": sum(s.get("native") == "active" for s in inits)
            / len(inits) if inits else 0.0,
        }
        for reason in FALLBACK_REASONS:
            m[f"native.fallbacks.{reason}"] = sum(
                s.get("native") == reason for s in inits)
        m.update({
            "codegen.build_ms": self_ms("codegen.build"),
            "pil.run_ms": self_ms("pil.run"),
            "pil.plant_ms": 1e3 * plant[1] / n_ops,
            "pil.plant_steps": plant[0],
            "mcu.self_ms": self_ms("mcu.run_until"),
            "mcu.schedule_calls": self.counts().get("mcu.schedule_calls", 0),
            "comm.codec_ms": 1e3 * codec[1] / n_ops,
            "comm.line_bytes": sum(s.get("line_bytes", 0) for s in pil_runs),
            "comm.retransmits": sum(s.get("retransmits", 0) for s in pil_runs),
            "fuzz.eval_ms": self_ms("fuzz.eval"),
            "fuzz.signature_ms": self_ms("fuzz.signature"),
            "obs.events_per_op": sum(s.get("events", 0) for s in by_name.get(
                "fuzz.signature", ())) / n_ops,
        })
        return m


#: the engine's native fallback ladder (``Simulator._bind_native``)
FALLBACK_REASONS = ("disabled", "below_auto_threshold", "plan_refused",
                    "toolchain_missing", "compile_error")
