"""The three benchmark workloads: one closed-loop client each.

Every workload draws its op list from the committed reference pools in
``fixtures/reference.json`` with ``random.Random(seed)``, so one seed
always gives the same inputs and every op has a committed reference
digest.  ``setup()`` builds the rigs and runs the warm-up ops (their
cost lands in ``setup_s``, never in the op statistics); ``run_op(i)``
is the timed op; ``check(i, out)`` compares an op's output with the
reference after the timed phase and returns ``(ok, sim_steps)``.

Calls into the program go through module attributes
(``casestudy.build_servo_model``, ``fuzz.evaluate_plan``...) so the
traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "reference.json")

#: simulation step of every MIL run and of the PIL plant (s)
DT = 1e-4

#: batch-lane override target in the servo diagram
LANE_BLOCK = "controller.ref"

#: the hot model every batch sweep leases from the service's model cache
HOT_MODEL = {"setpoint": 100.0}


def load_fixtures() -> dict:
    with open(FIXTURES) as f:
        return json.load(f)


def digest_result(res) -> str:
    """Bit-exact digest of a SimulationResult: time base plus every
    logged signal in name order, as float64 bytes."""
    import numpy as np

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(res.t, dtype=np.float64).tobytes())
    for name in sorted(res.names):
        h.update(name.encode() + b"\0")
        h.update(np.ascontiguousarray(res[name], dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def digest_pil(pil) -> str:
    """Digest of a PIL run: the plant trajectory plus the link ledger."""
    ledger = (pil.bytes_to_mcu, pil.bytes_to_host, pil.steps,
              pil.retransmits, pil.crc_errors)
    return hashlib.sha256(
        (digest_result(pil.result) + repr(ledger)).encode()
    ).hexdigest()[:16]


def servo_model(setpoint: float, load_torque: float = 0.0,
                bandwidth_hz: float = 6.0):
    """The case-study servo at one design point (a SweepRequest builder)."""
    from repro import casestudy

    return casestudy.build_servo_model(casestudy.ServoConfig(
        setpoint=setpoint, load_torque=load_torque, bandwidth_hz=bandwidth_hz,
    ))


def q15_pil():
    """The dev-cycle PIL rig: the Q15 servo build on the MC56F8367 at
    115200 baud (``examples/servo_development_cycle.py`` phase 4)."""
    from repro import casestudy
    from repro.core import PEERTTarget
    from repro.sim import PILSimulator

    sm = casestudy.build_servo_model(
        casestudy.ServoConfig(setpoint=100.0, fixed_point=True)
    )
    app = PEERTTarget(sm.model).build()
    return PILSimulator(app, baud=115200, plant_dt=DT)


def point_kwargs(point) -> dict:
    sp, load, bw = point[:3]
    return {"setpoint": sp, "load_torque": load, "bandwidth_hz": bw}


#: per pool, the leading entries reserved for warm-up: every seed warms
#: up on the same inputs, so set-up work does not vary with the seed
WARM = 2


def _take(pool: list, k: int, rng: random.Random, what: str,
          start: int = WARM) -> list[int]:
    """``k`` distinct seeded indices into ``pool[start:]``."""
    if k > len(pool) - start:
        raise SystemExit(
            f"{what}: {k} inputs needed but the reference pool holds "
            f"{len(pool) - start}; lower --seconds or regenerate the fixtures"
        )
    return rng.sample(range(start, len(pool)), k)


class Workload:
    """Defaults for the optional hooks of a workload."""

    #: the client does all the work on its one thread (see child.op_cpus)
    single_threaded = True

    def op_class(self, i: int):
        """Ops of one class cost about the same (the traced run pairs
        traced and untraced ops within a class)."""
        return None

    def final_ok(self) -> bool:
        """Whole-run check after the timed phase."""
        return True

    def layer_metrics(self) -> dict:
        """Per-layer metrics the workload measures itself."""
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
class MilSweep(Workload):
    """Design-space sweep of the servo: build, Simulator(native="auto"),
    initialize, run.  55% short design checks below the native auto
    threshold (Python kernels), 40% long soak runs at a fresh point
    (cold cc compile), 5% long runs revisiting a compiled point (warm
    artifact hit).  Latency order is warm < short < cold, so p50 lies
    at the 82nd percentile of the short group and p90 at the 75th of
    the cold group: inside each group, away from its edges, and in its
    upper part, which the host's slow state fills in nearly every run."""

    name = "mil_sweep"
    nominal_ops_per_s = 10.0
    warm_share, cold_share = 0.05, 0.4

    def __init__(self, fixtures: dict, seed: int, n_ops: int):
        self.fx = fixtures["mil"]
        self.seed, self.n_ops = seed, n_ops

    def setup(self) -> None:
        rng = random.Random(self.seed)
        n_cold = round(self.cold_share * self.n_ops)
        n_warm = round(self.warm_share * self.n_ops)
        n_short = self.n_ops - n_cold - n_warm
        shorts = iter(_take(self.fx["short"], n_short, rng, self.name))
        cold = iter(_take(self.fx["long"], n_cold, rng, self.name))
        kinds = ["short"] * n_short + ["cold"] * n_cold + ["warm"] * n_warm
        rng.shuffle(kinds)
        self.kinds = kinds
        compiled = list(range(WARM))
        self.ops = []
        for kind in kinds:
            if kind == "short":
                self.ops.append(("short", next(shorts)))
            elif kind == "cold":
                idx = next(cold)
                compiled.append(idx)
                self.ops.append(("long", idx))
            else:
                self.ops.append(("long", rng.choice(compiled)))
        warmup = [("short", 0), ("long", 0), ("long", 1), ("long", 0),
                  ("short", 1)]
        for op in warmup:
            self._run(op)

    def _run(self, op):
        from repro.model import engine

        kind, idx = op
        point = self.fx[kind][idx]
        sm = servo_model(**point_kwargs(point))
        sim = engine.Simulator(sm.model, engine.SimulationOptions(
            dt=DT, t_final=self.fx[f"{kind}_t_final"]))
        sim.initialize()
        return sim.run()

    def run_op(self, i: int):
        return self._run(self.ops[i])

    def op_class(self, i: int) -> str:
        return self.kinds[i]

    def check(self, i: int, out) -> tuple[bool, int]:
        kind, idx = self.ops[i]
        return digest_result(out) == self.fx[kind][idx][3], len(out.t)


# ---------------------------------------------------------------------------
class PilFuzz(Workload):
    """The fuzzer's execution semantics: one op is
    ``evaluate_plan(target, plan, t_final, SignatureConfig())`` on a
    fresh servo PIL rig plus admission of the signature into a Corpus.
    The candidate list is the seed grid (plus the clean plan) and
    PlanMutator mutants from the committed pool."""

    name = "pil_fuzz"
    nominal_ops_per_s = 5.0

    def __init__(self, fixtures: dict, seed: int, n_ops: int):
        self.fx = fixtures["fuzz"]
        self.seed, self.n_ops = seed, n_ops

    def setup(self) -> None:
        from repro import fuzz

        self.target = fuzz.get_target(self.fx["target"])
        self.sig_config = fuzz.SignatureConfig()
        plans = self.fx["plans"]
        n_grid = self.fx["n_grid"]
        rng = random.Random(self.seed)
        picks = list(range(n_grid)) + _take(
            plans, self.n_ops - n_grid, rng, self.name, start=n_grid + WARM)
        rng.shuffle(picks)
        self.ops = picks
        # expected admission sequence, derived from the reference hashes
        seen: set[str] = set()
        self.expect_novel = []
        for idx in picks:
            h = plans[idx][1]
            self.expect_novel.append(h not in seen)
            seen.add(h)
        self.corpus = fuzz.Corpus()
        warm_corpus = fuzz.Corpus()
        for idx in range(n_grid, n_grid + WARM):
            self._evaluate(idx, warm_corpus)

    def _evaluate(self, idx: int, corpus):
        from repro import fuzz

        doc = self.fx["plans"][idx][0]
        t_final = self.fx["t_final"]
        outcome = fuzz.evaluate_plan(self.target, doc, t_final, self.sig_config)
        admitted = corpus.add(fuzz.CorpusEntry(
            target=self.target.name, plan=doc, signature=outcome["signature"],
            sig_hash=outcome["hash"], t_final=t_final,
            metrics=outcome["metrics"],
        ), write=False)
        return outcome["hash"], admitted

    def run_op(self, i: int):
        return self._evaluate(self.ops[i], self.corpus)

    def check(self, i: int, out) -> tuple[bool, int]:
        sig_hash, admitted = out
        ok = (sig_hash == self.fx["plans"][self.ops[i]][1]
              and admitted == self.expect_novel[i])
        return ok, round(self.fx["t_final"] / DT)

    def final_ok(self) -> bool:
        """The corpus admitted exactly the reference hash sequence."""
        expected = [self.fx["plans"][idx][1]
                    for idx, novel in zip(self.ops, self.expect_novel) if novel]
        return list(self.corpus.entries) == expected

    def layer_metrics(self) -> dict:
        return {"fuzz.novel_frac": len(self.corpus) / self.n_ops}


# ---------------------------------------------------------------------------
class ServeBurst(Workload):
    """A SimServe sweep client (2 thread workers, default settings).  One
    op submits a fixed burst at once and waits for every result: a
    fan-out sweep of fresh points (model-cache misses), a batch sweep of
    lanes on the hot model (cache hit), and one Q15 dev-cycle PIL job."""

    name = "serve_burst"
    single_threaded = False  # the service's two worker threads
    nominal_ops_per_s = 7.0

    def __init__(self, fixtures: dict, seed: int, n_ops: int):
        self.fx = fixtures["serve"]
        self.seed, self.n_ops = seed, n_ops
        self.svc = None
        self.phase_s = {"queue": 0.0, "run": 0.0, "store": 0.0}
        self.jobs = self.lanes = 0

    def setup(self) -> None:
        from repro.service import SimServe

        fx = self.fx
        rng = random.Random(self.seed)
        n_fan, n_lanes = fx["fanout_points"], fx["batch_lanes"]
        points = _take(fx["points"], n_fan * self.n_ops, rng, self.name,
                       start=n_fan * WARM)
        self.bursts = [
            (points[b * n_fan:(b + 1) * n_fan],
             rng.sample(range(len(fx["lanes"])), n_lanes))
            for b in range(self.n_ops)
        ]
        self.svc = SimServe(workers=2, backend="thread")
        for b in range(WARM):
            self._submit((range(b * n_fan, (b + 1) * n_fan),
                          range(b * n_lanes, (b + 1) * n_lanes)))
        self.cache_before = self.svc.cache.stats()

    def _submit(self, burst):
        from repro.service import PILRequest, SweepRequest

        fx = self.fx
        points, lanes = burst
        pil = self.svc.submit(PILRequest(make_pil=q15_pil,
                                          t_final=fx["pil_t_final"]))
        batch = self.svc.submit_sweep(SweepRequest(
            builder=servo_model, base_kwargs=HOT_MODEL, execution="batch",
            dt=DT, t_final=fx["batch_t_final"],
            scenarios=[{LANE_BLOCK: {"value": fx["lanes"][k][0]}}
                       for k in lanes],
        ))
        fan = self.svc.submit_sweep(SweepRequest(
            builder=servo_model, dt=DT, t_final=fx["fanout_t_final"],
            grid=[point_kwargs(fx["points"][k]) for k in points],
        ))
        timeout = 120.0
        out = (pil.result(timeout), batch.results(timeout), fan.results(timeout))
        return out, [pil, batch.handle, *fan.handles]

    def run_op(self, i: int):
        return self._submit(self.bursts[i])

    def check(self, i: int, out) -> tuple[bool, int]:
        (pil, lanes, fans), handles = out
        points, lane_idx = self.bursts[i]
        fx = self.fx
        ok = digest_pil(pil) == fx["pil"]
        ok &= [digest_result(r) for r in lanes] == [fx["lanes"][k][1] for k in lane_idx]
        ok &= [digest_result(r) for r in fans] == [fx["points"][k][3] for k in points]
        for handle in handles:
            phases = handle.phases
            for key in self.phase_s:
                self.phase_s[key] += phases.get(key, 0.0)
        self.jobs += len(handles)
        self.lanes += len(lanes)
        steps = (len(pil.result.t) + sum(len(r.t) for r in lanes)
                 + sum(len(r.t) for r in fans))
        return ok, steps

    def layer_metrics(self) -> dict:
        """Job waterfall phases (mean per job), model-cache hit share
        and batch lanes over the timed bursts."""
        after = self.svc.cache.stats()
        hits = after["hits"] - self.cache_before["hits"]
        misses = after["misses"] - self.cache_before["misses"]
        m = {f"service.{k}_ms": 1e3 * v / max(self.jobs, 1)
             for k, v in self.phase_s.items()}
        m["service.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
        m["service.batch_lanes"] = self.lanes
        return m

    def close(self) -> None:
        if self.svc is not None:
            self.svc.shutdown(wait=True)
            self.svc = None


WORKLOADS = {w.name: w for w in (MilSweep, PilFuzz, ServeBurst)}
