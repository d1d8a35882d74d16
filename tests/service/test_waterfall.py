"""Per-job latency waterfalls + flight-recorder integration.

The acceptance path for the ops plane: every executed job carries phase
marks (queue → coalesce → cache → run → demux → store), the metrics
snapshot aggregates them into per-phase percentiles, and a forced
deadline shed or worker crash leaves a flight dump from which the
failing job's waterfall is reconstructed offline.
"""

from __future__ import annotations

import os
import tempfile
import unittest

from repro.obs import FlightRecorder, load_trace, validate
from repro.obs.report import build_report, load_ops_input, render_html
from repro.service import (
    CoalesceConfig,
    JobPriority,
    JobState,
    MILRequest,
    SimServe,
    SweepRequest,
)

from .helpers import build_loop_model, crashing_builder, hard_crash_builder

DT = 1e-3
T_FINAL = 0.05


class TestPhaseMarks(unittest.TestCase):
    def test_serial_mil_job_carries_worker_phases(self):
        with SimServe(workers=1, flight=False) as svc:
            h = svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                      t_final=T_FINAL))
            h.wait(30.0)
            phases = h.phases
        for key in ("queue", "cache", "run", "store"):
            self.assertIn(key, phases)
            self.assertGreaterEqual(phases[key], 0.0)
        # phases also land on the archived record
        rec = h.record()
        self.assertEqual(set(rec.phase_s), set(phases))

    def test_process_backend_phases_cross_the_pickle_boundary(self):
        with SimServe(workers=1, backend="process", flight=False) as svc:
            h = svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                      t_final=T_FINAL))
            h.wait(60.0)
            phases = h.phases
        self.assertEqual(h.state, JobState.DONE)
        for key in ("queue", "cache", "run", "store"):
            self.assertIn(key, phases)

    def test_coalesced_jobs_carry_coalesce_and_demux(self):
        cfg = CoalesceConfig(window_s=0.05, max_batch=4)
        with SimServe(workers=1, coalesce=cfg, flight=False) as svc:
            req = lambda: MILRequest(builder=build_loop_model, dt=DT,
                                     t_final=T_FINAL)
            handles = [svc.submit(req()) for _ in range(3)]
            for h in handles:
                h.wait(30.0)
            coalesced = [h for h in handles
                         if "coalesce" in h.phases and "demux" in h.phases]
        # at least the members of a formed batch carry the batch phases
        self.assertGreater(len(coalesced), 0)
        for h in coalesced:
            for key in ("queue", "coalesce", "cache", "run", "demux", "store"):
                self.assertIn(key, h.phases)

    def test_batch_sweep_carries_phases(self):
        req = SweepRequest(
            builder=build_loop_model,
            execution="batch",
            scenarios=[{"ctrl": {"gain": g}} for g in (1.0, 2.0)],
            dt=DT, t_final=T_FINAL,
        )
        with SimServe(workers=1, flight=False) as svc:
            sh = svc.submit_sweep(req)
            sh.wait(30.0)
            phases = sh.handle.phases
        for key in ("queue", "cache", "run", "store"):
            self.assertIn(key, phases)

    def test_waterfall_disabled_leaves_no_marks(self):
        with SimServe(workers=1, flight=False, waterfall=False) as svc:
            h = svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                      t_final=T_FINAL))
            h.wait(30.0)
            self.assertEqual(h.phases, {})
            snap = svc.metrics_snapshot()
        self.assertEqual(snap["waterfall"], {})

    def test_snapshot_waterfall_percentiles(self):
        with SimServe(workers=2, flight=False) as svc:
            handles = [svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                             t_final=T_FINAL))
                       for _ in range(4)]
            self.assertTrue(svc.wait_all(handles, timeout=60.0))
            snap = svc.metrics_snapshot()
        wf = snap["waterfall"]
        for key in ("queue", "cache", "run", "store"):
            self.assertIn(key, wf)
            row = wf[key]
            self.assertEqual(row["count"], 4)
            for stat in ("mean", "p50", "p95", "p99", "max"):
                self.assertIn(stat, row)
            self.assertLessEqual(row["p50"], row["max"] + 1e-12)


class TestFlightIntegration(unittest.TestCase):
    def test_forced_shed_dumps_waterfall(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp)
            with SimServe(workers=1, flight=fr) as svc:
                ok = svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                           t_final=T_FINAL))
                shed = svc.submit(
                    MILRequest(builder=build_loop_model, dt=DT, t_final=T_FINAL),
                    priority=JobPriority.LOW, deadline_s=1e-6,
                )
                ok.wait(30.0)
                shed.wait(30.0)
                self.assertEqual(shed.state, JobState.EXPIRED)
            self.assertEqual(fr.trigger_counts.get("deadline_shed"), 1)
            self.assertEqual(len(fr.dumps), 1)
            events = load_trace(fr.dumps[0])
            self.assertEqual(validate(events), [])
            finishes = {e["args"]["job"]: e for e in events
                        if e["name"] == "job.finish"}
            shed_ev = finishes[shed.job_id]
            self.assertEqual(shed_ev["args"]["state"], "expired")
            # a shed job's whole life was queue time — reconstructable
            self.assertIn("queue", shed_ev["args"]["phases"])
            ok_ev = finishes[ok.job_id]
            for key in ("queue", "cache", "run", "store"):
                self.assertIn(key, ok_ev["args"]["phases"])
            # the dump alone drives the ops report
            report = build_report(load_ops_input(fr.dumps[0]))
            self.assertEqual(report["jobs"]["shed"], 1)
            self.assertEqual(report["triggers"], {"deadline_shed": 1})
            phases = {row["phase"] for row in report["phases"]}
            self.assertIn("run", phases)
            html = render_html(report)
            self.assertIn("waterfall", html)

    def test_job_exception_triggers_dump(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp)
            with SimServe(workers=1, flight=fr) as svc:
                bad = svc.submit(MILRequest(builder=crashing_builder, dt=DT,
                                            t_final=T_FINAL))
                bad.wait(30.0)
                self.assertEqual(bad.state, JobState.FAILED)
            self.assertEqual(fr.trigger_counts.get("job_exception"), 1)
            events = load_trace(fr.dumps[0])
            finish = [e for e in events if e["name"] == "job.finish"][0]
            self.assertIn("builder exploded", finish["args"]["error"])

    def test_worker_crash_triggers_dump(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp)
            with SimServe(workers=1, backend="process", flight=fr) as svc:
                doomed = svc.submit(MILRequest(builder=hard_crash_builder,
                                               dt=DT, t_final=T_FINAL))
                doomed.wait(120.0)
                self.assertEqual(doomed.state, JobState.FAILED)
                self.assertEqual(svc.pool.crash_count, 1)
                # pool was rebuilt: the service still serves
                again = svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                              t_final=T_FINAL))
                again.wait(120.0)
                self.assertEqual(again.state, JobState.DONE)
            self.assertEqual(fr.trigger_counts.get("worker_crash"), 1)
            names = [os.path.basename(p) for p in fr.dumps]
            self.assertTrue(any("worker_crash" in n for n in names))
            crash_dump = [p for p in fr.dumps if "worker_crash" in p][0]
            events = load_trace(crash_dump)
            self.assertEqual(validate(events), [])
            self.assertIn("worker.crash", [e["name"] for e in events])
            report = build_report(load_ops_input(crash_dump))
            self.assertEqual(report["triggers"].get("worker_crash"), 1)
            self.assertEqual(report["jobs"]["failed"], 1)

    def test_flight_disabled_records_nothing(self):
        with SimServe(workers=1, flight=False) as svc:
            h = svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                      t_final=T_FINAL))
            h.wait(30.0)
            self.assertEqual(len(svc.flight), 0)
            self.assertFalse(svc.metrics_snapshot()["flight"]["enabled"])

    def test_statusz_payload_carries_phases(self):
        with SimServe(workers=1, flight=False) as svc:
            h = svc.submit(MILRequest(builder=build_loop_model, dt=DT,
                                      t_final=T_FINAL))
            h.wait(30.0)
            status = svc.status()
        entry = [j for j in status["jobs"] if j["job"] == h.job_id][0]
        self.assertEqual(entry["state"], "done")
        self.assertIn("run", entry["phases"])
        self.assertIn("waterfall", status["metrics"])

    def test_health_payload(self):
        svc = SimServe(workers=2, flight=False)
        try:
            health = svc.health()
            self.assertTrue(health["ok"])
            self.assertEqual(health["pool"]["workers"], 2)
        finally:
            svc.shutdown()
        self.assertFalse(svc.health()["ok"])


if __name__ == "__main__":
    unittest.main()
