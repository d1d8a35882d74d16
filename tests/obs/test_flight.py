"""Black-box flight recorder: ring semantics, triggers, dumps, wiring."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import threading
import unittest

from repro.obs import Tracer, build_report, load_ops_input, load_trace, validate
from repro.obs.__main__ import main
from repro.obs.flight import (
    NULL_RECORDER,
    TRIGGER_REASONS,
    FlightRecorder,
    configure_flight,
    get_flight_recorder,
)

#: the tracer event schema every flight event carries
SCHEMA = {"ph", "name", "cat", "ts", "dur", "sim_t", "id", "parent",
          "pid", "tid", "args"}


class TestFlightRing(unittest.TestCase):
    def test_record_and_snapshot(self):
        fr = FlightRecorder(capacity=8)
        self.assertIsInstance(fr, Tracer)
        fr.instant("a", args={"k": 1})
        fr.instant("b", cat="test", sim_t=0.5)
        events = fr.events()
        self.assertEqual([e["name"] for e in events], ["a", "b"])
        self.assertEqual(events[0]["args"], {"k": 1})
        self.assertEqual(events[1]["sim_t"], 0.5)
        self.assertEqual(len(fr), 2)
        # tracer-schema instants, no per-event wall stamp
        for ev in events:
            self.assertEqual(set(ev), SCHEMA)
            self.assertEqual(ev["ph"], "i")
        # timestamps are monotone within the ring
        self.assertLessEqual(events[0]["ts"], events[1]["ts"])

    def test_bounded_overflow_counts_drops(self):
        fr = FlightRecorder(capacity=4)
        for k in range(10):
            fr.instant(f"e{k}")
        self.assertEqual(len(fr), 4)
        self.assertEqual(fr.dropped_events, 6)
        self.assertEqual([e["name"] for e in fr.events()],
                         ["e6", "e7", "e8", "e9"])

    def test_disabled_recorder_is_inert(self):
        fr = FlightRecorder(enabled=False)
        fr.instant("x")
        self.assertEqual(len(fr), 0)
        self.assertIsNone(fr.trigger("manual"))
        self.assertEqual(fr.trigger_counts, {})
        self.assertFalse(NULL_RECORDER.enabled)
        NULL_RECORDER.instant("x")
        self.assertEqual(len(NULL_RECORDER), 0)

    def test_clear_resets(self):
        fr = FlightRecorder(capacity=2)
        for k in range(5):
            fr.instant(f"e{k}")
        fr.clear()
        self.assertEqual(len(fr), 0)
        self.assertEqual(fr.dropped_events, 0)


class TestTriggers(unittest.TestCase):
    def test_trigger_records_event_and_counts(self):
        fr = FlightRecorder()  # no dump_dir: record-only
        self.assertIsNone(fr.trigger("deadline_shed", args={"job": "j1"}))
        self.assertEqual(fr.trigger_counts, {"deadline_shed": 1})
        names = [e["name"] for e in fr.events()]
        self.assertIn("flight.trigger.deadline_shed", names)

    def test_trigger_taxonomy_is_complete(self):
        for reason in ("worker_crash", "deadline_shed", "job_exception",
                       "watchdog_reset", "campaign_interrupt", "manual"):
            self.assertIn(reason, TRIGGER_REASONS)

    def test_trigger_auto_dumps_with_manifest(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp)
            fr.instant("job.finish", cat="service",
                       args={"job": "j1", "phases": {"run": 0.01}})
            path = fr.trigger("worker_crash", args={"job": "j1"})
            self.assertIsNotNone(path)
            self.assertTrue(os.path.exists(path))
            self.assertIn("worker_crash", os.path.basename(path))
            events = load_trace(path)
            self.assertEqual(events, fr.events())
            self.assertEqual(events[0]["name"], "job.finish")
            self.assertEqual(events[-1]["name"], "flight.trigger.worker_crash")
            self.assertEqual(events[-1]["args"], {"job": "j1"})
            with open(path + ".manifest.json") as fh:
                manifest = json.load(fh)
            config, stats = manifest["config"], manifest["tracer_stats"]
            self.assertEqual(config["kind"], "flight-dump")
            self.assertEqual(config["reason"], "worker_crash")
            self.assertEqual(config["trigger_args"], {"job": "j1"})
            self.assertEqual(config["trigger_counts"], {"worker_crash": 1})
            self.assertEqual(stats["events"], len(events))
            self.assertEqual(stats["capacity"], fr.capacity)
            # the ring's wall-clock epoch maps ts back to Unix time
            self.assertEqual(stats["epoch_wall"], fr.epoch_wall)
            self.assertIn("sha", manifest["git"])

    def test_dump_rate_limit_and_cap(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp, min_dump_interval_s=3600.0)
            first = fr.trigger("job_exception")
            second = fr.trigger("job_exception")
            self.assertIsNotNone(first)
            self.assertIsNone(second)  # rate-limited
            self.assertEqual(fr.trigger_counts["job_exception"], 2)  # still counted
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp, max_dumps=1,
                                min_dump_interval_s=0.0)
            self.assertIsNotNone(fr.trigger("manual"))
            self.assertIsNone(fr.trigger("manual"))  # capped
            self.assertEqual(len(fr.dumps), 1)

    def test_explicit_dump(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder()
            fr.instant("x")
            path = fr.dump(os.path.join(tmp, "box.jsonl"))
            self.assertEqual(load_trace(path)[0]["name"], "x")
            self.assertEqual(fr.dumps, [path])
            with open(path + ".manifest.json") as fh:
                self.assertEqual(json.load(fh)["config"]["reason"], "manual")

    def test_to_jsonl_roundtrip(self):
        fr = FlightRecorder()
        fr.instant("a", args={"n": 1})
        fr.instant("b")
        lines = fr.to_jsonl().strip().splitlines()
        self.assertEqual(len(lines), 2)
        self.assertEqual(json.loads(lines[0])["name"], "a")

    def test_stats_shape(self):
        fr = FlightRecorder(capacity=16)
        fr.instant("a")
        fr.trigger("manual")
        stats = fr.stats()
        self.assertEqual(stats["capacity"], 16)
        self.assertEqual(stats["events"], 2)
        self.assertEqual(stats["trigger_counts"], {"manual": 1})
        self.assertTrue(stats["enabled"])


class TestConcurrentTriggers(unittest.TestCase):
    def test_threads_share_one_ring_and_one_dump_cap(self):
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                fr = FlightRecorder(capacity=64, dump_dir=tmp, max_dumps=3,
                                    min_dump_interval_s=0.0)

                def work(k):
                    for i in range(50):
                        fr.instant("job.finish", cat="service",
                                   args={"job": f"{k}-{i}"})
                        fr.trigger("job_exception")

                threads = [threading.Thread(target=work, args=(k,))
                           for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                self.assertFalse(any(t.is_alive() for t in threads))
                self.assertEqual(fr.trigger_counts, {"job_exception": 400})
                # every caller event is in the ring or counted as dropped
                self.assertEqual(len(fr) + fr.dropped_events, 800)
                self.assertEqual(len(fr.dumps), 3)
                for path in fr.dumps:
                    self.assertEqual(validate(load_trace(path)), [])
        finally:
            sys.setswitchinterval(prev)


class TestGlobalRecorder(unittest.TestCase):
    def test_configure_flight_in_place(self):
        fr = get_flight_recorder()
        old = (fr.capacity, fr.dump_dir, fr.enabled)
        try:
            got = configure_flight(capacity=64)
            self.assertIs(got, fr)
            self.assertEqual(fr.capacity, 64)
            fr.clear()
            for k in range(60):
                fr.instant(f"e{k}")
            configure_flight(capacity=8)  # shrink keeps the newest events
            self.assertEqual([e["name"] for e in fr.events()],
                             [f"e{k}" for k in range(52, 60)])
            with self.assertRaises(ValueError):
                configure_flight(capacity=0)
        finally:
            fr.clear()
            configure_flight(capacity=old[0], enabled=old[2])
            fr.dump_dir = old[1]

    def test_global_is_shared(self):
        self.assertIs(get_flight_recorder(), get_flight_recorder())


def _recorded_jobs(fr: FlightRecorder) -> None:
    """A shed, a failure and a clean job as the service records them."""
    fr.instant("job.finish", cat="service", args={
        "job": "j1", "state": "done", "phases": {"queue": 0.001, "run": 0.02},
    })
    fr.instant("job.finish", cat="service", args={
        "job": "j2", "state": "failed", "error": "boom",
        "phases": {"queue": 0.002, "run": 0.001},
    })
    fr.instant("job.finish", cat="service", args={
        "job": "j3", "state": "expired", "phases": {"queue": 0.5},
    })


class TestDumpIsATrace(unittest.TestCase):
    def test_auto_dump_loads_validates_and_reports_like_the_ring(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp)
            _recorded_jobs(fr)
            path = fr.trigger("deadline_shed", args={"job": "j3"})
            events = load_trace(path)
            self.assertEqual(len(events), 4)
            for ev in events:
                self.assertEqual(set(ev), SCHEMA)
            self.assertEqual(validate(events), [])
            live = build_report({"kind": "flight", "events": fr.events()})
            dumped = build_report(load_ops_input(path))
            for key in ("jobs", "phases", "triggers"):
                self.assertEqual(dumped[key], live[key])
            self.assertEqual(dumped["triggers"], {"deadline_shed": 1})
            self.assertEqual(dumped["jobs"]["shed"], 1)
            self.assertEqual(dumped["jobs"]["failed"], 1)

    def test_dump_passes_strict_summary_and_converts(self):
        with tempfile.TemporaryDirectory() as tmp:
            fr = FlightRecorder(dump_dir=tmp)
            _recorded_jobs(fr)
            path = fr.trigger("job_exception", args={"job": "j2"})
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.assertEqual(main(["summary", path, "--strict"]), 0)
            self.assertIn("validation: ok", out.getvalue())
            self.assertIn("flight.trigger.job_exception", out.getvalue())
            chrome = os.path.join(tmp, "box.trace.json")
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(main(["convert", path, chrome]), 0)
            self.assertEqual(
                build_report(load_ops_input(chrome))["jobs"],
                build_report(load_ops_input(path))["jobs"],
            )


if __name__ == "__main__":
    unittest.main()
