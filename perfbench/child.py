"""One benchmark process: set up one workload, run its timed ops, check
them against the references, print one JSON line.

    child.py --workload W --seed N --seconds S --mode setup|run|trace
             [--spans PATH]

``setup`` stops after set-up (a ``setup_s`` sample); ``run`` is the
untraced measurement; ``trace`` runs the same ops with the layer
wrappers of ``tracing.py`` installed on every second op of each op
class, adds the per-layer metrics of the traced ops, and compares the
traced with the untraced ops for the tracing overhead.  run.py starts
this with ``PYTHONPATH`` at the program's sources and
``REPRO_NATIVE_CACHE`` at a fresh, empty directory.
"""

import time

T0 = time.perf_counter()  # before anything imports repro: setup_s origin

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

#: at least this many timed ops, so >= 10 samples lie beyond p90
MIN_OPS = 100


def n_ops_for(cls, seconds: float) -> int:
    return max(MIN_OPS, round(cls.nominal_ops_per_s * seconds))


def op_cpus(wl) -> list[int]:
    """CPUs a single-threaded client takes turns on, one op each.

    Each vCPU of the host this was built on switches between a fast and
    a slow state (about 1.7x apart) every few seconds, independently of
    the other.  A lone thread stays on one vCPU, so its run median
    follows that one vCPU's share of fast time; taking turns samples
    every vCPU.  Multi-threaded workloads are left to the scheduler."""
    if not wl.single_threaded or not hasattr(os, "sched_setaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def alternate(wl, n: int) -> list[bool]:
    """Trace every second op of each op class, so the traced and the
    untraced halves hold the same mix and run side by side in time."""
    seen: dict = {}
    traced = []
    for i in range(n):
        c = wl.op_class(i)
        traced.append(seen.get(c, 0) % 2 == 1)
        seen[c] = seen.get(c, 0) + 1
    return traced


def overhead_pct(wl, lat: list, traced: list) -> float:
    """Traced over untraced mean op latency, per op class, weighted by
    the class's op count: what tracing costs, in %."""
    by_class: dict = {}
    for i, (t, tr) in enumerate(zip(lat, traced)):
        by_class.setdefault(wl.op_class(i), ([], []))[tr].append(t)
    num = den = 0.0
    for plain, trace in by_class.values():
        if plain and trace:
            w = len(plain) + len(trace)
            num += w * sum(trace) / len(trace)
            den += w * sum(plain) / len(plain)
    return 100.0 * (num / den - 1.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    n = n_ops_for(cls, args.seconds)
    wl = cls(workloads.load_fixtures(), args.seed, n)
    try:
        wl.setup()
        setup_s = time.perf_counter() - T0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        traced = [False] * n
        rec = None
        if args.mode == "trace":
            import tracing

            rec = tracing.Recorder()
            traced = alternate(wl, n)
        cpus = op_cpus(wl)
        lat = [0.0] * n
        ok = [False] * n
        steps = 0
        checking = 0.0  # reference checks run between ops, off the clock
        t_start = time.perf_counter()
        for i in range(n):
            if cpus:
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            if traced[i]:
                rec.install()
                rec.begin_op(i)
            out = None
            t = time.perf_counter()
            try:
                out = wl.run_op(i)
            except Exception:  # a failed op counts against ok_frac
                traceback.print_exc(file=sys.stderr)
            t_done = time.perf_counter()
            lat[i] = t_done - t
            if traced[i]:
                rec.end_op()
                rec.uninstall()
            if out is not None:
                ok[i], s = wl.check(i, out)
                steps += s
            checking += time.perf_counter() - t_done
        wall = time.perf_counter() - t_start - checking
        result = {
            "setup_s": setup_s,
            "latencies_s": lat,
            "wall_s": wall,
            "sim_steps": steps,
            "attempted": n,
            "failed": n - sum(ok),
            "final_ok": wl.final_ok(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if rec is not None:
            from repro.native import native_cache_stats

            layers = rec.layer_metrics(sum(traced))
            layers.update(wl.layer_metrics())
            layers["native.cache_mb"] = native_cache_stats()["bytes"] / 1e6
            layers["trace.overhead_pct"] = overhead_pct(wl, lat, traced)
            result["layers"] = layers
            if args.spans:
                rec.write_jsonl(args.spans)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
