"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mil_sweep|pil_fuzz|serve_burst \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every measurement runs in a fresh child
process (``child.py``) with a fresh, empty native artifact directory
under ``.perfbench_tmp/`` that is removed afterwards.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median
of several fresh-process set-ups (the measuring process's own plus
``SETUP_SAMPLES - 1`` set-up-only processes, half before it and half
after), the rest come from one untraced process.  ``--trace 1`` runs
one process that traces every second op and prints the per-layer
metrics, including the tracing overhead (traced against untraced ops of
that process); the spans go to ``.perfbench_out/``.  Metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
#: every run must end within 180 s; children share what is left of this
DEADLINE_S = 170.0

#: environment that would change what the program does under test
_PROGRAM_ENV_PREFIXES = ("REPRO_", "SIMSERVE_")


class BenchError(Exception):
    """A child process failed or the checkout cannot run the benchmark."""


def percentile(sorted_values: list, q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_child(args, mode: str, deadline: float, spans: str = "") -> dict:
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        native_dir = os.path.join(tmp, "native")
        os.mkdir(native_dir)
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(_PROGRAM_ENV_PREFIXES)}
        env.update({
            "PYTHONPATH": os.path.join(ROOT, "src"),
            "PYTHONHASHSEED": "0",
            "REPRO_NATIVE_CACHE": native_dir,
            "TMPDIR": tmp,
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a child")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the run deadline") from exc
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def end_to_end(run: dict, setup_samples: list) -> dict:
    lat = sorted(run["latencies_s"])
    n, wall = run["attempted"], run["wall_s"]
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": run["peak_rss_mb"],
        "op_p50_ms": 1e3 * percentile(lat, 50),
        "op_p90_ms": 1e3 * percentile(lat, 90),
        "ops_per_s": n / wall,
        "sim_steps_per_s": run["sim_steps"] / wall,
        "ok_frac": (n - run["failed"]) / n,
    }


def measure(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not args.trace:
        # set-up samples before and after the measuring process, so their
        # median spans the whole run rather than one stretch of it
        before = SETUP_SAMPLES // 2
        setups = [run_child(args, "setup", deadline)["setup_s"]
                  for _ in range(before)]
        run = run_child(args, "run", deadline)
        setups += [run["setup_s"]] + [
            run_child(args, "setup", deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1 - before)]
        values = end_to_end(run, setups)
        wanted = spec["end_to_end"]
    else:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        run = run_child(args, "trace", deadline, spans)
        values = run["layers"]
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    return {
        "correct": run["failed"] == 0 and run["final_ok"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
            raise BenchError(f"no program sources under {ROOT}/src")
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        result = measure(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
