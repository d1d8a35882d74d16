"""Steadiness report: is the benchmark steady enough to gate a change?

    python3 perfbench/steady.py [--runs 10]

Runs ``run.py`` ``--runs`` times per workload (seeds 1..runs, workloads
interleaved, ``run_seconds`` from ``BENCHMARK.json``), in two
independent sets.  For every end-to-end metric it prints each set's
median, quartiles and spread (q3 - q1) / median, with
``statistics.quantiles(values, n=4)``, and flags a spread above a tenth
(``!`` ; the bound itself is shown for reference).  It compares the
medians of the two sets against the metric's bound.  Then it runs the
traced mode twice with one seed and checks that every count-type layer
metric (unit ``count`` or ``ratio``) repeats exactly.  The whole report
is also written to ``.perfbench_out/steady.json``.  Exit status 1 when
anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPREAD_FLAG = 0.10
SETS = 2
TRACE_REPEATS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (<= 0: not worse)."""
    if not first:
        return 0.0
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    flagged = []
    report: dict = {"runs": args.runs, "sets": [], "counts": {}}

    for s in range(SETS):
        values = {w: {} for w in workloads}
        for seed in range(1, args.runs + 1):
            for w in workloads:
                res = bench(w, seed, seconds, 0)
                if not res["correct"]:
                    flagged.append(f"{w} seed {seed}: correct=false")
                for name, m in res["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                    file=sys.stderr)
        report["sets"].append(values)

    print(f"{'workload':12} {'metric':16} {'bound':>6} "
          + " ".join(f"{'set' + str(s + 1) + ' median':>14} {'q1':>10} {'q3':>10} {'spread':>7}"
                     for s in range(SETS))
          + "  set shift")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, medians = [], []
            for values in report["sets"]:
                st = summary(values[w][name])
                medians.append(st["median"])
                mark = "!" if st["spread"] > SPREAD_FLAG else " "
                if mark == "!":
                    flagged.append(f"{w}/{name}: spread {st['spread']:.3f}")
                cols.append(f"{st['median']:14.5g} {st['q1']:10.5g} {st['q3']:10.5g} "
                            f"{st['spread']:6.3f}{mark}")
            shift = worse_by(medians[0], medians[1], m["better"])
            mark = "!" if shift > bound else " "
            if mark == "!":
                flagged.append(f"{w}/{name}: set shift {shift:.3f} > {bound}")
            print(f"{w:12} {name:16} {bound:6.3f} " + " ".join(cols)
                  + f"  {shift:+.3f}{mark}")

    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")]
    for w in workloads:
        reps = [bench(w, 1, seconds, 1)["metrics"] for _ in range(TRACE_REPEATS)]
        diff = [n for n in exact if len({r[n]["value"] for r in reps}) > 1]
        report["counts"][w] = {n: reps[0][n]["value"] for n in exact}
        report["counts"][w]["trace.overhead_pct"] = [
            r["trace.overhead_pct"]["value"] for r in reps]
        status = "exact" if not diff else "DRIFT in " + ", ".join(diff)
        flagged += [f"{w}/{n}: count differs between equal-seed runs" for n in diff]
        print(f"{w}: {TRACE_REPEATS} traced runs, counts {status}; "
              f"trace overhead % = {report['counts'][w]['trace.overhead_pct']}")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    report["flagged"] = flagged
    with open(os.path.join(out_dir, "steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    for line in flagged:
        print("FLAG", line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
