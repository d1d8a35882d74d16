"""Regenerate ``fixtures/reference.json``: the input pools and their
reference digests.

MIL digests come from the reference interpreter (``use_kernels=False,
native=False``) at atol=0, so every timed op checks "reference ==
FastPath == native == batch lane".  Fuzz references are the signature
hash of each candidate; the serve PIL reference is a direct,
non-service run of the same rig.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_fixtures.py

It takes a few minutes; the pools are sized for ``--seconds`` up to
about 34 (a run says so when a pool runs out).
"""

from __future__ import annotations

import json
import random
import sys

import workloads as W

N_SHORT, N_LONG = 500, 140
N_MUTATOR_SEEDS, MUTANTS_PER_SEED = 30, 10
N_POINTS, N_LANES = 900, 64


def reference_run(model, t_final: float, overrides=None):
    from repro.model.engine import SimulationOptions, Simulator

    cm = model.compile(W.DT)
    for qname, attrs in (overrides or {}).items():
        for attr, value in attrs.items():
            setattr(cm.nodes[qname], attr, value)
    opts = SimulationOptions(dt=W.DT, t_final=t_final, use_kernels=False,
                             native=False)
    return Simulator(cm, opts).run()


def design_points(rng: random.Random, n: int, t_final: float) -> list:
    out = []
    for _ in range(n):
        point = [round(rng.uniform(60.0, 140.0), 3),
                 round(rng.uniform(0.0, 0.02), 5),
                 round(rng.uniform(3.0, 9.0), 3)]
        model = W.servo_model(**W.point_kwargs(point)).model
        out.append(point + [W.digest_result(reference_run(model, t_final))])
    return out


def fuzz_pool() -> dict:
    from repro.faults import FaultPlan
    from repro.fuzz import MutationConfig, PlanMutator, SignatureConfig
    from repro.fuzz import evaluate_plan, get_target

    target = get_target("servo")
    seeds = target.seed_grid()
    grid = [FaultPlan([], seed=0)] + seeds
    cfg = MutationConfig(t_final=target.t_final,
                         sensor_blocks=tuple(target.sensor_blocks))
    plans = list(grid)
    for m in range(N_MUTATOR_SEEDS):
        mutator = PlanMutator(m, cfg)
        prev = None
        for j in range(MUTANTS_PER_SEED):
            # alternate first-order mutants of a seed plan with chains
            base = prev if j % 2 else seeds[(m + j) % len(seeds)]
            mate = seeds[(m + j + 1) % len(seeds)]
            prev, _op = mutator.mutate(base, mate)
            plans.append(prev)
    rows = []
    for plan in plans:
        doc = plan.to_dict()
        outcome = evaluate_plan(target, doc, target.t_final, SignatureConfig())
        rows.append([doc, outcome["hash"]])
    return {"target": target.name, "t_final": target.t_final,
            "n_grid": len(grid), "plans": rows}


def main() -> int:
    rng = random.Random(20070326)
    fx: dict = {"schema": 1}
    mil = {"short_t_final": 0.05, "long_t_final": 1.0}
    mil["short"] = design_points(rng, N_SHORT, mil["short_t_final"])
    mil["long"] = design_points(rng, N_LONG, mil["long_t_final"])
    fx["mil"] = mil
    print("mil pools done", file=sys.stderr)
    fx["fuzz"] = fuzz_pool()
    print("fuzz pool done", file=sys.stderr)
    serve = {"fanout_t_final": 0.02, "batch_t_final": 0.01,
             "pil_t_final": 0.03, "fanout_points": 3, "batch_lanes": 4}
    serve["points"] = design_points(rng, N_POINTS, serve["fanout_t_final"])
    hot = W.servo_model(**W.HOT_MODEL).model
    serve["lanes"] = []
    for _ in range(N_LANES):
        value = round(rng.uniform(60.0, 140.0), 3)
        res = reference_run(hot, serve["batch_t_final"],
                            {W.LANE_BLOCK: {"value": value}})
        serve["lanes"].append([value, W.digest_result(res)])
    serve["pil"] = W.digest_pil(W.q15_pil().run(serve["pil_t_final"]))
    fx["serve"] = serve
    with open(W.FIXTURES, "w") as f:
        json.dump(fx, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {W.FIXTURES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
