"""``profile-em``: offline tomography with the hybrid (moments + EM) estimator.

One pass runs the whole offline pipeline on surge, tinydb-agg and
event-detect: simulate a mote (``run_program``), collect its timestamps
(``TimingProfiler.collect``), estimate branch probabilities
(``CodeTomography.estimate``, ``method="hybrid"``), place the code
(``optimize_program_layout``) and score the placement
(``evaluate_program_layout``).  EM, path enumeration, timing-chain builds
and the moments fit do most of the work, so estimator changes show here.

References: the simulator's ground-truth branch counters.  The layouts are
scored under the true probabilities, so the mispredict and energy cuts are
what the estimate actually buys, not what it believes it buys.
"""

from __future__ import annotations

import numpy as np

from harness import Checks, Workload
from common import (
    PLATFORM,
    WARMUP_SEED,
    compile_workload,
    layout_payoff,
    pooled_mae,
    same_thetas,
    sub_seed,
    true_thetas,
    untimed,
)

PROGRAMS = ("surge", "tinydb-agg", "event-detect")
ACTIVATIONS = 4000
WARMUP_ACTIVATIONS = 100
#: Per-program pooled |theta_hat - theta| a hybrid fit must stay within.
MAE_BOUND = 0.25


def _pipeline(program, spec, activations: int, seed: int, method: str, stage=untimed):
    from repro.core import CodeTomography, EstimationOptions
    from repro.placement import optimize_program_layout
    from repro.placement.mispredict import evaluate_program_layout
    from repro.profiling import TimingProfiler
    from repro.sim import run_program

    with stage(f"{spec.name} simulate"):
        result = run_program(
            program,
            PLATFORM,
            spec.sensors(rng=sub_seed(seed, "profile-em", spec.name, "sensors")),
            activations=activations,
        )
    with stage(f"{spec.name} profile"):
        dataset = TimingProfiler(
            PLATFORM, rng=sub_seed(seed, "profile-em", spec.name, "timer")
        ).collect(result.records)
    with stage(f"{spec.name} estimate"):
        thetas = CodeTomography(program, PLATFORM).estimate(
            dataset, EstimationOptions(method=method, seed=seed)
        ).thetas
    with stage(f"{spec.name} place"):
        layout = optimize_program_layout(program, thetas)
        predicted = evaluate_program_layout(program, layout, thetas, PLATFORM)
    return result, thetas, layout, predicted


def setup(seed: int) -> dict:
    from repro.workloads.registry import workload_by_name

    state = {"seed": seed, "programs": {}}
    for name in PROGRAMS:
        spec = workload_by_name(name)
        state["programs"][name] = (spec, compile_workload(spec))
    # Warm-up: one small moments-only pipeline.
    spec, program = state["programs"][PROGRAMS[-1]]
    _pipeline(program, spec, WARMUP_ACTIVATIONS, WARMUP_SEED, "moments")
    return state


def run_pass(state: dict, measure, detail: bool) -> list[dict]:
    out = []
    with measure() as stage:
        for name in PROGRAMS:
            spec, program = state["programs"][name]
            result, thetas, layout, predicted = _pipeline(
                program, spec, ACTIVATIONS, state["seed"], "hybrid", stage
            )
            out.append(
                {
                    "name": name,
                    "program": program,
                    "counters": result.counters,
                    "activations": result.activations,
                    "thetas": thetas,
                    "layout": layout,
                    "predicted_mispredicts": predicted.mispredicts,
                }
            )
    return out


def finish(state: dict, outputs: list[list[dict]], checks: Checks) -> dict[str, float]:
    first = outputs[0]
    for later in outputs[1:]:
        checks.check(
            all(same_thetas(a["thetas"], b["thetas"]) for a, b in zip(first, later)),
            "repeated passes give identical estimates",
        )
    checks.ops(len(outputs) * len(PROGRAMS))  # one pipeline run per program per pass
    estimates, truths = {}, {}
    source_mp = tomo_mp = source_mj = tomo_mj = 0.0
    for row in first:
        truth = true_thetas(row["program"], row["counters"])
        mae = pooled_mae({row["name"]: row["thetas"]}, {row["name"]: truth})
        checks.check(mae <= MAE_BOUND, f"{row['name']}: theta MAE {mae:.4f} > {MAE_BOUND}")
        estimates[row["name"]] = row["thetas"]
        truths[row["name"]] = truth
        payoff = layout_payoff(
            row["program"], row["layout"], truth, row["counters"], row["activations"]
        )
        checks.check(
            payoff["mispredicts"] <= payoff["source_mispredicts"],
            f"{row['name']}: tomography layout mispredicts more than source order",
        )
        checks.check(
            bool(np.isfinite(row["predicted_mispredicts"])),
            f"{row['name']}: layout evaluation is not finite",
        )
        source_mp += payoff["source_mispredicts"]
        tomo_mp += payoff["mispredicts"]
        source_mj += payoff["source_energy_mj"]
        tomo_mj += payoff["energy_mj"]
    return {
        "quality.theta_mae": pooled_mae(estimates, truths),
        "quality.mispredict_cut": 1.0 - tomo_mp / source_mp,
        "quality.energy_cut": 1.0 - tomo_mj / source_mj,
    }


WORKLOAD = Workload(setup, run_pass, finish)
