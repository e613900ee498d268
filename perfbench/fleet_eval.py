"""``fleet-eval``: cheap moments fits, then a large fresh-input fleet.

One pass profiles blink, oscilloscope and sense (``run_program``, collect,
``method="moments"``, whose fits are cheap), places each program, and then
runs a 16,384-activation fleet twice per program through
``run_program_batched`` (vectorized engine, BTFN predictor): once in
source order, once in the tomography layout.  The mispredict and energy
cuts are read off the hardware counters and the fleet's energy, radio
included.  Simulation is most of the wall, so this is the workload that
shows a simulator change and the bypass for estimator changes (except the
moments fit itself).
"""

from __future__ import annotations

from functools import partial

from harness import Checks, Workload
from common import (
    PLATFORM,
    WARMUP_SEED,
    compile_workload,
    pooled_mae,
    same_thetas,
    sub_seed,
    true_thetas,
)

PROGRAMS = ("blink", "oscilloscope", "sense")
PROFILE_ACTIVATIONS = 2000
FLEET_ACTIVATIONS = 16384
BATCH_SIZE = 8  # 2,048 motes per fleet
#: The scalar-vs-vectorized spot fleet.
SPOT_ACTIVATIONS = 96
WARMUP_ACTIVATIONS = 64
MAE_BOUND = 0.15


def _fleet(program, spec, activations: int, seed: int, layout, engine: str = "auto"):
    """Run one fleet under fresh hardware counters; returns (snapshot, result)."""
    from repro.obs import counters as hwc
    from repro.sim import run_program_batched
    from repro.workloads.inputs import build_sensors

    with hwc.counters_active(hwc.HardwareCounters()) as hw:
        result = run_program_batched(
            program,
            PLATFORM,
            partial(build_sensors, dict(spec.channels), "default"),
            activations=activations,
            batch_size=BATCH_SIZE,
            rng=sub_seed(seed, "fleet-eval", spec.name, "fleet"),
            layout=layout,
            engine=engine,
        )
    return hw.snapshot(), result


def _profile(program, spec, activations: int, seed: int):
    from repro.core import CodeTomography, EstimationOptions
    from repro.placement import optimize_program_layout
    from repro.profiling import TimingProfiler
    from repro.sim import run_program

    result = run_program(
        program,
        PLATFORM,
        spec.sensors(rng=sub_seed(seed, "fleet-eval", spec.name, "sensors")),
        activations=activations,
    )
    dataset = TimingProfiler(
        PLATFORM, rng=sub_seed(seed, "fleet-eval", spec.name, "timer")
    ).collect(result.records)
    thetas = CodeTomography(program, PLATFORM).estimate(
        dataset, EstimationOptions(method="moments", seed=seed)
    ).thetas
    return result, thetas, optimize_program_layout(program, thetas)


def setup(seed: int) -> dict:
    from repro.workloads.registry import workload_by_name

    state = {"seed": seed, "programs": {}}
    for name in PROGRAMS:
        spec = workload_by_name(name)
        program = compile_workload(spec)
        state["programs"][name] = (spec, program)
        _, _, layout = _profile(program, spec, WARMUP_ACTIVATIONS, WARMUP_SEED)
        _fleet(program, spec, WARMUP_ACTIVATIONS, WARMUP_SEED, layout)
    return state


def run_pass(state: dict, measure, detail: bool) -> list[dict]:
    out = []
    with measure() as stage:
        for name in PROGRAMS:
            spec, program = state["programs"][name]
            with stage(f"{name} profile"):
                result, thetas, layout = _profile(
                    program, spec, PROFILE_ACTIVATIONS, state["seed"]
                )
            with stage(f"{name} source fleet"):
                source_snap, source_run = _fleet(
                    program, spec, FLEET_ACTIVATIONS, state["seed"], None
                )
            with stage(f"{name} tomography fleet"):
                tomo_snap, tomo_run = _fleet(
                    program, spec, FLEET_ACTIVATIONS, state["seed"], layout
                )
            out.append(
                {
                    "name": name,
                    "counters": result.counters,
                    "thetas": thetas,
                    "layout": layout,
                    "snapshots": (source_snap, tomo_snap),
                    "energy_mj": (source_run.energy_mj, tomo_run.energy_mj),
                }
            )
    return out


def _spot_check(state: dict, name: str, layout, checks: Checks) -> None:
    """A small fleet must come out identical on the scalar oracle."""
    spec, program = state["programs"][name]
    runs = {
        engine: _fleet(program, spec, SPOT_ACTIVATIONS, state["seed"], layout, engine)
        for engine in ("scalar", "vectorized")
    }
    (snap_s, res_s), (snap_v, res_v) = runs["scalar"], runs["vectorized"]
    checks.check(
        snap_s == snap_v
        and res_s.energy_mj == res_v.energy_mj
        and res_s.total_cycles == res_v.total_cycles
        and res_s.counters.edge_counts == res_v.counters.edge_counts,
        f"{name}: vectorized spot fleet differs from engine='scalar'",
    )


def finish(state: dict, outputs: list[list[dict]], checks: Checks) -> dict[str, float]:
    from repro.obs import counters as hwc

    first = outputs[0]
    for later in outputs[1:]:
        checks.check(
            all(
                same_thetas(a["thetas"], b["thetas"]) and a["snapshots"] == b["snapshots"]
                for a, b in zip(first, later)
            ),
            "repeated passes give identical estimates and fleets",
        )
    # Per program and pass: one profile and two fleets.
    checks.ops(len(outputs) * len(PROGRAMS) * 3)
    estimates, truths = {}, {}
    mp = [0, 0]
    mj = [0.0, 0.0]
    for row in first:
        name = row["name"]
        _, program = state["programs"][name]
        truth = true_thetas(program, row["counters"])
        mae = pooled_mae({name: row["thetas"]}, {name: truth})
        checks.check(mae <= MAE_BOUND, f"{name}: theta MAE {mae:.4f} > {MAE_BOUND}")
        estimates[name], truths[name] = row["thetas"], truth
        source_mp, tomo_mp = (hwc.mispredict_total(s) for s in row["snapshots"])
        checks.check(
            tomo_mp <= source_mp,
            f"{name}: tomography layout mispredicts more than source order "
            f"({tomo_mp} > {source_mp})",
        )
        mp[0] += source_mp
        mp[1] += tomo_mp
        mj[0] += row["energy_mj"][0]
        mj[1] += row["energy_mj"][1]
        _spot_check(state, name, row["layout"], checks)
    return {
        "quality.theta_mae": pooled_mae(estimates, truths),
        "quality.mispredict_cut": 1.0 - mp[1] / mp[0],
        "quality.energy_cut": 1.0 - mj[1] / mj[0],
    }


WORKLOAD = Workload(setup, run_pass, finish)
