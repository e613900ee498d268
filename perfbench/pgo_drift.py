"""``pgo-drift``: the closed-loop PGO controller over a seeded drifting trace.

The probe program (one reading gates an 8-iteration filter loop and a rare
report) runs segment by segment through ``PGOController.run_segment``
under a schedule of input regimes: steady, a short flip, a revert, then a
sustained shift.  The flip ends inside the loop's own detect-and-relearn
latency, so the layout it proposes is stale on arrival and the audit must
roll it back; the sustained shift must be re-placed and committed.  This
is the only workload that exercises ``repro.pgo`` and
``optimize_refined_program_layout``, and it runs the scalar interpreter
segment by segment.

Reference: the frozen static layout (fit at deploy time on one calibration
segment) replayed over identical per-segment input streams.  Branch
outcomes do not depend on the layout, so that replay also gives every
segment's true branch probabilities.

The probe's loop makes path enumeration explode: under the default
``em_max_paths=2000`` one trace costs about 30 s, nearly all of it EM.  The
controller here caps enumeration at :data:`MAX_PATHS` paths, which keeps the
rollback and commit decisions unchanged and leaves the scalar simulator
about 40% of the wall.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from harness import Checks, Workload
from common import PLATFORM, WARMUP_SEED, sub_seed

#: (segments, regime) phases: steady, short flip, revert, sustained shift.
#: A detected drift takes five segments to act on (alarm, two relearns,
#: swap, trial), and after a rollback the detector spends the cooldown and
#: its warm-up on fresh shards before it can alarm again.  The revert and
#: the shift each leave two segments to spare, so a detection that comes
#: one segment late still ends in a rollback and a commit.
PHASES = ((6, "A"), (3, "B"), (9, "A"), (8, "B"))
#: Probe input regimes, (mean, std) ADC counts; P(v > 700) is ~0.12 in A
#: and ~0.98 in B, so B inverts the hot branch.
REGIMES = {"A": (520.0, 150.0), "B": (1000.0, 150.0)}
ACTIVATIONS = 200
MAX_PATHS = 400
#: Mean per-segment |theta_hat - theta| of the controller's live estimate.
MAE_BOUND = 0.25


def _schedule() -> list[str]:
    return [regime for count, regime in PHASES for _ in range(count)]


def _config():
    from repro.core.online import OnlineOptions
    from repro.pgo import PGOConfig

    return PGOConfig(online=OnlineOptions(epsilon=None, em_max_paths=MAX_PATHS))


def _sensors(seed: int, regime: str, segment: int):
    from repro.mote.sensors import IIDSensor, SensorSuite

    return SensorSuite(
        {"ch": IIDSensor(*REGIMES[regime])},
        rng=sub_seed(seed, "pgo-drift", "sensors", segment),
    )


def _segment_truth(program, after: Counter, before: Counter) -> dict[str, np.ndarray]:
    from repro.markov.builders import BranchParameterization

    thetas = {}
    for proc in program:
        par = BranchParameterization(proc.cfg)
        theta = np.empty(par.n_parameters)
        for k, label in enumerate(par.branch_labels):
            then = after[(proc.name, label, "then")] - before[(proc.name, label, "then")]
            other = after[(proc.name, label, "else")] - before[(proc.name, label, "else")]
            theta[k] = then / (then + other) if then + other else 0.5
        thetas[proc.name] = theta
    return thetas


def _replay(program, layout, seed: int, schedule: list[str]):
    """Run the schedule on one interpreter with a fixed layout."""
    from repro.sim.interpreter import Interpreter

    interp = None
    segments = []
    for i, regime in enumerate(schedule):
        sensors = _sensors(seed, regime, i)
        if interp is None:
            interp = Interpreter(program, PLATFORM, sensors, layout=layout)
        else:
            interp.set_sensors(sensors)
        c = interp.counters
        edges = Counter(c.edge_counts)
        before = (c.branches_executed, c.mispredict_total, interp.cycle, c.sense_reads,
                  interp.radio.transmissions)
        for _ in range(ACTIVATIONS):
            interp.run_activation()
        interp.records.clear()
        cycles = interp.cycle - before[2]
        segments.append(
            {
                "truth": _segment_truth(program, c.edge_counts, edges),
                "branches": c.branches_executed - before[0],
                "mispredicts": c.mispredict_total - before[1],
                "energy_mj": PLATFORM.energy.total_mj(
                    cycles=cycles,
                    conversions=c.sense_reads - before[3],
                    packets=interp.radio.transmissions - before[4],
                ),
            }
        )
    return segments


def setup(seed: int) -> dict:
    from repro.experiments.fig_f10_closed_loop import PROBE_SOURCE
    from repro.lang import compile_source
    from repro.pgo import PGOController
    from repro.placement.layout import ProgramLayout
    from repro.placement.refine import optimize_refined_program_layout

    program = compile_source(PROBE_SOURCE, name="probe", entry="main")
    # Deploy-time calibration: one regime-A segment in source order.
    calibration = _replay(program, ProgramLayout.source_order(program), seed, ["A"])
    static = optimize_refined_program_layout(program, calibration[0]["truth"], PLATFORM)
    # Warm-up: one controller segment.
    PGOController(program, PLATFORM, config=_config(), initial_layout=static).run_segment(
        _sensors(WARMUP_SEED, "A", 0),
        ACTIVATIONS,
        profiler_rng=sub_seed(WARMUP_SEED, "pgo-drift", "warm"),
    )
    return {"seed": seed, "program": program, "static": static}


def run_pass(state: dict, measure, detail: bool) -> dict:
    from repro.pgo import PGOController

    seed = state["seed"]
    estimates = []
    with measure() as stage:
        controller = PGOController(
            state["program"], PLATFORM, config=_config(), initial_layout=state["static"]
        )
        for i, regime in enumerate(_schedule()):
            with stage(f"segment {i}"):
                controller.run_segment(
                    _sensors(seed, regime, i),
                    ACTIVATIONS,
                    profiler_rng=sub_seed(seed, "pgo-drift", "profiler", i),
                )
            estimates.append(controller.estimator.thetas)
    return {
        "estimates": estimates,
        "reports": [(r.segment, r.action, r.metrics) for r in controller.reports],
        "swaps": controller.swaps,
        "rollbacks": controller.rollbacks,
        "commits": controller.commits,
        "drift_alarms": controller.drift_alarm_count,
    }


def finish(state: dict, outputs: list[dict], checks: Checks) -> dict[str, float]:
    from repro.analysis.metrics import program_estimation_error

    schedule = _schedule()
    first = outputs[0]
    for later in outputs[1:]:
        checks.check(
            [(s, a) for s, a, _ in later["reports"]] == [(s, a) for s, a, _ in first["reports"]],
            "repeated passes take identical controller actions",
        )
    checks.ops(len(outputs) * len(schedule))  # one run_segment per segment per pass
    static = _replay(state["program"], state["static"], state["seed"], schedule)
    flip = PHASES[0][0]
    shift = sum(count for count, _ in PHASES[:-1])
    actions = [(segment, action) for segment, action, _ in first["reports"]]
    checks.check(
        any(action == "rollback" and flip <= s < shift for s, action in actions),
        f"the short flip's stale layout was not rolled back: {actions}",
    )
    checks.check(
        any(action == "commit" and s >= shift for s, action in actions),
        f"the sustained shift was not committed: {actions}",
    )
    for (segment, _, metrics), reference in zip(first["reports"], static):
        checks.check(
            metrics.branches == reference["branches"],
            f"segment {segment}: branch count differs from the static replay",
        )
    # A segment that ends in an alarm, swap or rollback resets the estimator,
    # which then holds no estimate until the next segment is absorbed.
    errors = [
        program_estimation_error(estimate, reference["truth"])
        for estimate, reference in zip(first["estimates"], static)
        if estimate
    ]
    theta_mae = float(np.mean(errors))
    checks.check(theta_mae <= MAE_BOUND, f"tracking theta MAE {theta_mae:.4f} > {MAE_BOUND}")
    closed_mp = sum(m.mispredicts for _, _, m in first["reports"])
    closed_mj = sum(m.energy_mj for _, _, m in first["reports"])
    return {
        "quality.theta_mae": theta_mae,
        "quality.mispredict_cut": 1.0 - closed_mp / sum(s["mispredicts"] for s in static),
        "quality.energy_cut": 1.0 - closed_mj / sum(s["energy_mj"] for s in static),
    }


def gauges(state: dict, output: dict) -> dict[str, float]:
    return {
        "pgo.swaps": output["swaps"],
        "pgo.rollbacks": output["rollbacks"],
        "pgo.commits": output["commits"],
        "pgo.drift_alarms": output["drift_alarms"],
    }


WORKLOAD = Workload(setup, run_pass, finish, gauges=gauges)
