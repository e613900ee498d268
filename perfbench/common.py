"""Helpers shared by the workloads: seeds, references, payoff scoring."""

from __future__ import annotations

import contextlib
from typing import Mapping

import numpy as np

from repro.analysis.metrics import program_estimation_error
from repro.mote.platform import MICAZ_LIKE
from repro.placement.layout import ProgramLayout
from repro.util.rng import derive_seed_sequence

#: Every workload runs on the MicaZ-like mote (BTFN static predictor).
PLATFORM = MICAZ_LIKE
#: Seed of every warm-up's inputs.  A warm-up only fills caches before
#: timing; on inputs that followed ``--seed`` its cost (a small fit's
#: iterations) would double from one seed to another and swamp ``setup_s``.
WARMUP_SEED = 0


def untimed(name: str):
    """Stand-in for the harness's ``stage`` outside a timed pass."""
    return contextlib.nullcontext()


def sub_seed(seed: int, *labels) -> int:
    """A stable integer seed for one labelled input stream of ``seed``."""
    return int(derive_seed_sequence(seed, "perfbench", *labels).generate_state(1)[0])


def compile_workload(spec):
    """Compile a registered workload afresh (the registry caches its own copy)."""
    from repro.lang import compile_source

    return compile_source(spec.source, name=spec.name, entry=spec.entry)


def true_thetas(program, counters) -> dict[str, np.ndarray]:
    """Ground truth: the simulator's empirical then-arm frequencies."""
    return {proc.name: counters.true_branch_probabilities(proc) for proc in program}


def pooled_mae(
    estimates: Mapping[str, Mapping[str, np.ndarray]],
    truths: Mapping[str, Mapping[str, np.ndarray]],
) -> float:
    """Pooled per-branch |theta_hat - theta| over several programs."""
    flat_est = {
        f"{prog}/{proc}": theta
        for prog, thetas in estimates.items()
        for proc, theta in thetas.items()
    }
    flat_truth = {
        f"{prog}/{proc}": theta
        for prog, thetas in truths.items()
        for proc, theta in thetas.items()
    }
    return program_estimation_error(flat_est, flat_truth)


def uninformed_mae(truth: Mapping[str, np.ndarray]) -> float:
    """Pooled MAE of the uninformed estimate (every theta = 0.5) against ``truth``."""
    return program_estimation_error({p: np.full(len(t), 0.5) for p, t in truth.items()}, truth)


def same_thetas(a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def layout_payoff(program, layout, truth, counters, activations: int) -> dict[str, float]:
    """Expected per-activation mispredicts and energy of ``layout`` and of
    source order, both under the true branch probabilities.

    Energy is the whole mote's: CPU cycles from the timing model, plus the
    ADC conversions and radio packets the profiling run measured per
    activation (both layout-invariant).
    """
    from repro.placement.mispredict import evaluate_program_layout

    senses = counters.sense_reads / activations
    packets = counters.sends / activations
    out = {}
    for key, candidate in (
        ("", layout),
        ("source_", ProgramLayout.source_order(program)),
    ):
        metrics = evaluate_program_layout(program, candidate, truth, PLATFORM)
        out[key + "mispredicts"] = metrics.mispredicts
        out[key + "energy_mj"] = PLATFORM.energy.total_mj(
            cycles=metrics.expected_cycles, conversions=senses, packets=packets
        )
    return out
