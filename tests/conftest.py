"""Shared fixtures: platforms, small programs, and compiled workloads."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

# CI runs the property tests derandomized (fixed example sequence, no
# wall-clock deadline flakes); select with HYPOTHESIS_PROFILE=ci.  The
# default profile keeps local runs exploratory.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from repro.core import EMEstimator
from repro.ir import BinaryOp, CFGBuilder, binop, const, sense, validate_cfg
from repro.lang import compile_source
from repro.markov.sampling import sample_rewards
from repro.mote import MICAZ_LIKE, TELOSB_LIKE, IIDSensor, SensorSuite, TimestampTimer, UniformSensor
from repro.placement.layout import Layout
from repro.sim import ProcedureTimingModel
from repro.workloads.synthetic import random_estimation_problem


@pytest.fixture
def platform():
    """The default (micaz-like) platform."""
    return MICAZ_LIKE


@pytest.fixture
def fine_platform():
    """Micaz-like platform with an exact cycle-counter timer."""
    return MICAZ_LIKE.with_timer(TimestampTimer(cycles_per_tick=1))


@pytest.fixture
def telosb():
    """The alternative platform preset."""
    return TELOSB_LIKE


def build_diamond_procedure(then_cost_pad: int = 5, else_cost_pad: int = 20):
    """One if/else diamond with differently priced arms.

    Returns ``(procedure, labels)`` where labels is (then, else) block names.
    """
    from repro.ir import nop

    b = CFGBuilder("diamond")
    b.emit(sense("v", "adc0"), const("t", 100), binop(BinaryOp.GT, "hot", "v", "t"))
    then_blk, else_blk = b.branch("hot")
    b.emit(*(nop() for _ in range(then_cost_pad)))
    b.jump("join")
    b.switch_to(else_blk)
    b.emit(*(nop() for _ in range(else_cost_pad)))
    b.jump("join")
    b.block("join")
    b.ret()
    proc = b.build()
    validate_cfg(proc.cfg, "diamond")
    return proc, (then_blk.label, else_blk.label)


def timer_readings(durations, rng):
    """``durations`` as the micaz-like timer measures them, each started at a
    uniform phase within a tick (no jitter, no drift)."""
    cpt = MICAZ_LIKE.timer.cycles_per_tick
    start = rng.uniform(0.0, cpt, size=len(durations))
    return cpt * (np.floor((start + durations) / cpt) - np.floor(start / cpt))


@st.composite
def quantized_em_problems(draw):
    """``(estimator, durations, truth)``: EM on a random synthetic CFG, fed
    timer readings of up to 400 activations drawn at the true theta."""
    seed = draw(st.integers(0, 10_000))
    proc, truth = random_estimation_problem(
        rng=seed,
        n_branches=draw(st.integers(1, 4)),
        loop_fraction=draw(st.floats(0.0, 1.0)),
    )
    model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
    rng = np.random.default_rng(seed)
    exact = sample_rewards(model.chain(truth), draw(st.integers(1, 400)), rng=rng)
    return EMEstimator(model, timer=MICAZ_LIKE.timer), timer_readings(exact, rng), truth


@pytest.fixture
def diamond_procedure():
    """An if/else diamond procedure with 5- vs 20-cycle arm padding."""
    proc, _ = build_diamond_procedure()
    return proc


DEMO_SOURCE = """
proc work(v) {
    var acc = 0;
    if (v > 512) {
        acc = v * 3;
        send(acc);
    } else {
        acc = v + 1;
    }
    return acc;
}

proc main() {
    var v = sense(adc0);
    var r = work(v);
    while (sense(adc1) > 700) {
        led(1);
    }
    led(0);
}
"""


@pytest.fixture
def demo_program():
    """A two-procedure program with a call, a diamond, and a loop."""
    return compile_source(DEMO_SOURCE, "demo")


@pytest.fixture
def demo_sensors():
    """Seeded sensors for the demo program."""
    return SensorSuite(
        {"adc0": IIDSensor(560, 200), "adc1": IIDSensor(560, 200)}, rng=7
    )


@pytest.fixture
def uniform_sensors():
    """Seeded uniform sensors on the demo channels."""
    return SensorSuite(
        {"adc0": UniformSensor(), "adc1": UniformSensor()}, rng=13
    )
