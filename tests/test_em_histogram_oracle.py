"""Differential oracle for EM: histogram fit vs the raw-sample loop.

:class:`repro.core.em.EMEstimator` fits on unique timer ticks with count
weights; :mod:`tests.em_reference` keeps the per-observation loop it
replaced.  Both must agree — exactly on the discrete outcome (iterations,
convergence, family size, dropped observations) and to 1e-12 on theta,
arm counts and log-likelihood — on every registered workload, on random
CFGs, and on the degenerate inputs each branch of the loop exists for.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EMEstimator, enumerate_paths
from repro.lang import compile_source
from repro.markov.sampling import sample_rewards
from repro.mote import MICAZ_LIKE
from repro.placement.layout import Layout, ProgramLayout
from repro.profiling import TimingProfiler
from repro.sim import ProcedureTimingModel, run_program
from repro.sim.timing import ProgramTimingModel
from repro.workloads import all_workloads
from repro.workloads.synthetic import random_estimation_problem
from tests.conftest import build_diamond_procedure, quantized_em_problems, timer_readings
from tests.em_reference import path_log_probability, reference_fit

TIMER = MICAZ_LIKE.timer


def assert_matches_reference(est, durations, theta0=None, family=None):
    """Fit both ways and hold the histogram fit to the raw-sample oracle."""
    got, got_family = est.fit_with_family(durations, theta0=theta0, family=family)
    want, _ = reference_fit(est, durations, theta0=theta0, family=family)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.n_paths == want.n_paths
    assert got.n_samples == want.n_samples
    assert got.dropped_observations == want.dropped_observations
    np.testing.assert_allclose(got.theta, want.theta, rtol=0, atol=1e-12)
    if want.arm_counts is None:
        assert got.arm_counts is None
    else:
        np.testing.assert_allclose(got.arm_counts, want.arm_counts, rtol=1e-12, atol=0)
    if np.isfinite(want.log_likelihood):
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-12, abs=0)
    else:
        assert got.log_likelihood == want.log_likelihood
    return got, got_family


@pytest.fixture
def diamond_est():
    proc, _ = build_diamond_procedure(then_cost_pad=5, else_cost_pad=60)
    model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
    return EMEstimator(model, timer=TIMER)


@pytest.fixture
def loop_model():
    prog = compile_source("proc main() { while (sense(a) > 800) { led(1); } }")
    main = prog.procedure("main")
    return ProcedureTimingModel(main, MICAZ_LIKE, Layout.source_order(main.cfg))


@pytest.mark.parametrize("spec", all_workloads(), ids=lambda spec: spec.name)
def test_registry_workload_matches_reference(spec):
    program = spec.program()
    run = run_program(program, MICAZ_LIKE, spec.sensors(rng=11), activations=500)
    dataset = TimingProfiler(MICAZ_LIKE, rng=12).collect(run.records)
    timing = ProgramTimingModel(program, MICAZ_LIKE, ProgramLayout.source_order(program))
    callee_moments = {}
    fitted = 0
    for proc in program.topological_procedures():
        model = timing.procedure_model(proc.name, callee_moments)
        theta = np.full(model.n_parameters, 0.5)
        if dataset.count(proc.name) and model.n_parameters:
            est = EMEstimator(model, timer=TIMER)
            durations = dataset.durations(proc.name)
            result, family = assert_matches_reference(est, durations)
            # A warm start on the exchanged family, as OnlineEstimator runs it.
            assert_matches_reference(est, durations, theta0=result.theta, family=family)
            theta = result.theta
            fitted += 1
        callee_moments[proc.name] = model.moments(theta)
    assert fitted >= 1


@given(quantized_em_problems(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_synthetic_cfg_matches_reference(problem, start_at_truth):
    est, durations, truth = problem
    assert_matches_reference(est, durations, theta0=truth if start_at_truth else None)


class TestDegenerateInputs:
    def test_single_unique_tick(self, diamond_est):
        got, _ = assert_matches_reference(diamond_est, [64.0] * 37)
        assert got.n_samples == 37

    def test_every_observation_off_path(self, diamond_est):
        got, _ = assert_matches_reference(diamond_est, [1e200] * 6, theta0=[0.3])
        assert got.dropped_observations == 6
        assert not got.converged

    def test_partial_drop(self, diamond_est):
        good = sample_rewards(diamond_est.model.chain([0.7]), 200, rng=9)
        got, _ = assert_matches_reference(diamond_est, np.concatenate([good, [1e200] * 3]))
        assert got.dropped_observations == 3

    def test_non_finite_durations_drop_exactly(self, diamond_est):
        good = sample_rewards(diamond_est.model.chain([0.4]), 150, rng=5)
        bad = [np.nan, np.inf, np.nan, -np.inf, np.inf, np.nan]
        got, _ = assert_matches_reference(diamond_est, np.concatenate([bad, good, bad]))
        assert got.dropped_observations == 12
        assert got.n_samples == 162

    def test_zero_parameters(self):
        prog = compile_source("proc main() { led(1); }")
        main = prog.procedure("main")
        model = ProcedureTimingModel(main, MICAZ_LIKE, Layout.source_order(main.cfg))
        got, family = assert_matches_reference(EMEstimator(model), [10.0, 10.0, 12.0])
        assert got.theta.size == 0 and family is None

    @pytest.mark.parametrize("max_paths", [1, 3, 8])
    def test_truncated_family(self, loop_model, max_paths):
        exact = sample_rewards(loop_model.chain([0.7]), 300, rng=2)
        durations = timer_readings(exact, np.random.default_rng(3))
        est = EMEstimator(loop_model, timer=TIMER, max_paths=max_paths)
        got, family = assert_matches_reference(est, durations)
        assert family.truncated and got.n_paths <= max_paths


@pytest.mark.parametrize(
    "theta", [[0.3, 0.6, 0.9], [0.0, 0.5, 1.0], [1.0, 0.0, 0.2], [1e-300, 0.5, 1 - 1e-16]]
)
def test_family_log_probabilities_match_per_path(theta):
    # 0 * log 0 = 0: an impossible arm rules out only the paths that take it.
    proc, _ = random_estimation_problem(rng=4, n_branches=3, loop_fraction=0.5)
    model = ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))
    family = enumerate_paths(model, min_prob=1e-9, max_paths=200)
    theta = np.asarray(theta)
    want = np.array([path_log_probability(p, theta) for p in family.paths])
    got = family.log_probabilities(theta)
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
