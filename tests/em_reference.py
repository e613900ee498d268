"""Raw-sample EM: the differential oracle for the histogram E-step.

:class:`repro.core.em.EMEstimator` fits on the histogram of unique timer
ticks with count weights.  This module keeps the per-observation loop it
replaced — a dense ``(n_obs, n_paths)`` kernel, per-row responsibilities,
``(n_obs, k)`` arm-count products and a per-path Python prior — so tests
can hold the production fit to it.  It shares only the Gaussian kernel
(``EMEstimator._log_kernel``), path enumeration and the family's arm-count
matrices with the code under test.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.em import EMEstimator, EMResult
from repro.core.path_enum import PathFamily, PathInfo, enumerate_paths

__all__ = ["path_log_probability", "reference_fit"]


def path_log_probability(path: PathInfo, theta: np.ndarray) -> float:
    """``log P(path | theta)`` (``-inf`` when an arm has probability 0)."""
    a = np.asarray(path.then_counts, dtype=float)
    b = np.asarray(path.else_counts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = a * np.log(theta) + b * np.log1p(-theta)
    # 0 * log(0) is a legitimate 0 contribution, not NaN.
    log_p = np.where((a == 0) & np.isnan(log_p), 0.0, log_p)
    log_p = np.where((b == 0) & np.isnan(log_p), 0.0, log_p)
    return float(np.sum(log_p))


def reference_fit(
    est: EMEstimator,
    durations: Sequence[float],
    theta0: Optional[Sequence[float]] = None,
    family: Optional[PathFamily] = None,
) -> tuple[EMResult, Optional[PathFamily]]:
    """:meth:`EMEstimator.fit_with_family`, on the raw sample."""
    ys = np.asarray(durations, dtype=float)
    k = est.model.n_parameters
    if k == 0:
        return (
            EMResult(
                theta=np.empty(0),
                iterations=0,
                converged=True,
                log_likelihood=0.0,
                n_samples=int(ys.size),
                n_paths=0,
                dropped_observations=0,
            ),
            None,
        )
    theta = np.full(k, 0.5) if theta0 is None else np.asarray(theta0, dtype=float)
    theta = np.clip(theta, 0.02, 0.98)
    return _fit_loop(est, ys, theta, family)


def _fit_loop(
    self: EMEstimator,
    ys: np.ndarray,
    theta: np.ndarray,
    family: Optional[PathFamily] = None,
) -> tuple[EMResult, PathFamily]:
    """The raw-sample EM iteration, as the estimator ran it per observation."""
    if family is None:
        family = enumerate_paths(
            self.model, theta, min_prob=self.min_prob, max_paths=self.max_paths
        )
    log_kernel = self._log_kernel(ys, family)
    a_mat, b_mat = family.arm_count_matrices()
    family_theta = np.asarray(family.reference_theta, dtype=float)

    converged = False
    log_likelihood = -np.inf
    dropped = 0
    iterations = 0
    arm_counts = np.zeros(theta.size)
    for iterations in range(1, self.max_iterations + 1):
        # Re-enumerate when the iterate has drifted from the family's base.
        if np.max(np.abs(theta - family_theta)) > self.reenumerate_shift:
            family = enumerate_paths(
                self.model, theta, min_prob=self.min_prob, max_paths=self.max_paths
            )
            log_kernel = self._log_kernel(ys, family)
            a_mat, b_mat = family.arm_count_matrices()
            family_theta = theta.copy()

        log_prior = np.array([path_log_probability(p, theta) for p in family.paths])
        # Renormalize the truncated path family into a proper mixture so
        # that (a) responsibilities are unbiased by enumeration coverage
        # and (b) log-likelihoods are comparable across families with
        # different truncation (the hybrid start-race relies on this).
        prior_max = log_prior.max()
        log_mass = prior_max + np.log(np.sum(np.exp(log_prior - prior_max)))
        log_prior = log_prior - log_mass
        log_joint = log_kernel + log_prior[None, :]  # (n_obs, n_paths)
        row_max = log_joint.max(axis=1)
        usable = np.isfinite(row_max)
        dropped = int(np.sum(~usable))
        if not np.any(usable):
            # The M-step would divide by zero responsibility mass.  Hand
            # back the current iterate, honestly flagged: not converged,
            # every observation dropped, zero effective arm counts (so
            # any CI built from this fit stays full-width).
            return (
                EMResult(
                    theta=theta,
                    iterations=iterations,
                    converged=False,
                    log_likelihood=-np.inf,
                    n_samples=int(ys.size),
                    n_paths=len(family),
                    dropped_observations=int(ys.size),
                    arm_counts=np.zeros(theta.size),
                ),
                family,
            )
        shifted = np.exp(log_joint[usable] - row_max[usable, None])
        norm = shifted.sum(axis=1, keepdims=True)
        resp = shifted / norm
        log_likelihood = float(np.sum(np.log(norm[:, 0]) + row_max[usable]))

        then_counts = resp @ a_mat[:, :]  # (n_usable, k)
        else_counts = resp @ b_mat[:, :]
        a_total = then_counts.sum(axis=0)
        b_total = else_counts.sum(axis=0)
        denom = a_total + b_total
        arm_counts = denom
        new_theta = np.where(denom > 0, a_total / np.maximum(denom, 1e-12), theta)
        new_theta = np.clip(new_theta, 1e-4, 1.0 - 1e-4)

        if np.max(np.abs(new_theta - theta)) < self.tolerance:
            theta = new_theta
            converged = True
            break
        theta = new_theta

    return (
        EMResult(
            theta=theta,
            iterations=iterations,
            converged=converged,
            log_likelihood=log_likelihood,
            n_samples=int(ys.size),
            n_paths=len(family),
            dropped_observations=dropped,
            arm_counts=arm_counts,
        ),
        family,
    )
