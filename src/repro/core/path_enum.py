"""Path enumeration over a procedure's timing chain.

A *path* here is one complete entry-to-exit walk.  Its probability under any
branch-probability vector factorizes as

    P(path | theta) = prod_k theta_k^{a_k} (1 - theta_k)^{b_k}

where ``a_k`` / ``b_k`` count how often the path took branch ``k``'s then /
else arm — the counts are theta-independent, so a family enumerated once can
be re-scored for any theta in closed form.  Each path also carries its total
duration mean and variance (variance is nonzero only on blocks that call
other procedures, whose time is folded in as a distribution).

Enumeration is best-first on path probability under a *reference* theta,
stopping at ``max_paths`` paths or when the frontier's probability drops
below ``min_prob``; loops terminate naturally because every extra iteration
multiplies the reference probability down.  The EM estimator re-enumerates
under its current iterate, so coverage follows the estimate.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.sim.timing import ProcedureTimingModel

__all__ = ["PathInfo", "PathFamily", "enumerate_paths", "path_log_probabilities"]


@dataclass(frozen=True)
class PathInfo:
    """One complete path's sufficient statistics."""

    then_counts: tuple[int, ...]  # a_k per branch parameter
    else_counts: tuple[int, ...]  # b_k per branch parameter
    duration_mean: float
    duration_variance: float


@dataclass(frozen=True)
class PathFamily:
    """An enumerated set of paths plus coverage bookkeeping."""

    paths: tuple[PathInfo, ...]
    covered_probability: float  # total mass under the reference theta
    reference_theta: tuple[float, ...]
    truncated: bool  # True when max_paths or min_prob cut enumeration short

    def __len__(self) -> int:
        return len(self.paths)

    def log_probabilities(self, theta: Sequence[float]) -> np.ndarray:
        """``log P(path | theta)`` for every path, in order."""
        return path_log_probabilities(*self.arm_count_matrices(), theta)

    def probabilities(self, theta: Sequence[float]) -> np.ndarray:
        """``P(path | theta)`` for every path, in order."""
        return np.exp(self.log_probabilities(theta))

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectors of per-path duration means and variances."""
        means = np.array([p.duration_mean for p in self.paths])
        variances = np.array([p.duration_variance for p in self.paths])
        return means, variances

    def arm_count_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(A, B)`` with ``A[p, k]`` = then-arm count of path p, branch k."""
        a = np.array([p.then_counts for p in self.paths], dtype=float)
        b = np.array([p.else_counts for p in self.paths], dtype=float)
        return a, b


def path_log_probabilities(
    then_counts: np.ndarray, else_counts: np.ndarray, theta: Sequence[float]
) -> np.ndarray:
    """``A @ log theta + B @ log1p(-theta)`` on a family's arm-count matrices.

    ``0 * log 0`` is a legitimate 0, not NaN: an arm of probability 0 rules
    out only the paths that take it.
    """
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_then, log_else = np.log(theta), np.log1p(-theta)
        if np.isfinite(log_then).all() and np.isfinite(log_else).all():
            return then_counts @ log_then + else_counts @ log_else
        then_terms = np.where(then_counts > 0, then_counts * log_then, 0.0)
        else_terms = np.where(else_counts > 0, else_counts * log_else, 0.0)
        return then_terms.sum(axis=1) + else_terms.sum(axis=1)


def enumerate_paths(
    model: ProcedureTimingModel,
    reference_theta: Optional[Sequence[float]] = None,
    min_prob: float = 1e-6,
    max_paths: int = 2000,
) -> PathFamily:
    """Enumerate the most probable complete paths of ``model``.

    ``reference_theta`` defaults to the uninformed 0.5 vector.  Raises when
    no complete path is found within the limits (pathological limits).
    """
    k = model.n_parameters
    if reference_theta is None:
        theta_ref = np.full(k, 0.5)
    else:
        theta_ref = np.asarray(reference_theta, dtype=float)
        if theta_ref.shape != (k,):
            raise EstimationError(
                f"reference_theta must have length {k}, got {theta_ref.shape}"
            )
    # Clamp so reference probabilities never hit exactly 0 (which would make
    # legitimate low-probability arms unreachable by enumeration).
    theta_ref = np.clip(theta_ref, 0.02, 0.98)
    if not 0.0 < min_prob < 1.0:
        raise EstimationError(f"min_prob must lie in (0, 1), got {min_prob}")
    if max_paths < 1:
        raise EstimationError(f"max_paths must be >= 1, got {max_paths}")

    plan = model.transition_plan()
    means = model.reward_means
    variances = model.reward_variances
    entry_index = model.states.index(model.entry_state)

    # Best-first frontier: (-prob, tiebreak, state, prob, a, b, mean, var)
    counter = itertools.count()
    start = (
        -1.0,
        next(counter),
        entry_index,
        1.0,
        (0,) * k,
        (0,) * k,
        float(means[entry_index]),
        float(variances[entry_index]),
    )
    frontier: list[tuple] = [start]
    paths: list[PathInfo] = []
    covered = 0.0
    truncated = False

    while frontier:
        if len(paths) >= max_paths:
            truncated = True
            break
        _, _, state, prob, a, b, dur_mean, dur_var = heapq.heappop(frontier)
        if prob < min_prob:
            truncated = True
            break
        for entry in plan[state]:
            if entry[0] == "exit":
                p_next = prob * entry[1]
                if p_next <= 0:
                    continue
                paths.append(
                    PathInfo(
                        then_counts=a,
                        else_counts=b,
                        duration_mean=dur_mean,
                        duration_variance=dur_var,
                    )
                )
                covered += p_next
                continue
            if entry[0] == "fixed":
                _, dst, p_edge = entry
                p_next = prob * p_edge
                a2, b2 = a, b
            else:
                _, dst, param, arm = entry
                p_edge = theta_ref[param] if arm == "then" else 1.0 - theta_ref[param]
                p_next = prob * p_edge
                if arm == "then":
                    a2 = a[:param] + (a[param] + 1,) + a[param + 1 :]
                    b2 = b
                else:
                    a2 = a
                    b2 = b[:param] + (b[param] + 1,) + b[param + 1 :]
            if p_next < min_prob:
                truncated = True
                continue
            heapq.heappush(
                frontier,
                (
                    -p_next,
                    next(counter),
                    dst,
                    p_next,
                    a2,
                    b2,
                    dur_mean + float(means[dst]),
                    dur_var + float(variances[dst]),
                ),
            )

    if not paths:
        raise EstimationError(
            "path enumeration found no complete path within limits "
            f"(min_prob={min_prob}, max_paths={max_paths})"
        )
    return PathFamily(
        paths=tuple(paths),
        covered_probability=covered,
        reference_theta=tuple(float(t) for t in theta_ref),
        truncated=truncated,
    )
