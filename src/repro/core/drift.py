"""Drift: noticing that the branch probabilities behind a profile moved.

Sensor inputs drift (diurnal cycles, regime changes), so a single profile
ages.  Because the tomography collector is cheap, a deployment can keep it
on permanently and watch for that — this is the "continuous profiling"
extension the overhead numbers make plausible: edge instrumentation at
40–100% runtime overhead cannot stay on in production; a
~25-cycle-per-invocation collector can.  Two mechanisms, for two inputs:

* **Epoch refits** (:func:`estimate_epochs`, :func:`detect_drift`) slice a
  recorded invocation stream into consecutive windows, estimate each window
  independently, and flag large epoch-to-epoch moves (experiment F7).

* **Streaming detectors** run over a live estimator's per-shard
  *innovation signal*: before each re-fit, the shard's observed mean
  duration per procedure is standardized against the moments the
  *previous* iterate predicted (:func:`residual_signals`).  Under a
  stationary workload that signal is ~N(0, 1)-ish noise; a regime shift
  moves procedure durations and :class:`PageHinkley` / :class:`Cusum` trip.
  :class:`DriftDetectors` keeps one self-calibrating :class:`ProcDrift`
  pair per procedure.  The closed PGO loop (:mod:`repro.pgo`) steers on
  its alarms; :mod:`repro.obs.health` reports them as alerts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.core.moments_fit import fit_moments
from repro.mote.timer import TimestampTimer
from repro.sim.timing import ProcedureTimingModel
from repro.util.rng import RngSource, as_rng

__all__ = [
    "DriftTrack",
    "estimate_epochs",
    "detect_drift",
    "PageHinkley",
    "Cusum",
    "residual_signals",
    "ProcDrift",
    "DriftDetectors",
]


@dataclass(frozen=True)
class DriftTrack:
    """Per-epoch estimates of one procedure's branch probabilities.

    ``n_dropped`` counts samples that belong to no estimated epoch: a
    trailing window shorter than ``min_epoch_fraction * epoch_size`` is not
    estimated (too little data for a stable fit), and its samples are
    surfaced here instead of vanishing silently — so
    ``sum(n_samples) + n_dropped`` always equals the input length.
    """

    procedure: str
    epoch_size: int
    thetas: np.ndarray  # (n_epochs, n_parameters)
    n_samples: tuple[int, ...]  # samples per epoch
    n_dropped: int = 0  # samples in no epoch (short trailing window)

    @property
    def n_epochs(self) -> int:
        """Number of estimated epochs."""
        return self.thetas.shape[0]

    def parameter_series(self, k: int) -> np.ndarray:
        """The trajectory of one branch probability across epochs."""
        if not 0 <= k < self.thetas.shape[1]:
            raise EstimationError(f"parameter index {k} out of range")
        return self.thetas[:, k]

    def total_variation(self) -> np.ndarray:
        """Sum of |epoch-to-epoch deltas| per parameter — a drift magnitude."""
        if self.n_epochs < 2:
            return np.zeros(self.thetas.shape[1])
        return np.abs(np.diff(self.thetas, axis=0)).sum(axis=0)


def estimate_epochs(
    model: ProcedureTimingModel,
    durations: Sequence[float],
    epoch_size: int,
    timer: Optional[TimestampTimer] = None,
    min_epoch_fraction: float = 0.5,
    restarts: int = 4,
    rng: RngSource = None,
) -> DriftTrack:
    """Estimate branch probabilities per consecutive window of measurements.

    ``durations`` must be in collection order (the profiler preserves it).
    A trailing partial window is kept only if it holds at least
    ``min_epoch_fraction * epoch_size`` samples; dropped samples are
    reported on the returned track's ``n_dropped`` (they are in no epoch),
    so epoch coverage is always accountable.
    """
    xs = np.asarray(durations, dtype=float)
    if xs.size == 0:
        raise EstimationError("estimate_epochs needs at least one sample")
    if epoch_size < 2:
        raise EstimationError(f"epoch_size must be >= 2, got {epoch_size}")
    gen = as_rng(rng)

    slices: list[np.ndarray] = []
    for start in range(0, xs.size, epoch_size):
        window = xs[start : start + epoch_size]
        if window.size >= max(2, int(min_epoch_fraction * epoch_size)):
            slices.append(window)
    if not slices:
        raise EstimationError("no epoch holds enough samples; reduce epoch_size")

    thetas = np.empty((len(slices), model.n_parameters))
    counts = []
    for i, window in enumerate(slices):
        fit = fit_moments(model, window, timer=timer, restarts=restarts, rng=gen)
        thetas[i] = fit.theta
        counts.append(int(window.size))
    return DriftTrack(
        procedure=model.procedure.name,
        epoch_size=epoch_size,
        thetas=thetas,
        n_samples=tuple(counts),
        n_dropped=int(xs.size - sum(counts)),
    )


def detect_drift(
    track: DriftTrack,
    threshold: float = 0.15,
) -> list[tuple[int, int, float]]:
    """Flag epoch transitions where a probability moved more than ``threshold``.

    Returns ``(parameter_index, epoch_index, delta)`` triples, where the
    change happened between ``epoch_index - 1`` and ``epoch_index``.  A
    deployment would trigger re-placement on these.
    """
    if not 0.0 < threshold < 1.0:
        raise EstimationError(f"threshold must lie in (0, 1), got {threshold}")
    events: list[tuple[int, int, float]] = []
    deltas = np.diff(track.thetas, axis=0)
    for epoch, row in enumerate(deltas, start=1):
        for k, delta in enumerate(row):
            if abs(delta) > threshold:
                events.append((k, epoch, float(delta)))
    return events


# --------------------------------------------------------------------------
# Streaming drift detectors
# --------------------------------------------------------------------------


class _SlotsEq:
    """Value equality over ``__slots__``: detector state compares as data."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )


class PageHinkley(_SlotsEq):
    """Two-sided Page–Hinkley test over a scalar stream.

    Classic two-accumulator form: the *up* test tracks the cumulative
    deviation from the running mean minus the allowance ``delta`` against
    its running minimum, the *down* test the deviation plus ``delta``
    against its running maximum.  Under stationarity each accumulator
    drifts *away* from its own extremum's alarm side at rate ``delta``, so
    the statistic stays bounded on arbitrarily long quiet streams; a
    sustained shift in either direction walks one gap past ``threshold``.
    After an alarm the statistic resets so the next episode is detected
    afresh.
    """

    __slots__ = ("delta", "threshold", "_n", "_mean", "_up", "_up_min", "_down", "_down_max")

    def __init__(self, delta: float = 0.1, threshold: float = 28.0) -> None:
        if threshold <= 0:
            raise EstimationError(f"threshold must be positive, got {threshold}")
        if delta < 0:
            raise EstimationError(f"delta must be >= 0, got {delta}")
        self.delta = delta
        self.threshold = threshold
        self.reset()

    def reset(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._up = 0.0
        self._up_min = 0.0
        self._down = 0.0
        self._down_max = 0.0

    @property
    def statistic(self) -> float:
        """The current two-sided PH statistic (max of up/down tests)."""
        return max(self._up - self._up_min, self._down_max - self._down)

    @property
    def score(self) -> float:
        """``statistic / threshold`` — >= 1.0 means the alarm level."""
        return self.statistic / self.threshold

    def update(self, x: float) -> bool:
        """Feed one value; True means *alarm* (the detector has reset)."""
        self._n += 1
        self._mean += (x - self._mean) / self._n
        deviation = x - self._mean
        self._up += deviation - self.delta
        self._up_min = min(self._up_min, self._up)
        self._down += deviation + self.delta
        self._down_max = max(self._down_max, self._down)
        if self.statistic > self.threshold:
            self.reset()
            return True
        return False


class Cusum(_SlotsEq):
    """Two-sided CUSUM over a (roughly standardized) scalar stream.

    Classic tabular form: ``S+ = max(0, S+ + x - k)`` catches upward shifts,
    ``S- = max(0, S- - x - k)`` downward ones; either exceeding ``h`` is an
    alarm (and resets both accumulators).  With ~N(0, 1) inputs, ``k`` is
    half the shift (in sigmas) worth detecting and ``h`` sets the
    false-alarm/delay trade-off.
    """

    __slots__ = ("k", "h", "_pos", "_neg")

    def __init__(self, k: float = 0.5, h: float = 14.0) -> None:
        if h <= 0:
            raise EstimationError(f"h must be positive, got {h}")
        if k < 0:
            raise EstimationError(f"k must be >= 0, got {k}")
        self.k = k
        self.h = h
        self.reset()

    def reset(self) -> None:
        self._pos = 0.0
        self._neg = 0.0

    @property
    def statistic(self) -> float:
        return max(self._pos, self._neg)

    @property
    def score(self) -> float:
        return self.statistic / self.h

    def update(self, x: float) -> bool:
        """Feed one value; True means *alarm* (the detector has reset)."""
        self._pos = max(0.0, self._pos + x - self.k)
        self._neg = max(0.0, self._neg - x - self.k)
        if self.statistic > self.h:
            self.reset()
            return True
        return False


def residual_signals(
    moments: Mapping[str, object],
    samples: Mapping[str, object],
    min_samples: int = 2,
) -> dict[str, float]:
    """Per-procedure standardized innovations for one shard.

    ``moments`` maps procedure name to anything with ``mean`` and
    ``variance`` attributes (the previous iterate's predicted
    :class:`~repro.markov.moments.RewardMoments`); ``samples`` maps name to
    the shard's raw duration array.  The signal is the z-score of the shard
    mean under the prediction: ``(x̄ - mu) / (sigma / sqrt(n))``.  Procedures
    without a prediction, or with fewer than ``min_samples`` observations
    (one duration says nothing about a mean shift), are skipped.
    """
    signals: dict[str, float] = {}
    for name in sorted(samples):
        predicted = moments.get(name)
        if predicted is None:
            continue
        xs = samples[name]
        n = len(xs)
        if n < min_samples:
            continue
        sigma = math.sqrt(max(float(predicted.variance), 1e-12))
        mean = sum(float(x) for x in xs) / n
        signals[name] = (mean - float(predicted.mean)) / (sigma / math.sqrt(n))
    return signals


class ProcDrift(_SlotsEq):
    """One procedure's self-calibrating detector pair.

    The first ``warmup_shards`` signals fit a frozen mean/std baseline
    (Welford); subsequent signals are standardized against it and fed to
    both detectors.  An alarm resets the detectors *and* the baseline — the
    stream re-calibrates at the new regime, so a second drift episode is
    detected relative to the first's level, not the original one.
    """

    __slots__ = (
        "warmup_shards", "_count", "_mean", "_m2", "_mu0", "_sd0", "ph", "cusum",
        "alarms",
    )

    def __init__(
        self,
        warmup_shards: int = 8,
        ph_delta: float = 0.1,
        ph_threshold: float = 28.0,
        cusum_k: float = 0.5,
        cusum_h: float = 14.0,
    ) -> None:
        if warmup_shards < 1:
            raise EstimationError(f"warmup_shards must be >= 1, got {warmup_shards}")
        self.warmup_shards = warmup_shards
        self.ph = PageHinkley(ph_delta, ph_threshold)
        self.cusum = Cusum(cusum_k, cusum_h)
        self.alarms = 0
        self._restart()

    def _restart(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._mu0: Optional[float] = None
        self._sd0 = 1.0
        self.ph.reset()
        self.cusum.reset()

    @property
    def score(self) -> float:
        return max(self.ph.score, self.cusum.score)

    @property
    def warmed_up(self) -> bool:
        return self._mu0 is not None

    def update(self, x: float) -> Optional[str]:
        """Feed one raw signal; returns the alarming detector name, if any."""
        if self._mu0 is None:
            self._count += 1
            delta = x - self._mean
            self._mean += delta / self._count
            self._m2 += delta * (x - self._mean)
            if self._count >= self.warmup_shards:
                self._mu0 = self._mean
                variance = self._m2 / max(self._count - 1, 1)
                # The raw signal is already ~unit-scale by construction; the
                # baseline only removes bias and *extra* dispersion.  A short
                # warmup under-estimates spread, so never let it tighten the
                # scale below the signal's nominal N(0, 1): floor the std at 1.
                self._sd0 = max(math.sqrt(max(variance, 0.0)), 1.0)
            return None
        z = (x - self._mu0) / self._sd0
        fired = []
        if self.ph.update(z):
            fired.append("page-hinkley")
        if self.cusum.update(z):
            fired.append("cusum")
        if fired:
            self.alarms += 1
            self._restart()
            return "+".join(fired)
        return None


class DriftDetectors(_SlotsEq):
    """The per-procedure detector set of one estimator stream.

    Each procedure gets its own :class:`ProcDrift` on its first signal, all
    built from the same parameters.  The set is plain data: a deep copy is
    a checkpoint, and two sets fed the same signals compare equal.
    """

    __slots__ = ("params", "procs")

    def __init__(
        self,
        warmup_shards: int = 8,
        ph_delta: float = 0.1,
        ph_threshold: float = 28.0,
        cusum_k: float = 0.5,
        cusum_h: float = 14.0,
    ) -> None:
        self.params = (warmup_shards, ph_delta, ph_threshold, cusum_k, cusum_h)
        ProcDrift(*self.params)  # reject bad parameters now, not at the first signal
        self.procs: dict[str, ProcDrift] = {}

    def update(self, signals: Mapping[str, float]) -> list[tuple[str, str]]:
        """Feed one shard's signals; returns ``(procedure, detector)`` alarms.

        Procedures are fed in name order; ``detector`` names what fired
        (``page-hinkley``, ``cusum``, or both joined by ``+``).
        """
        alarms: list[tuple[str, str]] = []
        for proc in sorted(signals):
            state = self.procs.get(proc)
            if state is None:
                state = self.procs[proc] = ProcDrift(*self.params)
            detector = state.update(float(signals[proc]))
            if detector is not None:
                alarms.append((proc, detector))
        return alarms

    @property
    def score(self) -> float:
        """Max detector statistic over procedures, scaled so 1.0 = alarm."""
        return max((state.score for state in self.procs.values()), default=0.0)

    @property
    def alarms(self) -> int:
        """Alarms raised so far, over all procedures."""
        return sum(state.alarms for state in self.procs.values())

    @property
    def alarmed_procedures(self) -> tuple[str, ...]:
        return tuple(sorted(p for p, s in self.procs.items() if s.alarms))
