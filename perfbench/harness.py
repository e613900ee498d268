"""Run loop shared by every workload: set-up, timed passes, checks, output.

A workload supplies three steps:

``setup(seed)``
    Everything a user pays before the first result: compiling, seeded input
    generation, warm-up.  Run before the first pass and again after every
    pass, so each pass gets a fresh state and the set-ups are spread over
    the whole run (at least :data:`SETUP_MIN_REPS` in all).
``run_pass(state, measure, detail)``
    One pass of the workload.  The part inside ``with measure() as stage:``
    is the pipeline: its wall time is the pass's time and, on a traced
    pass, only it runs with the layer wrappers installed.  ``with
    stage(name):`` times a named step of it (a program's estimate, a
    segment); names are unique within a pass.
    Every pass of a run does the same work on the same inputs, so counts
    repeat exactly.  ``detail`` is set on the untraced passes of a
    ``--trace 1`` run, for work whose only product is a per-layer metric
    (serve-long's open-loop latency pass).  Returns the pass's outputs.
``finish(state, outputs, checks)``
    Checks the outputs against independent references and returns the
    quality metrics (``quality.theta_mae``, ``quality.mispredict_cut``,
    ``quality.energy_cut``).  Runs outside any timing.

Passes repeat until the next one would end past ``--seconds`` (at least
one).  The machine is a shared VM whose speed drifts: for seconds, and at
times for minutes, it runs Python 20-100% slower, and this moves whole runs.
So a ``--trace 0`` run samples the speed: every :data:`PROBE_EVERY_S` a
timer signal runs a probe, a fixed pure-Python loop of a few milliseconds.
Each timed step (a set-up, a stage, the rest of a pass) is scaled to the
reference speed at which the probe takes :data:`PROBE_REFERENCE_S`:
``(seconds - probes inside it) * PROBE_REFERENCE_S / probe_s``, with
``probe_s`` the median probe near the step.  The probe runs no program
code, so a change to the program cannot move it.  ``setup_s`` is the
median set-up and ``pipeline_s`` the median over the passes of each
stage, summed, plus the median of the rest.

With ``--trace 1`` untraced and traced passes alternate in pairs, in turn
untraced-first and traced-first, until the budget is spent (at least
:data:`MIN_PAIRS` pairs).  ``trace.overhead_ratio`` is the median over pairs
of traced wall over untraced wall.  The per-layer numbers come from the
traced pass with the median wall, so its layer self times and the
unattributed remainder add up to that pass's wall exactly.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from layers import BENCHMARK, PER_LAYER, build_tracer, layer_metrics

#: Fewest set-ups in a run (one follows each pass; more are added at the end).
SETUP_MIN_REPS = 5
#: Steps of the speed probe (a few milliseconds of pure Python).
PROBE_STEPS = 40_000
#: Seconds between probes.
PROBE_EVERY_S = 0.2
#: The probe's time at the reference speed: its fast phase on a 2.0 GHz VM.
PROBE_REFERENCE_S = 0.0033
#: Fewest untraced/traced pairs in a ``--trace 1`` run.
MIN_PAIRS = 2

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END: tuple[tuple[str, str], ...] = tuple(
    (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]
)


@dataclass
class Checks:
    """Operations attempted and failed; a failed output check is a failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


@dataclass
class Workload:
    setup: Callable[[int], Any]
    run_pass: Callable[[Any, Callable, bool], Any]
    finish: Callable[[Any, list, Checks], dict[str, float]]
    #: Workload-specific per-layer gauges read off one traced pass's outputs.
    gauges: Optional[Callable[[Any, Any], dict[str, float]]] = None
    #: Per-layer metrics aggregated over the untraced passes' outputs.
    pass_stats: Optional[Callable[[list], dict[str, float]]] = None


@dataclass
class _Pass:
    wall_s: float = 0.0
    #: (start, end) of the pipeline and of each named stage, perf_counter.
    span: tuple[float, float] = (0.0, 0.0)
    stages: dict[str, tuple[float, float]] = field(default_factory=dict)
    layers: Optional[dict[str, float]] = None
    output: Any = None


def _probe() -> float:
    """Time a fixed pure-Python loop: how fast the machine runs right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_STEPS):
        total += i * i % 7
    return time.perf_counter() - t0


class _SpeedSampler:
    """Runs the probe every :data:`PROBE_EVERY_S` from a timer signal.

    The handler runs in the main thread between bytecodes, inside whatever
    step is being timed, so each step's own probes are subtracted from it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, probe seconds)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append((time.perf_counter(), _probe()))

    def __enter__(self) -> "_SpeedSampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def at_reference(self, span: tuple[float, float]) -> float:
        """Seconds of ``span`` at reference speed, its own probes excluded.

        The speed is the median probe started within one probe interval of
        the span, so a short span usually has two or more; when a long
        native call held the signal back, it is the nearest probe.
        """
        t0, t1 = span
        near = [p for t, p in self.samples if t0 - PROBE_EVERY_S <= t <= t1 + PROBE_EVERY_S]
        near = near or [min(self.samples, key=lambda sample: abs(sample[0] - t0))[1]]
        inside = sum(p for t, p in self.samples if t0 <= t < t1)
        return (t1 - t0 - inside) * PROBE_REFERENCE_S / statistics.median(near)


def _pipeline_s(passes: list[_Pass], speed: _SpeedSampler) -> float:
    """Median of each stage over the passes, summed, plus the median rest."""
    median = statistics.median
    stages = [{n: speed.at_reference(s) for n, s in p.stages.items()} for p in passes]
    rest = [speed.at_reference(p.span) - sum(st.values()) for p, st in zip(passes, stages)]
    return sum(median(st[name] for st in stages) for name in stages[0]) + median(rest)


def _pass(workload: Workload, state: Any, traced: bool, detail: bool) -> _Pass:
    record = _Pass()

    @contextmanager
    def stage(name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            record.stages[name] = (t0, time.perf_counter())

    @contextmanager
    def measure():
        tracer = log = None
        if traced:
            tracer, log = build_tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            yield stage
        finally:
            record.span = (t0, time.perf_counter())
            record.wall_s = record.span[1] - t0
            if tracer is not None:
                tracer.uninstall()
                record.layers = layer_metrics(tracer, log, record.wall_s)

    gc.collect()
    record.output = workload.run_pass(state, measure, detail)
    return record


def _repeat(step: Callable[[], None], budget_s: float, at_least: int) -> None:
    """Call ``step`` until the next call would end past ``budget_s``."""
    started = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        step()
        done += 1
        now = time.perf_counter()
        if done >= at_least and now - started + (now - t0) > budget_s:
            return


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    checks = Checks()
    setup_spans: list[tuple[float, float]] = []
    untraced: list[_Pass] = []
    pairs: list[tuple[_Pass, _Pass]] = []

    def set_up() -> Any:
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_spans.append((t0, time.perf_counter()))
        return state

    def step() -> None:
        # Every pass is followed by a fresh set-up, so set-up is timed
        # across the whole run rather than in one window at its start.
        nonlocal state
        if trace:
            order = (False, True) if len(pairs) % 2 == 0 else (True, False)
            done = {t: _pass(workload, state, t, detail=not t) for t in order}
            pairs.append((done[False], done[True]))
            untraced.append(done[False])
        else:
            untraced.append(_pass(workload, state, traced=False, detail=False))
        state = None
        state = set_up()

    # The traced run reports raw per-layer times; only --trace 0 samples speed.
    with (contextlib.nullcontext() if trace else _SpeedSampler()) as speed:
        state = set_up()
        _repeat(step, seconds, MIN_PAIRS if trace else 1)
        while len(setup_spans) < SETUP_MIN_REPS:
            state = None
            state = set_up()
    traced = [t for _, t in pairs]
    all_passes = untraced + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outputs = [p.output for p in all_passes]
    quality = workload.finish(state, outputs, checks)

    if trace:
        walls = sorted(traced, key=lambda p: p.wall_s)
        chosen = walls[(len(walls) - 1) // 2]
        layers = dict(chosen.layers)
        layers.update(quality)
        if workload.gauges is not None:
            layers.update(workload.gauges(state, chosen.output))
        if workload.pass_stats is not None:
            layers.update(workload.pass_stats([p.output for p in untraced]))
        layers["trace.overhead_ratio"] = statistics.median(t.wall_s / u.wall_s for u, t in pairs)
        layers["trace.overhead_pairs"] = len(pairs)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        pipeline_s = _pipeline_s(untraced, speed)
        setup_s = statistics.median(speed.at_reference(span) for span in setup_spans)
        values = {"setup_s": setup_s, "pipeline_s": pipeline_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "failures": checks.failures,
    }
