"""Which public functions the traced run wraps, and the per-layer metrics.

Each wrapped function is one layer span (see :mod:`tracer`).  Counts come
from the call's arguments or its return value, never from inside the
program.  :data:`PER_LAYER` lists every per-layer metric, as
``BENCHMARK.json`` declares them; every workload reports all of them, with
0 for a layer the workload does not reach.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any

import numpy as np

from tracer import LayerTracer

#: The root BENCHMARK.json: every metric's name, unit, direction and bound.
BENCHMARK: dict = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]
)

#: Layer span name -> the per-layer self-time metric it feeds.
LAYER_TIME_METRIC = {
    "core.em": "core.em_s",
    "core.path_enum": "core.path_enum_s",
    "sim.timing.chain": "sim.timing.chain_s",
    "core.moments_fit": "core.moments_fit_s",
    "core.identifiability": "core.identifiability_s",
    "core.estimator": "core.estimate_s",
    "profiling.collect": "profiling.collect_s",
    "core.online.absorb": "core.online.absorb_s",
    "sim.run": "sim.run_s",
    "sim.batched": "sim.batched_s",
    "placement.optimize": "placement.optimize_s",
    "placement.refine": "placement.refine_s",
    "serve.submit": "serve.submit_s",
    "serve.absorb": "serve.absorb_s",
    "serve.query": "serve.query_s",
    "serve.rebalance": "serve.rebalance_s",
    "pgo.segment": "pgo.segment_s",
}


def _unique_ticks(dataset) -> int:
    return int(sum(np.unique(xs).size for xs in dataset.samples.values()))


class OnlineLog:
    """Per-program absorb history, for the late/early ratio and gauges.

    A program's stream is every absorb for it in one pass.  It continues
    across estimator objects: a serve rebalance resumes each moved tenant
    on a new estimator from its checkpoint, and the PGO controller starts a
    fresh one after a swap or rollback.
    """

    def __init__(self) -> None:
        self.calls: list[list] = []  # [program name, seconds, shards]
        self.latest: dict[str, Any] = {}  # program name -> live estimator

    def on_absorb(self, args, kwargs, result, seconds) -> None:
        estimator = args[0]
        self.calls.append([estimator.program.name, seconds, 1])
        self.latest[estimator.program.name] = estimator

    def on_absorb_batch(self, args, kwargs, result, seconds) -> None:
        # absorb_batch merges its shards and calls absorb once; that call
        # was logged just now, so it is the last entry.
        shards = args[1] if len(args) > 1 else kwargs["shards"]
        self.calls[-1][2] = len(shards)

    def late_early_ratio(self) -> float:
        """Per-shard absorb cost, last quarter over first quarter of each stream.

        Pooled over programs with at least four absorbs; 0 when none has.
        """
        streams: dict[str, list[float]] = {}
        for program, seconds, shards in self.calls:
            streams.setdefault(program, []).append(seconds / shards)
        early = late = 0.0
        for costs in streams.values():
            quarter = len(costs) // 4
            if quarter == 0:
                continue
            early += float(np.mean(costs[:quarter]))
            late += float(np.mean(costs[-quarter:]))
        return late / early if early > 0 else 0.0

    def samples_held(self) -> int:
        return int(sum(e.total_samples for e in self.latest.values()))

    def checkpoint_bytes(self) -> int:
        return int(
            sum(len(pickle.dumps(e.checkpoint())) for e in self.latest.values())
        )


def build_tracer() -> tuple[LayerTracer, OnlineLog]:
    """A tracer wrapping every listed layer's public entry points."""
    from repro.core import em, estimator, identifiability, moments_fit, online, path_enum
    from repro.pgo import controller
    from repro.placement import optimizer, refine
    from repro.profiling import timing_profiler
    from repro.serve import service, worker
    from repro.sim import interpreter, runner, timing

    tracer = LayerTracer()
    log = OnlineLog()
    one = lambda a, k, r: 1  # noqa: E731

    def em_result(attr):
        return lambda a, k, r: getattr(r[0], attr)

    tracer.wrap(
        em.EMEstimator,
        "fit_with_family",
        "core.em",
        counters=(
            ("core.em_fits", one),
            ("core.em_iterations", em_result("iterations")),
            ("core.em_dropped_obs", em_result("dropped_observations")),
        ),
    )
    tracer.wrap(
        path_enum,
        "enumerate_paths",
        "core.path_enum",
        counters=(("core.path_enum_calls", one), ("core.n_paths", lambda a, k, r: len(r))),
    )
    tracer.wrap(
        timing.ProcedureTimingModel,
        "chain",
        "sim.timing.chain",
        counters=(("sim.timing.chain_builds", one),),
    )
    for name in ("moments", "measured_moments"):
        tracer.wrap(
            timing.ProcedureTimingModel,
            name,
            None,
            counters=(("sim.timing.moment_evals", one),),
        )
    tracer.wrap(
        moments_fit,
        "fit_moments",
        "core.moments_fit",
        counters=(("core.moments_fit_calls", one),),
    )
    tracer.wrap(identifiability, "analyze_identifiability", "core.identifiability")
    tracer.wrap(estimator.CodeTomography, "estimate", "core.estimator")
    tracer.wrap(
        timing_profiler.TimingProfiler,
        "collect",
        "profiling.collect",
        counters=(
            ("profiling.n_obs", lambda a, k, r: sum(xs.size for xs in r.samples.values())),
            ("profiling.n_unique_ticks", lambda a, k, r: _unique_ticks(r)),
        ),
    )
    tracer.wrap(
        online.OnlineEstimator,
        "absorb",
        "core.online.absorb",
        counters=(
            ("core.online.family_rebuilds", lambda a, k, r: r.families_rebuilt),
            ("core.online.em_iterations", lambda a, k, r: r.em_iterations),
        ),
        on_call=log.on_absorb,
    )
    tracer.wrap(online.OnlineEstimator, "absorb_batch", None, on_call=log.on_absorb_batch)
    # run_program drives Interpreter.run_activation; the PGO controller
    # calls run_activation directly.  Both are the scalar simulator, and
    # activations are counted once, at run_activation.
    tracer.wrap(runner, "run_program", "sim.run")
    tracer.wrap(
        interpreter.Interpreter,
        "run_activation",
        "sim.run",
        counters=(("sim.activations", one),),
    )
    tracer.wrap(
        runner,
        "run_program_batched",
        "sim.batched",
        counters=(
            ("sim.batched_activations", lambda a, k, r: r.activations),
        ),
    )
    tracer.wrap(optimizer, "optimize_program_layout", "placement.optimize")
    tracer.wrap(refine, "optimize_refined_program_layout", "placement.refine")
    tracer.wrap(service.IngestionService, "submit", "serve.submit")
    tracer.wrap(
        worker.EstimatorWorker, "absorb", "serve.absorb", counters=(("serve.batches", one),)
    )
    tracer.wrap(service.IngestionService, "query", "serve.query")
    tracer.wrap(service.IngestionService, "rebalance", "serve.rebalance")
    tracer.wrap(controller.PGOController, "run_segment", "pgo.segment")
    return tracer, log


def layer_metrics(tracer: LayerTracer, log: OnlineLog, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times, counts, online gauges)."""
    out: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    for layer, metric in LAYER_TIME_METRIC.items():
        out[metric] = tracer.self_s.get(layer, 0.0)
    for name, value in tracer.counts.items():
        if name in out:
            out[name] = value
    activations = tracer.counts.get("sim.activations", 0)
    if activations and out["sim.run_s"] > 0:
        out["sim.activations_per_s"] = activations / out["sim.run_s"]
    batched = tracer.counts.get("sim.batched_activations", 0)
    if batched and out["sim.batched_s"] > 0:
        out["sim.batched_activations_per_s"] = batched / out["sim.batched_s"]
    out["core.online.absorb_late_early_ratio"] = log.late_early_ratio()
    out["core.online.samples_held"] = log.samples_held()
    out["core.online.checkpoint_bytes"] = log.checkpoint_bytes()
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(tracer.self_s.values())
    return out
