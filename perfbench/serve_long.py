"""``serve-long``: a few tenants with long per-mote streams through the service.

Four tenants (blink, event-detect, oscilloscope, sense), eight motes each,
32 shards per mote: 1,024 pre-generated uploads through one
``IngestionService`` (one worker task, rebalanced to two half-way), with a
``query`` every :data:`QUERY_EVERY` uploads.  Each stream goes into a fresh
service, in one of two modes:

* saturated, submitting as fast as the service accepts: its wall is
  ``pipeline_s``, and shards over wall is the capacity;
* open loop at a fixed :data:`OFFERED_RATE` (``--trace 1`` runs only),
  submitting on a schedule that does not slow when the service does.  Each
  shard's latency runs from its scheduled send time to the end of the
  absorb that folded it in, so a stall counts against every shard queued
  behind it.

The estimator is used incrementally here (warm starts, family reuse,
checkpoint handoff on rebalance).  Today every absorb refits over the whole
history, so per-shard cost grows with stream length; a change that helps
one-shot ``profile-em`` but costs streaming shows up here.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from harness import Checks, Workload
from common import (
    PLATFORM,
    compile_workload,
    layout_payoff,
    pooled_mae,
    same_thetas,
    sub_seed,
    uninformed_mae,
    untimed,
)
from tracer import LayerTracer

N_TENANTS = 4
N_MOTES = 8
SHARDS_PER_MOTE = 32
MAX_BATCH = 8
QUERY_EVERY = 32
#: Uploads per timed stage of the saturated stream.
STAGE_UPLOADS = 128
#: Open-loop offered load, shards per second (about half the saturated rate).
OFFERED_RATE = 200.0
WARMUP_SHARDS = 2
#: Activations of the per-tenant run that prices the payoff's radio/ADC energy.
REFERENCE_ACTIVATIONS = 1000
#: A tenant's theta MAE may be at most this share of the MAE of the
#: uninformed estimate (every theta = 0.5) against the same truth: an
#: estimator that learned nothing scores 1.0.
LEARNED_SHARE = 0.8


def setup(seed: int) -> dict:
    from repro.serve.loadgen import build_uploads, default_fleet, tenant_truth
    from repro.workloads.registry import workload_by_name

    fleet = default_fleet(
        n_tenants=N_TENANTS,
        n_motes=N_MOTES,
        shards_per_mote=SHARDS_PER_MOTE,
        seed=sub_seed(seed, "serve-long", "fleet") % (2**31),
    )
    tenants = []
    for spec in fleet.tenants:
        workload = workload_by_name(spec.workload)
        tenants.append(
            {
                "spec": spec,
                "workload": workload,
                "program": compile_workload(workload),
                "truth": tenant_truth(fleet, spec),
            }
        )
    uploads = build_uploads(fleet)
    state = {"seed": seed, "fleet": fleet, "tenants": tenants, "uploads": uploads}
    # Warm-up: a fresh service absorbing a couple of shards per tenant.
    warm = [u for u in uploads if u.seq == 0 and u.mote_id < WARMUP_SHARDS]
    asyncio.run(_stream(state, warm, rate=None))
    return state


def _service(state: dict):
    from repro.serve.service import IngestionService, ServiceConfig

    service = IngestionService(ServiceConfig(n_workers=1, max_batch=MAX_BATCH))
    for tenant in state["tenants"]:
        spec = tenant["spec"]
        service.register_tenant(
            spec.deployment_id,
            spec.program_version,
            tenant["program"],
            PLATFORM,
            options=spec.options(),
        )
    return service


async def _stream(state: dict, uploads: list, rate, stage=untimed) -> dict:
    """Stream ``uploads`` into a fresh service; ``rate=None`` saturates.

    ``stage`` (the harness's, on the timed pass) times each block of
    :data:`STAGE_UPLOADS` submissions; the last block includes the drain.
    """
    service = _service(state)
    tenants = [t["spec"].tenant for t in state["tenants"]]
    due: list[float] = []
    sent_at: list[float] = []
    receipts = []
    queries = rebalances = 0
    half = len(uploads) // 2
    await service.start()
    try:
        started = time.perf_counter()
        for first in range(0, len(uploads), STAGE_UPLOADS):
            last = min(first + STAGE_UPLOADS, len(uploads))
            with stage(f"uploads {first}-{last - 1}"):
                for i in range(first, last):
                    if rate is not None:
                        when = started + i / rate
                        delay = when - time.perf_counter()
                        if delay > 0:
                            await asyncio.sleep(delay)
                        due.append(when)
                        sent_at.append(time.perf_counter())
                    receipts.append(await service.submit(uploads[i]))
                    if i == half:
                        await service.rebalance(2)
                        rebalances += 1
                    if (i + 1) % QUERY_EVERY == 0:
                        service.query(tenants[(i // QUERY_EVERY) % len(tenants)])
                        queries += 1
                if last == len(uploads):
                    await service.drain()
        estimates = {str(t): service.query(t) for t in tenants}
        queries += len(tenants)
    finally:
        await service.stop()
    return {
        "estimates": estimates,
        "receipts": receipts,
        "due": due,
        "sent_at": sent_at,
        "queries": queries,
        "rebalances": rebalances,
    }


def _open_loop(state: dict) -> dict:
    """The open-loop pass, with each shard's absorb end time recorded."""
    from repro.serve import worker

    absorbed: dict[tuple, float] = {}
    service_s: dict[tuple, float] = {}

    def on_absorb(args, kwargs, result, seconds):
        done = time.perf_counter()
        for pending in args[2]:
            key = (str(pending.upload.tenant), pending.upload.mote_id, pending.upload.seq)
            absorbed[key] = done
            service_s[key] = seconds

    hook = LayerTracer()
    hook.wrap(worker.EstimatorWorker, "absorb", None, on_call=on_absorb)
    with hook:
        out = asyncio.run(_stream(state, state["uploads"], OFFERED_RATE))
    keys = [(str(u.tenant), u.mote_id, u.seq) for u in state["uploads"]]
    latency = np.array([absorbed[k] - d for k, d in zip(keys, out["due"])])
    out["latency_ms"] = latency * 1e3
    out["queue_wait_ms"] = (latency - np.array([service_s[k] for k in keys])) * 1e3
    out["gen_lag_ms"] = (np.array(out["sent_at"]) - np.array(out["due"])) * 1e3
    return out


def run_pass(state: dict, measure, detail: bool) -> dict:
    with measure() as stage:
        started = time.perf_counter()
        saturated = asyncio.run(_stream(state, state["uploads"], rate=None, stage=stage))
        saturated["wall_s"] = time.perf_counter() - started
    # The open-loop pass feeds only per-layer metrics, so it runs in the
    # untraced half of a --trace 1 run.
    return {"saturated": saturated, "open_loop": _open_loop(state) if detail else None}


def _stream_checks(name: str, out: dict, state: dict, checks: Checks) -> None:
    sent: dict[str, int] = {}
    for upload in state["uploads"]:
        sent[str(upload.tenant)] = sent.get(str(upload.tenant), 0) + upload.n_samples
    deferred = sum(r.status != "accepted" for r in out["receipts"])
    checks.ops(len(out["receipts"]), deferred, f"{name}: shards deferred or rejected")
    checks.ops(out["queries"] + out["rebalances"])
    for tenant, estimate in out["estimates"].items():
        checks.check(
            estimate.total_samples == sent[tenant] and estimate.pending == 0,
            f"{name}: {tenant} holds {estimate.total_samples} samples, "
            f"{estimate.pending} pending (sent {sent[tenant]})",
        )


def finish(state: dict, outputs: list[dict], checks: Checks) -> dict[str, float]:
    from repro.placement import optimize_program_layout
    from repro.sim import run_program

    reference = outputs[0]["saturated"]["estimates"]
    for i, out in enumerate(outputs):
        for kind in ("saturated", "open_loop"):
            if out[kind] is None:
                continue
            _stream_checks(f"pass {i} {kind}", out[kind], state, checks)
            checks.check(
                all(
                    same_thetas(reference[t].thetas, e.thetas)
                    for t, e in out[kind]["estimates"].items()
                ),
                f"pass {i} {kind}: estimates differ from the first saturated pass",
            )
    estimates, truths = {}, {}
    source_mp = tomo_mp = source_mj = tomo_mj = 0.0
    for tenant in state["tenants"]:
        key = str(tenant["spec"].tenant)
        thetas = reference[key].thetas
        truth = tenant["truth"]
        mae = pooled_mae({key: thetas}, {key: truth})
        share = mae / uninformed_mae(truth)
        checks.check(
            share <= LEARNED_SHARE,
            f"{key}: theta MAE {mae:.4f} is {share:.2f} of the uninformed estimate's",
        )
        estimates[key], truths[key] = thetas, truth
        # What the served estimate buys: its layout against source order,
        # under the tenant's true probabilities.
        program = tenant["program"]
        run = run_program(
            program,
            PLATFORM,
            tenant["workload"].sensors(rng=sub_seed(state["seed"], "serve-long", key)),
            activations=REFERENCE_ACTIVATIONS,
        )
        payoff = layout_payoff(
            program,
            optimize_program_layout(program, thetas),
            truth,
            run.counters,
            run.activations,
        )
        checks.check(
            payoff["mispredicts"] <= payoff["source_mispredicts"],
            f"{key}: served layout mispredicts more than source order",
        )
        source_mp += payoff["source_mispredicts"]
        tomo_mp += payoff["mispredicts"]
        source_mj += payoff["source_energy_mj"]
        tomo_mj += payoff["energy_mj"]
    return {
        "quality.theta_mae": pooled_mae(estimates, truths),
        "quality.mispredict_cut": 1.0 - tomo_mp / source_mp,
        "quality.energy_cut": 1.0 - tomo_mj / source_mj,
    }


def pass_stats(outputs: list[dict]) -> dict[str, float]:
    """Capacity and open-loop latency, medians over the untraced passes."""
    n = len(outputs[0]["saturated"]["receipts"])
    med = lambda values: float(np.median(values))  # noqa: E731
    loops = [out["open_loop"] for out in outputs]
    return {
        "serve.shards_per_s": med([n / out["saturated"]["wall_s"] for out in outputs]),
        "serve.p50_ms": med([np.percentile(o["latency_ms"], 50) for o in loops]),
        "serve.p99_ms": med([np.percentile(o["latency_ms"], 99) for o in loops]),
        "serve.open_loop_samples": int(loops[0]["latency_ms"].size),
        "serve.queue_wait_p99_ms": med([np.percentile(o["queue_wait_ms"], 99) for o in loops]),
        "serve.gen_lag_p99_ms": med([np.percentile(o["gen_lag_ms"], 99) for o in loops]),
    }


def gauges(state: dict, output: dict) -> dict[str, float]:
    receipts = output["saturated"]["receipts"]
    return {
        "serve.backlog_max": max(r.pending for r in receipts),
        "serve.deferred": sum(r.status == "deferred" for r in receipts),
    }


WORKLOAD = Workload(setup, run_pass, finish, gauges=gauges, pass_stats=pass_stats)
