"""Which program attributes the traced run wraps, and the per-layer
metrics computed from the spans and counts they record.

Every wrapper sits on a public module function or class method; the
engine's own import of ``bucketize`` and ``alignment_from_matrix`` is
wrapped where the engine looks it up. Work counts are taken from the
arguments and return values of the same calls. Byte counts are either
measured (``checkpoint.bytes``, the size of the written file;
``obs.events_bytes``, the size of the event log) or computed
(``sharding.transfer_bytes``, pickled sizes of the shard payloads and
results, computed after the traced pass).
"""

from __future__ import annotations

import os
import pickle
import statistics
from dataclasses import replace

from tracing import Target, ledger

#: Span name -> per-layer self-time metric.
SELF_METRICS = {
    "api.call": "api.self_s",
    "api.encode": "api.encode_s",
    "engine.run": "engine.self_s",
    "planner.plan": "planner.plan_s",
    "buckets.bucketize": "buckets.bucketize_s",
    "kernels.linear": "kernels.linear_s",
    "kernels.banded": "kernels.banded_s",
    "wavefront.sweep": "wavefront.sweep_s",
    "wavefront.cigar": "wavefront.cigar_s",
    "bitparallel.sweep": "bitparallel.sweep_s",
    "traceback": "traceback.s",
    "sharding.run": "sharding.run_s",
    "supervisor.run": "supervisor.run_s",
    "checkpoint": "checkpoint.s",
    "spool": "spool.s",
    "protocol.load_job": "protocol.load_job_s",
    "admission.decide": "admission.decide_s",
    "daemon.loop": "daemon.self_s",
    "obs.sample_telemetry": "obs.sample_telemetry_s",
    "loadgen.idle": "loadgen.idle_s",
}

ROUTES = ("wavefront", "banded", "bitparallel", "full")

#: Every per-layer metric the traced run reports, with its unit.
METRICS = {name: "s" for name in SELF_METRICS.values()}
METRICS.update({
    "engine.run_s": "s",
    **{f"planner.route.{route}": "share" for route in ROUTES},
    "planner.demoted_share": "share",
    "buckets.count": "count",
    "buckets.fill_ratio": "ratio",
    "kernels.linear_calls": "count",
    "kernels.banded_calls": "count",
    "kernels.banded_useful_ratio": "ratio",
    "bitparallel.block_steps": "count",
    "traceback.calls": "count",
    "sharding.shards": "count",
    "sharding.transfer_bytes": "bytes",
    "supervisor.units": "count",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "bytes",
    "admission.rejected_share": "share",
    "admission.predicted_over_actual": "ratio",
    "daemon.queue_wait_s": "s",
    "daemon.backlog_end": "count",
    "obs.events_bytes": "bytes",
    "loadgen.late_p50_s": "s",
    "loadgen.late_max_s": "s",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
    "trace.offthread_share": "share",
})


# -- count hooks --------------------------------------------------------

def _count_plan(tracer, span, args, kwargs, result):
    routes, _ = result
    for route in routes:
        tracer.add(f"route.{route}")


def _count_buckets(tracer, span, args, kwargs, result):
    tracer.add("buckets.count", len(result))
    for batch in result:
        tracer.add("buckets.padded",
                   batch.size * (batch.n_max + 1) * (batch.m_max + 1))
        tracer.add("buckets.useful",
                   int(((batch.q_len + 1) * (batch.r_len + 1)).sum()))


def _engine_of_caller(tracer) -> str | None:
    """The engine name of the innermost open ``engine.run`` span."""
    for open_span in reversed(tracer.stack()):
        if open_span.name == "engine.run":
            return open_span.tag
    return None


def _count_linear(tracer, span, args, kwargs, result):
    tracer.add("kernels.linear_calls")
    if _engine_of_caller(tracer) == "auto":
        tracer.add("kernels.linear_auto_pairs", args[0].size)


def _count_banded(tracer, span, args, kwargs, result):
    batch = args[0]
    _, cells, _ = result
    tracer.add("kernels.banded_calls")
    tracer.add("kernels.band_cells", int(cells.sum()))
    tracer.add("kernels.banded_touched",
               batch.size * (batch.n_max + 1) * (batch.m_max + 1))


def _count_bitparallel(tracer, span, args, kwargs, result):
    tracer.add("bitparallel.block_steps", int(result.words.sum()))


def _count_traceback(tracer, span, args, kwargs, result):
    tracer.add("traceback.calls")


def _tag_engine(args, kwargs):
    return args[0].batch.engine


def _count_sharded(tracer, span, args, kwargs, result):
    config, batch, pairs, _ = args
    tracer.counts.setdefault("sharding.calls", []).append(
        (config, batch, pairs, result))


def _tag_supervisor(args, kwargs):
    """The job id, read off the checkpoint path the daemon passes."""
    checkpoint = kwargs.get("checkpoint_path")
    return os.path.basename(checkpoint).split(".")[0] if checkpoint \
        else None


def _count_checkpoint_write(tracer, span, args, kwargs, result):
    tracer.add("checkpoint.writes")
    tracer.add("checkpoint.bytes", os.path.getsize(result))


def _count_decide(tracer, span, args, kwargs, result):
    tracer.add("admission.decisions")
    if result is not None:
        tracer.add("admission.rejected")


def _count_price(tracer, span, args, kwargs, result):
    tracer.counts.setdefault("admission.predicted", {})[
        args[1].job_id] = result


def _count_lease(tracer, span, args, kwargs, result):
    if result is not None:
        job_id = os.path.basename(result)[:-len(".json")]
        tracer.counts.setdefault("daemon.leased", {})[job_id] = span.start


def targets() -> list[Target]:
    """The wrapper table. Imports the program, so call it after set-up."""
    from repro import api, config
    from repro.dp import traceback
    from repro.exec import (
        bitparallel,
        engine,
        kernels,
        planner,
        sharding,
        wavefront,
    )
    from repro.resilience import outcome_io, supervisor
    from repro.service import admission, daemon, protocol, spool

    table = [
        Target(api, "score_batch", "api.call"),
        Target(api, "align_batch", "api.call"),
        Target(config.AlignmentConfig, "encode", "api.encode"),
        Target(engine.BatchEngine, "run", "engine.run", tag=_tag_engine),
        Target(planner, "plan_routes", "planner.plan", _count_plan),
        Target(engine, "bucketize", "buckets.bucketize", _count_buckets),
        Target(kernels, "sweep_linear", "kernels.linear", _count_linear),
        Target(kernels, "sweep_banded", "kernels.banded", _count_banded),
        Target(wavefront, "sweep_wavefront", "wavefront.sweep"),
        Target(wavefront, "wavefront_cigar", "wavefront.cigar"),
        Target(bitparallel, "sweep_bitparallel", "bitparallel.sweep",
               _count_bitparallel),
        Target(traceback, "alignment_from_matrix", "traceback",
               _count_traceback),
        Target(engine, "alignment_from_matrix", "traceback",
               _count_traceback),
        Target(sharding, "run_sharded", "sharding.run", _count_sharded),
        Target(supervisor.SupervisedEngine, "run", "supervisor.run",
               tag=_tag_supervisor),
        Target(outcome_io, "to_document", "checkpoint"),
        Target(outcome_io, "write", "checkpoint", _count_checkpoint_write),
        Target(protocol, "load_job", "protocol.load_job"),
        Target(admission.AdmissionController, "decide", "admission.decide",
               _count_decide),
        Target(admission.AdmissionController, "price", None, _count_price),
        Target(daemon.AlignmentDaemon, "ingest", "daemon.loop"),
        Target(daemon.AlignmentDaemon, "run_next", "daemon.loop"),
        Target(daemon.AlignmentDaemon, "sample_telemetry",
               "obs.sample_telemetry"),
    ]
    for method in ("submit", "pending_jobs", "lease", "complete", "reject",
                   "fail"):
        table.append(Target(spool.JobSpool, method, "spool",
                            _count_lease if method == "lease" else None))
    return table


# -- metrics --------------------------------------------------------------

def transfer_bytes(calls) -> int:
    """Pickled bytes a sharded call ships: each shard's ``(config,
    batch, pairs)`` payload out and its results back (computed, not
    measured on the pipe)."""
    from repro.exec.sharding import shard_spans
    total = 0
    for config, batch, pairs, results in calls:
        inner = replace(batch, workers=1)
        for start, stop in shard_spans(len(pairs), batch.workers):
            total += len(pickle.dumps((config, inner, pairs[start:stop]),
                                      pickle.HIGHEST_PROTOCOL))
            total += len(pickle.dumps(results[start:stop],
                                      pickle.HIGHEST_PROTOCOL))
    return total


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, wall: float, main_thread: int, *,
              overhead_share: float, service: dict | None = None,
              ) -> tuple[dict, dict]:
    """Every per-layer metric of one traced pass, and its ledger.

    Args:
        tracer: The tracer after the pass (wrappers removed).
        wall: Traced wall (main thread) the ledger must account for.
        overhead_share: Extra wall the wrappers cost, as a share of
            the same work's untraced wall.
        service: Service-loop facts the load generator measured:
            ``submitted`` (job id -> submit time), ``backlog_end``,
            ``events_bytes`` and ``late`` (lateness samples).
    """
    spans = [span for span in tracer.spans if span.end is not None]
    book = ledger(spans, wall, main_thread)
    counts = tracer.counts
    metrics = {metric: book["self"].get(name, 0.0)
               for name, metric in SELF_METRICS.items()}
    metrics["engine.run_s"] = book["inclusive"].get("engine.run", 0.0)
    planned = sum(counts.get(f"route.{route}", 0) for route in ROUTES)
    for route in ROUTES:
        metrics[f"planner.route.{route}"] = _ratio(
            counts.get(f"route.{route}", 0), planned)
    demoted = counts.get("kernels.linear_auto_pairs", 0) \
        - counts.get("route.full", 0)
    metrics["planner.demoted_share"] = _ratio(max(0, demoted), planned)
    metrics["buckets.count"] = counts.get("buckets.count", 0)
    metrics["buckets.fill_ratio"] = _ratio(counts.get("buckets.useful", 0),
                                           counts.get("buckets.padded", 0))
    metrics["kernels.linear_calls"] = counts.get("kernels.linear_calls", 0)
    metrics["kernels.banded_calls"] = counts.get("kernels.banded_calls", 0)
    metrics["kernels.banded_useful_ratio"] = _ratio(
        counts.get("kernels.band_cells", 0),
        counts.get("kernels.banded_touched", 0))
    metrics["bitparallel.block_steps"] = counts.get(
        "bitparallel.block_steps", 0)
    metrics["traceback.calls"] = counts.get("traceback.calls", 0)
    from repro.exec.sharding import shard_spans
    calls = counts.get("sharding.calls", [])
    metrics["sharding.shards"] = sum(
        len(shard_spans(len(pairs), batch.workers))
        for _, batch, pairs, _ in calls)
    metrics["sharding.transfer_bytes"] = transfer_bytes(calls)
    supervised = [span for span in spans if span.name == "supervisor.run"]
    metrics["supervisor.units"] = sum(
        1 for span in spans if span.name == "engine.run" and any(
            run.start <= span.start <= run.end for run in supervised))
    metrics["checkpoint.writes"] = counts.get("checkpoint.writes", 0)
    metrics["checkpoint.bytes"] = counts.get("checkpoint.bytes", 0)
    metrics["admission.rejected_share"] = _ratio(
        counts.get("admission.rejected", 0),
        counts.get("admission.decisions", 0))
    service = service or {}
    predicted = counts.get("admission.predicted", {})
    actual = {span.tag: span.duration for span in spans
              if span.name == "supervisor.run" and span.tag}
    ratios = [predicted[job] / actual[job] for job in actual
              if job in predicted and actual[job] > 0]
    metrics["admission.predicted_over_actual"] = \
        statistics.median(ratios) if ratios else 0.0
    leased = counts.get("daemon.leased", {})
    submitted = service.get("submitted", {})
    waits = [leased[job] - submitted[job] for job in leased
             if job in submitted]
    metrics["daemon.queue_wait_s"] = statistics.median(waits) \
        if waits else 0.0
    metrics["daemon.backlog_end"] = service.get("backlog_end", 0)
    metrics["obs.events_bytes"] = service.get("events_bytes", 0)
    late = service.get("late", [])
    metrics["loadgen.late_p50_s"] = statistics.median(late) if late else 0.0
    metrics["loadgen.late_max_s"] = max(late) if late else 0.0
    metrics["trace.overhead_share"] = overhead_share
    metrics["trace.unattributed_share"] = _ratio(book["unattributed"], wall)
    metrics["trace.offthread_share"] = _ratio(book["offthread"], wall)
    return metrics, book
