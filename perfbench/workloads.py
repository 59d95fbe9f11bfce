"""The three workloads: set-up, the measured loop, and the output check.

Each workload drives the program only through its public entry points
(``repro.api`` and ``repro.service``). Nothing here imports the program
at module level: :meth:`setup` does, so the import is part of the
measured set-up time.

Closed-loop workloads (one caller) cycle through a pool of seeded
batches until the run's seconds are up. ``service-open-loop`` submits
jobs on a seeded schedule, whatever the daemon's progress.
"""

from __future__ import annotations

import os
import statistics
import time

import inputs
import layers
from tracing import Tracer

clock = time.perf_counter


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, beyond)``: the 11th-largest sample,
    the percentile it stands at and how many samples lie beyond it.
    With 10 samples or fewer no percentile has 10 beyond it, and the
    smallest sample is returned with ``beyond = n - 1``.
    """
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    beyond = len(ordered) - 1 - index
    return ordered[index], \
        100.0 * (len(ordered) - beyond) / len(ordered), beyond


def score_mismatches(output, expected) -> int:
    """Pairs whose score differs from the reference score."""
    if len(output) != len(expected):
        return len(expected)
    return sum(got != want for got, want in zip(output, expected))


def alignment_mismatches(output, expected) -> int:
    """Pairs whose score or CIGAR differs from the reference."""
    if len(output) != len(expected):
        return len(expected)
    return sum(getattr(got, "score", None) != want.score
               or getattr(got, "cigar", None) != want.cigar
               for got, want in zip(output, expected))


class ClosedLoop:
    """One caller issuing batch calls back to back.

    The clock is read only between rounds of ``round_size`` calls, so
    every run serves whole rounds of the pool's mix.
    """

    name = ""
    round_size = 1

    def setup(self, warmup, workdir: str) -> None:
        from repro import api
        self.api = api
        self.call(warmup)

    def call(self, item):
        raise NotImplementedError

    def reference(self, item):
        raise NotImplementedError

    def pairs(self, item) -> int:
        return len(item)

    def mismatches(self, item, output, expected) -> int:
        return score_mismatches(output, expected)

    def close(self) -> None:
        pass

    def _timed(self, item, records: list, tracer: Tracer | None,
               targets) -> float:
        """One call; appends ``(item, latency, output)``."""
        if tracer is not None:
            tracer.install(targets)
        started = clock()
        try:
            output = self.call(item)
        except Exception as exc:  # noqa: BLE001 - a raise is a failed call
            print(f"call raised {type(exc).__name__}: {exc}")
            output = None
        finally:
            latency = clock() - started
            if tracer is not None:
                tracer.remove()
        records.append((item, latency, output))
        return latency

    def run(self, pool, seconds: float) -> dict:
        """The timed run: calls until ``seconds`` have passed."""
        records: list = []
        started = clock()
        index = 0
        while index % self.round_size or clock() - started < seconds:
            self._timed(pool[index % len(pool)], records, None, None)
            index += 1
        return {"records": records, "wall": clock() - started}

    def run_traced(self, pool, seconds: float, tracer: Tracer) -> dict:
        """Each batch once untraced, then once traced, until ``seconds``
        have passed; both walls cover the same calls."""
        targets = layers.targets()
        records: list = []
        untraced = traced = 0.0
        started = clock()
        index = 0
        while index % self.round_size or clock() - started < seconds:
            item = pool[index % len(pool)]
            untraced += self._timed(item, records, None, None)
            tracer.run = index
            traced += self._timed(item, records, tracer, targets)
            index += 1
        return {"records": records, "wall": traced,
                "untraced_wall": untraced}

    def check(self, records) -> dict:
        """Compare every output with the reference of its batch."""
        references: dict[int, object] = {}
        attempted = failed = mismatched = 0
        for item, _, output in records:
            size = self.pairs(item)
            attempted += size
            if output is None:
                failed += size
                continue
            key = id(item)
            if key not in references:
                references[key] = self.reference(item)
            wrong = self.mismatches(item, output, references[key])
            mismatched += wrong
            failed += wrong
        return {"attempted": attempted, "failed": failed,
                "mismatched": mismatched}

    def end_to_end(self, result: dict, check: dict) -> dict:
        latencies = [latency for _, latency, _ in result["records"]]
        value, percentile, beyond = tail(latencies)
        return {"pairs_per_s": (check["attempted"] - check["failed"])
                / result["wall"],
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": value,
                "tail": {"percentile": percentile, "beyond": beyond,
                         "samples": len(latencies)}}


class LongReadVerifyAlign(ClosedLoop):
    """A read mapper's two steps, one round at a time: score-only
    verification of long candidate pairs, then CIGARs under each scoring
    model. Items are ``(method, preset, pairs)``."""

    name = "longread-verify-align"
    round_size = 1 + len(inputs.CIGAR_PRESETS)

    def setup(self, warmup, workdir: str) -> None:
        from repro import api
        self.api = api
        for item in warmup:
            self.call(item)

    def _batch(self, item, engine: str):
        method, preset, pairs = item
        batch = self.api.score_batch if method == "score" \
            else self.api.align_batch
        return batch(pairs, preset=preset, engine=engine)

    def call(self, item):
        return self._batch(item, "auto")

    def reference(self, item):
        return self._batch(item, "vector")

    def pairs(self, item) -> int:
        return len(item[2])

    def mismatches(self, item, output, expected) -> int:
        if item[0] == "score":
            return score_mismatches(output, expected)
        return alignment_mismatches(output, expected)


class ShardedShortScore(ClosedLoop):
    name = "sharded-short-score"

    def call(self, item):
        return self.api.score_batch(item, preset="dna-gap",
                                    engine="vector", workers=2)

    def reference(self, item):
        return self.api.score_batch(item, preset="dna-gap",
                                    engine="vector")


class ServiceOpenLoop:
    """Jobs submitted on a seeded schedule to an in-process daemon built
    the way ``repro serve`` builds it."""

    name = "service-open-loop"

    def setup(self, warmup, workdir: str) -> None:
        from repro import api
        from repro.resilience import outcome_io
        from repro.service import JobSpec
        self.api, self.outcome_io, self.JobSpec = api, outcome_io, JobSpec
        self.workdir = workdir
        self.streams: list = []
        daemon, _ = self.build()
        daemon.spool.submit(JobSpec(job_id="warmup", pairs=warmup,
                                    config="dna-edit", engine="vector",
                                    tenant="a"))
        daemon.ingest()
        daemon.run_next()
        daemon.sample_telemetry()

    def build(self):
        """A fresh spool and daemon, configured as ``repro serve``'s
        defaults configure them."""
        from repro import obs
        from repro.obs.timeseries import TimeSeriesStore
        from repro.service import AdmissionPolicy, AlignmentDaemon, JobSpool
        root = os.path.join(self.workdir, f"spool{len(self.streams)}")
        spool = JobSpool(root)
        stream = obs.events.open_jsonl(os.path.join(root, "events.jsonl"))
        self.streams.append(stream)
        daemon = AlignmentDaemon(
            spool, obs=obs.Observability.enabled_context(events=stream),
            policy=AdmissionPolicy(), max_unit_pairs=32,
            telemetry=TimeSeriesStore(interval_s=1.0, retention=240),
            telemetry_path=os.path.join(root, "telemetry.json"),
            metrics_path=os.path.join(root, "metrics.prom"))
        return daemon, root

    def close(self) -> None:
        for stream in self.streams:
            stream.close()

    def _pass(self, schedule, pool, seconds: float,
              tracer: Tracer | None) -> dict:
        """Serve one schedule: submit every job now due, ingest, run
        one job, sample telemetry; sleep until the next due time when
        there is nothing to do. Ends when every job has settled."""
        daemon, root = self.build()
        done = os.path.join(root, "done")
        targets = layers.targets() if tracer is not None else None
        jobs = {job["job_id"]: dict(job) for job in schedule}
        order = list(jobs)
        outstanding: list[str] = []
        submitted = 0
        idle = 0.0
        backlog_end = None
        give_up = seconds + 60.0
        if tracer is not None:
            tracer.install(targets)
        start = clock()
        try:
            while True:
                now = clock()
                while submitted < len(order) and \
                        start + jobs[order[submitted]]["due"] <= now:
                    job = jobs[order[submitted]]
                    daemon.spool.submit(self.JobSpec(
                        job_id=job["job_id"],
                        pairs=pool[job["tenant"]][job["payload"]],
                        config=job["config"], engine="vector",
                        tenant=job["tenant"],
                        deadline_s=job["deadline_s"]))
                    job["submitted"] = clock()
                    outstanding.append(job["job_id"])
                    submitted += 1
                daemon.ingest()
                ran = daemon.run_next()
                settled_at = clock()
                daemon.sample_telemetry()
                for job_id in list(outstanding):
                    if os.path.exists(os.path.join(done, f"{job_id}.json")):
                        jobs[job_id]["settled"] = settled_at
                        outstanding.remove(job_id)
                now = clock()
                if backlog_end is None and now - start >= seconds:
                    backlog_end = len(outstanding) + len(order) - submitted
                if submitted == len(order) and not outstanding:
                    break
                if now - start > give_up:
                    break
                if not ran and submitted < len(order) and not outstanding:
                    pause = start + jobs[order[submitted]]["due"] - now
                    if pause > 0:
                        span = tracer.open("loadgen.idle") \
                            if tracer is not None else None
                        time.sleep(pause)
                        if span is not None:
                            tracer.close(span)
                        idle += pause
        finally:
            if tracer is not None:
                tracer.remove()
        wall = clock() - start
        return {"jobs": jobs, "root": root, "wall": wall, "idle": idle,
                "start": start, "backlog_end": backlog_end or 0,
                "events_bytes": os.path.getsize(
                    os.path.join(root, "events.jsonl"))}

    def run(self, pool, schedule, seconds: float) -> dict:
        return self._pass(schedule, pool, seconds, None)

    def run_traced(self, pool, schedule, seconds: float,
                   tracer: Tracer) -> tuple[dict, dict]:
        """The first half of the schedule, served untraced and then
        traced on a fresh daemon."""
        half = [job for job in schedule if job["due"] < seconds / 2]
        untraced = self._pass(half, pool, seconds / 2, None)
        traced = self._pass(half, pool, seconds / 2, tracer)
        return untraced, traced

    def check(self, result: dict, pool) -> dict:
        """Every settled job's scores and CIGARs against the reference;
        rejected, failed, unsettled and late jobs count as failed."""
        references: dict = {}
        attempted = failed = mismatched = 0
        done = os.path.join(result["root"], "done")
        for job_id, job in result["jobs"].items():
            attempted += 1
            outcome_path = os.path.join(done, f"{job_id}.outcome.json")
            if "settled" not in job or not os.path.exists(outcome_path):
                failed += 1
                continue
            key = (job["tenant"], job["payload"])
            if key not in references:
                references[key] = self.api.align_batch(
                    pool[job["tenant"]][job["payload"]],
                    preset=job["config"], engine="vector")
            outcome = self.outcome_io.load(outcome_path).outcome
            output = [result_.alignment if result_ is not None else None
                      for result_ in outcome.results]
            wrong = alignment_mismatches(output, references[key])
            late = job["deadline_s"] is not None and \
                job["settled"] - (result["start"] + job["due"]) \
                > job["deadline_s"]
            if wrong:
                mismatched += 1
            if wrong or late or outcome.failures:
                failed += 1
        return {"attempted": attempted, "failed": failed,
                "mismatched": mismatched}

    def end_to_end(self, result: dict, check: dict) -> dict:
        jobs = [job for job in result["jobs"].values() if "settled" in job]
        latencies = [job["settled"] - (result["start"] + job["due"])
                     for job in jobs]
        value, percentile, beyond = tail(latencies)
        # While the daemon keeps up, pairs per second of wall only
        # restates the arrival rate; per second of busy wall (the wall
        # minus the loop's idle sleeps) it measures the service.
        good = check["attempted"] - check["failed"]
        return {"pairs_per_s": good * inputs.SERVICE_PAIRS
                / (result["wall"] - result["idle"]),
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": value,
                "tail": {"percentile": percentile, "beyond": beyond,
                         "samples": len(latencies)}}

    def service_facts(self, result: dict) -> dict:
        """What the load generator measured, for the per-layer metrics."""
        jobs = result["jobs"].values()
        return {"submitted": {job["job_id"]: job["submitted"]
                              for job in jobs if "submitted" in job},
                "late": [job["submitted"] - (result["start"] + job["due"])
                         for job in jobs if "submitted" in job],
                "backlog_end": result["backlog_end"],
                "events_bytes": result["events_bytes"]}


WORKLOADS = {cls.name: cls for cls in (
    LongReadVerifyAlign, ServiceOpenLoop, ShardedShortScore)}
