"""Batched alignment engine: scalar loop or vectorized NumPy kernels.

:class:`BatchEngine` runs many independent (query, reference) pairs
through one alignment configuration. The ``scalar`` engine simply loops
the existing per-pair aligners. Every other engine runs one bucket loop
over a small route table: pairs are bucketed by length
(:mod:`repro.exec.buckets`) and each bucket is swept by one route --
``full`` (the batched kernels of :mod:`repro.exec.kernels`),
``wavefront`` or ``bitparallel``. A fixed engine sends every pair down
its one route; ``auto`` sends each pair down the route the planner
(:mod:`repro.exec.planner`) picks, and pairs a route demotes finish on
the full route. Results are bit-identical to a per-pair reference,
which the conformance and property suites enforce: ``vector`` and
``auto`` to the scalar aligners (scores, CIGARs, failure reasons),
``wavefront`` to ``WavefrontAligner`` and ``bitparallel`` to Myers'
edit distance.

Multi-process sharding (``BatchConfig.workers > 1``) lives in
:mod:`repro.exec.sharding`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

import numpy as np

from repro.algorithms.affine import (
    AffineAligner,
    AffineGapPenalties,
    affine_traceback,
)
from repro.algorithms.banded import BandedAligner
from repro.algorithms.base import Aligner, AlignerResult, DPStats
from repro.algorithms.full import FullAligner
from repro.algorithms.local import (
    LocalAligner,
    SemiGlobalAligner,
    _require_positive_scores,
    local_traceback,
    semiglobal_traceback,
)
from repro.algorithms.wavefront import _check_edit_model
from repro.algorithms.xdrop import XdropAligner
from repro.config import AlignmentConfig
from repro.dp.alignment import Alignment
from repro.dp.traceback import alignment_from_matrix, traceback_full
from repro.errors import AlignmentError, ConfigurationError
from repro.exec import bitparallel as bitparallel_kernel
from repro.exec import kernels, planner as planning
from repro.exec import wavefront as wavefront_kernel
from repro.exec.buckets import PairBatch, bucketize
from repro.exec.planner import PlannerPolicy
from repro.obs import Observability, get_obs
from repro.resilience import chaos
from repro.resilience.deadline import Deadline

ENGINES = ("scalar", "vector", "wavefront", "bitparallel", "auto")
MODES = ("global", "local", "semiglobal")
ALGORITHMS = ("full", "affine", "banded", "xdrop")

#: The one route each fixed vectorized engine sends every pair down.
_FIXED_ROUTES = {"vector": planning.ROUTE_FULL,
                 "wavefront": planning.ROUTE_WAVEFRONT,
                 "bitparallel": planning.ROUTE_BITPARALLEL}


@dataclass(frozen=True)
class BatchConfig:
    """How a batch of alignments is executed.

    Attributes:
        engine: ``"vector"`` (batched NumPy kernels, the default),
            ``"scalar"`` (loop the per-pair aligners), ``"wavefront"``
            (batched O(n*s) wavefront sweep; unit-cost edit model and
            global/full only, bit-identical to the scalar
            ``WavefrontAligner``), ``"bitparallel"`` (batched
            blocked-Myers bit-parallel sweep, 64 DP rows per uint64
            lane; unit-cost edit model, global/full, *score only* --
            ``traceback=True`` raises) or ``"auto"`` (the adaptive
            planner: score-only edit-model pairs route per pair to the
            wavefront, bit-parallel or full kernel; CIGAR pairs and
            other models take the full kernel; scores and CIGARs are
            bit-identical to the full vector engine).
        mode: ``"global"``, ``"local"`` or ``"semiglobal"``; the latter
            two require ``algorithm="full"``.
        algorithm: ``"full"``, ``"affine"``, ``"banded"`` or
            ``"xdrop"`` (global mode only for the last three).
        traceback: Produce full alignments (CIGARs) instead of scores.
        workers: Shard across this many worker processes when > 1.
        bucket_granularity: Length rounding for bucket keys.
        max_batch_cells: Cap on resident DP cells per vectorized
            traceback chunk (bounds memory for full-matrix mode).
        band_width / band_fraction: Banded half-width (exactly one).
        xdrop / xdrop_fraction: X-drop threshold (exactly one).
        affine_penalties: Gap parameters for ``algorithm="affine"``.
        deadline_s: Cooperative per-call budget: the engine checks the
            clock between buckets (vector) / pairs (scalar) and raises
            :class:`~repro.errors.DeadlineExceeded` once it expires.
            For partial results instead of a raise, run through the
            supervised layer (:mod:`repro.resilience`).
        wide_dtype: Force the vectorized kernels onto full-width int64
            rows, bypassing the int-narrowed fast path (the
            degradation ladder sets this after a range/overflow trip).
        wavefront_max_score: Distance cap of the ``"wavefront"``
            engine's sweep; pairs whose edit distance exceeds it fall
            back to the full vector kernel (the scalar aligner raises
            instead). ``None`` never caps.
        planner: Routing policy of the ``"auto"`` engine; ``None``
            uses :class:`~repro.exec.planner.PlannerPolicy` defaults.
    """

    engine: str = "vector"
    mode: str = "global"
    algorithm: str = "full"
    traceback: bool = True
    workers: int = 1
    bucket_granularity: int = 16
    max_batch_cells: int = 8_000_000
    band_width: int | None = None
    band_fraction: float | None = None
    xdrop: int | None = None
    xdrop_fraction: float | None = None
    affine_penalties: AffineGapPenalties | None = None
    deadline_s: float | None = None
    wide_dtype: bool = False
    wavefront_max_score: int | None = None
    planner: PlannerPolicy | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; choose from "
                f"{ALGORITHMS}")
        if self.mode != "global" and self.algorithm != "full":
            raise ConfigurationError(
                f"mode {self.mode!r} only supports algorithm='full', "
                f"got {self.algorithm!r}")
        if self.algorithm == "banded" and \
                (self.band_width is None) == (self.band_fraction is None):
            raise ConfigurationError(
                "banded batches need exactly one of band_width / "
                "band_fraction")
        if self.algorithm == "xdrop" and \
                (self.xdrop is None) == (self.xdrop_fraction is None):
            raise ConfigurationError(
                "xdrop batches need exactly one of xdrop / xdrop_fraction")
        if self.algorithm == "affine" and self.affine_penalties is None:
            raise ConfigurationError(
                "algorithm='affine' needs affine_penalties")
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}")
        if self.max_batch_cells < 1:
            raise ConfigurationError(
                f"max_batch_cells must be >= 1, got {self.max_batch_cells}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be > 0 seconds, got {self.deadline_s}")
        if self.engine in ("wavefront", "bitparallel", "auto"):
            if self.mode != "global" or self.algorithm != "full":
                raise ConfigurationError(
                    f"engine {self.engine!r} supports mode='global' with "
                    f"algorithm='full' only, got mode={self.mode!r}, "
                    f"algorithm={self.algorithm!r}")
        if self.engine == "bitparallel" and self.traceback:
            raise ConfigurationError(
                "engine 'bitparallel' is score-only (the bit vectors "
                "carry no path state); set traceback=False or use "
                "engine='wavefront' / 'auto' for CIGARs")
        if self.wavefront_max_score is not None and \
                self.wavefront_max_score < 1:
            raise ConfigurationError(
                "wavefront_max_score must be >= 1, got "
                f"{self.wavefront_max_score}")


def make_scalar_aligner(batch: BatchConfig) -> Aligner:
    """The per-pair aligner a batch configuration corresponds to."""
    if batch.mode == "local":
        return LocalAligner()
    if batch.mode == "semiglobal":
        return SemiGlobalAligner()
    if batch.algorithm == "full":
        return FullAligner()
    if batch.algorithm == "affine":
        return AffineAligner(batch.affine_penalties)
    if batch.algorithm == "banded":
        return BandedAligner(width=batch.band_width,
                             fraction=batch.band_fraction)
    return XdropAligner(xdrop=batch.xdrop, fraction=batch.xdrop_fraction)


@contextlib.contextmanager
def _tag_pair(index: int):
    """Stamp the batch position onto heuristic AlignmentErrors so the
    supervised layer can quarantine the one poison pair instead of
    bisecting the whole shard."""
    try:
        yield
    except AlignmentError as exc:
        if exc.pair_index is None:
            exc.pair_index = index
        raise


def _as_pairs(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    coerced = []
    for q_codes, r_codes in pairs:
        coerced.append((np.asarray(q_codes, dtype=np.uint8),
                        np.asarray(r_codes, dtype=np.uint8)))
    return coerced


class BatchEngine:
    """Executes batches of pairwise alignments under one scoring model.

    Args:
        config: The alignment problem (alphabet + scoring model).
        batch: Execution policy; defaults to the vector engine with
            tracebacks in global/full mode.
        obs: Observability context; defaults to the process-global one.
    """

    def __init__(self, config: AlignmentConfig,
                 batch: BatchConfig | None = None,
                 obs: Observability | None = None) -> None:
        self.config = config
        self.batch = batch or BatchConfig()
        self.obs = obs or get_obs()

    # -- public entry point ------------------------------------------------

    def run(self, pairs) -> list[AlignerResult]:
        """Align every (query_codes, reference_codes) pair.

        Results come back in submission order regardless of bucketing
        or sharding. An empty request returns an empty list.
        """
        pairs = _as_pairs(pairs)
        if not pairs:
            return []
        batch = self.batch
        deadline = Deadline.after(batch.deadline_s)
        events = self.obs.events
        if events.enabled:
            events.emit("batch_start", engine=batch.engine,
                        mode=batch.mode, algorithm=batch.algorithm,
                        traceback=batch.traceback, pairs=len(pairs))
        started = time.perf_counter()
        sharded = batch.workers > 1 and len(pairs) > 1
        # A sharded parent mostly *waits* on the pool, so its phase
        # lives outside the ``exec`` subtree CostModel calibrates from;
        # the workers' own ``exec.*`` stacks merge in with the real
        # compute time.
        phase_name = "sharding.pool" if sharded else f"exec.{batch.engine}"
        with self.obs.tracer.host_span(
                "exec.run", engine=batch.engine, mode=batch.mode,
                algorithm=batch.algorithm, pairs=len(pairs)), \
                self.obs.profiler.phase(phase_name):
            if sharded:
                from repro.exec.sharding import run_sharded
                results = run_sharded(self.config, batch, pairs, self.obs)
            else:
                if batch.engine == "scalar":
                    results = self._run_scalar(pairs, deadline)
                else:
                    results = self._run_routed(pairs, deadline)
                # Fault-injection hook: a no-op unless a chaos plan is
                # active for this execution. Sharded runs inject inside
                # each worker's inline engine instead.
                chaos.apply_to_results(pairs, results)
        elapsed = time.perf_counter() - started
        if not sharded:
            # Sharded runs report per shard (worker snapshots merge
            # into this registry), so the parent skips batch-level
            # counters to keep exec.pairs an exactly-once total.
            metrics = self.obs.metrics
            metrics.counter("exec.pairs",
                            engine=batch.engine).inc(len(pairs))
            metrics.counter("exec.batches", engine=batch.engine).inc()
            if elapsed > 0:
                metrics.distribution(
                    "exec.pairs_per_sec",
                    engine=batch.engine).observe(len(pairs) / elapsed)
            metrics.distribution(
                "exec.batch_latency_us",
                engine=batch.engine).observe(elapsed * 1e6)
            if metrics.enabled:
                # Per-pair work distribution: cells_computed is derived
                # from sequence lengths, never sampled, so the digest
                # merged from sharded workers is reproducible and its
                # percentiles match an offline pass over the union.
                cells_dist = metrics.distribution("exec.pair_cells",
                                                  engine=batch.engine)
                for result in results:
                    if result is not None:
                        cells_dist.observe(result.stats.cells_computed)
        if events.enabled:
            events.emit("batch_end", engine=batch.engine,
                        pairs=len(pairs), elapsed_s=round(elapsed, 6))
        return results

    # -- work accounting ---------------------------------------------------

    def _latency_instruments(self, engine: str):
        """The (bucket, pair) latency distributions for one engine."""
        metrics = self.obs.metrics
        return (metrics.distribution("exec.bucket_latency_us",
                                     engine=engine),
                metrics.distribution("exec.pair_latency_us",
                                     engine=engine))

    @staticmethod
    def _observe_bucket_latency(bucket_lat, pair_lat, started: float,
                                size: int) -> None:
        """Record one bucket's wall time and its amortized per-pair
        latency (weighted by pair count so merged percentiles stay
        consistent with pair totals)."""
        elapsed_us = (time.perf_counter() - started) * 1e6
        bucket_lat.observe(elapsed_us)
        if size > 0:
            pair_lat.observe(elapsed_us / size, count=size)

    def _account(self, cells: int, itemsize: int,
                 nbytes: int | None = None) -> None:
        """Attribute deterministic work units to the open profiler
        phase *and* the metric counters with one number, so flamegraph
        totals reconcile exactly with ``exec.cells``. ``nbytes``
        overrides the ``cells * itemsize`` default for kernels whose
        traffic is not proportional to cells (the bit-parallel sweep
        moves 3 words per 64-cell block step)."""
        if nbytes is None:
            nbytes = cells * itemsize
        self.obs.profiler.work(cells=cells, bytes_moved=nbytes)
        engine = self.batch.engine
        self.obs.metrics.counter("exec.cells", engine=engine).inc(cells)
        self.obs.metrics.counter("exec.bytes_moved",
                                 engine=engine).inc(nbytes)

    # -- scalar path -------------------------------------------------------

    def _run_scalar(self, pairs,
                    deadline: Deadline = Deadline.unbounded(),
                    ) -> list[AlignerResult]:
        aligner = make_scalar_aligner(self.batch)
        model = self.config.model
        batch = self.batch
        observing = self.obs.enabled
        label = batch.mode if batch.mode != "global" else batch.algorithm
        events = self.obs.events
        stride = max(1, min(64, len(pairs) // 8 or 1))
        latency = self.obs.metrics.distribution("exec.pair_latency_us",
                                                engine="scalar")
        clock = time.perf_counter
        results = []
        for index, (q_codes, r_codes) in enumerate(pairs):
            deadline.check("scalar batch")
            pair_started = clock()
            with _tag_pair(index), \
                    self.obs.profiler.phase(f"pair.{label}"):
                if batch.traceback:
                    result = aligner.align(q_codes, r_codes, model)
                else:
                    result = aligner.compute_score(q_codes, r_codes, model)
                if observing:
                    self._account(result.stats.cells_computed, 8)
            latency.observe((clock() - pair_started) * 1e6)
            results.append(result)
            if events.enabled and (index + 1) % stride == 0:
                events.emit("progress", engine="scalar",
                            done=index + 1, total=len(pairs))
        return results

    # -- routed path: every engine but scalar ------------------------------

    def _run_routed(self, pairs,
                    deadline: Deadline) -> list[AlignerResult]:
        """Sweep every pair through the route table, bucket by bucket.

        A fixed engine sends every pair down its one route; ``auto``
        sends each pair down the route the planner picks. Each bucket's
        index is mapped back to submission positions before its route
        runs, so results land -- and pair errors are tagged -- at the
        position the caller submitted. Positions a route demotes run on
        the full route, which the loop visits last.
        """
        batch = self.batch
        model = self.config.model
        if batch.mode == "local":
            _require_positive_scores(model)
        if batch.engine == "wavefront":
            _check_edit_model(model)
        elif batch.engine == "bitparallel":
            _check_edit_model(model, "engine 'bitparallel'")
        if batch.engine == "auto":
            routes, caps = self._plan(pairs)
        else:
            routes = [_FIXED_ROUTES[batch.engine]] * len(pairs)
            caps = None
        sweeps = {
            planning.ROUTE_WAVEFRONT: functools.partial(
                self._sweep_wavefront, caps=caps),
            planning.ROUTE_BITPARALLEL: self._sweep_bitparallel,
            planning.ROUTE_FULL: self._sweep_full,
        }
        metrics, events = self.obs.metrics, self.obs.events
        bucket_lat, pair_lat = self._latency_instruments(batch.engine)
        results: list[AlignerResult | None] = [None] * len(pairs)
        demoted: list[int] = []
        done = 0
        for route, sweep in sweeps.items():
            positions = [p for p, planned in enumerate(routes)
                         if planned == route]
            if route == planning.ROUTE_FULL:
                positions += demoted
            if not positions:
                continue
            index = np.asarray(positions, dtype=np.int64)
            for bucket in bucketize([pairs[p] for p in positions],
                                    batch.bucket_granularity):
                deadline.check(f"{batch.engine} batch")
                bucket.index = index[bucket.index]
                metrics.distribution(
                    "exec.bucket_fill").observe(bucket.fill_ratio)
                shape = f"{bucket.n_max}x{bucket.m_max}"
                bucket_started = time.perf_counter()
                with self.obs.tracer.host_span(
                        "exec.bucket", pairs=bucket.size, n=bucket.n_max,
                        m=bucket.m_max), \
                        self.obs.profiler.phase(f"bucket[{shape}]"):
                    lost = sweep(bucket, results)
                # Demoted pairs are timed again on the full route, so
                # each pair's latency is observed exactly once.
                settled = bucket.size - len(lost)
                self._observe_bucket_latency(bucket_lat, pair_lat,
                                             bucket_started, settled)
                demoted += lost
                done += settled
                if events.enabled:
                    events.emit("progress", engine=batch.engine,
                                done=done, total=len(pairs), bucket=shape)
        if demoted:
            metrics.counter("exec.plan.demoted" if batch.engine == "auto"
                            else "exec.wavefront.fallbacks"
                            ).inc(len(demoted))
        return results

    def _plan(self, pairs) -> tuple[list[str], list[int]]:
        """The planner's route for every pair, recorded as counters and
        a ``plan`` event, plus each pair's wavefront probe cap:
        ``probe_slack`` times the larger of 8 and its distance
        estimate."""
        policy = self.batch.planner or PlannerPolicy()
        with self.obs.profiler.phase("exec.plan"):
            routes, estimates = planning.plan_routes(
                pairs, self.config.model, policy,
                traceback=self.batch.traceback)
        counts = {route: routes.count(route) for route in planning.ROUTES}
        for route, count in counts.items():
            if count:
                self.obs.metrics.counter(f"exec.plan.{route}").inc(count)
        if self.obs.events.enabled:
            self.obs.events.emit("plan", pairs=len(pairs), **counts)
        caps = [policy.probe_slack * max(8, estimate)
                for estimate in estimates]
        return routes, caps

    # Routes: each sweeps one bucket, stores results at the bucket's
    # (submission) positions and returns the positions it demotes.

    def _sweep_full(self, bucket: PairBatch,
                    results: list[AlignerResult | None]) -> list[int]:
        """The full vector kernels: exact for every mode, algorithm and
        model, so nothing demotes."""
        batch = self.batch
        if batch.traceback:
            matrices_per_cell = 3 if batch.algorithm == "affine" else 1
            cells = matrices_per_cell * (bucket.n_max + 1) \
                * (bucket.m_max + 1)
            chunk = max(1, batch.max_batch_cells // cells)
            for piece in bucket.slices(chunk):
                self._vector_align(piece, results)
        else:
            self._vector_score(bucket, results)
        return []

    def _wavefront_empty(self, bucket: PairBatch,
                         results: list[AlignerResult | None]) -> None:
        """Zero-length pairs, answered exactly as the scalar
        ``WavefrontAligner``'s native empty path answers them."""
        for b, position in enumerate(bucket.index):
            n, m = int(bucket.q_len[b]), int(bucket.r_len[b])
            score = -(n + m)
            stats = DPStats(blocks=1)
            if self.batch.traceback:
                cigar = [(m, "D")] if m else ([(n, "I")] if n else [])
                alignment = Alignment(score=score, cigar=cigar,
                                      query_len=n, ref_len=m,
                                      meta={"path_cells": n + m + 1})
                results[position] = AlignerResult(
                    alignment=alignment, score=score, stats=stats)
            else:
                results[position] = AlignerResult(
                    alignment=None, score=score, stats=stats)

    def _sweep_wavefront(self, bucket: PairBatch,
                         results: list[AlignerResult | None],
                         caps: list[int] | None = None) -> list[int]:
        """Batched wavefront sweep; scores, CIGARs and stats are
        bit-identical to the scalar ``WavefrontAligner``. The distance
        cap is ``wavefront_max_score``, or under ``auto`` the largest
        probe cap in the bucket; pairs over it are demoted."""
        batch = self.batch
        if bucket.n_max == 0 or bucket.m_max == 0:
            self._wavefront_empty(bucket, results)
            return []
        cap = batch.wavefront_max_score if caps is None \
            else max(caps[p] for p in bucket.index)
        # Wavefront history is O(B * s^2); bound resident memory by the
        # worst case s ~ n + m.
        span = bucket.n_max + bucket.m_max + 1
        per_pair = span * span if batch.traceback else span
        demoted: list[int] = []
        for piece in bucket.slices(max(1, batch.max_batch_cells // per_pair)):
            with self.obs.profiler.phase("linear.wavefront"):
                sweep = wavefront_kernel.sweep_wavefront(
                    piece, self.config.model, max_score=cap,
                    keep=batch.traceback)
                if self.obs.enabled:
                    self._account(int(np.sum(sweep.cells)), 8)
            with self.obs.profiler.phase("traceback") if batch.traceback \
                    else contextlib.nullcontext():
                for b, position in enumerate(piece.index):
                    position = int(position)
                    if sweep.exceeded[b]:
                        demoted.append(position)
                        continue
                    distance = int(sweep.distance[b])
                    alignment = None
                    stored = 2 * int(sweep.peak[b])
                    if batch.traceback:
                        n, m = int(piece.q_len[b]), int(piece.r_len[b])
                        with _tag_pair(position):
                            cigar = wavefront_kernel.wavefront_cigar(
                                sweep, b, n, m)
                        alignment = Alignment(score=-distance, cigar=cigar,
                                              query_len=n, ref_len=m)
                        stored = int(sweep.stored[b])
                    stats = DPStats(cells_computed=int(sweep.cells[b]),
                                    cells_stored=stored, blocks=1)
                    results[position] = AlignerResult(
                        alignment=alignment, score=-distance, stats=stats)
        return demoted

    def _sweep_bitparallel(self, bucket: PairBatch,
                           results: list[AlignerResult | None]) -> list[int]:
        """Batched blocked-Myers bit-parallel sweep (64 DP rows per
        uint64 lane, all pairs of a bucket per NumPy op). Score-only;
        distances are bit-identical to ``myers_edit_distance`` and the
        scalar ``WavefrontAligner`` at any divergence, so nothing
        demotes."""
        if bucket.n_max == 0 or bucket.m_max == 0:
            self._wavefront_empty(bucket, results)
            return []
        n_symbols = self.config.alphabet.size
        with self.obs.profiler.phase("linear.bitparallel"):
            sweep = bitparallel_kernel.sweep_bitparallel(
                bucket, n_symbols=n_symbols)
            if self.obs.enabled:
                # Real traffic is per lane-word block step, not per
                # cell: 3 words (Eq gather + Pv/Mv read-modify-write)
                # cover 64 DP cells each.
                self._account(
                    int(np.sum(sweep.cells)), 8,
                    nbytes=bitparallel_kernel.WORDS_PER_BLOCK_STEP * 8
                    * int(np.sum(sweep.words)))
        state_words = bitparallel_kernel.WORDS_PER_BLOCK_STATE + n_symbols
        for b, position in enumerate(bucket.index):
            blocks = int(sweep.blocks[b])
            stats = DPStats(cells_computed=int(sweep.cells[b]),
                            cells_stored=blocks * state_words,
                            blocks=max(1, blocks))
            results[int(position)] = AlignerResult(
                alignment=None, score=-int(sweep.distance[b]), stats=stats)
        return []

    # Score-only kernels: rolling rows, one sweep per bucket.

    def _pair_cells(self, bucket: PairBatch) -> int:
        """Deterministic total of n*m over a bucket's true lengths."""
        return int(np.sum(bucket.q_len.astype(np.int64)
                          * bucket.r_len.astype(np.int64)))

    def _kernel_phase(self, bucket: PairBatch):
        """The profiler phase labeling this batch's kernel + dtype."""
        batch = self.batch
        if batch.mode in ("local", "semiglobal") or \
                batch.algorithm == "full":
            kind = batch.mode if batch.mode != "global" else "global"
            dtype = kernels.linear_dtype(
                self.config.model, bucket.q.shape[1], bucket.r.shape[1],
                batch.wide_dtype)
            return self.obs.profiler.phase(
                f"linear.{kind}[{np.dtype(dtype).name}]")
        return self.obs.profiler.phase(f"{batch.algorithm}[int64]")

    def _vector_score(self, bucket: PairBatch,
                      results: list[AlignerResult | None]) -> None:
        batch = self.batch
        model = self.config.model
        observing = self.obs.enabled
        q_len, r_len = bucket.q_len, bucket.r_len
        if batch.mode in ("local", "semiglobal") or \
                batch.algorithm == "full":
            kind = batch.mode if batch.mode != "global" else "global"
            with self._kernel_phase(bucket):
                scores = kernels.sweep_linear(
                    bucket, model, kind, keep=False,
                    force_wide=batch.wide_dtype)
                if observing:
                    dtype = kernels.linear_dtype(
                        model, bucket.q.shape[1], bucket.r.shape[1],
                        batch.wide_dtype)
                    self._account(self._pair_cells(bucket),
                                  np.dtype(dtype).itemsize)
            for b, position in enumerate(bucket.index):
                n, m = int(q_len[b]), int(r_len[b])
                stats = DPStats(cells_computed=n * m, cells_stored=m + 1,
                                blocks=1)
                results[position] = AlignerResult(
                    alignment=None, score=int(scores[b]), stats=stats)
        elif batch.algorithm == "affine":
            with self._kernel_phase(bucket):
                scores = kernels.sweep_affine(bucket, model,
                                              batch.affine_penalties,
                                              keep=False)
                if observing:
                    self._account(3 * self._pair_cells(bucket), 8)
            for b, position in enumerate(bucket.index):
                n, m = int(q_len[b]), int(r_len[b])
                stats = DPStats(cells_computed=3 * n * m,
                                cells_stored=3 * (m + 1), blocks=1)
                results[position] = AlignerResult(
                    alignment=None, score=int(scores[b]), stats=stats)
        elif batch.algorithm == "banded":
            with self._kernel_phase(bucket):
                scores, cells, widths = kernels.sweep_banded(
                    bucket, model, batch.band_width, batch.band_fraction,
                    keep=False)
                if observing:
                    self._account(int(np.sum(cells)), 8)
            for b, position in enumerate(bucket.index):
                stats = DPStats(cells_computed=int(cells[b]),
                                cells_stored=int(widths[b]), blocks=1)
                failed = int(scores[b]) <= kernels.PRUNE_FLOOR
                results[position] = AlignerResult(
                    alignment=None,
                    score=None if failed else int(scores[b]),
                    stats=stats, failed=failed,
                    failure_reason="band too narrow" if failed else "")
        else:  # xdrop
            with self._kernel_phase(bucket):
                scores, cells, widths, failed = kernels.sweep_xdrop(
                    bucket, model, batch.xdrop, batch.xdrop_fraction,
                    keep=False)
                if observing:
                    self._account(int(np.sum(cells)), 8)
            for b, position in enumerate(bucket.index):
                stats = DPStats(cells_computed=int(cells[b]),
                                cells_stored=int(widths[b]), blocks=1)
                bad = bool(failed[b])
                results[position] = AlignerResult(
                    alignment=None, score=None if bad else int(scores[b]),
                    stats=stats, failed=bad,
                    failure_reason="alignment dropped" if bad else "")

    # Traceback kernels: full matrices per chunk, then the *shared*
    # scalar traceback over each pair's true-size slice.

    def _vector_align(self, bucket: PairBatch,
                      results: list[AlignerResult | None]) -> None:
        batch = self.batch
        model = self.config.model
        observing = self.obs.enabled
        profiler = self.obs.profiler
        q_len, r_len = bucket.q_len, bucket.r_len

        def pair_view(b: int) -> tuple[np.ndarray, np.ndarray, int, int]:
            n, m = int(q_len[b]), int(r_len[b])
            return bucket.q[b, :n], bucket.r[b, :m], n, m

        if batch.mode in ("local", "semiglobal") or \
                batch.algorithm == "full":
            kind = batch.mode if batch.mode != "global" else "global"
            with self._kernel_phase(bucket):
                matrices = kernels.sweep_linear(
                    bucket, model, kind, keep=True,
                    force_wide=batch.wide_dtype)
                if observing:
                    self._account(self._pair_cells(bucket),
                                  matrices.dtype.itemsize)
            with profiler.phase("traceback"):
                for b, position in enumerate(bucket.index):
                    q_codes, r_codes, n, m = pair_view(b)
                    matrix = matrices[b, :n + 1, :m + 1]
                    with _tag_pair(position):
                        if kind == "global":
                            alignment = alignment_from_matrix(
                                matrix, q_codes, r_codes, model)
                        elif kind == "local":
                            alignment = local_traceback(matrix, q_codes,
                                                        r_codes, model)
                        else:
                            alignment = semiglobal_traceback(
                                matrix, q_codes, r_codes, model)
                    stats = DPStats(cells_computed=n * m,
                                    cells_stored=n * m, blocks=1)
                    results[position] = AlignerResult(
                        alignment=alignment, score=alignment.score,
                        stats=stats)
        elif batch.algorithm == "affine":
            with self._kernel_phase(bucket):
                h, e, f = kernels.sweep_affine(bucket, model,
                                               batch.affine_penalties,
                                               keep=True)
                if observing:
                    self._account(3 * self._pair_cells(bucket), 8)
            with profiler.phase("traceback"):
                for b, position in enumerate(bucket.index):
                    q_codes, r_codes, n, m = pair_view(b)
                    with _tag_pair(position):
                        alignment = affine_traceback(
                            h[b, :n + 1, :m + 1], e[b, :n + 1, :m + 1],
                            f[b, :n + 1, :m + 1], q_codes, r_codes, model,
                            batch.affine_penalties)
                    stats = DPStats(cells_computed=3 * n * m,
                                    cells_stored=3 * n * m, blocks=1)
                    results[position] = AlignerResult(
                        alignment=alignment, score=alignment.score,
                        stats=stats)
        elif batch.algorithm == "banded":
            with self._kernel_phase(bucket):
                matrices, cells, widths = kernels.sweep_banded(
                    bucket, model, batch.band_width, batch.band_fraction,
                    keep=True)
                if observing:
                    self._account(int(np.sum(cells)), 8)
            with profiler.phase("traceback"):
                for b, position in enumerate(bucket.index):
                    q_codes, r_codes, n, m = pair_view(b)
                    stats = DPStats(cells_computed=int(cells[b]),
                                    cells_stored=int(cells[b]), blocks=1)
                    score = int(matrices[b, n, m])
                    if score <= kernels.PRUNE_FLOOR:
                        results[position] = AlignerResult(
                            alignment=None, score=None, stats=stats,
                            failed=True,
                            failure_reason="band excluded (n, m)")
                        continue
                    results[position] = _heuristic_traceback(
                        matrices[b, :n + 1, :m + 1], q_codes, r_codes,
                        model, score, stats)
        else:  # xdrop
            with self._kernel_phase(bucket):
                matrices, cells, widths, failed = kernels.sweep_xdrop(
                    bucket, model, batch.xdrop, batch.xdrop_fraction,
                    keep=True)
                if observing:
                    self._account(int(np.sum(cells)), 8)
            with profiler.phase("traceback"):
                for b, position in enumerate(bucket.index):
                    q_codes, r_codes, n, m = pair_view(b)
                    stats = DPStats(cells_computed=int(cells[b]),
                                    cells_stored=int(cells[b]), blocks=1)
                    if failed[b]:
                        results[position] = AlignerResult(
                            alignment=None, score=None, stats=stats,
                            failed=True, failure_reason="alignment dropped")
                        continue
                    results[position] = _heuristic_traceback(
                        matrices[b, :n + 1, :m + 1], q_codes, r_codes,
                        model, int(matrices[b, n, m]), stats)


def _heuristic_traceback(matrix: np.ndarray, q_codes: np.ndarray,
                         r_codes: np.ndarray, model, score: int,
                         stats: DPStats) -> AlignerResult:
    """Banded/X-drop traceback with the same failure semantics as the
    scalar aligners (a pruned path surfaces as a failed result)."""
    try:
        cigar, path = traceback_full(matrix, q_codes, r_codes, model)
    except AlignmentError as exc:
        return AlignerResult(alignment=None, score=score, stats=stats,
                             failed=True, failure_reason=str(exc))
    alignment = Alignment(score=score, cigar=cigar, query_len=len(q_codes),
                          ref_len=len(r_codes),
                          meta={"path_cells": len(path)})
    return AlignerResult(alignment=alignment, score=score, stats=stats)
