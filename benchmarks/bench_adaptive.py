"""Adaptive planner: identity sweep of ``engine="auto"`` (E18).

Measures the repository's own software speed, like
``bench_batch_engine``: wall-clock throughput of ``repro.exec`` with
the adaptive planner (``engine="auto"``) against the fixed full-vector
engine, across a sweep of per-base identities on a synthetic long-read
batch. Near-identical pairs ride the batched wavefront kernel (work
scales with edit distance, not matrix area), so the planner's win
grows with identity; divergent pairs ride the bit-parallel kernel
(O(n*m / 64) at any divergence). Results are bit-identical by the
conformance suite, so this benchmark only records speed.

The headline metric -- the score-mode speedup on the >= 95%-identity
batch -- is appended to ``results/BENCH_HISTORY.json`` under the same
``engine.adaptive.identity95.speedup`` name ``repro bench`` uses, so
the regression gate sees one continuous series.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import format_table, results_dir
from repro.config import dna_edit_config
from repro.exec import BatchConfig, BatchEngine
from repro.exec.planner import ROUTES, PlannerPolicy, plan_routes
from repro.obs import bench
from repro.workloads.synthetic import ErrorProfile, mutate

LENGTH = 1024
BASE_PAIRS = 64
BASE_SCALE = 0.2

#: Per-base error rates of the sweep; identity is ``1 - error``. The
#: 0.05 row (95% identity) carries the acceptance floor.
ERRORS = (0.02, 0.05, 0.10, 0.25, 0.45)
FLOOR_ERROR = 0.05


def _make_pairs(config, n_pairs: int, length: int, error: float,
                seed: int = 13):
    rng = np.random.default_rng(seed)
    profile = ErrorProfile(substitution=0.5 * error,
                           insertion=0.25 * error,
                           deletion=0.25 * error)
    pairs = []
    for _ in range(n_pairs):
        reference = config.alphabet.random(length, rng)
        query, _ = mutate(reference, profile, config.alphabet, rng)
        pairs.append((query, reference))
    return pairs


def _timed_run(config, batch, pairs, repeats: int = 2):
    engine = BatchEngine(config, batch)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        results = engine.run(pairs)
        best = min(best, time.perf_counter() - started)
    assert len(results) == len(pairs)
    return best, len(pairs) / best


def experiment(scale: float):
    n_pairs = max(8, round(BASE_PAIRS * scale / BASE_SCALE))
    config = dna_edit_config()
    policy = PlannerPolicy()
    rows = []
    timing_rows = []
    sweep = []
    for error in ERRORS:
        pairs = _make_pairs(config, n_pairs, LENGTH, error)
        routes, _ = plan_routes(pairs, config.model, policy,
                                traceback=False)
        mix = {route: routes.count(route) for route in ROUTES}
        rates = {}
        for engine_name in ("vector", "auto"):
            batch = BatchConfig(engine=engine_name, mode="global",
                                traceback=False)
            elapsed, rate = _timed_run(config, batch, pairs)
            rates[engine_name] = rate
            timing_rows.append({
                "name": f"identity{100 - round(100 * error)}-{engine_name}",
                "engine": engine_name, "error": error,
                "pairs": n_pairs, "length": LENGTH,
                "elapsed_s": elapsed, "pairs_per_sec": rate,
            })
        speedup = rates["auto"] / rates["vector"]
        sweep.append({"identity": 1.0 - error, "routes": mix,
                      "speedup": speedup})
        rows.append([f"{100 * (1 - error):.0f}%",
                     "/".join(str(mix[route]) for route in ROUTES),
                     f"{rates['vector']:,.1f}", f"{rates['auto']:,.1f}",
                     f"{speedup:.1f}x"])
    sections = [format_table(
        ["identity", "routes wavefront/bitparallel/full",
         "vector pairs/s", "auto pairs/s", "speedup"],
        rows,
        title="Adaptive planner -- auto over fixed vector (score mode)")]
    headline = next(entry["speedup"] for entry, error
                    in zip(sweep, ERRORS) if error == FLOOR_ERROR)
    sections.append(
        f"Headline: engine=auto is {headline:.1f}x the fixed vector "
        f"engine on {n_pairs} pairs of length {LENGTH} at 95% identity "
        "(acceptance floor: 3x). As identity drops the planner moves "
        "pairs from the wavefront to the bit-parallel kernel.")
    payload = {
        "params": {"pairs": n_pairs, "length": LENGTH,
                   "errors": list(ERRORS)},
        "timings": timing_rows,
        "tables": {"identity_sweep": sweep},
    }
    return "bench_adaptive", sections, payload


def test_adaptive_planner(run_experiment, scale):
    result = run_experiment(experiment, scale)
    sweep = result[2]["tables"]["identity_sweep"]
    by_identity = {round(entry["identity"], 2): entry for entry in sweep}
    floor_row = by_identity[round(1.0 - FLOOR_ERROR, 2)]
    # The acceptance floor: the planner must pay for itself decisively
    # on the near-identical long-read shape it was built for.
    assert floor_row["speedup"] >= 3.0
    # High-identity batches must actually ride the wavefront kernel.
    assert floor_row["routes"]["wavefront"] > 0
    # Feed the regression gate the same series `repro bench` records.
    import os
    history = os.path.join(results_dir(), "BENCH_HISTORY.json")
    bench.append_record(history, {
        "created": bench._now(),
        "git_sha": bench._git_sha(),
        "quick": False,
        "source": "bench_adaptive",
        "params": result[2]["params"],
        "metrics": {
            "engine.adaptive.identity95.speedup": floor_row["speedup"],
        },
    })
