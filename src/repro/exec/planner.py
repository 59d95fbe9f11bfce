"""Adaptive kernel planner: route each pair to the cheapest exact kernel.

The batch engine's ``engine="auto"`` path asks this module, per pair,
"how divergent does this pair look?" and routes it accordingly:

- **wavefront** -- score-only pairs under the unit-cost edit model up
  to ``wavefront_divergence``: the O(n + d^2) batched wavefront sweep
  touches a vanishing fraction of the DP matrix (the paper's Fig. 2
  trade-off).
- **bitparallel** -- more divergent score-only pairs under the
  unit-cost edit model: the batched blocked-Myers sweep
  (:mod:`repro.exec.bitparallel`) costs O(n*m / 64) regardless of
  divergence, so it replaces the full kernel exactly where the
  wavefront's O(n + d^2) sweep stops paying.
- **full** -- everything else: short or empty pairs, every pair that
  needs a CIGAR, and every model other than the edit model. Only
  routes that beat the full int32 kernel on some measured workload
  are kept; a banded route returns only with a band-local kernel and
  a benchmark workload on which it wins.

Divergence is estimated from a k-mer sketch: the fraction ``f`` of
shared k-mers relates to per-base identity roughly as ``f = id**k``
(each shared k-mer needs k consecutive error-free bases), so
``divergence = 1 - f**(1/k)``. The estimate is *only* a routing hint:
every route returns exact results, so a bad estimate costs time, never
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.scoring.model import ScoringModel

#: Route labels, also used as the ``exec.plan.{route}`` counter names.
ROUTE_WAVEFRONT = "wavefront"
ROUTE_BITPARALLEL = "bitparallel"
ROUTE_FULL = "full"
ROUTES = (ROUTE_WAVEFRONT, ROUTE_BITPARALLEL, ROUTE_FULL)

#: Multiplier applied to the golden-ratio constant hash of k-mers.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)

#: Sketch size cap: longer sequences keep only k-mers whose hash falls
#: under a threshold (MinHash-style *value* sampling, so a shared k-mer
#: is sampled in both sequences or in neither -- position-based
#: sampling would decorrelate under indels). Sampling only blurs the
#: divergence estimate; routing is advisory, never correctness.
_MAX_SKETCH = 512


@dataclass(frozen=True)
class PlannerPolicy:
    """Tuning knobs of the adaptive planner (safe to leave at defaults).

    Attributes:
        k: Sketch k-mer length.
        wavefront_divergence: Estimated divergence at or below which a
            score-only edit-model pair routes to the wavefront kernel;
            above it the pair takes the bit-parallel kernel.
        min_length: Pairs with ``max(n, m)`` below this go straight to
            the full kernel -- too small for routing to pay off.
        probe_slack: The wavefront sweep of an auto-routed bucket is
            capped at ``probe_slack * max(estimated distance, 8)``;
            pairs that blow the cap demote to the full kernel instead
            of sweeping O(n + m) wavefronts.
    """

    k: int = 8
    wavefront_divergence: float = 0.20
    min_length: int = 32
    probe_slack: int = 4

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"planner k must be >= 1, got {self.k}")
        if not 0.0 <= self.wavefront_divergence <= 1.0:
            raise ConfigurationError(
                "wavefront_divergence must be within [0, 1], got "
                f"{self.wavefront_divergence}")
        if self.min_length < 0:
            raise ConfigurationError(
                f"min_length must be >= 0, got {self.min_length}")
        if self.probe_slack < 1:
            raise ConfigurationError(
                f"probe_slack must be >= 1, got {self.probe_slack}")


def is_edit_model(model: ScoringModel) -> bool:
    """True when the model is the unit-cost edit model the wavefront
    kernel implements."""
    return (model.smax == 0 and model.smin == -1
            and model.gap_i == -1 and model.gap_d == -1)


def _kmer_hashes(codes: np.ndarray, k: int) -> np.ndarray:
    """Distinct k-mer hashes of one code sequence (uint64, wrapping)."""
    if len(codes) < k:
        return np.empty(0, dtype=np.uint64)
    windows = np.lib.stride_tricks.sliding_window_view(
        codes.astype(np.uint64), k)
    weights = _HASH_MULT ** np.arange(k, dtype=np.uint64)
    hashes = (windows * weights[None, :]).sum(
        axis=1, dtype=np.uint64) * _HASH_MULT
    rate = len(hashes) // _MAX_SKETCH
    if rate > 1:
        hashes = hashes[hashes < np.uint64((1 << 64) // rate)]
    return np.unique(hashes)


def estimate_divergence(q_codes: np.ndarray, r_codes: np.ndarray,
                        k: int) -> float:
    """Estimated per-base divergence of a pair from its k-mer sketch.

    Returns a value in [0, 1]; 0.0 means the sketches are identical,
    1.0 means no k-mer is shared (or a sequence is shorter than k).
    """
    q_hashes = _kmer_hashes(np.asarray(q_codes), k)
    r_hashes = _kmer_hashes(np.asarray(r_codes), k)
    denom = max(len(q_hashes), len(r_hashes))
    if denom == 0:
        return 1.0
    shared = len(np.intersect1d(q_hashes, r_hashes, assume_unique=True))
    if shared == 0:
        return 1.0
    identity = (shared / denom) ** (1.0 / k)
    return 1.0 - identity


def estimate_distance(q_codes: np.ndarray, r_codes: np.ndarray,
                      divergence: float) -> int:
    """Rough edit-distance estimate implied by a divergence estimate."""
    n, m = len(q_codes), len(r_codes)
    return abs(m - n) + int(np.ceil(divergence * min(n, m)))


def plan_routes(pairs, model: ScoringModel, policy: PlannerPolicy,
                traceback: bool = True) -> tuple[list[str], list[int]]:
    """Choose a kernel route and a distance estimate for every pair.

    Returns ``(routes, estimates)`` in submission order. Routing is
    purely advisory -- the engine demotes capped wavefront sweeps to
    the full kernel -- so estimates can be arbitrarily wrong without
    affecting scores. Only score-only (``traceback=False``) edit-model
    pairs are sketched; every other pair routes full with the
    ``n + m`` upper bound as its estimate.
    """
    routes: list[str] = []
    estimates: list[int] = []
    sketch = not traceback and is_edit_model(model)
    for q_codes, r_codes in pairs:
        n, m = len(q_codes), len(r_codes)
        if not sketch or min(n, m) == 0 or \
                max(n, m) < max(policy.min_length, policy.k):
            routes.append(ROUTE_FULL)
            estimates.append(n + m)
            continue
        divergence = estimate_divergence(q_codes, r_codes, policy.k)
        estimates.append(estimate_distance(q_codes, r_codes, divergence))
        # The bit-parallel sweep is O(n*m / 64) at *any* divergence:
        # exact where the wavefront's O(d^2) term blows up, and cheaper
        # than the full kernel always.
        routes.append(ROUTE_WAVEFRONT
                      if divergence <= policy.wavefront_divergence
                      else ROUTE_BITPARALLEL)
    return routes, estimates
