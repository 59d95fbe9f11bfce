"""Seeded input generation for the three workloads (standard library only).

The program receives only the strings made here; nothing in this module
imports it, so generation is neither timed as set-up nor shifted by
changes to the program's own synthetic-data helpers.
"""

from __future__ import annotations

import random

DNA = "ACGT"
PROTEIN = "ACDEFGHIKLMNPQRSTVWY"

#: Distinct rounds, batches or job payloads per run; calls cycle through
#: them, so references are computed once per batch.
LONGREAD_ROUNDS = 2
SHARDED_BATCHES = 2
SERVICE_PAYLOADS = 6

CIGAR_PRESETS = ("dna-edit", "dna-gap", "protein")

#: Open-loop arrival rate of ``service-open-loop`` (jobs per second):
#: about 60% of the slowest rate the parent commit sustained serving the
#: same jobs back to back on a 2-core x86 container (1.05-1.1 jobs/s;
#: up to 2.4 jobs/s when the host was quiet), so that the daemon keeps
#: up whatever the host's load.
SERVICE_RATE = 0.7
SERVICE_PAIRS = 256
#: Latency budget of tenant b's jobs, from their due time.
SERVICE_DEADLINE_S = 10.0


def mutate(rng: random.Random, reference: str, identity: float,
           alphabet: str) -> str:
    """Copy ``reference`` keeping each residue with probability
    ``identity``; otherwise substitute, delete or insert, equally often."""
    out = []
    for residue in reference:
        if rng.random() < identity:
            out.append(residue)
            continue
        kind = rng.randrange(3)
        if kind == 0:
            out.append(rng.choice(alphabet.replace(residue, "")))
        elif kind == 2:
            out.append(residue)
            out.append(rng.choice(alphabet))
    return "".join(out)


def make_pair(rng: random.Random, length: int, identity: float,
              alphabet: str = DNA) -> tuple[str, str]:
    """One (query, reference) pair: a random reference of ``length``
    and a copy mutated at ``identity``."""
    reference = "".join(rng.choices(alphabet, k=length))
    return mutate(rng, reference, identity, alphabet), reference


def strata(rng: random.Random, count: int, low: float,
           high: float) -> list[float]:
    """``count`` draws from ``[low, high)``, one from each of ``count``
    equal strata, in random order. Every batch then covers its ranges
    evenly, so batches differ less from each other than independent
    draws would, while the distribution stays uniform."""
    values = [low + (high - low) * (index + rng.random()) / count
              for index in range(count)]
    rng.shuffle(values)
    return values


def batch(rng: random.Random, count: int, length: int, identity: tuple,
          alphabet: str = DNA, jitter: float = 0.1) -> list:
    """``count`` pairs of ``length`` (+-``jitter``) residues at
    identities spread over ``identity``."""
    lengths = strata(rng, count, length * (1 - jitter),
                     length * (1 + jitter))
    return [make_pair(rng, round(size), level, alphabet)
            for size, level in zip(lengths,
                                   strata(rng, count, *identity))]


def longread_batch(rng: random.Random, size: int = 64) -> list:
    """Read-mapper verification batch of ~1 kbp pairs: three quarters
    true candidates (90-99% identity), one quarter spurious (70-80%)."""
    true = size * 3 // 4
    pairs = batch(rng, true, 1000, (0.90, 0.99)) \
        + batch(rng, size - true, 1000, (0.70, 0.80))
    rng.shuffle(pairs)
    return pairs


def cigar_batch(rng: random.Random, preset: str, size: int = 16) -> list:
    """~768-residue pairs at 90-98% identity for one scoring model."""
    alphabet = PROTEIN if preset == "protein" else DNA
    return batch(rng, size, 768, (0.90, 0.98), alphabet)


def sharded_batch(rng: random.Random, size: int = 4096) -> list:
    """Short pairs of 128-256 bp at 85-99% identity."""
    lengths = strata(rng, size, 128, 257)
    return [make_pair(rng, int(length), level)
            for length, level in zip(lengths,
                                     strata(rng, size, 0.85, 0.99))]


def service_payload(rng: random.Random, size: int = SERVICE_PAIRS) -> list:
    """One job's pairs: ~150 bp at 95-99% identity."""
    return batch(rng, size, 150, (0.95, 0.99))


def service_schedule(rng: random.Random, seconds: float,
                     rate: float = SERVICE_RATE) -> list[dict]:
    """Open-loop arrivals at ``rate``: one job every ``1 / rate`` seconds
    from a seeded phase inside the first interval. Even spacing offers
    every seed the same load without bursts, so while a job is served
    faster than ``1 / rate`` no job waits behind another and a job's
    latency measures the service, not how close a seed's arrivals fell.
    The two tenants submit equally often, in seeded order; tenant a runs
    dna-edit, tenant b dna-gap with a deadline."""
    count = max(1, round(rate * seconds))
    tenants = ["ab"[index % 2] for index in range(count)]
    rng.shuffle(tenants)
    phase = rng.random()
    jobs = []
    for index, tenant in enumerate(tenants):
        jobs.append({
            "job_id": f"job-{index:05d}{tenant}",
            "due": (index + phase) / rate,
            "tenant": tenant,
            "config": "dna-edit" if tenant == "a" else "dna-gap",
            "deadline_s": SERVICE_DEADLINE_S if tenant == "b" else None,
            "payload": rng.randrange(SERVICE_PAYLOADS),
        })
    return jobs


WORKLOADS = ("longread-verify-align", "service-open-loop",
             "sharded-short-score")


def longread_round(rng: random.Random, longread_size: int = 64,
                   cigar_size: int = 16) -> list:
    """One round of ``longread-verify-align``: a score-only verification
    batch of long pairs, then one CIGAR batch per scoring model. Items
    are ``(method, preset, pairs)``."""
    return [("score", "dna-edit", longread_batch(rng, longread_size))] + [
        ("align", preset, cigar_batch(rng, preset, cigar_size))
        for preset in CIGAR_PRESETS]


def make_inputs(workload: str, seed: int, seconds: float) -> dict:
    """Every input one run of ``workload`` measures: ``pool`` (batches,
    or job payloads per tenant) and, for the service, ``schedule``. The
    same arguments give the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "longread-verify-align":
        return {"pool": [item for _ in range(LONGREAD_ROUNDS)
                         for item in longread_round(rng)]}
    if workload == "sharded-short-score":
        return {"pool": [sharded_batch(rng)
                         for _ in range(SHARDED_BATCHES)]}
    if workload == "service-open-loop":
        return {"pool": {tenant: [service_payload(rng)
                                  for _ in range(SERVICE_PAYLOADS)]
                         for tenant in "ab"},
                "schedule": service_schedule(rng, seconds)}
    raise ValueError(f"unknown workload {workload!r}")


def make_warmup(workload: str):
    """The input of the set-up's warm-up call: small, and the same for
    every seed."""
    rng = random.Random(f"{workload}:warmup")
    if workload == "longread-verify-align":
        return longread_round(rng, longread_size=4, cigar_size=2)
    if workload == "sharded-short-score":
        return sharded_batch(rng, size=64)
    if workload == "service-open-loop":
        return service_payload(rng, size=32)
    raise ValueError(f"unknown workload {workload!r}")
