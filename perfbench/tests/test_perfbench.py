"""Tests of the benchmark itself: inputs, wrappers, output check, ledger.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import inputs
import layers
from tracing import Span, Tracer, ledger, self_times
from workloads import (
    ClosedLoop,
    LongReadVerifyAlign,
    ServiceOpenLoop,
    alignment_mismatches,
    tail,
)

WORKLOADS = ("longread-verify-align", "sharded-short-score",
             "service-open-loop")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_always_yields_the_same_inputs(workload):
    first = inputs.make_inputs(workload, 7, 6.0)
    assert first == inputs.make_inputs(workload, 7, 6.0)
    assert first["pool"] != inputs.make_inputs(workload, 8, 6.0)["pool"]


def test_service_schedule_offers_a_fixed_load():
    for seed in (1, 2, 3):
        schedule = inputs.make_inputs("service-open-loop", seed,
                                      20.0)["schedule"]
        assert len(schedule) == round(inputs.SERVICE_RATE * 20.0)
        dues = [job["due"] for job in schedule]
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < 20.0
        gaps = [later - earlier for earlier, later in zip(dues, dues[1:])]
        assert all(abs(gap - 1 / inputs.SERVICE_RATE) < 1e-9
                   for gap in gaps)
        assert len({job["job_id"] for job in schedule}) == len(schedule)


def test_wrappers_restore_every_attribute_and_keep_results():
    from repro import api
    pairs = inputs.longread_batch(inputs.random.Random(3), size=8)
    short = inputs.cigar_batch(inputs.random.Random(4), "dna-gap", size=3)
    before = (api.score_batch(pairs, preset="dna-edit", engine="auto"),
              api.align_batch(short, preset="dna-gap", engine="auto"))
    table = layers.targets()
    originals = [vars(target.owner)[target.attr] for target in table]
    tracer = Tracer()
    tracer.install(table)
    try:
        assert all(vars(target.owner)[target.attr] is not original
                   for target, original in zip(table, originals))
        traced = (api.score_batch(pairs, preset="dna-edit", engine="auto"),
                  api.align_batch(short, preset="dna-gap", engine="auto"))
    finally:
        tracer.remove()
    assert all(vars(target.owner)[target.attr] is original
               for target, original in zip(table, originals))
    assert traced[0] == before[0]
    assert [(a.score, a.cigar) for a in traced[1]] == \
        [(a.score, a.cigar) for a in before[1]]
    names = {span.name for span in tracer.spans}
    assert {"api.call", "engine.run", "planner.plan",
            "traceback"} <= names
    assert all(span.end is not None for span in tracer.spans)


class _Fixed(ClosedLoop):
    """A closed loop whose reference is known, to corrupt outputs of."""

    def reference(self, item):
        return [len(query) for query, _ in item]


def test_a_corrupted_score_counts_as_failed():
    item = [("ACGT", "ACGT"), ("AC", "AG"), ("A", "C")]
    good = [4, 2, 1]
    bad = [4, 3, 1]
    check = _Fixed().check([(item, 0.1, good), (item, 0.1, bad),
                            (item, 0.1, None)])
    assert check == {"attempted": 9, "failed": 4, "mismatched": 1}


def test_a_corrupted_cigar_counts_as_failed():
    from repro import api
    pairs = inputs.cigar_batch(inputs.random.Random(5), "dna-edit", size=2)
    workload = LongReadVerifyAlign()
    workload.setup([], "")
    item = ("align", "dna-edit", pairs)
    output = workload.call(item)
    reference = workload.reference(item)
    assert workload.mismatches(item, output, reference) == 0
    assert alignment_mismatches(output, reference) == 0
    output[1].cigar = list(reversed(output[1].cigar)) + [(1, "=")]
    assert alignment_mismatches(output, reference) == 1
    assert alignment_mismatches(output[:1], reference) == 2
    assert api is workload.api


def test_service_check_counts_a_corrupted_job(tmp_path):
    workload = ServiceOpenLoop()
    warmup = inputs.service_payload(inputs.random.Random(1), size=4)
    workload.setup(warmup, str(tmp_path))
    try:
        pool = {"a": [warmup], "b": [warmup]}
        schedule = [{"job_id": "job-1a", "due": 0.0, "tenant": "a",
                     "config": "dna-edit", "deadline_s": None,
                     "payload": 0},
                    {"job_id": "job-2b", "due": 0.0, "tenant": "b",
                     "config": "dna-gap", "deadline_s": 5.0,
                     "payload": 0}]
        result = workload.run(pool, schedule, 0.5)
        assert workload.check(result, pool) == {
            "attempted": 2, "failed": 0, "mismatched": 0}
        outcome = os.path.join(result["root"], "done",
                               "job-1a.outcome.json")
        with open(outcome, encoding="utf-8") as handle:
            document = json.load(handle)
        document["results"]["0"]["alignment"]["cigar"].append([1, "I"])
        with open(outcome, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert workload.check(result, pool) == {
            "attempted": 2, "failed": 1, "mismatched": 1}
        result["jobs"]["job-2b"]["due"] = -10.0
        assert workload.check(result, pool)["failed"] == 2
    finally:
        workload.close()


def _span(id_, name, start, end, parent=None, thread=1):
    return Span(id=id_, name=name, start=start, end=end, parent=parent,
                thread=thread, run=0)


def test_self_time_and_reconciliation_on_synthetic_spans():
    spans = [
        _span(0, "supervisor.run", 1.0, 9.0),
        _span(1, "checkpoint", 2.0, 3.0, parent=0),
        _span(2, "checkpoint", 5.0, 5.5, parent=0),
        _span(3, "engine.run", 1.5, 6.0, thread=2),
        _span(4, "kernels.linear", 2.0, 4.0, parent=3, thread=2),
        _span(5, "spool", 9.5, 10.0),
    ]
    own = self_times(spans)
    assert own == {0: 6.5, 1: 1.0, 2: 0.5, 3: 2.5, 4: 2.0, 5: 0.5}
    book = ledger(spans, wall=12.0, main_thread=1)
    assert book["self"] == {"supervisor.run": 6.5, "checkpoint": 1.5,
                            "engine.run": 2.5, "kernels.linear": 2.0,
                            "spool": 0.5}
    assert book["inclusive"]["engine.run"] == 4.5
    assert book["unattributed"] == 12.0 - 8.0 - 0.5
    assert book["offthread"] == 4.5
    assert sum(book["main_self"].values()) + book["unattributed"] == \
        pytest.approx(book["wall"])


def test_tail_is_the_highest_percentile_with_ten_beyond():
    samples = list(range(1, 101))
    assert tail(samples) == (90, 90.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (1.0, pytest.approx(100 / 3), 2)
    assert tail(list(range(11))) == (0, pytest.approx(100 / 11), 10)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import run
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == \
        set(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.METRICS.items())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert set(layers.SELF_METRICS.values()) <= set(layers.METRICS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "longread-verify-align", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_longread_batches_hold_three_quarters_true_candidates():
    batch = inputs.longread_batch(inputs.random.Random(2))
    assert len(batch) == 64
    lengths = [len(reference) for _, reference in batch]
    assert 900 <= min(lengths) and max(lengths) <= 1100
    assert inputs.longread_round(inputs.random.Random(2))[0] == \
        ("score", "dna-edit", batch)
