"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestAlignCommand:
    def test_align_basic(self, capsys):
        assert main(["align", "ACGTACGT", "ACGTTCGT"]) == 0
        out = capsys.readouterr().out
        assert "score : -1" in out
        assert "cigar :" in out

    def test_align_with_timing(self, capsys):
        assert main(["align", "ACGT" * 10, "ACGT" * 10, "--timing"]) == 0
        out = capsys.readouterr().out
        assert "smx" in out and "simd" in out

    def test_align_protein_config(self, capsys):
        assert main(["align", "--config", "protein", "HEAGAWGHEE",
                     "PAWHEAE"]) == 0
        assert "score" in capsys.readouterr().out

    def test_align_ascii_config(self, capsys):
        assert main(["align", "--config", "ascii", "kitten",
                     "sitting"]) == 0
        out = capsys.readouterr().out
        assert "score : -3" in out  # classic Levenshtein example

    def test_invalid_config_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["align", "--config", "nope", "A",
                                       "C"])


class TestSimulateCommand:
    def test_simulate_defaults(self, capsys):
        assert main(["simulate", "--size", "320", "--blocks", "4"]) == 0
        out = capsys.readouterr().out
        assert "engine utilization" in out
        assert "L2 port occupancy" in out

    def test_simulate_alignment_mode(self, capsys):
        assert main(["simulate", "--size", "320", "--blocks", "4",
                     "--alignment-mode"]) == 0
        assert "alignment" in capsys.readouterr().out

    def test_simulate_worker_override(self, capsys):
        assert main(["simulate", "--size", "320", "--blocks", "4",
                     "--workers", "1"]) == 0

    def test_simulate_trace_and_metrics_outputs(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["simulate", "--size", "320", "--blocks", "4",
                     "--trace-out", str(trace_path),
                     "--metrics-json", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "trace written" in out and "metrics written" in out

        trace = json.loads(trace_path.read_text())
        spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert spans
        engine_total = sum(e["dur"] for e in spans
                           if e.get("cat") == "engine")

        report = json.loads(metrics_path.read_text())
        assert report["schema"].startswith("smx-run-report/")
        assert report["params"]["blocks"] == 4
        coproc = report["coproc_report"]
        # Trace, metrics, and the printed report must agree.
        assert engine_total == pytest.approx(coproc["engine_busy_cycles"])
        assert report["metrics"]["coproc.tiles_computed"] == \
            coproc["tiles_computed"]
        assert report["metrics"]["coproc.total_cycles"] == \
            coproc["total_cycles"]


class TestAreaCommand:
    def test_area_table(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "SMX-1D unit" in out
        assert "0.0152" in out
        assert "mW" in out

    def test_area_worker_override(self, capsys):
        assert main(["area", "--workers", "2"]) == 0
        assert "2 x" in capsys.readouterr().out


class TestAlignObsOutputs:
    def test_align_trace_and_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        assert main(["align", "ACGTACGT", "ACGTTCGT",
                     "--trace-out", str(trace_path),
                     "--metrics-json", str(metrics_path)]) == 0
        report = json.loads(metrics_path.read_text())
        assert report["name"] == "align"
        assert report["result"]["cells_computed"] == 64
        assert report["metrics"]["system.alignments"] == 1
        trace = json.loads(trace_path.read_text())
        host = [e for e in trace["traceEvents"]
                if e.get("cat") == "host"]
        assert any(e["name"] == "system.align" for e in host)


class TestAlignBatchCommand:
    def test_batch_happy_path(self, tmp_path, capsys):
        batch = tmp_path / "pairs.txt"
        batch.write_text("# comment line\n\nGATTACA GATTTACA\n"
                         "ACGTACGT ACGTACGA\n")
        assert main(["align", "--batch", str(batch)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2  # comments and blanks skipped
        for line in lines:
            score, cigar, query, reference = line.split("\t")
            int(score)  # first column is a numeric score
        assert "2 pairs" in captured.err

    def test_malformed_line_is_a_friendly_error(self, tmp_path, capsys):
        batch = tmp_path / "pairs.txt"
        batch.write_text("GATTACA GATTTACA\nACGTACGT\n")
        assert main(["align", "--batch", str(batch)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "expected 'QUERY REFERENCE'" in err
        assert ":2:" in err  # points at the offending line
        assert "Traceback" not in err

    def test_truncated_pair_bad_character(self, tmp_path, capsys):
        batch = tmp_path / "pairs.txt"
        batch.write_text("GATTACA GATT?CA\n")
        assert main(["align", "--batch", str(batch)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_batch_file(self, tmp_path, capsys):
        assert main(["align", "--batch",
                     str(tmp_path / "nope.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    def test_bad_chaos_spec_rejected(self, tmp_path, capsys):
        batch = tmp_path / "pairs.txt"
        batch.write_text("GATTACA GATTTACA\n")
        assert main(["align", "--batch", str(batch),
                     "--chaos", "meteor=0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "meteor" in err

    def test_bad_deadline_rejected(self, tmp_path, capsys):
        batch = tmp_path / "pairs.txt"
        batch.write_text("GATTACA GATTTACA\n")
        assert main(["align", "--batch", str(batch),
                     "--deadline", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_resilient_batch_matches_plain(self, tmp_path, capsys):
        batch = tmp_path / "pairs.txt"
        batch.write_text("GATTACA GATTTACA\nACGTACGT ACGTACGA\n")
        assert main(["align", "--batch", str(batch)]) == 0
        plain = capsys.readouterr().out
        assert main(["align", "--batch", str(batch),
                     "--resilient"]) == 0
        supervised = capsys.readouterr().out
        assert supervised == plain


class TestStatsCommand:
    def test_stats_pretty_prints_report(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        assert main(["simulate", "--size", "320", "--blocks", "4",
                     "--metrics-json", str(metrics_path)]) == 0
        capsys.readouterr()
        assert main(["stats", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "report  : simulate" in out
        assert "coproc.tiles_computed" in out
        assert "blocks=4" in out

    def test_stats_rejects_non_report(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"foo": 1}')
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert err.count("\n") == 1  # one-line message, no traceback

    def test_stats_missing_file_exits_2(self, capsys):
        assert main(["stats", "/nonexistent/report.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["stats", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stats_prints_resilience_counters(self, tmp_path, capsys):
        from repro.obs import reports as obs_reports
        report = obs_reports.run_report(
            "align-batch", params={}, metrics={},
            extra={"resilience": {
                "counters": {"retries": 3, "faults.crash": 2},
                "failures": [{"index": 1, "fault": "crash"}]}})
        path = tmp_path / "report.json"
        obs_reports.write_json(report, str(path))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "retries" in out
        assert "faults.crash" in out
        assert "failed pairs" in out


class TestAlignTelemetryOutputs:
    def _batch(self, tmp_path, lines=4):
        batch = tmp_path / "pairs.txt"
        batch.write_text("GATTACA GATTTACA\nACGTACGT ACGTACGA\n" * lines)
        return batch

    def test_profile_and_cost_outputs(self, tmp_path, capsys):
        batch = self._batch(tmp_path)
        profile = tmp_path / "flame.folded"
        cost = tmp_path / "cost.json"
        assert main(["align", "--batch", str(batch),
                     "--profile-out", str(profile),
                     "--profile-unit", "cells",
                     "--cost-out", str(cost)]) == 0
        capsys.readouterr()
        folded = profile.read_text().strip().splitlines()
        assert folded
        for line in folded:
            path, value = line.rsplit(" ", 1)
            assert int(value) > 0
        table = json.loads(cost.read_text())
        assert table["seconds_per_cell"] > 0
        assert len(table["pairs"]) == 8
        assert all(row["cells"] > 0 for row in table["pairs"])

    def test_events_out_and_top(self, tmp_path, capsys):
        batch = self._batch(tmp_path)
        events = tmp_path / "events.jsonl"
        assert main(["align", "--batch", str(batch),
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line
                 in events.read_text().strip().splitlines()]
        kinds = [e["kind"] for e in lines]
        assert kinds[0] == "stream_start"
        assert "batch_start" in kinds and "batch_end" in kinds
        assert main(["top", str(events)]) == 0
        out = capsys.readouterr().out
        assert "8 pairs" in out
        assert "status  : complete" in out
        assert "batch_start" in out

    def test_progress_prints_to_stderr(self, tmp_path, capsys):
        batch = self._batch(tmp_path)
        assert main(["align", "--batch", str(batch),
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[progress " in err

    def test_top_missing_file_exits_2(self, capsys):
        assert main(["top", "/nonexistent/events.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_top_malformed_events_exits_2(self, tmp_path, capsys):
        # Interior corruption (a bad line before a good one) fails by
        # default; a lone truncated final line needs --strict to fail.
        path = tmp_path / "events.jsonl"
        path.write_text('{nope\n{"kind": "run_end"}\n')
        assert main(["top", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_top_truncated_tail_tolerated(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "progress", "t": 1.0}\n{"kind": "run')
        assert main(["top", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 truncated line(s) skipped" in out
        assert main(["top", "--strict", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestMonitorAndFleetCli:
    def _events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [
            {"seq": 1, "t": 0.0, "kind": "run_start", "pairs": 4,
             "backend": "thread", "run_id": "r1"},
            {"seq": 2, "t": 0.1, "kind": "shard_done", "shard": 0,
             "pairs": 4, "elapsed_s": 0.05},
            {"seq": 3, "t": 0.2, "kind": "job_done", "job_id": "a-0",
             "tenant": "acme", "elapsed_s": 0.2},
            {"seq": 4, "t": 0.3, "kind": "queue", "depth": 2,
             "tenants": {"acme": 2}},
            {"seq": 5, "t": 0.4, "kind": "run_end", "pairs": 4,
             "failures": 0, "run_id": "r1"},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in lines))
        return path

    def test_monitor_once_missing_file_exits_2(self, capsys):
        assert main(["monitor", "--once",
                     "/nonexistent/events.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_monitor_once_empty_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        assert main(["monitor", "--once", str(path)]) == 2
        err = capsys.readouterr().err
        assert "no events" in err
        assert len(err.strip().splitlines()) == 1

    def test_monitor_once_json(self, tmp_path, capsys):
        path = self._events(tmp_path)
        assert main(["monitor", "--once", "--json", str(path)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["events"] == 5
        assert snapshot["ended"] is True
        assert snapshot["queue_depth"] == 2
        assert snapshot["queue_tenants"] == {"acme": 2}

    def test_monitor_once_panel_shows_queue(self, tmp_path, capsys):
        path = self._events(tmp_path)
        assert main(["monitor", "--once", str(path)]) == 0
        out = capsys.readouterr().out
        assert "queue    depth=2" in out

    def test_top_json(self, tmp_path, capsys):
        path = self._events(tmp_path)
        assert main(["top", "--json", str(path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["events"] == 5
        assert document["by_kind"]["shard_done"] == 1
        assert "shard_done" in document["latencies"]

    def test_fleet_once(self, tmp_path, capsys):
        path = self._events(tmp_path)
        assert main(["fleet", "--once", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tenant acme" in out
        assert "done=1" in out

    def test_fleet_once_json(self, tmp_path, capsys):
        path = self._events(tmp_path)
        assert main(["fleet", "--once", "--json", str(path)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["tenants"]["acme"]["jobs"]["done"] == 1
        assert snapshot["queue_depth"] == 2

    def test_fleet_missing_file_exits_2(self, capsys):
        assert main(["fleet", "--once",
                     "/nonexistent/events.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_fleet_empty_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text("")
        assert main(["fleet", "--once", str(path)]) == 2
        assert "no events" in capsys.readouterr().err


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_lists_agree(self):
        """The CLI ``--engine`` choices and the job protocol accept
        exactly the engines the batch engine implements."""
        from repro.exec.engine import ENGINES
        from repro.service.protocol import (
            SCHEMA,
            JobSpec,
            job_from_dict,
            job_to_dict,
        )
        subcommands = next(
            action for action in build_parser()._actions
            if isinstance(action.choices, dict)).choices
        for command in ("align", "enqueue"):
            [engine_flag] = [action for action
                             in subcommands[command]._actions
                             if "--engine" in action.option_strings]
            assert tuple(engine_flag.choices) == ENGINES
        accepted = set()
        for engine in ENGINES + ("banded", "gpu"):
            document = job_to_dict(JobSpec(
                job_id="job-1", pairs=[("AC", "AG")], engine=engine,
                traceback=engine != "bitparallel"))
            assert document["schema"] == SCHEMA
            try:
                accepted.add(job_from_dict(document).engine)
            except ValueError:
                pass
        assert accepted == set(ENGINES)
