"""The repository benchmark: one seeded workload through the entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload longread-verify-align --seed 1 \\
        --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced run. Earlier lines name the tail percentile, the
sample counts and the failures.

The command coordinates child processes of its own file: ``--role
setup`` measures one set-up (imports, construction, one warm-up call)
in a fresh interpreter, three times; ``--role measure`` runs the
workload, checks every output and reports. The coordinator imports
nothing of the program. It exits non-zero when an output is wrong or
a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
#: Wall limit of one command, children included.
COMMAND_TIMEOUT_S = 170

END_TO_END = {"pairs_per_s": "1/s", "latency_p50_s": "s",
              "latency_tail_s": "s", "completed_share": "share",
              "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    import inputs
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup", "measure"),
                        default="run", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Put this checkout's ``src`` first on the path; refuse to run
    against any other copy of the program."""
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) \
            != SRC:
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- children ---------------------------------------------------------------

def child_setup(args) -> int:
    import inputs
    from workloads import WORKLOADS, clock
    warmup = inputs.make_warmup(args.workload)
    workdir = os.path.join(WORK, f"setup-{os.getpid()}")
    started = clock()
    _import_program()
    workload = WORKLOADS[args.workload]()
    try:
        workload.setup(warmup, workdir)
        setup_s = clock() - started
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s}))
    return 0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child
    (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_measure(args) -> int:
    _import_program()
    import inputs
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    data = inputs.make_inputs(args.workload, args.seed, args.seconds)
    workdir = os.path.join(WORK, f"measure-{os.getpid()}")
    workload = WORKLOADS[args.workload]()
    service = args.workload == "service-open-loop"
    report: dict = {}
    try:
        workload.setup(inputs.make_warmup(args.workload), workdir)
        if args.trace:
            tracer = Tracer()
            main = threading.get_ident()
            if service:
                untraced, traced = workload.run_traced(
                    data["pool"], data["schedule"], args.seconds, tracer)
                busy = traced["wall"] - traced["idle"]
                base = untraced["wall"] - untraced["idle"]
                checks = [workload.check(untraced, data["pool"]),
                          workload.check(traced, data["pool"])]
                metrics, book = layers.per_layer(
                    tracer, traced["wall"], main,
                    overhead_share=(busy - base) / base,
                    service=workload.service_facts(traced))
            else:
                result = workload.run_traced(data["pool"], args.seconds,
                                             tracer)
                checks = [workload.check(result["records"])]
                metrics, book = layers.per_layer(
                    tracer, result["wall"], main,
                    overhead_share=(result["wall"] - result["untraced_wall"])
                    / result["untraced_wall"])
            _dump_spans(args, tracer)
            report["metrics"] = {name: _metric(metrics[name], unit)
                                 for name, unit in layers.METRICS.items()}
            report["ledger"] = {key: book[key] for key in (
                "wall", "unattributed", "offthread", "main_self")}
        else:
            if service:
                result = workload.run(data["pool"], data["schedule"],
                                      args.seconds)
                peak_rss_mb = _peak_rss_mb()
                checks = [workload.check(result, data["pool"])]
                facts = workload.service_facts(result)
                report["service"] = {
                    "backlog_end": facts["backlog_end"],
                    "late_max_s": max(facts["late"], default=0.0)}
            else:
                result = workload.run(data["pool"], args.seconds)
                peak_rss_mb = _peak_rss_mb()
                checks = [workload.check(result["records"])]
            report["end_to_end"] = workload.end_to_end(result, checks[0])
            report["end_to_end"]["peak_rss_mb"] = peak_rss_mb
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    report.update({key: sum(check[key] for check in checks)
                   for key in ("attempted", "failed", "mismatched")})
    print(json.dumps(report))
    return 1 if report["mismatched"] else 0


def _dump_spans(args, tracer) -> None:
    """Write the traced run's spans out once the run is over."""
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{args.workload}.json")
    rows = [[span.id, span.name, span.start, span.end, span.parent,
             span.thread, span.run] for span in tracer.spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "columns": ["id", "name", "start", "end", "parent",
                               "thread", "run"],
                   "spans": rows}, handle)


# -- coordinator ------------------------------------------------------------

def _child(args, role: str, deadline: float) -> tuple[int, dict | None]:
    """Run one child to completion (killed at ``deadline``, a
    ``time.monotonic`` value); returns its exit code and the JSON object
    on its last stdout line."""
    command = [sys.executable, os.path.abspath(__file__), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"{role} child timed out", file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(done.stderr)
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode or 1, None


def coordinate(args) -> int:
    deadline = time.monotonic() + COMMAND_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            code, report = _child(args, "setup", deadline)
            if code or report is None:
                return code or 1
            setups.append(report["setup_s"])
    code, report = _child(args, "measure", deadline)
    if report is None:
        return code or 1
    attempted, failed = report["attempted"], report["failed"]
    print(f"{args.workload} seed {args.seed}: {failed} of {attempted} "
          f"failed, {report['mismatched']} wrong output(s)")
    if args.trace:
        book = report["ledger"]
        print("ledger (main thread self s): " + json.dumps(
            {name: round(value, 4)
             for name, value in sorted(book["main_self"].items())})
              + f" + unattributed {book['unattributed']:.4f}"
              f" = wall {book['wall']:.4f}; off-thread self s "
              f"{book['offthread']:.4f}")
        metrics = report["metrics"]
    else:
        e2e = report["end_to_end"]
        tail = e2e["tail"]
        print(f"latency_tail_s is p{tail['percentile']:.1f} of "
              f"{tail['samples']} samples ({tail['beyond']} beyond it)")
        if "service" in report:
            print("service: " + json.dumps(report["service"]))
        values = dict(e2e, setup_s=statistics.median(setups),
                      completed_share=(attempted - failed) / attempted)
        metrics = {name: _metric(values[name], unit)
                   for name, unit in END_TO_END.items()}
    correct = code == 0 and report["mismatched"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.role == "setup":
        return child_setup(args)
    if args.role == "measure":
        return child_measure(args)
    return coordinate(args)


if __name__ == "__main__":
    sys.exit(main())
