"""Benchmark entry point: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {cold_eval,analytic_sweep,
                                         strategy_sweep,service_http}
                             --seed N --seconds S --trace {0,1} [--smoke]

The run starts the load generator (``loadgen.py``) at least
``SETUP_SAMPLES`` times, and more while those starts took less than
``SETUP_SECONDS`` in all, and reports the median time until it is ready to
issue its first timed operation as ``setup_s``; only the last start goes on
to measure.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``).  The full report,
with machine facts and per-phase request counts, is printed on the line
before and kept under ``.perfbench/reports/``.  The exit code is 0 only when
every output check passed.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

#: Set-ups timed per run: at least ``SETUP_SAMPLES``, and more (up to
#: ``MAX_SETUP_SAMPLES``) until they add up to ``SETUP_SECONDS``, so the
#: ~0.1 s set-up of ``cold_eval`` gets as many seconds of samples as the ~1 s
#: set-ups of the other workloads; ``setup_s`` is their median.
SETUP_SAMPLES = 5
SETUP_SECONDS = 4.0
MAX_SETUP_SAMPLES = 35

#: Wall-clock budget of one run, below the 180 s a run may take.
RUN_BUDGET_S = 170.0


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def declared_metrics(trace: int):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def spawn(args, scratch: str, setup_only: bool, deadline: float):
    """Start the load generator; returns (set-up seconds, its stdout lines)."""
    command = [sys.executable, os.path.join(HERE, "loadgen.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch,
               "--state", os.path.join(WORK, "state")]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    os.makedirs(scratch)
    start = time.perf_counter()
    # A session of its own, so a stuck run can be stopped together with the
    # server and pool workers the generator started.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, start_new_session=True)

    def stop_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               stop_group)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            stop_group()
            proc.wait()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"load generator exited with code {code} "
                           f"(first line {first.strip()!r})")
    return ready, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="repro benchmark run")
    parser.add_argument("--workload", required=True,
                        choices=("cold_eval", "analytic_sweep",
                                 "strategy_sweep", "service_http"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one op per window (a check "
                             "that every workload runs, not a measurement)")
    args = parser.parse_args()
    # On SIGTERM, unwind through the ``finally`` blocks, so the load
    # generator's process group is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(fail("terminated")))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail("no repro source tree at src/repro; run from a checkout "
                    "of the repository")
    units = declared_metrics(args.trace)
    deadline = time.monotonic() + RUN_BUDGET_S

    run_dir = os.path.join(WORK, "runs", f"{args.workload}-{os.getpid()}")
    setups = []
    try:
        while len(setups) < SETUP_SAMPLES - 1 or (
                sum(setups) < SETUP_SECONDS
                and len(setups) < MAX_SETUP_SAMPLES - 1):
            ready, _lines = spawn(args, os.path.join(run_dir, str(len(setups))),
                                  True, deadline)
            setups.append(ready)
        ready, lines = spawn(args, os.path.join(run_dir, "measure"), False,
                             deadline)
        setups.append(ready)
    except RuntimeError as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = json.loads(lines[-1])
    report = result.pop("report")
    report["setup_samples_s"] = setups
    metrics = dict(result["metrics"])
    if args.trace:
        # A layer the workload does not exercise reads 0.
        metrics = {name: metrics.get(name, 0.0) for name in units} \
            if set(metrics) <= set(units) else metrics
    else:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        return fail(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                    "match BENCHMARK.json")
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in sorted(metrics)}
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}" \
        f"{'-smoke' if args.smoke else ''}.json"
    with open(os.path.join(WORK, "reports", name), "w",
              encoding="utf-8") as handle:
        json.dump({**result, "report": report}, handle, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
