"""The load generator: one process per benchmark run.

``run.py`` starts this script, times it until it prints ``READY`` (the
set-up), and reads its result from the last line of its output.  The four
workloads, and why each exists, are described in ``README.md``.

Usage::

    python perfbench/loadgen.py --workload NAME --seed N --seconds S
                                --trace {0,1} --scratch DIR --state DIR
                                [--smoke] [--setup-only]

``--scratch`` holds this run's stores and traces; ``--state`` keeps the
counts that must repeat across runs on the same inputs.

With ``--trace 0`` the whole window is measured untraced and the end-to-end
metrics are reported.  With ``--trace 1`` the window is split: its first half
runs untraced, its second half traced, and the per-layer metrics come from
the traced half (the difference between the halves is the tracing overhead),
except the latency percentiles, which come from the untraced half.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import spans

TRACED_MAIN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "traced_main.py")

#: Relative bound of the analytic reference checks.  They compare solves by
#: other numeric routes (the other full-chain backend, or the lumped chain),
#: so the bound must absorb solver-accuracy differences (Krylov residuals are
#: accepted at 1e-9) and cross-machine LAPACK dispatch drift (~110 ulp, about
#: 2.5e-14).
ANALYTIC_REL_BOUND = 1e-6

#: Responses kept per service request class for the post-window check.
SAMPLES_PER_CLASS = 20


# ------------------------------------------------------------------ helpers
def percentile(values: List[float], q: int) -> float:
    """The *q*-th percentile (linear interpolation between order statistics)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def canonical(value) -> str:
    """A comparison form: floats round-trip exactly through JSON."""
    return json.dumps(value, sort_keys=True)


def numbers(evaluation) -> Dict[str, float]:
    """Every number of an evaluation: scalar metrics and distribution grids."""
    out = dict(evaluation.metrics)
    for name, values in evaluation.distributions.items():
        if name != "times":
            out.update({f"{name}[{i}]": v for i, v in enumerate(values)})
    return out


def input_key(inputs) -> str:
    """A short content address (of an op's inputs, or of its results).

    Counts are kept under the address of the inputs that produced them, so
    they are only ever compared with counts of the same inputs.
    """
    return hashlib.sha256(canonical(inputs).encode()).hexdigest()[:16]


def count_outside(got: Dict[str, float], reference: Dict[str, float]) -> int:
    """How many of *got*'s numbers are outside the relative bound."""
    return sum(abs(value - reference[name]) > ANALYTIC_REL_BOUND * max(
        abs(value), abs(reference[name])) for name, value in got.items())


def heterogeneous(n: int, mu_gradient: float, lam_base: float,
                  locality: float) -> Dict[str, object]:
    return {"kind": "heterogeneous", "n": n, "mu_base": 1.0,
            "mu_gradient": mu_gradient, "lam_base": lam_base,
            "locality": locality}


class Window:
    """What one measured window did."""

    def __init__(self, phase: str) -> None:
        self.phase = phase
        self.start = self.end = 0.0
        #: Latency samples: one per op, or one per cell where a workload
        #: says so (``Workload.samples``).
        self.latencies: List[float] = []
        self.ops = 0
        self.cells = 0
        self.attempted = 0
        self.failed = 0

    @property
    def wall(self) -> float:
        return self.end - self.start

    def latency(self) -> Dict[str, float]:
        """The 50th and 95th latency percentiles (ms)."""
        if not self.latencies:
            raise RuntimeError(f"{self.phase} window completed no operation")
        return {"latency.p50_ms": percentile(self.latencies, 50) * 1e3,
                "latency.p95_ms": percentile(self.latencies, 95) * 1e3}

    def summary(self) -> Dict[str, object]:
        out = {"phase": self.phase, "wall_s": self.wall,
               "ops": self.ops, "samples": len(self.latencies),
               "cells": self.cells,
               "attempted": self.attempted, "failed": self.failed,
               "cells_per_s": self.cells / self.wall, **self.latency()}
        if len(self.latencies) <= 200:
            out["latencies_ms"] = [x * 1e3 for x in self.latencies]
        return out


def sequential_window(phase: str, seconds: float,
                      op: Callable[[], Tuple[int, bool]],
                      samples: Callable[[float], List[float]]) -> Window:
    """Run *op* back to back until *seconds* have passed (one at a time).

    *samples* turns an op's wall time into its latency samples.
    """
    window = Window(phase)
    window.start = time.perf_counter()
    deadline = window.start + seconds
    while True:
        begin = time.perf_counter()
        cells, ok = op()
        done = time.perf_counter()
        window.latencies.extend(samples(done - begin))
        window.ops += 1
        window.attempted += 1
        window.cells += cells
        window.failed += 0 if ok else 1
        if done >= deadline:
            break
    window.end = time.perf_counter()
    return window


def per_op(totals: Dict[str, Dict[str, float]], name: str, ops: int,
           field: str = "self_s") -> float:
    """A layer's time (ms) or call count per op."""
    value = totals.get(name, {}).get(field, 0.0)
    return value * (1e3 if field.endswith("_s") else 1.0) / ops


# ------------------------------------------------------------------ workloads
class Workload:
    """Shared shape: set up, run windows, verify, report per-layer metrics."""

    name = ""

    def __init__(self, seed: int, smoke: bool, scratch: str,
                 trace: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.trace = trace
        self.trace_dir = os.path.join(scratch, "trace")
        os.makedirs(self.trace_dir, exist_ok=True)
        self.rng = random.Random(f"{self.name}-{seed}")
        self.counts: Dict[str, object] = {}
        self.recorder: Optional[spans.Recorder] = None
        self.cleanup: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> Tuple[int, bool]:
        """One timed operation; returns (cells completed, output ok)."""
        raise NotImplementedError

    def samples(self, wall: float) -> List[float]:
        """The latency samples of the op that just ran: its wall time."""
        return [wall]

    def window(self, phase: str, seconds: float) -> Window:
        """Ops back to back (one op in smoke mode), then drop their stores."""
        window = sequential_window(phase, 0.0 if self.smoke else seconds,
                                   self.op, self.samples)
        for path in self.cleanup:
            if os.path.isdir(path):
                shutil.rmtree(path)
            elif os.path.exists(path):
                os.remove(path)
        self.cleanup = []
        return window

    def start_tracing(self) -> None:
        """In-process workloads: install the wrappers and record from now."""
        self.recorder = spans.Recorder(self.trace_dir)
        spans.install(self.recorder)
        self.recorder.enabled = True

    def stop_tracing(self) -> None:
        if self.recorder is not None:
            self.recorder.enabled = False
            self.recorder.dump()

    def verify(self) -> int:
        """Check the outputs after the windows; returns the wrong-op count."""
        raise NotImplementedError

    @staticmethod
    def same(previous, value) -> bool:
        """Whether a count recorded by an earlier run matches this run's."""
        return previous == value

    def layer_metrics(self, traced: Window) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class ColdEval(Workload):
    """Fresh ``python -m repro eval`` processes, one at a time."""

    name = "cold_eval"

    def setup(self) -> None:
        self.spec_dir = os.path.join(self.scratch, "specs")
        self.out_dir = os.path.join(self.scratch, "out")
        self.store = os.path.join(self.scratch, "store")
        for path in (self.spec_dir, self.out_dir):
            os.makedirs(path)
        self.specs: List[Dict[str, object]] = []
        self.traced = False
        self.done: List[int] = []
        self.imports: List[Dict[str, float]] = []

    def out_path(self, index: int) -> str:
        return os.path.join(self.out_dir, f"{index}.json")

    def op(self) -> Tuple[int, bool]:
        """One cell in one fresh process; every op gets a new seeded cell, so
        none is served from the store."""
        index = len(self.specs)
        spec = {"system": heterogeneous(
            self.rng.randint(3, 6), round(self.rng.uniform(0.5, 3.0), 6),
            round(self.rng.uniform(0.2, 1.5), 6),
            round(self.rng.uniform(0.5, 2.0), 6)),
            "metrics": ["mean", "variance"]}
        self.specs.append(spec)
        spec_path = os.path.join(self.spec_dir, f"{index}.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        args = ["eval", spec_path, "--store", self.store,
                "-o", self.out_path(index)]
        if self.traced:
            command = [sys.executable, "-X", "importtime", TRACED_MAIN,
                       self.trace_dir, "now", *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        proc = subprocess.run(command, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return 1, False
        self.done.append(index)
        if self.traced:
            self.imports.append(parse_importtime(proc.stderr))
        return 1, True

    def start_tracing(self) -> None:
        self.traced = True

    def stop_tracing(self) -> None:
        self.traced = False

    def verify(self) -> int:
        import repro
        from repro.report.store import strict_jsonable
        wrong = 0
        for index in self.done:
            expected = strict_jsonable(
                [repro.evaluate(self.specs[index]).to_dict()])
            with open(self.out_path(index), encoding="utf-8") as handle:
                got = json.load(handle)["evaluations"]
            wrong += canonical(got) != canonical(expected)
        return wrong

    def layer_metrics(self, traced: Window) -> Dict[str, float]:
        found, _counters, extras = spans.load(self.trace_dir)
        totals = spans.layer_totals(found)
        ops = max(1, len(self.imports))
        metrics = {
            "import.repro_ms": sum(i["repro"] for i in self.imports) / ops,
            "import.scipy_ms": sum(i["scipy"] for i in self.imports) / ops,
            "import.numpy_ms": sum(i["numpy"] for i in self.imports) / ops,
            "cli.eval_ms": per_op(totals, "cli.main", ops, "total_s"),
            "markov.structure_cache.hits":
                sum(e["cache_info"]["hits"] for e in extras) / ops,
            "markov.structure_cache.misses":
                sum(e["cache_info"]["misses"] for e in extras) / ops,
        }
        metrics.update(common_layers(totals, ops))
        return metrics


def parse_importtime(stderr: str) -> Dict[str, float]:
    """``-X importtime`` totals (ms): the whole ``import repro`` (cumulative),
    and the self time of every numpy and scipy module summed."""
    out = {"repro": 0.0, "scipy": 0.0, "numpy": 0.0}
    pattern = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")
    for line in stderr.splitlines():
        match = pattern.match(line)
        if match is None:
            continue
        self_us, cumulative_us, _indent, module = match.groups()
        top = module.split(".")[0]
        if module == "repro":
            out["repro"] = int(cumulative_us) / 1e3
        elif top in ("scipy", "numpy"):
            out[top] += int(self_us) / 1e3
    return out


class AnalyticSweep(Workload):
    """Store-attached serial sweep over all three numeric regimes + ETL."""

    name = "analytic_sweep"
    #: Ops cycle through this many seeded grids, so a run's numbers average
    #: over inputs rather than hang on one draw of rates.
    GRIDS = 3

    def setup(self) -> None:
        import repro  # noqa: F401  (the import is part of the set-up)
        from repro.markov.structure_cache import cache_info, \
            clear_structure_cache
        from repro.warehouse import etl
        self.cache_info = cache_info
        self.clear_cache = clear_structure_cache
        # The module, not its function: the tracer re-binds ``load_store``
        # on the module, and a reference saved here would bypass it.
        self.etl = etl
        self.grids = [self.grid() for _ in range(self.GRIDS)]
        self.ops = 0
        self.results: Dict[int, List[str]] = {}
        self.reference_cells: Dict[int, list] = {}

    def grid(self) -> List[Dict[str, object]]:
        """Moments over n 3-11 x 3 rates, and a cdf grid at n 8-9.

        The system stays near ``mu_gradient=2, locality=1``: with a flatter
        gradient and rates above ~0.7 the n=11 Krylov solve stalls and one
        cell takes ~10 s instead of ~0.07 s, which would make a run's numbers
        hang on whether its draw lands there.
        """
        base = heterogeneous(3, round(self.rng.uniform(1.9, 2.1), 6), 0.5,
                             round(self.rng.uniform(0.95, 1.05), 6))
        lams = [round(self.rng.uniform(0.3, 0.8), 6) for _ in range(3)]
        return [
            {"system": base, "metrics": ["mean", "variance"],
             "sweep": {"n": [3, 4, 5] if self.smoke else list(range(3, 12)),
                       "lam_base": lams}},
            {"system": base, "metrics": ["mean", "cdf"],
             "times": [0.25, 0.5, 1.0, 2.0, 4.0],
             "sweep": {"n": [4] if self.smoke else [8, 9],
                       "lam_base": lams[:2]}},
        ]

    def op(self) -> Tuple[int, bool]:
        from repro.api import evaluate_record
        index = self.ops % self.GRIDS
        self.ops += 1
        store = os.path.join(self.scratch, f"store-{self.ops}")
        db = os.path.join(self.scratch, f"warehouse-{self.ops}.sqlite")
        self.cleanup += [store, db]
        # A fresh user process starts with an empty structure cache.
        self.clear_cache()
        results = [evaluate_record(spec, backend="serial", store=store)
                   for spec in self.grids[index]]
        summary = self.etl.load_store(store, db)
        cells = sum(len(r.cells) for r in results)
        self.last_cache_info = self.cache_info()
        misses = self.last_cache_info["misses"]
        evaluations = [numbers(cell.evaluation) for r in results
                       for cell in r.cells]
        self.results.setdefault(index, []).append(
            canonical([evaluations, misses]))
        if index not in self.reference_cells:
            self.reference_cells[index] = list(zip(
                [cell.spec.to_dict() for r in results for cell in r.cells],
                evaluations))
            self.counts[input_key(self.grids[index])] = {
                "cells": cells, "structure_cache_misses": misses,
                "values": evaluations}
        return cells, summary.cells_inserted == cells and not any(
            cell.cached for r in results for cell in r.cells)

    def verify(self) -> int:
        """A symmetric system against the lumped chain, the first op of each
        grid against the other numeric backend, and every later op against
        the first.

        The other-backend reference shares the generator and the structure
        cache with the workload, so a wrong chain would pass it; the lumped
        check does not share them.
        """
        import repro
        wrong = self.lumped_check()
        # Rebuild every structure from scratch for the reference.
        self.clear_cache()
        for index, cells in self.reference_cells.items():
            outside = 0
            for spec, metrics in cells:
                other = "sparse" if spec["system"]["n"] <= 9 else "dense"
                reference = numbers(repro.evaluate(
                    {**spec, "options": {**spec.get("options", {}),
                                         "backend": other}}))
                outside += count_outside(metrics, reference)
            results = self.results[index]
            if outside:
                sys.stderr.write(f"analytic_sweep: grid {index}: {outside} "
                                 "values outside the reference bound\n")
                wrong += len(results)
            else:
                # Later ops of one grid must repeat its first op exactly,
                # structure-cache misses included.
                wrong += sum(result != results[0] for result in results)
        return wrong

    def lumped_check(self) -> int:
        """Full chain against the lumped chain on a symmetric system.

        The lumped ``n + 2``-state chain is built without the generator and
        the structure cache the workload uses, so it is an independent model
        of the same interval.  The full chain goes through all three regimes
        (dense n <= 9, sparse LU n = 10, Krylov n = 11) from a cold cache.  The
        rate stays at or below 0.35: from about 0.41 up, the n = 11 Krylov
        solve of this system stalls and falls back to a ~7 s sparse LU.
        Returns the number of wrong cells.
        """
        import repro
        rng = random.Random(f"{self.name}-{self.seed}-lumped")
        lam = round(rng.uniform(0.2, 0.35), 6)
        self.clear_cache()
        wrong = 0
        for n in [3, 4, 5] if self.smoke else range(3, 12):
            spec = {"system": {"kind": "symmetric", "n": n, "mu": 1.0,
                               "lam": lam},
                    "metrics": ["mean", "variance", "cdf"],
                    "times": [0.25, 1.0, 4.0]}
            full = numbers(repro.evaluate(
                {**spec, "options": {"prefer_simplified": False}},
                method="analytic"))
            lumped = numbers(repro.evaluate(spec, method="analytic"))
            outside = count_outside(full, lumped)
            if outside:
                sys.stderr.write(f"analytic_sweep: symmetric n={n} "
                                 f"lam={lam}: {outside} full-chain values "
                                 "differ from the lumped chain\n")
            wrong += bool(outside)
        return wrong

    @staticmethod
    def same(previous, value) -> bool:
        """Counts exactly, values within the reference bound."""
        def counts(entry):
            return {k: v for k, v in entry.items() if k != "values"}
        return counts(previous) == counts(value) and \
            len(previous["values"]) == len(value["values"]) and \
            not any(set(now) != set(before) or count_outside(now, before)
                    for now, before in zip(value["values"],
                                           previous["values"]))

    def layer_metrics(self, traced: Window) -> Dict[str, float]:
        found, counters, _extras = spans.load(self.trace_dir)
        totals = spans.layer_totals(found)
        ops = traced.ops
        info = self.last_cache_info
        return {**common_layers(totals, ops),
                **pool_layers(found, totals, counters, ops),
                # The cache is cleared before every op, so the counters cover
                # the last op only.
                "markov.structure_cache.hits": float(info["hits"]),
                "markov.structure_cache.misses": float(info["misses"])}


STRATEGY_SYSTEM = {"kind": "strategy", "scheme": "synchronized", "n": 4,
                   "mu": 1.0, "lam": 1.0, "work": 25.0, "error_rate": 0.05,
                   "sync_interval": 2.0}

#: Only the synchronized scheme is swept.  The asynchronous and
#: pseudo-recovery-point runtimes can livelock: in about 1 in 2500
#: replications of this system some processes finish while the others stay
#: contaminated and roll back about once per time unit until the 1e6
#: simulation-time horizon (minutes of wall time), which no run can absorb.
#: Sweep them again once that runtime defect is fixed.
STRATEGY_SWEEP = {"lam": [0.5, 1.0, 1.5, 2.0], "sync_interval": [1.0, 2.0, 4.0]}


class StrategySweep(Workload):
    """Recovery-scheme runtimes over 12 cells on a 2-worker process pool."""

    name = "strategy_sweep"

    def setup(self) -> None:
        import repro  # noqa: F401  (the import is part of the set-up)
        self.ops = 0
        self.results: List[str] = []
        self.cell_seconds: List[float] = []

    def spec(self, op: int) -> Dict[str, object]:
        """Op *op*'s sweep.  Each op draws its own replication seed, so a
        run averages over seeds, whose runtime cost differs.

        A cell's 16 replications go to the pool as 8 chunks of 2, not the
        default 2 of 8 (results are identical for every chunking): with one
        chunk per worker a cell waits for the slower worker, so its time
        doubles when the host takes one of the 2 CPUs away; with 8 the free
        worker takes the other's chunks.
        """
        return {
            "system": STRATEGY_SYSTEM,
            "metrics": ["makespan", "slowdown", "rollbacks", "lost_work",
                        "total_saves"],
            "seed": random.Random(f"{self.name}-{self.seed}-{op}").randrange(
                1, 2**31),
            "reps": 4 if self.smoke else 16,
            "options": {"rep_chunk": 2},
            "sweep": {"lam": [0.5, 2.0], "sync_interval": [2.0]}
            if self.smoke else STRATEGY_SWEEP}

    @staticmethod
    def hex_metrics(result) -> str:
        return canonical([{name: float(value).hex()
                           for name, value in cell.evaluation.metrics.items()}
                          for cell in result.cells])

    def op(self) -> Tuple[int, bool]:
        from repro.api import evaluate_record
        spec = self.spec(self.ops)
        self.ops += 1
        store = os.path.join(self.scratch, f"store-{self.ops}")
        self.cleanup.append(store)
        result = evaluate_record(spec, backend="process", workers=2,
                                 store=store)
        self.cell_seconds = [cell.elapsed_seconds for cell in result.cells]
        self.results.append(self.hex_metrics(result))
        self.counts[input_key(spec)] = input_key(self.results[-1])
        return len(result.cells), not any(c.cached for c in result.cells)

    def samples(self, wall: float) -> List[float]:
        """One sample per cell: the runner's wall time of the cell, from
        building its pool to its assembled result.  A run has ~20 sweeps but
        ~240 cells, so its 95th percentile has samples beyond it."""
        return self.cell_seconds

    def verify(self) -> int:
        """Op 0 against the serial backend; every op (rollbacks and saves
        included) against earlier runs with this seed, via the counts."""
        from repro.api import evaluate_record
        serial = self.hex_metrics(evaluate_record(self.spec(0),
                                                  backend="serial"))
        return int(self.results[0] != serial)

    def layer_metrics(self, traced: Window) -> Dict[str, float]:
        found, counters, _extras = spans.load(self.trace_dir)
        totals = spans.layer_totals(found)
        ops = traced.ops
        return {**common_layers(totals, ops),
                **pool_layers(found, totals, counters, ops)}


class ServiceHTTP(Workload):
    """A closed loop of 2 keep-alive clients against ``repro serve``."""

    name = "service_http"
    CLIENTS = 2
    #: The hot set: one seeded system at these n, times seeded rates.
    HOT_N = (3, 4, 5, 6)
    HOT_RATES = 5
    #: The request mix: (class, share of requests).  Requests are small
    #: sweeps, not single cells (``request_for``): on the shared 2-CPU
    #: machine the cost of one request's hand-offs between the client and
    #: server processes drifts by up to 2x over minutes, while the per-cell
    #: work does not.  In alternating 5 s stretches of hot requests, cells/s
    #: spread 25% (quartiles over median) with 1 cell per request and 5% with
    #: 8.
    MIX = (("hot", 0.70), ("unique", 0.20), ("mc", 0.10))

    def setup(self) -> None:
        self.store = os.path.join(self.scratch, "store")
        args = ["serve", "--port", "0", "--store", self.store]
        if self.trace:
            command = [sys.executable, TRACED_MAIN, self.trace_dir, "signal",
                       *args]
        else:
            command = [sys.executable, "-m", "repro", *args]
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE,
                                       text=True)
        line = self.server.stdout.readline()
        match = re.search(r"listening on http://([\d.]+):(\d+)", line)
        if match is None:
            self.close()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.drain = threading.Thread(target=self.server.stdout.read,
                                      daemon=True)
        self.drain.start()
        self.hot = self.analytic_spec(self.rng)
        self.hot_rates = [round(self.rng.uniform(0.2, 1.5), 9)
                          for _ in range(self.HOT_RATES)]
        self.phases: Dict[str, Dict[str, Dict[str, int]]] = {}
        self.samples: Dict[str, list] = {name: [] for name, _ in self.MIX}
        self.stats: Dict[str, dict] = {}

    @staticmethod
    def analytic_spec(rng: random.Random) -> Dict[str, object]:
        return {"system": heterogeneous(rng.randint(3, 6),
                                        round(rng.uniform(0.5, 3.0), 9),
                                        round(rng.uniform(0.2, 1.5), 9),
                                        round(rng.uniform(0.5, 2.0), 9)),
                "metrics": ["mean", "variance"]}

    def hot_sweep(self, ns, rates) -> Dict[str, object]:
        return {**self.hot, "sweep": {"n": list(ns), "lam_base": list(rates)}}

    def request_for(self, phase: str, index: int
                    ) -> Tuple[str, Dict[str, object]]:
        """The *index*-th request of a phase: deterministic in the seed.

        A hot request is 2 n x 4 rates of the hot set (LRU path), a unique
        one 4 new rates of a new small system (admission window, solve and
        sharded store put), an mc one 2 new rates of a new system at 300
        reps (the stochastic batching path)."""
        rng = random.Random(f"{self.seed}-{phase}-{index}")
        draw = rng.random()
        if draw < self.MIX[0][1]:
            return "hot", {"spec": self.hot_sweep(
                rng.sample(self.HOT_N, 2), rng.sample(self.hot_rates, 4)),
                "method": "auto"}
        spec = self.analytic_spec(rng)
        if draw < self.MIX[0][1] + self.MIX[1][1]:
            spec["sweep"] = {"lam_base": [round(rng.uniform(0.2, 1.5), 9)
                                          for _ in range(4)]}
            return "unique", {"spec": spec, "method": "auto"}
        spec["system"]["n"] = rng.randint(3, 5)
        spec.update(reps=300, seed=rng.randrange(1, 2**31),
                    sweep={"lam_base": [round(rng.uniform(0.2, 1.5), 9)
                                        for _ in range(2)]})
        return "mc", {"spec": spec, "method": "mc"}

    def tally(self, phase: str, kind: str, ok: bool) -> None:
        entry = self.phases.setdefault(phase, {}).setdefault(
            kind, {"sent": 0, "ok": 0, "failed": 0})
        entry["sent"] += 1
        entry["ok" if ok else "failed"] += 1

    def client(self):
        from repro.service.server import ServiceHTTPClient
        return ServiceHTTPClient(self.host, self.port)

    def get_stats(self) -> dict:
        async def fetch() -> dict:
            client = self.client()
            try:
                return await client.stats()
            finally:
                await client.close()
        return asyncio.run(fetch())

    def closed_loop(self, phase: str, seconds: float,
                    limit: Optional[int] = None,
                    items: Optional[list] = None) -> Window:
        """``CLIENTS`` clients on one event loop, each sending its next
        request on a reply.  A success counts the cells of its reply."""
        return asyncio.run(self._closed_loop(phase, seconds, limit, items))

    async def _closed_loop(self, phase: str, seconds: float,
                           limit: Optional[int],
                           items: Optional[list]) -> Window:
        window = Window(phase)
        counter = iter(range(limit if limit is not None else 10**9))
        keep = phase in ("timed", "traced")

        async def run_client() -> None:
            client = self.client()
            try:
                while time.perf_counter() < deadline:
                    index = next(counter, None)
                    if index is None:
                        return
                    kind, payload = items[index] if items is not None \
                        else self.request_for(phase, index)
                    begin = time.perf_counter()
                    try:
                        status, reply = await client.evaluate(
                            payload["spec"], payload["method"])
                    except (OSError, EOFError, ValueError):
                        # The client reconnects on its next request.
                        status, reply = 0, {}
                        await client.close()
                    done = time.perf_counter()
                    ok = status == 200 and reply.get("ok") is True
                    window.latencies.append(done - begin)
                    window.ops += 1
                    window.attempted += 1
                    window.cells += len(reply["cells"]) if ok else 0
                    window.failed += not ok
                    self.tally(phase, kind, ok)
                    if ok and keep and \
                            len(self.samples[kind]) < SAMPLES_PER_CLASS:
                        self.samples[kind].append((payload, reply))
            finally:
                await client.close()

        window.start = time.perf_counter()
        deadline = window.start + seconds
        await asyncio.gather(*(run_client() for _ in range(self.CLIENTS)))
        window.end = time.perf_counter()
        return window

    def warm_up(self) -> None:
        """Fill the 1024-entry LRU with unique cells, then run the mix."""
        sweeps = 2 if self.smoke else 17
        items = []
        for index in range(sweeps):
            spec = self.analytic_spec(self.rng)
            spec["sweep"] = {"lam_base": [round(self.rng.uniform(0.2, 1.5), 9)
                                          for _ in range(64)]}
            items.append(("warmup-sweep", {"spec": spec, "method": "auto"}))
        items.append(("hot", {"spec": self.hot_sweep(self.HOT_N,
                                                     self.hot_rates),
                              "method": "auto"}))
        fill = self.closed_loop("warmup", 120.0, len(items), items)
        mix = self.closed_loop("warmup-mix", 60.0, 50 if self.smoke else 400)
        if fill.failed or mix.failed:
            raise RuntimeError("service warm-up requests failed")

    def window(self, phase: str, seconds: float) -> Window:
        if not self.phases:
            self.warm_up()
        before = self.get_stats()
        window = self.closed_loop(phase, seconds,
                                  200 if self.smoke else None)
        self.stats[phase] = {"before": before, "after": self.get_stats()}
        return window

    def start_tracing(self) -> None:
        self.server.send_signal(signal.SIGUSR1)

    def stop_tracing(self) -> None:
        pass

    def verify(self) -> int:
        from repro.api import evaluate_record
        wrong = 0
        for kind, samples in self.samples.items():
            for payload, reply in samples:
                result = evaluate_record(payload["spec"],
                                         method=payload["method"])
                got = [cell["result"] for cell in reply["cells"]]
                ok = canonical(got) == canonical(json.loads(json.dumps(
                    [cell.evaluation.to_experiment_result().to_dict()
                     for cell in result.cells])))
                self.tally("verify", kind, ok)
                wrong += not ok
        return wrong

    def layer_metrics(self, traced: Window) -> Dict[str, float]:
        self.close()                      # the server writes its trace at exit
        found, counters, _extras = spans.load(self.trace_dir)
        totals = spans.layer_totals(found, traced.start, traced.end)
        ops = traced.ops
        stats = self.stats[traced.phase]
        delta = stats_delta(stats["before"], stats["after"])
        submit = totals.get("service.submit", {"total_s": 0.0, "calls": 0})
        execute = totals.get("service.execute", {"total_s": 0.0, "calls": 0})
        waited = counters.get("service.batching.waited_cells", 0)
        lookups = delta["lru_hits"] + delta["lru_misses"]
        return {
            **common_layers(totals, ops),
            "service.http_overhead_ms":
                (statistics.fmean(traced.latencies)
                 - submit["total_s"] / max(1, submit["calls"])) * 1e3,
            "service.lru.hit_rate": delta["lru_hits"] / max(1, lookups),
            "service.lru.evictions": delta["lru_evictions"] / ops,
            "service.dedup.hit_rate":
                delta["served_without_compute"] / max(1, delta["cells"]),
            "service.batching.wait_ms":
                counters.get("service.batching.wait_s", 0.0) * 1e3
                / max(1, waited),
            "service.batching.mean_occupancy":
                delta["admitted"] / max(1, delta["batches"]),
            "service.batching.dispatches": delta["dispatches"] / ops,
            "service.execute_ms":
                execute["total_s"] * 1e3 / max(1, execute["calls"]),
        }

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None or server.poll() is not None:
            return
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        self.drain.join(timeout=5)


def stats_delta(before: dict, after: dict) -> Dict[str, float]:
    """Counter increments between two ``/v1/stats`` snapshots."""
    def served(stats: dict) -> float:
        return stats["lru"]["hits"] + stats["store_hits"] + \
            stats["dedup"]["joined"]
    return {
        "lru_hits": after["lru"]["hits"] - before["lru"]["hits"],
        "lru_misses": after["lru"]["misses"] - before["lru"]["misses"],
        "lru_evictions": after["lru"]["evictions"]
        - before["lru"]["evictions"],
        "served_without_compute": served(after) - served(before),
        "cells": after["cells_submitted"] - before["cells_submitted"],
        "admitted": after["batching"]["admitted"]
        - before["batching"]["admitted"],
        "batches": after["batching"]["batches"]
        - before["batching"]["batches"],
        "dispatches": after["dispatches"] - before["dispatches"],
    }


def common_layers(totals: Dict[str, Dict[str, float]],
                  ops: int) -> Dict[str, float]:
    """Layer self times (ms per op) and store-write counts per op."""
    ops = max(1, ops)
    return {
        "api.spec.resolve_ms": per_op(totals, "api.spec.resolve", ops),
        "api.strategy.plan_ms": per_op(totals, "api.strategy.plan", ops),
        "api.assemble_ms": per_op(totals, "api.assemble", ops),
        "markov.assembly_ms": per_op(totals, "markov.assembly", ops),
        "markov.solve_dense_ms": per_op(totals, "markov.solve_dense", ops),
        "markov.solve_sparse_lu_ms":
            per_op(totals, "markov.solve_sparse_lu", ops),
        "markov.solve_krylov_ms": per_op(totals, "markov.solve_krylov", ops),
        "report.store.put_ms": per_op(totals, "report.store.put", ops),
        "report.store.get_ms": per_op(totals, "report.store.get", ops),
        "report.store.puts": per_op(totals, "report.store.put", ops,
                                    "calls"),
        "warehouse.etl.load_ms": per_op(totals, "warehouse.etl.load", ops),
    }


def pool_layers(found: List[list], totals: Dict[str, Dict[str, float]],
                counters: Dict[str, float], ops: int) -> Dict[str, float]:
    """Dispatch and worker-side metrics of the process pool, per op."""
    ops = max(1, ops)
    return {
        "runner.backends.map_ms":
            per_op(totals, "runner.backends.map", ops, "total_s"),
        "runner.backends.pool_starts":
            counters.get("runner.backends.pool_starts", 0) / ops,
        "runner.backends.dispatch_wait_ms":
            spans.dispatch_wait_s(found) * 1e3 / ops,
        "runner.backends.task_bytes":
            counters.get("runner.backends.task_bytes", 0) / ops,
        "recovery.worker_busy_ms":
            per_op(totals, "runner.worker_task", ops, "total_s"),
        "recovery.replications":
            counters.get("recovery.replications", 0) / ops,
        "recovery.rollbacks": counters.get("recovery.rollbacks", 0) / ops,
        "recovery.total_saves": counters.get("recovery.total_saves", 0) / ops,
        "recovery.recovery_lines":
            counters.get("recovery.recovery_lines", 0) / ops,
    }


WORKLOADS = {cls.name: cls for cls in (ColdEval, AnalyticSweep,
                                       StrategySweep, ServiceHTTP)}


# ------------------------------------------------------------------ reporting
def machine_facts() -> Dict[str, object]:
    """The machine facts that set the numbers."""
    import ctypes
    import platform

    import numpy
    import scipy
    facts: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": None, "blas_core": os.environ.get("OPENBLAS_CORETYPE"),
        "cpu": None,
    }
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get(
        "blas", {})
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and "/" in line}
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename", "openblas_get_corename"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                facts["blas_core"] = getter().decode()
                break
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    return facts


def check_repeats(workload: Workload, state_dir: str) -> int:
    """Counts that must repeat exactly across runs on the same inputs.

    Each workload keeps its counts in ``counts``, keyed by the address of
    the inputs of the op (or grid) that produced them; they are compared key
    by key with what earlier runs in this checkout recorded, and new keys
    are added.
    """
    if not workload.counts:
        return 0
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, f"{workload.name}.json")
    previous: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
    differ = sorted(key for key, value in workload.counts.items()
                    if key in previous
                    and not workload.same(previous[key], value))
    if differ:
        sys.stderr.write(f"{workload.name}: counts of inputs {differ} differ "
                         "from an earlier run\n")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**workload.counts, **previous}, handle, sort_keys=True)
    return len(differ)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.scratch,
                                        bool(args.trace))
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            untraced = workload.window("untraced", args.seconds / 2)
            workload.start_tracing()
            traced = workload.window("traced", args.seconds / 2)
            workload.stop_tracing()
            windows = [untraced, traced]
        else:
            windows = [workload.window("timed", args.seconds)]
        wrong = workload.verify()
        wrong += check_repeats(workload, args.state)
        if args.trace:
            # Latency comes from the untraced half, layers from the traced.
            metrics = {**workload.layer_metrics(traced), **untraced.latency()}
            overhead = traced.latency()["latency.p50_ms"] \
                - untraced.latency()["latency.p50_ms"]
            metrics["trace.overhead_p50_ms"] = overhead
            metrics["trace.overhead_frac"] = \
                overhead / untraced.latency()["latency.p50_ms"]
        else:
            window = windows[0]
            metrics = {"cells_per_s": window.cells / window.wall}
    finally:
        workload.close()

    attempted = sum(w.attempted for w in windows)
    failed = min(attempted, sum(w.failed for w in windows) + wrong)
    report = {"workload": args.workload, "seed": args.seed,
              "smoke": args.smoke, "trace": args.trace,
              "windows": [w.summary() for w in windows],
              "wrong_outputs": wrong, "counts": workload.counts,
              "requests": getattr(workload, "phases", None),
              "machine": machine_facts()}
    if args.trace:
        metrics["fail_frac"] = failed / attempted
        report["unwrapped_call_sites"] = sorted({
            site for extra in spans.load(workload.trace_dir)[2]
            for site in extra.get("missing", ())})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics,
                      "report": report}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
