"""What a fresh process imports, and that deferred paths still work.

Every check runs in a new interpreter: ``sys.modules`` of the test process
already holds everything the suite imported.  The guards count modules, not
milliseconds, so they are deterministic on any machine.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

#: Every scenario ``python -m repro list`` shows.
BUILTIN_SCENARIOS = {
    "cascading_faults", "detector_ablation", "figure5", "figure5_full_chain",
    "figure6", "heterogeneous_sweep", "prp_costs", "solver_ablation",
    "strategy_comparison", "sync_loss", "sync_loss_validation", "table1",
    "validation",
}

#: Modules no evaluate path of a dense analytic cell uses.
FORBIDDEN_ON_COLD_EVAL = (
    "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.stats",
    "scipy.spatial", "asyncio", "repro.service", "repro.analysis",
)


def run_python(*argv, cwd=None):
    """Run ``python *argv`` in a fresh interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_code(code, *args):
    """Run the (dedented) source *code* with *args* as ``sys.argv[1:]``."""
    return run_python("-c", textwrap.dedent(code), *args)


def test_cold_eval_loads_only_what_the_cell_needs(tmp_path):
    spec = {"system": {"kind": "heterogeneous", "n": 5, "mu_base": 1.0,
                       "mu_gradient": 1.7, "lam_base": 0.9, "locality": 1.2},
            "metrics": ["mean", "variance"],
            "options": {"backend": "dense"}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = run_code("""
        import json, sys
        import repro.__main__ as cli
        spec, store, out = sys.argv[1:]
        code = cli.main(["eval", spec, "--store", store, "-o", out])
        print(json.dumps([code, sorted(sys.modules)]))
    """, str(path), str(tmp_path / "store"), str(tmp_path / "out.json"))
    code, modules = json.loads(out.splitlines()[-1])
    assert code == 0
    evaluation = json.loads((tmp_path / "out.json").read_text())
    assert evaluation["evaluations"][0]["backend"] == "dense"
    loaded = [name for name in modules
              if name in FORBIDDEN_ON_COLD_EVAL
              or name.startswith(tuple(f"{m}." for m in
                                       FORBIDDEN_ON_COLD_EVAL))
              or (name.startswith("repro.experiments.")
                  and name != "repro.experiments.common")]
    assert loaded == []


def test_list_shows_every_builtin_scenario(tmp_path):
    out = run_python("-m", "repro", "list", cwd=str(tmp_path))
    names = {line.split()[0] for line in out.splitlines() if line.strip()}
    assert names == BUILTIN_SCENARIOS


def test_registry_lookups_need_no_prior_import():
    out = run_code("""
        from repro.runner import get_scenario
        spec = get_scenario("table1")
        print(spec.name, spec.paper_reference)
    """)
    assert out.split()[0] == "table1"
    out = run_code("""
        from repro.runner import list_scenarios
        print(" ".join(spec.name for spec in list_scenarios()))
    """)
    assert set(out.split()) == BUILTIN_SCENARIOS


def test_deferred_scipy_paths_return_the_same_bits():
    out = run_code("""
        import json
        import numpy as np
        from repro.analysis.synchronized_loss import SynchronizedLossModel
        from repro.markov.ctmc import transient_distribution
        from repro.util.integration import simpson
        model = SynchronizedLossModel([1.0, 1.5, 2.0, 3.0])
        H = np.array([[-3.0, 2.0, 1.0], [0.5, -1.5, 1.0], [0.0, 0.0, 0.0]])
        pi = transient_distribution(H, [1.0, 0.0, 0.0], [0.0, 0.5, 2.0])
        x = np.linspace(0.0, 2.0, 9)
        print(json.dumps({
            "exact": model.expected_loss().hex(),
            "integral": model.expected_loss(method="integral").hex(),
            "transient": [float(v).hex() for v in pi[-1]],
            "simpson": simpson(x, np.exp(-x)).hex(),
        }))
    """)
    assert json.loads(out) == {
        "exact": "0x1.8cc640c123580p+1",
        "integral": "0x1.8cc640c123580p+1",
        "transient": ["0x1.c76b3b68dad20p-6", "0x1.b87a859db9160p-4",
                      "0x1.bab555710206bp-1"],
        "simpson": "0x1.bab7c66ab8281p-1",
    }


#: One spec per worker-side lazy import: the DES sampler, the recovery
#: runtimes, scipy.special (Weibull scales), the phase-type fitter and the
#: Section 3 closed forms.
FORK_CASES = {
    "mc-weibull": ({"kind": "symmetric", "n": 3, "mu": 1.0, "lam": 0.5,
                    "failure_law": "weibull", "failure_shape": 2.0},
                   ["mean"], "mc"),
    "des-lognormal": ({"kind": "symmetric", "n": 3, "mu": 1.0, "lam": 0.5,
                       "failure_law": "lognormal", "failure_shape": 0.5},
                      ["mean"], "des"),
    "strategy-weibull": ({"kind": "strategy", "scheme": "synchronized",
                          "n": 3, "mu": 1.0, "lam": 1.0, "work": 5.0,
                          "error_rate": 0.04, "sync_interval": 2.0,
                          "failure_law": "weibull", "failure_shape": 1.5},
                         ["makespan"], "strategy"),
    "analytic-weibull": ({"kind": "symmetric", "n": 3, "mu": 1.0,
                          "lam": 0.5, "failure_law": "weibull",
                          "failure_shape": 2.0}, ["mean"], "analytic"),
    "analytic-strategy": ({"kind": "strategy", "scheme": "synchronized",
                           "n": 3, "mu": 1.0, "lam": 1.0, "work": 5.0},
                          ["sync_loss"], "analytic"),
}


@pytest.mark.parametrize("case", sorted(FORK_CASES))
def test_pool_tasks_import_nothing_the_parent_has_not(case):
    """Pool workers fork from the planning process, so whatever a task
    imports on first use must already be loaded when the map starts."""
    system, metrics, method = FORK_CASES[case]
    spec = {"system": system, "metrics": metrics, "reps": 4, "seed": 5}
    out = run_code("""
        import json, sys
        from repro.api import evaluate
        from repro.runner import SerialBackend

        class Probe(SerialBackend):
            def map(self, func, tasks):
                before = set(sys.modules)
                outputs = super().map(func, tasks)
                self.imported = sorted(set(sys.modules) - before)
                return outputs

        probe = Probe()
        evaluate(json.loads(sys.argv[1]), method=sys.argv[2], backend=probe)
        print(json.dumps(probe.imported))
    """, json.dumps(spec), method)
    assert json.loads(out) == []
