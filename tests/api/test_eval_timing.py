"""``python -m repro eval --timing``: the per-phase wall-time table."""

import json

from repro.__main__ import main


def phase_rows(output):
    """Phase names of the ``[timing]`` table at the end of *output*."""
    table = output[output.index("[timing]"):].splitlines()[1:]
    return {line.split()[0] for line in table if line.strip()}


def run_eval(tmp_path, capsys, *args):
    spec = {"system": {"kind": "symmetric", "n": 4, "mu": 1.0, "lam": 0.5},
            "metrics": ["mean", "variance"], "reps": 500, "seed": 3}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", str(path), "--timing", *args]) == 0
    return phase_rows(capsys.readouterr().out)


def test_analytic_cell_phases(tmp_path, capsys):
    rows = run_eval(tmp_path, capsys, "--method", "analytic",
                    "--store", str(tmp_path / "store"))
    assert {"spec-resolve", "store", "assembly", "solve", "reduce",
            "other", "total"} <= rows
    assert "import" in rows


def test_mc_cell_phases(tmp_path, capsys):
    rows = run_eval(tmp_path, capsys, "--method", "mc")
    assert {"spec-resolve", "assembly", "sim", "reduce"} <= rows
