"""Smoke tests: each experiment script runs end to end at a tiny size."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, overrides, csvs",
    [
        ("atomic_density_table", {"q_max": 50, "top": 5}, ["atoms.csv"]),
        ("dirichlet_scale_invariance", {"x": 2000.0, "bins": 10},
         ["X2000_plus.csv", "X2000_minus.csv", "X4000_plus.csv", "X4000_minus.csv"]),
        ("weight_aspect_overlay", {"weights": (40.0,)}, ["K40.csv"]),
    ],
)
def test_script_runs_and_writes_csv(tmp_path, capsys, name, overrides, csvs):
    module = load(name)
    module.run(module.Config(out_dir=tmp_path, **overrides))
    assert capsys.readouterr().out
    for csv in csvs:
        assert (tmp_path / csv).stat().st_size > 0
