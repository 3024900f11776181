"""Each experiment script runs end to end at a tiny size, and a bad option
or input ends in one error line with the CLI's exit code."""

import importlib.util
import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, overrides, csvs",
    [
        ("atomic_density_table", ["--q-max", "50", "--top", "5"], ["atoms.csv"]),
        ("dirichlet_scale_invariance", ["--x", "2000", "--bins", "10"],
         ["X2000.csv", "X2000-minus.csv", "X4000.csv", "X4000-minus.csv"]),
        ("weight_aspect_overlay", ["--weights", "40"], ["K40.csv"]),
    ],
)
def test_script_runs_and_writes_csv(tmp_path, capsys, name, overrides, csvs):
    assert load(name).main(overrides + ["--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out
    for csv in csvs:
        assert (tmp_path / csv).stat().st_size > 0


@pytest.mark.parametrize(
    "name, argv",
    [
        # each of these once ended in a traceback, or, for --top -3, listed all but the last 3 atoms
        ("dirichlet_scale_invariance", ["--bins", "0"]),
        ("atomic_density_table", ["--q-max", "0"]),
        ("atomic_density_table", ["--top", "-3"]),
        ("weight_aspect_overlay", ["--weights", "nan"]),
        ("weight_aspect_overlay", ["--sign", "2"]),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_bad_options_are_usage_errors(tmp_path, capsys, name, argv):
    assert load(name).main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1)
    assert err.startswith(f"usage error: argument {argv[0]}: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "name, argv, code, message",
    [
        ("weight_aspect_overlay", ["--weights", "1000"], 1, "weight window at K=1000 reaches order"),
        ("dirichlet_scale_invariance", ["--x", "1"], 4, "no primes with p/X in [0.05, 1.0] at X=1"),
        ("atomic_density_table", ["--e-min", "5", "--e-max", "1"], 1, "E must be a compact subinterval"),
    ],
    ids=["weights 1000", "x 1", "e-min above e-max"],
)
def test_library_errors_exit_with_the_cli_codes(tmp_path, capsys, name, argv, code, message):
    # the scripts once created --out-dir before the library ran, leaving it empty behind a failed run
    assert load(name).main(argv + ["--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["atomic_density_table", "dirichlet_scale_invariance", "weight_aspect_overlay"])
def test_script_entry_point_exits_with_a_usage_error(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), "--no-such-option", "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "usage error: unrecognized arguments: --no-such-option\n"
    assert not any(tmp_path.iterdir())
