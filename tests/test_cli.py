import argparse
import importlib.util
from pathlib import Path
import subprocess
import sys

import pytest

from murmur import arith, cli, densities, frame, numtext, petersson, specfn

import numpy as np


ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    return cli.main(args)


GOOD_FAMILY = """#murmur-family v1
label,conductor,root_number
a,10,1
b,15,1

a,2,1
a,3,-1
b,2,-2
b,3,2
"""


def test_emit_csv_schema(tmp_path):
    path = tmp_path / "one.csv"
    cli.emit_csv(path, "y,value,count", (np.array([1.0]), np.array([0.5]), np.array([3])))
    assert path.read_text() == "y,value,count\n1.0,0.5,3\n"


def test_emit_csv_atoms_precede_rows(tmp_path):
    path = tmp_path / "atoms.csv"
    dist = densities.DistributionValue([4.0], [8.0 / 3.0], lambda x: 0.0)
    cli.emit_csv(path, "y,value", (np.array([1.0]), np.array([2.0])), dist=dist)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#atom 4.0 ")
    assert lines[1] == "y,value"


def test_emit_csv_writes_python_reprs_of_numpy_columns(tmp_path):
    path = tmp_path / "reprs.csv"
    ys = np.array([0.1 + 0.2, -0.0, 5e-324], dtype=np.float64)
    counts = np.array([7, 2**40, 1], dtype=np.int64)
    cli.emit_csv(path, "y,value,count", (ys, -ys, counts))
    assert path.read_text() == (
        "y,value,count\n0.30000000000000004,-0.30000000000000004,7\n"
        "-0.0,0.0,1099511627776\n5e-324,-5e-324,1\n"
    )
    # one value per layout and special value of the formatter
    texts = [
        "nan", "nan", "inf", "-inf", "0.0", "-0.0", "0.0001", "9.999999999999999e-05", "1e-05",
        "9999999999999998.0", "1e+16", "9007199254740994.0", "1e+23", "1.7976931348623157e+308",
        "2.2250738585072014e-308", "5e-324",
    ]
    finfo = np.finfo(np.float64)
    values = np.array([
        np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 0.0001, 9.999999999999999e-05, 1e-05,
        9999999999999998.0, 1e16, 2.0**53 + 2, 1e23, finfo.max, finfo.tiny, finfo.smallest_subnormal,
    ])
    assert np.signbit(values[1]) and texts == [repr(v) for v in values.tolist()]
    ints = np.array([-(2**63), 2**63 - 1] * 8, dtype=np.int64)
    cli.emit_csv(path, "value,count", (values, ints))
    assert path.read_text().splitlines() == ["value,count", *(f"{t},{n}" for t, n in zip(texts, ints.tolist()))]
    # 16 rows are written by repr; the same values in a column past the
    # threshold go through the column pipeline
    copies = -(-numtext._SHORT // len(values))
    cli.emit_csv(path, "value,count", (np.tile(values, copies), np.tile(ints, copies)))
    lines = path.read_text().splitlines()
    assert len(lines) - 1 == copies * len(values) >= numtext._SHORT
    assert lines[1:] == [f"{t},{n}" for t, n in zip(texts, ints.tolist())] * copies


def test_emit_csv_matches_repr_on_random_bit_patterns(tmp_path):
    # every biased exponent, both signs, subnormals, nan and inf; every power
    # of two; +-10^k; integers of every length
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**64, size=200_001, dtype=np.uint64)
    assert len(np.unique(bits >> 52 & 0x7FF)) == 2048
    values = np.concatenate([
        bits.view(np.float64),
        np.ldexp(1.0, np.arange(-1074, 1024)),
        [s * 10.0**k for k in range(-300, 301) for s in (1, -1)],
    ])
    columns = np.array_split(values, 3)
    n = len(columns[-1])
    counts = rng.integers(-(2**63), 2**63 - 1, n, dtype=np.int64) >> rng.integers(0, 64, n)
    columns = [c[:n] for c in columns] + [counts]
    path = tmp_path / "oracle.csv"
    cli.emit_csv(path, "a,b,c,count", columns)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c,count"
    expect = [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
    assert len(lines) == n + 1 and lines[1:] == expect
    # a slice short enough for repr: the same text
    start = n // 2
    cli.emit_csv(path, "a,b,c,count", [c[start : start + numtext._SHORT - 1] for c in columns])
    assert path.read_text().splitlines() == ["a,b,c,count", *expect[start : start + numtext._SHORT - 1]]


REJECTED_DTYPES = [np.bool_, np.complex128] + ([np.longdouble] if np.dtype(np.longdouble).itemsize > 8 else [])


@pytest.mark.parametrize("dtype", REJECTED_DTYPES, ids=lambda d: np.dtype(d).name)
def test_lines_reject_the_same_dtypes_on_both_paths(dtype):
    message = f"cannot write a column of dtype {np.dtype(dtype)} as CSV text"
    for n in (1, numtext._SHORT - 1, numtext._SHORT, numtext._BLOCK + 1):
        good, bad = np.arange(n, dtype=np.float64), np.ones(n, dtype=dtype)
        for columns in ([bad], [good, bad]):
            with pytest.raises(TypeError) as info:
                list(numtext.lines(columns))
            assert str(info.value) == message, n
    assert list(numtext.lines([np.ones(0, dtype=dtype)])) == []


def test_emit_atoms_streamed_in_blocks(tmp_path, monkeypatch):
    # one write per block of atoms gives the bytes of one line per atom
    dist, _ = densities.window_murmuration_density((0.5, 9.0), 40, 1.0)
    atoms = dist.atoms
    cli.emit_csv(tmp_path / "a.csv", "y,value", dist=dist)
    cli.emit_svg(tmp_path / "a.svg", [], dist=dist)
    monkeypatch.setattr(densities, "_ATOM_BLOCK", 3)
    cli.emit_csv(tmp_path / "b.csv", "y,value", dist=dist)
    cli.emit_svg(tmp_path / "b.svg", [], dist=dist)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    expect = "".join(f"#atom {loc!r} {mass!r}\n" for loc, mass in atoms) + "y,value\n"
    assert (tmp_path / "a.csv").read_text() == expect
    assert (tmp_path / "a.svg").read_text().count('stroke="#d62728" stroke-width="2"/>\n') == len(atoms) > 3


def test_emit_svg_same_bytes_for_lists_and_arrays(tmp_path):
    xs = np.linspace(0.013, 0.97, 41)
    ys = np.sin(17.0 * xs) / 3.0
    dist = densities.DistributionValue([0.25, 0.5], [0.125, 2.0 / 3.0], lambda x: 0.0)
    cli.emit_svg(tmp_path / "arrays.svg", [("a", xs, ys), ("b", xs, -ys)], dist=dist, title="t")
    cli.emit_svg(
        tmp_path / "lists.svg",
        [("a", xs.tolist(), ys.tolist()), ("b", xs.tolist(), (-ys).tolist())],
        dist=dist,
        title="t",
    )
    assert (tmp_path / "arrays.svg").read_bytes() == (tmp_path / "lists.svg").read_bytes()


def test_emit_svg_two_polylines(tmp_path):
    path = tmp_path / "plot.svg"
    cli.emit_svg(
        path,
        [("a", [0.0, 1.0], [0.0, 1.0]), ("b", [0.0, 1.0], [1.0, 0.0])],
        dist=densities.DistributionValue([0.5], [2.0], lambda x: 0.0),
    )
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert text.count('stroke="#d62728" stroke-width="2"') == 1
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_density_ils_zero_below_support(tmp_path):
    out = tmp_path / "ils"
    code = run_cli([
        "density-ils", "--phi", "bump", "1", "2", "--sign", "+1",
        "--y-min", "0.001", "--y-max", "0.02", "--grid", "50", "--out", str(out),
    ])
    assert code == 0
    lines = (tmp_path / "ils.csv").read_text().splitlines()[1:]
    import math
    threshold = 1.0 / (16 * math.pi**2)
    for line in lines:
        y, value = map(float, line.split(","))
        if y < threshold:
            assert value == 0.0


def test_dirichlet_row_count(tmp_path):
    out = tmp_path / "dir"
    code = run_cli([
        "dirichlet", "--x", "2000", "--phi", "indicator", "1", "2",
        "--sign", "+1", "--bins", "40", "--y-min", "0.05", "--y-max", "0.9",
        "--out", str(out),
    ])
    assert code == 0
    lines = (tmp_path / "dir.csv").read_text().splitlines()
    assert lines[0] == "y,value,count"
    assert len(lines) == 1 + 40


def test_dirichlet_both_signs_summarize_each_class(tmp_path, capsys):
    code = run_cli(["dirichlet", "--x", "2000", "--sign", "both", "--bins", "20", "--out", str(tmp_path / "dir")])
    assert code == 0
    names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert names == ["dirichlet", "dirichlet-minus"]


def test_cli_determinism_byte_identical(tmp_path):
    args = [
        "dirichlet", "--x", "1500", "--phi", "indicator", "1", "2",
        "--sign", "both", "--bins", "25", "--y-min", "0.05", "--y-max", "0.8",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(args + ["--out", str(out1), "--svg"]) == 0
    assert run_cli(args + ["--out", str(out2), "--svg"]) == 0
    assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
    assert (tmp_path / "r1-minus.csv").read_bytes() == (tmp_path / "r2-minus.csv").read_bytes()
    assert (tmp_path / "r1.svg").read_bytes() == (tmp_path / "r2.svg").read_bytes()


def test_petersson_negative_sign_peak(tmp_path):
    out = tmp_path / "pet"
    code = run_cli([
        "petersson", "--k", "40", "--phi", "bump", "1", "2", "--sign", "-1",
        "--y-min", "0.006", "--y-max", "0.013", "--out", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in (tmp_path / "pet.csv").read_text().splitlines()[1:]]
    values = np.array([float(r[1]) for r in rows])
    assert values[np.argmax(np.abs(values))] < 0.0


def test_petersson_both_signs_report_residuals(tmp_path, capsys):
    out = tmp_path / "pet"
    code = run_cli(["petersson", "--k", "100", "--phi", "bump", "1", "2", "--sign", "both", "--svg", "--out", str(out)])
    assert code == 0
    residuals = [
        float(word.split("=")[1])
        for line in capsys.readouterr().out.splitlines()
        for word in line.split()
        if word.startswith("residual-vs-reference=")
    ]
    assert len(residuals) == 2
    assert all(r < 0.2 for r in residuals)
    assert (tmp_path / "pet.svg").read_text().count("<polyline") == 4


def test_petersson_both_signs_make_one_series_call(tmp_path, monkeypatch):
    # both classes come from one harmonic_series call (one kernel pass), the name the benchmark traces
    calls = []
    series = petersson.harmonic_series
    monkeypatch.setattr(petersson, "harmonic_series", lambda *a, **kw: calls.append(a[3]) or series(*a, **kw))
    assert run_cli(["petersson", "--k", "60", "--sign", "both", "--out", str(tmp_path / "pet")]) == 0
    assert calls == [(1, -1)]


def test_petersson_prime_grid_covers_requested_range(tmp_path):
    # K = 320 needs primes up to 0.055 * 319^2 ~ 5597, past the 2048 sieve floor
    code = run_cli([
        "petersson", "--k", "320", "--phi", "bump", "1", "2", "--sign", "+1", "--out", str(tmp_path / "pet"),
    ])
    assert code == 0
    rows = (tmp_path / "pet.csv").read_text().splitlines()[1:]
    assert len(rows) == 659
    assert float(rows[-1].split(",")[0]) >= 0.054


def test_petersson_empty_prime_grid_is_window_error(tmp_path):
    code = run_cli([
        "petersson", "--k", "40", "--y-min", "0.0001", "--y-max", "0.0002", "--out", str(tmp_path / "pet"),
    ])
    assert code == 4


def test_symsq_runs(tmp_path):
    out = tmp_path / "sym"
    code = run_cli(["symsq", "--k", "24", "--p-max", "13", "--phi", "bump", "1", "2", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "sym.csv").exists()


def test_density_nu_atom_lines(tmp_path):
    out = tmp_path / "nu"
    code = run_cli([
        "density-nu", "--e-min", "0.5", "--e-max", "10", "--q-max", "50", "--out", str(out),
    ])
    assert code == 0
    lines = (tmp_path / "nu.csv").read_text().splitlines()
    atom_lines = [ln for ln in lines if ln.startswith("#atom")]
    assert atom_lines
    assert lines.index("y,value") == len(atom_lines)
    locs = [float(ln.split()[1]) for ln in atom_lines]
    assert any(abs(l - 1.0) < 1e-12 for l in locs)
    assert any(abs(l - 4.0) < 1e-12 for l in locs)


def test_density_nu_atom_count_at_q_max_400(tmp_path):
    out = tmp_path / "nu"
    code = run_cli(["density-nu", "--e-min", "0.5", "--e-max", "50", "--q-max", "400", "--out", str(out)])
    assert code == 0
    lines = (tmp_path / "nu.csv").read_text().splitlines()
    assert sum(ln.startswith("#atom") for ln in lines) == 43166


def test_density_nu_svg_without_atoms(tmp_path, capsys):
    # this once wrote nu.csv, then exited 2 with "nothing to plot" and no summary
    out = tmp_path / "nu"
    code = run_cli(["density-nu", "--e-min", "1.1", "--e-max", "1.2", "--q-max", "1", "--svg", "--out", str(out)])
    assert code == 0
    assert (tmp_path / "nu.csv").read_text() == "y,value\n"
    svg = (tmp_path / "nu.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "atoms=0 " in capsys.readouterr().out


def test_density_nu_reads_only_the_atom_columns(tmp_path, monkeypatch):
    # the (location, mass) tuple view costs a Python object per atom: the command never builds it
    def refuse(self):
        raise AssertionError("density-nu read DistributionValue.atoms")

    monkeypatch.setattr(densities.DistributionValue, "atoms", property(refuse))
    out = tmp_path / "nu"
    assert run_cli(["density-nu", "--e-min", "0.5", "--e-max", "50", "--q-max", "60", "--svg", "--out", str(out)]) == 0
    assert (tmp_path / "nu.csv").read_text().count("#atom ") == 965
    assert (tmp_path / "nu.svg").exists()


def test_density_nu_too_many_candidates_is_size_error(tmp_path, capped_run):
    # about 3e9 candidates a below q / 1e-6: this once died with an uncaught
    # _ArrayMemoryError traceback ("Unable to allocate 168. MiB") under the cap
    argv = ["density-nu", "--e-min", "1e-12", "--e-max", "50", "--q-max", "100", "--out", str(tmp_path / "nu")]
    result = capped_run(f"import sys, murmur.cli\nsys.exit(murmur.cli.main({argv!r}))")
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"error: 2966999726 (q, a) candidates on [1e-12, 50] up to q_max=100 exceed supported size {2**31 - 1}"
    ]
    assert list(tmp_path.iterdir()) == []


def test_density_nu_out_of_memory_is_one_error_line(tmp_path, capped_run):
    # the size guard passes these 938,247,537 candidates, but their atoms outgrow a
    # 600 MB address space: this once died with an _ArrayMemoryError traceback
    argv = ["density-nu", "--e-min", "1e-11", "--e-max", "50", "--q-max", "100", "--out", str(tmp_path / "nu")]
    cap = 600 * 10**6
    result = capped_run(
        "import resource, sys, murmur.cli\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        f"sys.exit(murmur.cli.main({argv!r}))"
    )
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), result.stderr
    assert list(tmp_path.iterdir()) == []


def test_old_kernel_fourier(tmp_path):
    out = tmp_path / "ok"
    code = run_cli(["old-kernel", "--parity", "odd", "--hat", "--out", str(out), "--svg"])
    assert code == 0
    lines = (tmp_path / "ok.csv").read_text().splitlines()
    assert lines[0].startswith("#atom 0.0 1.0")


def test_ingest_run(tmp_path):
    fam = tmp_path / "fam.txt"
    fam.write_text(GOOD_FAMILY)
    out = tmp_path / "run"
    code = run_cli([
        "ingest-run", "--file", str(fam), "--x", "10", "--phi", "indicator", "1", "2",
        "--out", str(out),
    ])
    assert code == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == "y,value,count"
    assert len(lines) == 3  # primes 2 and 3


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_ingest_run_rejects_invalid_utf8(tmp_path, capsys, newline):
    # a file that is not UTF-8 once ended in a UnicodeDecodeError traceback
    text = GOOD_FAMILY.replace("\n", newline).encode("utf-8")
    fam = tmp_path / "fam.txt"
    fam.write_bytes(text.replace(b"b,15,1", b"b,15,1\xff\xfe"))
    code = run_cli(["ingest-run", "--file", str(fam), "--x", "10", "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == "error: line 4: not valid UTF-8\n"
    assert not any(p.name.startswith("run") for p in tmp_path.iterdir())


def test_ingest_run_drops_a_leading_bom(tmp_path, capsys):
    # a UTF-8 byte-order mark once failed as "line 1: expected header"
    runs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / f"{name}.txt").write_bytes(prefix + GOOD_FAMILY.encode("utf-8"))
        code = run_cli(["ingest-run", "--file", str(tmp_path / f"{name}.txt"), "--x", "10",
                        "--out", str(tmp_path / name)])
        assert code == 0
        runs.append(((tmp_path / f"{name}.csv").read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert "digest=" in runs[1][1]
    # the mark does not shift line numbers: a bad byte on line 3 is still reported there
    bad = b"\xef\xbb\xbf" + GOOD_FAMILY.encode("utf-8").replace(b"a,10,1", b"a,10,1\xff")
    (tmp_path / "bad.txt").write_bytes(bad)
    assert run_cli(["ingest-run", "--file", str(tmp_path / "bad.txt"), "--x", "10", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: line 3: not valid UTF-8\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("\n", "family has no records"),
        ("a,10,1\n\n", "no usable prime coverage"),  # a record without coefficients: coverage 0
    ],
    ids=["no records", "no coverage"],
)
def test_ingest_run_without_records_or_coverage_is_a_data_error(tmp_path, capsys, body, message):
    fam = tmp_path / "fam.txt"
    fam.write_text("#murmur-family v1\nlabel,conductor,root_number\n" + body)
    assert run_cli(["ingest-run", "--file", str(fam), "--x", "10", "--svg", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {fam}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.txt"]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_usage():
    assert run_cli(["dirichlet", "--x", "100", "--sign", "maybe", "--out", "/tmp/x"]) == 1
    assert run_cli(["nonsense"]) == 1


def test_density_ils_both_signs_is_a_usage_error(tmp_path, capsys):
    assert run_cli(["density-ils", "--sign", "both", "--svg", "--out", str(tmp_path / "ils")]) == 1
    assert capsys.readouterr() == ("", "usage error: density-ils needs a single sign\n")
    assert not any(tmp_path.iterdir())


def test_options_a_command_does_not_read_are_usage_errors(tmp_path):
    out = str(tmp_path / "o")
    assert run_cli(["dirichlet", "--x", "100", "--quad-tol", "1e-3", "--out", out]) == 1
    assert run_cli(["density-nu", "--e-min", "0.5", "--e-max", "5", "--tail-tol", "1e-3", "--out", out]) == 1
    assert run_cli(["old-kernel", "--phi", "bump", "1", "2", "--out", out]) == 1
    # --k-window silently averaged only part of its span; it is gone
    assert run_cli(["petersson", "--k", "66", "--k-window", "60", "72", "--out", out]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dirichlet", "--x", "1000", "--bins", "0"],
        ["density-ils", "--grid", "1"],
        ["old-kernel", "--grid", "1"],
        ["symsq", "--k", "24", "--p-max", "1"],
        # this once exited 2 with "<file>: no usable prime coverage", blaming the file
        ["ingest-run", "--file", "FAMILY", "--x", "10", "--p-max", "1"],
        ["ingest-run", "--file", "FAMILY", "--x", "10", "--p-max", "two"],
        # this once printed the library's "error: q_max must be >= 1"
        ["density-nu", "--e-min", "1", "--e-max", "5", "--q-max", "0"],
    ],
    ids=" ".join,
)
def test_integer_options_below_their_bound_are_usage_errors(tmp_path, argv, capsys):
    (tmp_path / "fam.txt").write_text(GOOD_FAMILY)
    option, text = argv[-2:]
    argv = [str(tmp_path / "fam.txt") if a == "FAMILY" else a for a in argv]
    assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {option}: expected an integer >= ")
    assert err.endswith(f", got {text!r}\n") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.txt"]


@pytest.mark.parametrize(
    "argv",
    [
        # these once exited 0, with a descending y column, x running from 3 down
        # to -3, or a grid of identical x
        ["density-ils", "--y-min", "0.05", "--y-max", "0.01"],
        ["density-ils", "--y-min", "0.02", "--y-max", "0.02"],
        ["old-kernel", "--x-max", "-3"],
        ["old-kernel", "--x-max", "0"],
        # these once exited 4 with "error: no primes with p/X in [0.9, 0.1]", a window error
        ["dirichlet", "--x", "1000", "--y-min", "0.9", "--y-max", "0.1"],
        ["petersson", "--k", "40", "--y-min", "0.05", "--y-max", "0.004"],
    ],
    ids=" ".join,
)
def test_reversed_sampling_ranges_are_usage_errors(tmp_path, argv, capsys):
    assert run_cli(argv + ["--svg", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_benchmark_argv_still_parses():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    parser = cli.build_parser()
    for ops in workloads.WORKLOADS.values():
        for _, argv in ops:
            if argv is not None:
                argv = [a.format(out="o", family="f") for a in argv]
                assert parser.parse_args(argv) == cli.build_parser(argv[0]).parse_args(argv)


def _outcome(call, capsys):
    """(exit code, stdout, stderr) of ``call``, with argparse's exits as codes."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _bad_argvs(command):
    return [
        [command],
        [command, "--bogus"],
        [command, "--out"],
        [command, "--out", "o", "extra"],
        [command, "--out", "o", "--phi", "bump"],
        [command, "--out", "o", "--grid", "1", "--bins", "0", "--p-max", "1", "--q-max", "0"],
        [command, "--out", "o", "--x", "nan", "--k", "inf", "--e-min", "x", "--tail-tol", "-"],
        [command, "--out", "o", "--normalization", "none", "--parity", "none"],
    ]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_command_parser_prints_what_the_full_parser_prints(command, capsys, monkeypatch):
    # help, usage errors and exit codes do not depend on the sibling subcommands
    monkeypatch.setenv("COLUMNS", "100")
    full = cli.build_parser()
    for argv in [[command, "--help"], [command, "-h", "--bogus"], *_bad_argvs(command)]:
        expect = _outcome(lambda: cli.run(full, lambda args: args.handler(args), argv), capsys)
        code, out, err = expect
        assert (code, bool(out), bool(err)) in ((0, True, False), (1, False, True))
        assert _outcome(lambda: cli.main(argv), capsys) == expect, argv


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["bogus", "--out", "o"], ["--out", "o", "symsq"]])
def test_murmur_without_a_command_builds_every_subcommand(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    expect = _outcome(lambda: cli.run(cli.build_parser(), lambda args: args.handler(args), argv), capsys)
    assert _outcome(lambda: cli.main(argv), capsys) == expect
    if argv == ["--help"]:
        assert all(summary in expect[1] for summary, _, _ in cli._COMMANDS.values())
        assert "byte-identical CSV.\n" in expect[1] and "_COMMANDS" not in expect[1]
    else:
        assert expect[0] == 1 and expect[2].startswith("usage error: ")


def test_a_command_builds_only_its_own_subparser(tmp_path, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(
        argparse._SubParsersAction, "add_parser", lambda self, name, **kw: added.append(name) or add_parser(self, name, **kw)
    )
    assert cli.main(["symsq", "--k", "24", "--p-max", "13", "--out", str(tmp_path / "s")]) == 0
    assert added == ["symsq"]
    cli.build_parser()
    assert added[1:] == list(cli._COMMANDS) and len(added) == 8


@pytest.mark.parametrize("command", ["petersson", "symsq"])
def test_zero_tail_tol_is_usage_exit(tmp_path, command, capsys):
    # --tail-tol 0 once crashed with an uncaught math domain error
    code = run_cli([command, "--k", "40", "--tail-tol", "0", "--out", str(tmp_path / "t")])
    assert code == 1
    assert "tail tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["symsq", "--k", "inf"],
        ["symsq", "--k", "nan"],
        ["density-ils", "--y-min", "nan"],
        ["density-ils", "--y-max", "inf"],
        ["old-kernel", "--x-max", "inf"],
        ["old-kernel", "--x-max", "nan"],
        ["density-nu", "--e-min", "0.5", "--e-max", "inf"],
        ["petersson", "--k", "40", "--phi", "bump", "1", "inf"],
    ],
    ids=" ".join,
)
def test_non_finite_float_options_are_usage_errors(tmp_path, argv, capsys):
    # these once ended in a traceback, or wrote a NaN or unbounded-window CSV and exited 0
    assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 1
    assert "finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["petersson", "--k", "1e200"],
        ["symsq", "--k", "1e200"],
        ["density-nu", "--e-min", "0.5", "--e-max", "1e300", "--q-max", "10"],
        ["old-kernel", "--x-max", "1e308", "--grid", "3"],
    ],
    ids=" ".join,
)
def test_huge_finite_float_options_exit_1(tmp_path, argv, capsys):
    # these once ended in an OverflowError traceback, or wrote a NaN CSV and exited 0
    assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, order",
    [
        # these two once died with a MemoryError traceback under the cap, building
        # the lgamma list of 7e7 weights and the weight list of 7e11
        pytest.param(["symsq", "--k", "1e8", "--phi", "bump", "1", "2"], "K=1e+08 reaches order 1.41421e+08",
                     id="symsq --k 1e8"),
        pytest.param(["symsq", "--k", "1e12"], "K=1e+12 reaches order 1.41421e+12", id="symsq --k 1e12"),
        pytest.param(["petersson", "--k", "400"], "K=400 reaches order 564.271", id="petersson --k 400"),
    ],
)
def test_weight_window_past_bessel_order_is_one_error_line(tmp_path, capped_run, argv, order):
    argv = argv + ["--out", str(tmp_path / "o")]
    result = capped_run(f"import sys, murmur.cli\nsys.exit(murmur.cli.main({argv!r}))")
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"error: weight window at {order}, past the supported maximum {specfn._BESSEL_MAX_ORDER}"
    ]
    assert list(tmp_path.iterdir()) == []


def test_density_ils_sieve_covers_y_max(tmp_path):
    # a fixed 4096 sieve once failed with "n=6284 outside table range"
    out = tmp_path / "ils"
    assert run_cli(["density-ils", "--y-max", "1e6", "--grid", "3", "--out", str(out)]) == 0
    last = float((tmp_path / "ils.csv").read_text().splitlines()[-1].split(",")[1])
    phi = specfn.indicator(1.0, 2.0)
    assert last == densities.harmonic_murmuration_density(1e6, phi, 1, arith.sieve(20000))


def _small_benchmark_argvs(tmp_path):
    """The perfbench commands at small sizes."""
    (tmp_path / "fam.txt").write_text(GOOD_FAMILY)
    out = str(tmp_path / "o")
    return [
        ["petersson", "--k", "40", "--phi", "bump", "1", "2", "--sign", "both", "--svg", "--out", out],
        ["symsq", "--k", "24", "--p-max", "13", "--phi", "bump", "1", "2", "--out", out],
        ["density-nu", "--e-min", "0.5", "--e-max", "5", "--q-max", "20", "--out", out],
        ["dirichlet", "--x", "1000", "--phi", "indicator", "1", "2", "--sign", "both", "--bins", "5", "--svg",
         "--out", out],
        ["ingest-run", "--file", str(tmp_path / "fam.txt"), "--x", "10", "--phi", "indicator", "1", "2",
         "--out", out],
    ]


def test_commands_leave_scipy_integrate_unimported(tmp_path):
    # none loads scipy (the import of scipy.special once cost every process
    # about 0.3 s for one Bessel call) or numpy.ma (which scipy imported);
    # only the one-level pairing loads scipy.integrate
    argvs = _small_benchmark_argvs(tmp_path)
    code = f"""
import sys
import murmur.cli
loaded = lambda: [m for m in sys.modules if m.split(".")[0] == "scipy" or m == "numpy.ma"]
assert loaded() == [], loaded()
for argv in {argvs!r}:
    assert murmur.cli.main(argv) == 0, argv
assert loaded() == [], loaded()
from murmur import densities, specfn
assert densities.one_level_pairing(specfn.shifted_bump(-0.5, 0.5), "odd") > 1.0
assert "scipy.integrate" in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_short_outputs_leave_the_formatter_tables_unbuilt(tmp_path):
    # building numtext's tables once cost every command about 4 ms, more than
    # repr takes for its short CSVs; the atoms of the benchmark's density-nu
    # (43,166 in blocks of 4096) build them once
    argvs = _small_benchmark_argvs(tmp_path)
    short = [argv for argv in argvs if argv[0] != "density-nu"]
    nu = ["density-nu", "--e-min", "0.5", "--e-max", "50", "--q-max", "400", "--out", str(tmp_path / "nu")]
    code = f"""
import murmur.cli
from murmur import numtext
for argv in {short!r}:
    assert murmur.cli.main(argv) == 0, argv
assert numtext._tables.cache_info().misses == numtext._gather.cache_info().misses == 0
assert murmur.cli.main({nu!r}) == 0
tables = numtext._tables.cache_info()
assert tables.misses == 1 and tables.hits > 10, tables
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert len(short) == 4 and (tmp_path / "nu.csv").read_text().count("#atom ") == 43166


def test_exit_data(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a family file\n")
    assert run_cli(["ingest-run", "--file", str(bad), "--x", "10", "--out", str(tmp_path / "o")]) == 2


def test_exit_accuracy(tmp_path):
    # k = 4, the one weight of the window, cannot certify the default tail tolerance within budget
    code = run_cli([
        "petersson", "--k", "5",
        "--phi", "indicator", "0.5", "1.5", "--sign", "+1",
        "--y-min", "0.3", "--y-max", "0.9", "--out", str(tmp_path / "acc"),
    ])
    assert code == 3


def test_exit_window(tmp_path):
    code = run_cli([
        "dirichlet", "--x", "1000", "--phi", "indicator", "1", "2", "--sign", "+1",
        "--y-min", "0.00001", "--y-max", "0.0000111", "--out", str(tmp_path / "w"),
    ])
    assert code == 4


def test_dirichlet_window_beyond_sieve_is_size_error(tmp_path, capped_run):
    # the prime grid (3, 5) passes, but |d| reaches 6e9: this once allocated a 6 GB squarefree mask
    argv = ["dirichlet", "--x", "3e9", "--y-min", "1e-9", "--y-max", "2e-9", "--out", str(tmp_path / "big")]
    result = capped_run(f"import sys, murmur.cli\nsys.exit(murmur.cli.main({argv!r}))")
    assert result.returncode == 1
    assert result.stderr.splitlines() == [f"error: sieve limit 6000000000 exceeds supported size {2**31 - 1}"]
    assert list(tmp_path.iterdir()) == []


def test_dirichlet_bin_edges_follow_the_samples(tmp_path, capped_run):
    # np.linspace once asked for 74.5 GiB of bin edges here and died with a MemoryError traceback
    argv = ["dirichlet", "--x", "2000", "--bins", "10000000000", "--out", str(tmp_path / "d")]
    result = capped_run(f"import sys, murmur.cli\nsys.exit(murmur.cli.main({argv!r}))")
    assert result.returncode == 0, result.stderr
    rows = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1, ndmin=2)
    # bins of width 0.95e-10 hold one prime each
    y = np.array(arith.prime_grid(2000.0, 0.05, 1.0)) / 2000.0
    assert len(rows) == len(y)
    assert np.all(np.abs(rows[:, 0] - y) <= 0.95e-10)
    assert len(set(rows[:, 2].tolist())) == 1


def test_module_entrypoint_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "murmur", "old-kernel", "--parity", "even",
         "--out", str(tmp_path / "m")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "old-kernel:" in result.stdout

