import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmur import arith, cli, families, frame, specfn
from murmur.errors import CoverageError, DataError, DomainError, WindowError

import oracles

PHI = specfn.indicator(1.0, 2.0)


# ---------------------------------------------------------------------------
# fundamental discriminants


def test_enumerate_small_window():
    classes = families.fundamental_discriminants(5.0, PHI)
    assert classes[1].tolist() == [5, 8]
    assert classes[-1].tolist() == [-7, -8]


def test_enumerate_matches_bruteforce_scan():
    # X = 3 covers |d| from 3 upward; each class in ascending |d|
    for X in [3.0, 10.0, 100.0, 1000.0]:
        classes = families.fundamental_discriminants(X, PHI)
        for s in (1, -1):
            brute = [s * n for n in range(max(3, math.ceil(X)), math.floor(2 * X) + 1)
                     if oracles.is_fundamental_naive(s * n)]
            assert classes[s].dtype == np.int64
            assert classes[s].tolist() == brute, (X, s)


def test_enumerate_memory_follows_the_mask():
    # int64 candidate arrays and their residues once peaked at 57.9 MB here
    tracemalloc.start()
    try:
        classes = families.fundamental_discriminants(1e6, PHI)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes[1]) + len(classes[-1]) > 0.6 * 10**6
    assert peak <= 30 * 10**6


def test_enumerate_requires_scale():
    with pytest.raises(DomainError):
        families.fundamental_discriminants(2.0, PHI)


def test_enumerate_window_beyond_sieve_raises_size_error(capped_run):
    result = capped_run(
        "from murmur import families, specfn\n"
        "from murmur.errors import SizeError\n"
        "try:\n"
        "    families.fundamental_discriminants(3e9, specfn.indicator(1.0, 2.0))\n"
        "except SizeError as exc:\n"
        "    print(exc)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"sieve limit 6000000000 exceeds supported size {2**31 - 1}\n"


def test_parity_classes_and_lambda():
    for cls, ds in families.fundamental_discriminants(50.0, PHI).items():
        assert ds.dtype == np.int64
        assert np.all(np.sign(ds) == cls)
        assert np.all(np.diff(np.abs(ds)) > 0)
        for d in ds.tolist():
            for p in [2, 3, 5, 7]:
                lam = oracles.kronecker_oracle(d, p)
                assert lam in (-1, 0, 1)
                assert (lam == 0) == (d % p == 0)


@settings(max_examples=40)
@given(st.sampled_from([5, 8, -7, -8, 13, -11, 12, -4]), st.sampled_from([5, 8, -7, -8, 13, -11, 12, -4]),
       st.sampled_from([2, 3, 5, 7, 11, 13]), st.sampled_from([0, 1, 4]))
def test_character_multiplicativity(d, e, p, lo):
    # the family's (d|p) for negative d is (-1|p)(|d| | p): the table must be a character in d;
    # from lo = 1 or 4 (4 mod 8 for p = 2) the period table is read rotated
    (tiled, minus_one), = families._legendre_tables([p], lo, 199)

    def chi(n):
        return int(tiled[abs(n) - lo]) * (minus_one if n < 0 else 1)

    assert chi(d * e) == chi(d) * chi(e)
    assert chi(d) == oracles.kronecker_oracle(d, p)


def test_legendre_table_matches_kronecker():
    # windows [lo, hi] from 0; from 1237, a prime and 5 mod 8; shorter than the
    # period 97; and wrapping past the end of the period 97 (1453 = 95 mod 97)
    primes = [2, 3, 5, 7, 11, 13, 97]
    for lo, hi in [(0, 249), (1237, 1486), (1237, 1287), (1453, 1462)]:
        for p, (tiled, minus_one) in zip(primes, families._legendre_tables(primes, lo, hi)):
            assert minus_one == oracles.kronecker_oracle(-1, p)
            for n in range(lo, hi + 1):
                assert tiled[n - lo] == oracles.kronecker_oracle(n, p), (n, p, lo)


def test_quadratic_murmuration_against_double_loop():
    primes = [2, 3, 5, 7, 11]
    for cls in (1, -1):
        ser = families.quadratic_murmuration(50.0, PHI, cls, primes)
        ds = families.fundamental_discriminants(50.0, PHI)[cls].tolist()
        for i, p in enumerate(primes):
            expect = sum(oracles.kronecker_oracle(d, p) for d in ds) / len(ds)
            assert abs(ser.value[i] - expect) < 1e-12
        assert ser.count[0] == len(ds)


def assert_matches_class_oracle(X, phi, primes):
    for normalization in ("analytic", "raw_sqrtp"):
        both = families.quadratic_series(X, phi, (1, -1), primes, normalization=normalization)
        for cls, ser in zip((1, -1), both):
            want = oracles.quadratic_class_oracle(X, phi, cls, primes, normalization)
            assert np.array_equal(ser.value, want), (cls, normalization)
            one = families.quadratic_murmuration(X, phi, cls, primes, normalization=normalization)
            assert np.array_equal(one.value, want), (cls, normalization)
            assert np.array_equal(one.count, ser.count)
            assert ser.meta["parity_class"] == cls


@pytest.mark.parametrize("X", [50.0, 1500.0, 20000.0])
@pytest.mark.parametrize("phi", [specfn.indicator(1.0, 2.0), specfn.bump(1.0, 2.0)], ids=["indicator", "bump"])
def test_quadratic_series_matches_per_class_oracle(X, phi):
    assert_matches_class_oracle(X, phi, arith.sieve(int(X)).primes.tolist())


@pytest.mark.parametrize("kind", ["indicator", "bump"])
@pytest.mark.parametrize(
    "X, support, y_max",
    [(1500.0, (1.0, 2.0), 3.0), (5000.0, (1.37, 2.0), 1.0)],
    ids=["primes-past-max-d", "window-from-1.37"],
)
def test_quadratic_series_matches_per_class_oracle_off_the_window(kind, X, support, y_max):
    # the tables cover [min|d|, max|d|] only: primes beyond max|d|, whose window is
    # shorter than one period, and a window from 1.37X, read rotated for most primes
    assert_matches_class_oracle(X, getattr(specfn, kind)(*support), arith.sieve(int(y_max * X)).primes.tolist())


def test_quadratic_murmuration_validates_grid_and_normalization():
    # [9] once returned a silent -0.556: the class mean of kronecker(d, 9) is 0.667
    for grid in ([], [5, 3], [3, 3], [9], [2, 3, 25], [1, 2], [0, 2]):
        with pytest.raises(DomainError):
            families.quadratic_murmuration(30.0, PHI, 1, grid)
    for grid in ([], [3]):
        with pytest.raises(DomainError, match="normalization"):
            families.quadratic_murmuration(30.0, PHI, 1, grid, normalization="bogus")
    with pytest.raises(DomainError):
        families.quadratic_series(30.0, PHI, (), [3])
    with pytest.raises(DomainError):
        families.quadratic_series(30.0, PHI, (1, 0), [3])


def test_quadratic_murmuration_zero_when_p_divides_all():
    # contrived window catching only d = -4: chi_{-4}(2) = 0
    phi = specfn.indicator(7.0 / 6.0, 1.5)
    assert families.fundamental_discriminants(3.0, phi)[-1].tolist() == [-4]
    ser = families.quadratic_murmuration(3.0, phi, -1, [2])
    assert ser.value[0] == 0.0


def test_quadratic_murmuration_window_error():
    # |d| in [3, 4.5] holds no positive fundamental discriminant
    with pytest.raises(WindowError):
        families.quadratic_murmuration(3.0, specfn.indicator(1.0, 1.5), 1, [2, 3, 5])


def test_raw_normalization():
    ser_a = families.quadratic_murmuration(50.0, PHI, 1, [3, 5])
    ser_r = families.quadratic_murmuration(50.0, PHI, 1, [3, 5], normalization="raw_sqrtp")
    for i, p in enumerate([3, 5]):
        assert abs(ser_r.value[i] - ser_a.value[i] * math.sqrt(p)) < 1e-12


# ---------------------------------------------------------------------------
# ingestion


GOOD = """#murmur-family v1
label,conductor,root_number
11a,11,1
37a,37,-1

11a,2,-2
11a,3,-1
11a,5,1
37a,2,-2
37a,3,-3
37a,5,-2
"""


def write(tmp_path, text, name="fam.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_roundtrip_byte_identical(tmp_path):
    src = write(tmp_path, GOOD)
    fam = families.ingest(src)
    out1 = tmp_path / "out1.txt"
    families.write_family(fam, out1)
    fam2 = families.ingest(out1)
    out2 = tmp_path / "out2.txt"
    families.write_family(fam2, out2)
    assert out1.read_bytes() == out2.read_bytes()
    assert fam2.source_digest == families.fnv1a64(out1.read_bytes())


def test_ingest_basics(tmp_path):
    fam = families.ingest(write(tmp_path, GOOD))
    assert len(fam) == 2
    assert fam.prime_coverage == 5
    rec = fam.records[0]
    assert rec.label == "11a"
    assert rec.root_number == 1
    assert rec.ap(2) == -2.0
    assert abs(rec.lam(2) - (-2.0 / math.sqrt(2.0))) < 1e-15


def test_ingest_expectation_hand_loop(tmp_path):
    text = """#murmur-family v1
label,conductor,root_number
a,10,1
b,15,1
c,30,-1

a,2,1
b,2,-2
c,2,3
"""
    fam = families.ingest(write(tmp_path, text))
    got = frame.expectation(fam.records, lambda r: r.ap(2), 10.0, PHI)
    assert abs(got - (1.0 - 2.0) / 2.0) < 1e-12


def test_ingest_empty_data_section(tmp_path):
    text = "#murmur-family v1\nlabel,conductor,root_number\n"
    fam = families.ingest(write(tmp_path, text))
    assert len(fam) == 0
    assert fam.prime_coverage == 0


def test_ingest_rejects_bad_root_number(tmp_path):
    text = "#murmur-family v1\nlabel,conductor,root_number\nx,10,0\n"
    with pytest.raises(DataError, match="root number"):
        families.ingest(write(tmp_path, text))


def test_ingest_rejects_duplicates_and_garbage(tmp_path):
    dup = "#murmur-family v1\nlabel,conductor,root_number\nx,10,1\nx,11,1\n"
    with pytest.raises(DataError, match="duplicate"):
        families.ingest(write(tmp_path, dup))
    bad_header = "#something else\nlabel,conductor,root_number\n"
    with pytest.raises(DataError, match="line 1"):
        families.ingest(write(tmp_path, bad_header))
    bad_row = "#murmur-family v1\nlabel,conductor,root_number\nx,ten,1\n"
    with pytest.raises(DataError, match="line 3"):
        families.ingest(write(tmp_path, bad_row))


def test_ingest_rejects_non_finite_values(tmp_path):
    # float() parses nan and inf; such a row once reached write_family and every average
    records = "#murmur-family v1\nlabel,conductor,root_number\na,10,1\n"
    for text, line in (
        (records + "b,inf,1\n", 4),
        (records + "\na,2,nan\n", 5),
        (records + "\na,2,1\na,3,inf\n", 6),
    ):
        with pytest.raises(DataError, match=f"line {line}: .* must be finite"):
            families.ingest(write(tmp_path, text))


def test_ingest_rejects_composite_prime(tmp_path):
    # the composite row sits on line 13, after a valid larger prime
    text = GOOD + "37a,7,-1\n11a,4,1\n"
    with pytest.raises(DataError, match="line 13:"):
        families.ingest(write(tmp_path, text))
    # p beyond the coverage sieve: 1000003 is prime, 1000001 = 101 * 9901
    fam = families.ingest(write(tmp_path, GOOD + "11a,1000003,0\n"))
    assert fam.prime_coverage == 5
    with pytest.raises(DataError, match="line 12:"):
        families.ingest(write(tmp_path, GOOD + "11a,1000001,0\n"))
    with pytest.raises(DataError, match="line 12:"):
        families.ingest(write(tmp_path, GOOD + f"11a,{2**31},0\n"))


def test_ingest_composite_error_names_line_and_prime(tmp_path):
    for extra, message in (
        ("37a,7,-1\n11a,4,1\n", "line 13: coefficient at composite p=4"),
        ("11a,1000001,0\n", "line 12: coefficient at composite p=1000001"),
        ("11a,9,1\n37a,2147483647,1\n37a,2147483646,1\n", "line 12: coefficient at composite p=9"),
    ):
        with pytest.raises(DataError) as err:
            families.ingest(write(tmp_path, GOOD + extra))
        assert str(err.value) == message


def test_ingest_sieve_bounded_by_input_size(tmp_path, monkeypatch):
    # every record carries the prime 2^31 - 1; coverage still stops at 5
    real_sieve = families.sieve

    def bounded_sieve(limit):
        if limit > 10**6:
            raise AssertionError(f"ingest asked for a sieve up to {limit}")
        return real_sieve(limit)

    monkeypatch.setattr(families, "sieve", bounded_sieve)
    fam = families.ingest(write(tmp_path, GOOD + "11a,2147483647,1\n37a,2147483647,1\n"))
    assert fam.prime_coverage == 5


def test_ingest_rejects_python_only_numerals(tmp_path, capsys):
    # int() and float() read '_' separators and non-ASCII digits: these once
    # became conductor 11, a(2) = 10 and p = 3
    records = "#murmur-family v1\nlabel,conductor,root_number\ne1,11,1\ne2,11,1\n"
    for text, message in (
        ("#murmur-family v1\nlabel,conductor,root_number\ne1,1_1,1\n", "line 3: cannot parse conductor from '1_1'"),
        (records + "\ne1,2,1_0\n", "line 6: cannot parse coefficient from '1_0'"),
        (records + "\ne2,٣,2\n", "line 6: cannot parse prime from '٣'"),
        (records + "\ne1,2,1\ne2,2,７\n", "line 7: cannot parse coefficient from '７'"),
        ("#murmur-family v1\nlabel,conductor,root_number\ne_1,1١,1\n", "line 3: cannot parse conductor from '1١'"),
    ):
        path = write(tmp_path, text)
        with pytest.raises(DataError) as err:
            families.ingest(path)
        assert str(err.value) == message
        assert cli.main(["ingest-run", "--file", str(path), "--x", "10", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # '_' and non-ASCII text stay legal in labels
    fam = families.ingest(write(tmp_path, "#murmur-family v1\nlabel,conductor,root_number\ne_1,11,1\nε2,11,1\n"
                                          "\ne_1,2,1\nε2,2,-1e0\n"))
    assert fam.labels == ("e_1", "ε2")
    assert fam.ap.tolist() == [1.0, -1.0]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab\n", max_size=40), st.integers(0, 45), st.integers(1, 8))
def test_line_blocks_split_like_the_text(text, start, size):
    with mock.patch.object(families, "_BLOCK_CHARS", size):
        pieces = list(families._line_blocks(text, start))
    assert [line for piece in pieces for line in piece.split("\n")] == (
        text[start:].split("\n") if start <= len(text) else []
    )
    assert all(len(piece) <= size or "\n" not in piece for piece in pieces)


_BAD_TOKENS = ("x", "", "1_1", "٣", "７", "1.5", "-3", "0", "1", "4", "9", "2147483648", "2147483647",
               "nan", "inf", "-inf", "1e400", "+7", " 7 ", "0x7", "7\u00a0", "1١",
               # longer than one 8-byte key word; a trailing space, NEL, form feed or unit separator,
               # which a line's strip() drops only at its end; NUL bytes inside and at the end
               "-0.50000000000001", "00000000011", "7 ", "7\x85", "7\x0c", "7\x1f", "1\x002", "7\x00")


def _oracle_family_lines(rng):
    """A valid family in shuffled row order, with '_', non-ASCII, long and
    spaced labels, blank lines, labels and a(p) longer than 8 bytes (some
    alike in their first or their last 8) or followed by whitespace, and
    one missing coefficient (coverage stops at 11)."""
    labels = [f"r{i}" for i in range(8)] + ["r_8", "ε9", "curve_label_10", "curve_label_11", "xurve_label_10",
                                           "  lead13", "in ner14"]
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    lines = [families.FAMILY_MAGIC, "label,conductor,root_number"]
    lines += [f"{label},{rng.choice(['11', '37.5', ' 90 ', '1e2'])},{rng.choice(['1', '-1', '+1'])}"
              for label in labels]
    lines.append("")
    rows = [(label, p) for label in labels for p in primes if (label, p) != ("r3", 13)]
    coefficients = ["-2", "+3", " 4 ", "-0.5", "1e-3", "0", "-0.50000000000001", "-0.50000000000002", "5\x85"]
    for k in rng.permutation(len(rows)).tolist():
        label, p = rows[k]
        lines.append(f"{label},{p},{rng.choice(coefficients)}")
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "  \t"]))
    return lines


def _corrupt(lines, rng):
    lines = list(lines)
    first_row = lines.index("") + 1
    row = int(rng.integers(first_row, len(lines)))
    record = int(rng.integers(2, first_row - 1))
    kind = rng.choice(["p", "ap", "conductor", "root", "label", "fields", "dup", "dup_label", "blank",
                       "header", "truncate", "none"])
    token = str(rng.choice(_BAD_TOKENS))
    if kind in ("p", "ap", "label") and lines[row].strip():
        parts = lines[row].split(",")
        parts[{"label": 0, "p": 1, "ap": 2}[kind]] = "zz" if kind == "label" else token
        lines[row] = ",".join(parts)
    elif kind in ("conductor", "root"):
        parts = lines[record].split(",")
        parts[1 if kind == "conductor" else 2] = token if kind == "conductor" else str(rng.choice(["0", "2", "1.0"]))
        lines[record] = ",".join(parts)
    elif kind == "fields":
        at = int(rng.choice([row, record]))
        lines[at] = lines[at] + ",1" if rng.random() < 0.5 else lines[at].rsplit(",", 1)[0]
    elif kind == "dup":
        lines.insert(int(rng.integers(first_row, len(lines) + 1)), lines[row])
    elif kind == "dup_label":
        lines[record] = lines[2].split(",")[0] + "," + lines[record].split(",", 1)[1]
    elif kind == "blank":
        lines.insert(int(rng.integers(2, len(lines))), "")
    elif kind == "header":
        lines[int(rng.integers(0, 2))] += "x"
    elif kind == "truncate":
        lines = lines[: int(rng.integers(1, len(lines)))]
    return lines


def _encode_family(lines, rng):
    text = rng.choice(["\n", "\r\n", "\r"]).join(lines) + rng.choice(["\n", ""])
    data = text.encode("utf-8")
    if rng.random() < 0.05:
        at = int(rng.integers(0, len(data) + 1))
        data = data[:at] + b"\xff" + data[at:]
    return (b"\xef\xbb\xbf" if rng.random() < 0.1 else b"") + data


def _ingest_outcome(path):
    try:
        fam = families.ingest(path)
    except DataError as err:
        return str(err)
    return {"digest": fam.source_digest, "prime_coverage": fam.prime_coverage, "labels": fam.labels,
            **{name: getattr(fam, name) for name in ("conductor", "root_number", "record", "p", "ap")}}


def _oracle_outcome(path):
    try:
        return oracles.ingest_oracle(path)
    except DataError as err:
        return str(err)


@pytest.mark.parametrize("block", [7, 64, None], ids=["block7", "block64", "default"])
def test_ingest_matches_line_oracle(tmp_path, monkeypatch, block):
    # seeded single-line corruptions give the oracle's DataError, line number
    # included; clean files give its columns; small blocks cut every section
    if block:
        monkeypatch.setattr(families, "_BLOCK_CHARS", block)
    rng = np.random.default_rng(block or 1)
    path = tmp_path / "fam.txt"
    errors = 0
    for case in range(150):
        lines = _oracle_family_lines(rng)
        path.write_bytes(_encode_family(_corrupt(lines, rng) if case else lines, rng))
        got, want = _ingest_outcome(path), _oracle_outcome(path)
        if isinstance(want, str):
            errors += 1
            assert got == want, (case, path.read_bytes())
            continue
        assert not isinstance(got, str), (case, got)
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert np.array_equal(got[name], value), (case, name)
    assert 50 < errors < 150


@pytest.mark.parametrize("field", ["label", "p", "ap"])
def test_ingest_matches_line_oracle_on_each_bad_token(tmp_path, field):
    # each token in each field of one row, among rows whose tokens it could be mistaken for
    rng = np.random.default_rng(3)
    lines = _oracle_family_lines(rng)
    row = lines.index("") + 1 + 40
    path = tmp_path / "fam.txt"
    for token in _BAD_TOKENS:
        parts = lines[row].split(",")
        parts[{"label": 0, "p": 1, "ap": 2}[field]] = token
        path.write_bytes("\n".join(lines[:row] + [",".join(parts)] + lines[row + 1 :]).encode("utf-8"))
        got, want = _ingest_outcome(path), _oracle_outcome(path)
        if isinstance(want, str):
            assert got == want, token
            continue
        for name, value in want.items():
            assert np.array_equal(got[name], value), (token, name)


def test_ingest_tells_apart_fields_that_fold_alike(tmp_path, monkeypatch):
    # with no mixing, the key of a field longer than 8 bytes is its last word alone:
    # 'curve_label_10' and 'xurve_label_10' share it and must still be two labels
    monkeypatch.setattr(families, "_KEY_MIX", np.uint64(0))
    rng = np.random.default_rng(4)
    path = tmp_path / "fam.txt"
    for _ in range(5):
        path.write_bytes(_encode_family(_oracle_family_lines(rng), rng))
        got, want = _ingest_outcome(path), _oracle_outcome(path)
        if isinstance(want, str):
            assert got == want
            continue
        for name, value in want.items():
            assert np.array_equal(got[name], value), name


def _integer_family(tmp_path):
    """A canonical family of 500 records x the first 100 primes with
    integer a(p) in the Hasse bound, as write_family writes it."""
    rng = np.random.default_rng(7)
    primes = arith.sieve(541).primes
    ap = rng.integers(-np.floor(2 * np.sqrt(primes)), np.floor(2 * np.sqrt(primes)) + 1, size=(500, len(primes)))
    lines = [families.FAMILY_MAGIC, "label,conductor,root_number"]
    lines += [f"e{i:04d},{c},{r}" for i, (c, r) in enumerate(zip(rng.integers(11, 400, 500).tolist(),
                                                                  rng.choice([-1, 1], 500).tolist()))]
    lines.append("")
    lines += [f"e{i:04d},{p},{a}" for i, row in enumerate(ap.tolist()) for p, a in zip(primes.tolist(), row)]
    return write(tmp_path, "\n".join(lines) + "\n")


def _counting(monkeypatch, names):
    """Count the calls of the families functions ``names``, which keep working."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, real=getattr(families, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(families, name, spy)
    return calls


def test_ingest_converts_each_distinct_token_once_per_block(tmp_path, monkeypatch):
    # the per-row loop once converted all 3 x 50,000 tokens of this family
    path = _integer_family(tmp_path)
    text = path.read_text()
    distinct = [0, 0, 0]
    for block in families._line_blocks(text, text.index("\n\n") + 2):
        for j, tokens in enumerate(zip(*(line.split(",") for line in block.split("\n") if line))):
            distinct[j] += len(set(tokens))
    calls = _counting(monkeypatch, ("_label_record", "_prime", "_coefficient"))
    fam = families.ingest(path)
    assert len(fam.ap) == 50_000
    assert 0 < sum(distinct) < len(fam.ap) / 10
    assert all(c <= d for c, d in zip(calls.values(), distinct)), (calls, distinct)


def test_write_family_formats_each_distinct_value_once_per_block(tmp_path, monkeypatch):
    # the per-row loop once formatted every conductor and all 50,000 a(p)
    path = _integer_family(tmp_path)
    fam = families.ingest(path)
    distinct = sum(len(np.unique(fam.ap[lo : lo + families._WRITE_ROWS]))
                   for lo in range(0, len(fam.ap), families._WRITE_ROWS))
    calls = _counting(monkeypatch, ("_format_number",))
    families.write_family(fam, tmp_path / "out.txt")
    assert calls["_format_number"] <= len(fam) + distinct < len(fam.ap) / 10
    assert (tmp_path / "out.txt").read_bytes() == path.read_bytes()


@pytest.fixture(scope="module")
def big_family(tmp_path_factory):
    """A canonical family of 1800 records x 100 primes with float a(p),
    about 5.2 MB in 180,000 coefficient rows."""
    rng = np.random.default_rng(5)
    primes = arith.sieve(541).primes
    labels = [f"e{i:04d}" for i in range(1800)]
    lines = [families.FAMILY_MAGIC, "label,conductor,root_number"]
    lines += [f"{label},{c},{r}" for label, c, r in zip(labels, rng.integers(11, 400, 1800).tolist(),
                                                        rng.choice([-1, 1], 1800).tolist())]
    lines.append("")
    ap = (rng.normal(0.0, 1.5, size=(1800, len(primes))) * np.sqrt(primes)).tolist()
    lines += [f"{label},{p},{a!r}" for label, row in zip(labels, ap) for p, a in zip(primes.tolist(), row)]
    path = tmp_path_factory.mktemp("big") / "family.txt"
    path.write_text("\n".join(lines) + "\n")
    assert path.stat().st_size >= 5 * 10**6
    return path


def test_ingest_memory_follows_the_file(big_family):
    # the list of lines and per-row Python lists once peaked at 8x this file
    tracemalloc.start()
    try:
        fam = families.ingest(big_family)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fam.ap) == 180_000
    assert peak <= 6 * big_family.stat().st_size


def test_ingest_memory_follows_the_file_with_one_long_token(tmp_path):
    # keys padded to the longest field of a block would take about 5,000 rows x 20 KB here
    path = _integer_family(tmp_path)
    lines = path.read_text().split("\n")
    label, p, _ = lines[30_000].split(",")
    lines[30_000] = f"{label},{p},{'0' * 20_000}7"
    path.write_text("\n".join(lines))
    tracemalloc.start()
    try:
        fam = families.ingest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fam.coefficient(label, int(p)) == 7.0
    assert peak <= 6 * path.stat().st_size


def test_write_family_memory_is_bounded(big_family, tmp_path):
    # building every line and the joined text once peaked at 35 MB here
    fam = families.ingest(big_family)
    tracemalloc.start()
    try:
        families.write_family(fam, tmp_path / "out.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert (tmp_path / "out.txt").read_bytes() == big_family.read_bytes()


def test_missing_coefficient_is_loud(tmp_path):
    fam = families.ingest(write(tmp_path, GOOD))
    rec = fam.records[0]
    with pytest.raises(CoverageError, match="prime 7"):
        rec.lam(7)
    # p beyond 2^31 must not alias another record's row
    with pytest.raises(CoverageError):
        fam.coefficient("11a", 2**31 + 2)
    with pytest.raises(CoverageError):
        fam.coefficient("99z", 2)
    for p in (2.5, -3):
        with pytest.raises(CoverageError, match=f"no coefficient for record '11a' at prime {p}$"):
            fam.coefficient("11a", p)
    assert fam.coefficient("37a", 5.0) == -2.0


def _random_family_text(rng, records, primes):
    lines = [families.FAMILY_MAGIC, "label,conductor,root_number"]
    conductors = rng.uniform(5.0, 70.0, size=records).round(1)
    lines += [f"r{i},{c!r},{rng.choice([-1, 1])}" for i, c in enumerate(conductors.tolist())]
    lines.append("")
    for i in range(records):
        ap = rng.normal(0.0, 1.5, size=len(primes)) * np.sqrt(primes)
        ap[::3] = np.rint(ap[::3])
        lines += [f"r{i},{p},{a!r}" for p, a in zip(primes.tolist(), ap.tolist())]
    return "\n".join(lines) + "\n"


def test_ingested_series_matches_frame_path(tmp_path):
    rng = np.random.default_rng(11)
    primes = arith.sieve(120).primes
    fam = families.ingest(write(tmp_path, _random_family_text(rng, 90, primes)))
    for phi in (PHI, specfn.bump(1.0, 2.0), specfn.bump(0.5, 3.0)):
        for X, grid in ((20.0, primes.tolist()), (27.5, [3, 7, 11, 113])):
            for normalization in ("analytic", "raw_sqrtp"):
                got = fam.murmuration_series(X, phi, grid, normalization=normalization)
                want = frame.murmuration_series(fam.records, X, phi, grid, normalization=normalization)
                assert np.array_equal(got.value, want.value), (X, normalization)
                assert np.array_equal(got.y, want.y)
                assert np.array_equal(got.count, want.count)


def test_ingested_series_errors_match_frame_path(tmp_path):
    # in the window at X = 10, record a lacks p = 5 and record b lacks p = 3
    text = "#murmur-family v1\nlabel,conductor,root_number\na,10,1\nb,15,1\n\na,2,1\na,3,1\nb,2,1\nb,5,1\n"
    fam = families.ingest(write(tmp_path, text))
    for grid in ([2, 3], [2, 3, 5], [2, 5], [2, 7]):
        with pytest.raises(CoverageError) as frame_error:
            frame.murmuration_series(fam.records, 10.0, PHI, grid)
        with pytest.raises(CoverageError) as columns_error:
            fam.murmuration_series(10.0, PHI, grid)
        assert str(columns_error.value) == str(frame_error.value)
    with pytest.raises(WindowError):
        fam.murmuration_series(1000.0, PHI, [2])
    for grid in ([], [3, 2], [2, 4]):
        with pytest.raises(DomainError):
            fam.murmuration_series(10.0, PHI, grid)
    with pytest.raises(DomainError, match="normalization"):
        fam.murmuration_series(10.0, PHI, [2], normalization="bogus")


def test_bad_normalization_is_one_error_on_both_series_paths(tmp_path):
    # with no record in the window, the records path once raised WindowError and the columns path DomainError
    fam = families.ingest(write(tmp_path, GOOD))
    for series in (lambda: frame.murmuration_series(fam.records, 1000.0, PHI, [2], normalization="bogus"),
                   lambda: fam.murmuration_series(1000.0, PHI, [2], normalization="bogus")):
        with pytest.raises(DomainError, match="unknown normalization 'bogus'"):
            series()


@pytest.mark.parametrize("X", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("producer", ["expectation", "frame_series", "ingested_series", "quadratic_series",
                                      "fundamental_discriminants"])
def test_window_producers_reject_a_bad_scale(tmp_path, producer, X):
    # nan once escaped quadratic_series and fundamental_discriminants as a bare ValueError and inf as an
    # OverflowError; inf was a WindowError of expectation and IngestedFamily.murmuration_series
    fam = families.ingest(write(tmp_path, GOOD))
    calls = {
        "expectation": lambda: frame.expectation(fam.records, lambda r: 1.0, X, PHI),
        "frame_series": lambda: frame.murmuration_series(fam.records, X, PHI, [2, 3]),
        "ingested_series": lambda: fam.murmuration_series(X, PHI, [2, 3]),
        "quadratic_series": lambda: families.quadratic_series(X, PHI, (1, -1), [2, 3]),
        "fundamental_discriminants": lambda: families.fundamental_discriminants(X, PHI),
    }
    with pytest.raises(DomainError):
        calls[producer]()


def test_line_ending_normalization(tmp_path):
    crlf = GOOD.replace("\n", "\r\n")
    fam_crlf = families.ingest(write(tmp_path, crlf, "crlf.txt"))
    fam_lf = families.ingest(write(tmp_path, GOOD, "lf.txt"))
    assert fam_crlf.source_digest == fam_lf.source_digest


def test_fnv1a64_reference_values():
    # standard FNV-1a test vectors
    assert families.fnv1a64(b"") == 0xCBF29CE484222325
    assert families.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert families.fnv1a64(b"foobar") == 0x85944171F73967E8


CHUNK = families._FNV_CHUNK


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((0, 1, 2, 7, 8, 9, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 7, 2 * CHUNK, 3 * CHUNK + 5)),
    st.binary(max_size=16),
    st.integers(0, 2**32 - 1),
)
def test_fnv1a64_matches_oracle(n, pattern, seed):
    # a short pattern repeated (runs of one byte included), else random bytes
    if pattern:
        data = (pattern * (n // len(pattern) + 1))[:n]
    else:
        data = np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()
    expected = oracles.fnv1a64_oracle(data)
    assert families.fnv1a64(data) == expected
    assert families.fnv1a64(bytearray(data)) == expected
    assert families.fnv1a64(memoryview(data)) == expected
    assert families.fnv1a64(memoryview(b"x" + data)[1:]) == expected


def test_fnv1a64_memory_is_bounded():
    data = bytes(range(256)) * (8 * 2**20 // 256)
    tracemalloc.start()
    try:
        families.fnv1a64(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_enumeration_count_large_window():
    # X = 1e4, support [1, 2]: count matches the naive predicate scan
    classes = families.fundamental_discriminants(1e4, PHI)
    brute = sum(
        1
        for n in range(10_000, 20_001)
        for s in (1, -1)
        if oracles.is_fundamental_naive(s * n)
    )
    assert len(classes[1]) + len(classes[-1]) == brute
