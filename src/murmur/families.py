"""Concrete family producers.

``quadratic_series`` averages the family of primitive real quadratic
characters chi_d, for fundamental discriminants d in a conductor window,
split into sign classes by sign(d) (real characters all have root
number +1, so sign(d) is the natural bisection).  One pass serves every
requested class: the discriminants are enumerated once, and one Legendre
table per prime, built from the half-range squares r^2, r <= (p - 1)/2,
is gathered for both classes.  The cost is O(sum_p p/2 + |family| pi(X))
for a grid of primes up to X.

``ingest`` reads externally computed coefficient tables (elliptic-curve
style families) in the murmur-family v1 format:

    #murmur-family v1
    label,conductor,root_number
    <one record line each>
    <blank line>
    <label,p,ap coefficient lines>

An ingested family is stored as columns: conductor and root number per
record, and (record, p, a(p)) per coefficient row, sorted by (record, p).
Raw coefficients a(p) are stored; analytic lambda(p) = a(p)/sqrt(p) is
computed on lookup.  Missing coefficients raise, never read as zero:
murmuration averages are bias-sensitive.  Numerals (conductor, p, a(p))
are ASCII without '_': Python's int() and float() would also read '1_0'
and non-ASCII digits.  The source digest is standard 64-bit FNV-1a of
the UTF-8 text, without a leading byte-order mark and with line endings
normalized to LF, computed in linear time and bounded memory
(``fnv1a64``); its value is that of the byte-at-a-time definition.

Memory follows the input: ``ingest`` keeps the text (the file's bytes
are freed once digested and decoded), the lines of one block of about
``_BLOCK_CHARS`` characters at a time, and typed columns of 20 bytes per
coefficient row, sorted by (record, p) once at the end; ``write_family``
formats ``_WRITE_ROWS`` rows per write, so its memory does not grow with
the family.
"""

from dataclasses import dataclass
from functools import cached_property, partial
import math
from typing import Sequence

import numpy as np

from .arith import check_prime_grid, covering, is_prime, sieve
from .errors import CoverageError, DataError, DomainError
from .frame import FamilyRecord, MurmurationSeries, check_normalization, window, window_series
from .specfn import WeightFunction

FAMILY_MAGIC = "#murmur-family v1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_CHUNK = 1 << 15  # bytes per vectorised block: bounds the temporaries
_MASK64 = 0xFFFFFFFFFFFFFFFF

# ingest keeps 2 <= p < 2^31, so (record << 31) | p orders rows by (record, p)
_P_BITS = 31
_P_LIMIT = 1 << _P_BITS
# ingest's columns, one entry per coefficient row in file order
_ROW = np.dtype([("record", np.int32), ("p", np.int32), ("ap", np.float64), ("line", np.int32)])
_BLOCK_CHARS = 1 << 14  # text per line block of ingest: bounds the per-line objects
_WRITE_ROWS = 1 << 13  # rows per write of write_family: bounds the formatted text


def fnv1a64(data: bytes) -> int:
    """Standard 64-bit FNV-1a checksum: h <- (h XOR byte) * P mod 2^64.

    Evaluated exactly, block by block, in linear time and O(block)
    memory.  XOR with a byte changes only the low byte s_i of h_i, so
    h_i XOR b_i = h_i + d_i with d_i = (s_i XOR b_i) - s_i, and a block
    of n bytes maps h to h P^n + sum_i d_i P^(n-i) mod 2^64.  The low
    bytes come bit by bit: P is odd, so with t = s_i XOR b_i, bit j of
    s_(i+1) = t P mod 256 is bit j of t XOR ((t mod 2^j) P), which needs
    only the lower bits -- one prefix XOR over the block per bit.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    powers = np.multiply.accumulate(np.full(min(len(buf), _FNV_CHUNK), _FNV_PRIME, dtype=np.uint64))
    p8 = np.uint8(_FNV_PRIME & 0xFF)
    h = _FNV_OFFSET
    for start in range(0, len(buf), _FNV_CHUNK):
        b = buf[start : start + _FNV_CHUNK]
        n = len(b)
        s = np.full(n, h & 0xFF, dtype=np.uint8)  # bits >= j are still those of s_0
        for j in range(8):
            low = (s ^ b) & np.uint8((1 << j) - 1)
            flips = np.bitwise_xor.accumulate((b ^ low * p8) & np.uint8(1 << j))
            s[1:] ^= flips[:-1]
        d = (s ^ b).astype(np.uint64) - s  # wraps to d_i mod 2^64
        tail = int(np.sum(d * powers[n - 1 :: -1], dtype=np.uint64))
        h = (h * int(powers[n - 1]) + tail) & _MASK64
    return h


# ---------------------------------------------------------------------------
# quadratic characters


def fundamental_discriminants(X: float, phi: WeightFunction) -> dict[int, np.ndarray]:
    """Fundamental discriminants d with |d|/X inside supp(phi), per sign
    class (keys +1 and -1), each an int64 array in ascending |d|.

    d is fundamental when d = 1 mod 4 is squarefree, or d = 4m with
    m = 2, 3 mod 4 squarefree: for sign s, |d| = s mod 4 or |d| = 4|m| with
    |m| = 2, 3s mod 4, read from strided slices of the sieve's squarefree
    mask.  A window beyond the sieve's size raises SizeError before
    anything of that size is allocated.
    """
    if not 3 <= X < math.inf:
        raise DomainError(f"X must be >= 3 and finite, got {X}")
    a, b = phi.support
    lo = max(3, math.ceil(a * X))
    hi = max(lo - 1, math.floor(b * X))
    sf = covering(None, hi).squarefree
    classes = {}
    for sign in (1, -1):
        fund = np.zeros(hi + 1, dtype=bool)
        fund[sign % 4 :: 4] = sf[sign % 4 :: 4]
        for m in (2, 3 * sign % 4):
            view = fund[4 * m :: 16]
            view[:] = sf[m::4][: len(view)]
        fund[:lo] = False
        absd = np.flatnonzero(fund)
        classes[sign] = absd if sign == 1 else -absd
    return classes


def _legendre_tables(primes: list[int], span: int):
    """For each prime p of the ascending list, an int8 buffer whose first
    ``span`` entries are (n|p), n < span, and (-1|p); p = 2 uses the mod-8
    rule.  The buffer, and every work array, is allocated once and reused.

    For odd p the quadratic residues are exactly the r*r mod p, r <= (p-1)/2.
    Each is r*r - p*floor(r*r/p), the quotient taken in float64 (r*r is
    exact below 2^53) and corrected by +-p, with no integer division.  The
    table of one period is then tiled over [0, span) by doubling copies.
    """
    half = (primes[-1] - 1) // 2
    squares = np.arange(1, half + 1, dtype=np.float64) ** 2
    quotient, index = np.empty(half), np.empty(half, dtype=np.intp)
    tiled = np.empty(max(span, primes[-1], 8), dtype=np.int8)
    for p in primes:
        if p == 2:
            period = 8
            tiled[:period] = (0, 1, 0, -1, 0, -1, 0, 1)
        else:
            period, h = p, (p - 1) // 2
            rem = quotient[:h]
            np.multiply(squares[:h], 1.0 / p, out=rem)
            np.floor(rem, out=rem)
            rem *= -p
            rem += squares[:h]
            rem[rem < 0] += p
            rem[rem >= p] -= p
            index[:h] = rem
            tiled[:period] = -1
            tiled[index[:h]] = 1
            tiled[0] = 0
        filled = period
        while filled < span:
            step = min(filled, span - filled)
            tiled[filled : filled + step] = tiled[:step]
            filled += step
        yield tiled, int(tiled[period - 1])


def quadratic_series(
    X: float,
    phi: WeightFunction,
    classes: Sequence[int],
    primes: Sequence[int],
    normalization: str = "analytic",
) -> list[MurmurationSeries]:
    """Murmuration series E[chi_d(p)], one per requested sign class of d.

    Vectorized over the family: for fixed p the character value is the
    Legendre symbol of d mod p (mod 8 for p = 2), so one residue table
    per prime serves the whole family.  The table, tiled over [0, max|d|],
    gives (|d| | p) by a gather; (d|p) = (-1|p)(|d| | p) for d < 0, so
    the class sum is negated after the dot when (-1|p) = -1.
    """
    if not classes or any(c not in (1, -1) for c in classes):
        raise DomainError(f"parity classes must be +-1, got {tuple(classes)}")
    check_normalization(normalization)
    grid = check_prime_grid(primes)
    discriminants = fundamental_discriminants(X, phi)
    family = []
    for cls in classes:
        absd = np.abs(discriminants[cls])
        members, weights = window(absd, X, phi)
        family.append((cls, absd[members], weights, float(weights.sum())))
    span = max(int(absd[-1]) for _, absd, _, _ in family) + 1
    values = np.empty((len(family), len(grid)), dtype=np.float64)
    primes = grid.tolist()
    for i, (p, (residues, minus_one)) in enumerate(zip(primes, _legendre_tables(primes, span))):
        for j, (cls, absd, weights, den) in enumerate(family):
            v = float(np.dot(weights, residues[absd]))
            if cls == -1 and minus_one == -1:
                v = 0.0 - v  # the dot of the negated characters, +0.0 included
            v /= den
            if normalization == "raw_sqrtp":
                v *= math.sqrt(p)
            values[j, i] = v
    ys = grid / X
    return [
        MurmurationSeries(
            y=ys,
            value=values[j],
            count=np.full(len(grid), len(absd), dtype=np.int64),
            window_scale=X,
            normalization=normalization,
            meta={"family": "quadratic", "parity_class": cls},
        )
        for j, (cls, absd, _, _) in enumerate(family)
    ]


def quadratic_murmuration(
    X: float,
    phi: WeightFunction,
    parity_class: int,
    primes: Sequence[int],
    normalization: str = "analytic",
) -> MurmurationSeries:
    """Murmuration series E[chi_d(p)] for one sign class of discriminants."""
    return quadratic_series(X, phi, (parity_class,), primes, normalization)[0]


# ---------------------------------------------------------------------------
# ingestion


@dataclass(frozen=True, eq=False)
class IngestedFamily:
    """Externally computed family as columns, plus provenance checksum.

    ``labels``, ``conductor`` and ``root_number`` hold one entry per
    record, in file order; ``record`` (an index into ``labels``) and ``p``,
    both int32, and ``ap`` hold one entry per coefficient row, sorted by
    (record, p).
    """

    source_digest: int
    prime_coverage: int
    labels: tuple
    conductor: np.ndarray
    root_number: np.ndarray
    record: np.ndarray
    p: np.ndarray
    ap: np.ndarray

    @cached_property
    def _index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def _keys(self) -> np.ndarray:
        return (self.record.astype(np.int64) << _P_BITS) | self.p

    @cached_property
    def records(self) -> tuple:
        """FamilyRecord view of the columns, for the generic framework;
        built on first access."""
        return tuple(
            FamilyRecord(
                label=label,
                conductor=conductor,
                root_number=root,
                lam=lambda p, label=label: self.coefficient(label, p) / math.sqrt(p),
                ap=partial(self.coefficient, label),
            )
            for label, conductor, root in zip(self.labels, self.conductor.tolist(), self.root_number.tolist())
        )

    def _gather(self, members: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """The (member x prime) block of ``ap`` at the record indices ``members``
        and the primes of ``grid``; CoverageError at the first miss in (prime, record) order."""
        keys = (members[:, None] << _P_BITS) | grid  # member-major, so ascending
        rows = np.searchsorted(self._keys, keys)
        found = (grid < _P_LIMIT) & (rows < len(self._keys))
        found[found] = self._keys[rows[found]] == keys[found]
        if not np.all(found):
            j, i = np.argwhere(~found.T)[0]
            raise CoverageError(f"no coefficient for record {self.labels[members[i]]!r} at prime {int(grid[j])}")
        return self.ap[rows]

    def coefficient(self, label: str, p: int) -> float:
        i = self._index.get(label)
        if i is None or not (0 <= p < _P_LIMIT and p == int(p)):
            raise CoverageError(f"no coefficient for record {label!r} at prime {p}")
        return float(self._gather(np.array([i]), np.array([int(p)]))[0, 0])

    def murmuration_series(
        self, X: float, phi: WeightFunction, primes: Sequence[int], normalization: str = "analytic"
    ) -> MurmurationSeries:
        """Expectation of the prime coefficient at every prime of the grid.

        The (records in window x grid) block of coefficients is gathered
        from the columns and contracted by ``frame.window_series``: the
        values of ``frame.murmuration_series`` on ``records``, bit for bit.
        """
        grid = check_prime_grid(primes)
        check_normalization(normalization)
        in_window, weights = window(self.conductor, X, phi)
        block = self._gather(in_window, grid)
        if normalization == "analytic":
            block = block / np.sqrt(grid)
        return window_series(X, grid, weights, block, normalization)

    def __len__(self):
        return len(self.labels)


def _normalize_bytes(raw: bytes) -> bytes:
    """The file without a leading UTF-8 byte-order mark and with every line
    break (CRLF or a lone CR) as LF: the bytes the digest reads.  A file
    that needs neither change comes back as the same object, uncopied."""
    raw = raw.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark is not text
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw


def _decode(data: bytes) -> str:
    """The text of normalized bytes; a byte sequence that is not UTF-8 is a
    DataError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"line {line_no}: not valid UTF-8") from None


def _line_blocks(text: str, start: int):
    """Consecutive pieces of text[start:], each about _BLOCK_CHARS long and
    cut at a line break (the break itself dropped), so that the pieces'
    ``split("\n")`` lists, concatenated, are text[start:].split("\n").
    Yields nothing when start is past the end of text."""
    while start + _BLOCK_CHARS < len(text):
        cut = text.rfind("\n", start, start + _BLOCK_CHARS)
        if cut < 0:  # one line longer than a block
            cut = text.find("\n", start + _BLOCK_CHARS)
            if cut < 0:
                break
        yield text[start:cut]
        start = cut + 1
    if start <= len(text):
        yield text[start:]


def _next_line(text: str, start: int) -> tuple[str, int]:
    """The line of text that begins at start, and where the next one begins."""
    end = text.find("\n", start)
    if end < 0:
        end = len(text)
    return text[start:end], end + 1


def _is_numeral(token: str) -> bool:
    """int() and float() also read '1_0' and non-ASCII digits such as
    U+0663; a numeral in a family file is ASCII and has no '_'."""
    return token.isascii() and "_" not in token


def _parse_number(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse {what} from {token.strip()!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: {what} must be finite, got {token.strip()!r}")
    return value


def _sort_order(rows: np.ndarray, labels: list) -> np.ndarray:
    """Order of the coefficient rows, given in file order, by (record, p);
    raises the DataError of the first duplicate row in the file."""
    keys = (rows["record"].astype(np.int64) << _P_BITS) | rows["p"]
    order = np.argsort(keys, kind="stable")  # equal pairs keep file order
    keys = keys[order]
    repeats = order[1:][keys[1:] == keys[:-1]]
    if len(repeats):
        line, record, p = (int(rows[name][repeats.min()]) for name in ("line", "record", "p"))
        raise DataError(f"line {line}: duplicate coefficient for ({labels[record]!r}, {p})")
    return order


def _store(rows: np.ndarray, filled: int, block) -> int:
    """Copy a block's rows, one list per column of ``rows``, into rows from
    row ``filled`` on; returns the new count of filled rows."""
    end = filled + len(block[0])
    for name, values in zip(_ROW.names, block):
        rows[name][filled:end] = values
    return end


def ingest(path) -> IngestedFamily:
    """Parse and validate a murmur-family v1 file.

    The text is read in blocks of whole lines; each block's coefficient
    rows go into typed columns (record, p, a(p) and the line number, 20
    bytes a row), sorted by (record, p) once at the end.  The digest is
    taken from the file's bytes, normalized as text.
    """
    with open(path, "rb") as fh:
        data = _normalize_bytes(fh.read())
    digest = fnv1a64(data)
    text = _decode(data)
    del data
    line, pos = _next_line(text, 0)
    if line.strip() != FAMILY_MAGIC:
        raise DataError(f"line 1: expected header {FAMILY_MAGIC!r}")
    line, pos = _next_line(text, pos)  # "" past the end of the text
    if line.strip() != "label,conductor,root_number":
        raise DataError("line 2: expected column header 'label,conductor,root_number'")

    index = {}
    conductors, roots = [], []
    line_no = 3
    while pos <= len(text):
        line, pos = _next_line(text, pos)
        if line.strip() == "":
            break
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"line {line_no}: expected 'label,conductor,root_number'")
        label = parts[0].strip()
        if label in index:
            raise DataError(f"line {line_no}: duplicate label {label!r}")
        token = parts[1].strip()
        if not _is_numeral(token):
            raise DataError(f"line {line_no}: cannot parse conductor from {token!r}")
        conductor = _parse_number(token, line_no, "conductor")
        if not conductor > 0:
            raise DataError(f"line {line_no}: conductor must be positive, got {token}")
        root_token = parts[2].strip()
        if root_token not in ("1", "-1", "+1"):
            raise DataError(f"line {line_no}: root number must be 1 or -1, got {root_token!r}")
        index[label] = len(conductors)
        conductors.append(conductor)
        roots.append(int(root_token))
        line_no += 1
    line_no += 1  # blank separator
    labels = list(index)

    rows = np.empty(text.count("\n", pos) + 1, dtype=_ROW)  # one line or more per row
    filled = 0
    block = ([], [], [], [])
    try:
        for chunk in _line_blocks(text, pos):
            # int() and float() take a stray '_' or non-ASCII digit: check
            # each numeral only in a block that holds such a character
            plain = chunk.isascii() and "_" not in chunk
            lines = chunk.split("\n")
            block = ([], [], [], [])
            rec_col, p_col, ap_col, line_col = block
            for k, line in enumerate(lines, line_no):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise DataError(f"line {k}: expected 'label,p,ap'")
                label, p_token, ap_token = parts
                record = index.get(label.strip())
                if record is None:
                    raise DataError(f"line {k}: coefficient for unknown label {label.strip()!r}")
                try:
                    if not (plain or _is_numeral(p_token)):
                        raise ValueError(p_token)
                    p = int(p_token)  # int() and float() ignore surrounding whitespace
                except ValueError:
                    raise DataError(f"line {k}: cannot parse prime from {p_token.strip()!r}") from None
                if not 2 <= p < _P_LIMIT:
                    raise DataError(f"line {k}: prime must be in [2, 2^31), got {p}")
                if not (plain or _is_numeral(ap_token)):
                    raise DataError(f"line {k}: cannot parse coefficient from {ap_token.strip()!r}")
                ap_col.append(_parse_number(ap_token, k, "coefficient"))
                rec_col.append(record)
                p_col.append(p)
                line_col.append(k)
            filled = _store(rows, filled, block)
            line_no += len(lines)
    except DataError:
        # a duplicate on an earlier line is the first error in the file
        _sort_order(rows[: _store(rows, filled, block)], labels)
        raise
    del text
    rows = rows[:filled]
    order = _sort_order(rows, labels)

    distinct, carriers = np.unique(rows["p"], return_counts=True)
    composite = np.isin(rows["p"], distinct[~is_prime(distinct)])
    if np.any(composite):
        line, p = (int(rows[name][np.argmax(composite)]) for name in ("line", "p"))  # the first in the file
        raise DataError(f"line {line}: coefficient at composite p={p}")
    record, p, ap = (rows[name][order] for name in ("record", "p", "ap"))
    del rows, order

    # The coverage scan stops at the first prime missing from `common`, at
    # most the (|common|+1)-th prime, which Rosser's bound
    # n(ln n + ln ln n), n >= 6, caps: no single large p can size the sieve.
    common = distinct[carriers == len(labels)]
    n = max(6, len(common) + 1)
    scan_limit = min(int(common[-1]) if len(common) else 2, math.ceil(n * (math.log(n) + math.log(math.log(n)))))
    tables = sieve(max(2, scan_limit))

    scanned = tables.primes[: len(common)]
    mismatch = np.flatnonzero(scanned != common[: len(scanned)])
    covered = int(mismatch[0]) if len(mismatch) else len(scanned)

    return IngestedFamily(
        source_digest=digest,
        prime_coverage=int(scanned[covered - 1]) if covered else 0,
        labels=tuple(labels),
        conductor=np.array(conductors, dtype=np.float64),
        root_number=np.array(roots, dtype=np.int64),
        record=record,
        p=p,
        ap=ap,
    )


def _format_number(x: float) -> str:
    if float(x) == int(x):
        return str(int(x))
    return repr(float(x))


def write_family(family: IngestedFamily, path) -> None:
    """Write the canonical byte representation of an ingested family,
    _WRITE_ROWS records or coefficient rows per write."""
    labels = family.labels
    with open(path, "wb") as fh:
        fh.write(f"{FAMILY_MAGIC}\nlabel,conductor,root_number\n".encode("utf-8"))
        for lo in range(0, len(labels), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            lines = zip(labels[lo:hi], family.conductor[lo:hi].tolist(), family.root_number[lo:hi].tolist())
            fh.write("".join(f"{label},{_format_number(n)},{root}\n" for label, n, root in lines).encode("utf-8"))
        fh.write(b"\n")
        for lo in range(0, len(family.ap), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            lines = zip(family.record[lo:hi].tolist(), family.p[lo:hi].tolist(), family.ap[lo:hi].tolist())
            fh.write("".join(f"{labels[i]},{p},{_format_number(ap)}\n" for i, p, ap in lines).encode("utf-8"))
