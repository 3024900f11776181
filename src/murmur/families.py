"""Concrete family producers.

``quadratic_murmuration`` averages the family of primitive real quadratic
characters chi_d, for fundamental discriminants d in a conductor window,
split into sign classes by sign(d) (real characters all have root
number +1, so sign(d) is the natural bisection).  One pass serves every
requested class: the discriminants are enumerated once, and one Legendre
table per prime, from the squares r^2 mod p, r <= (p - 1)/2, in exact
int64 arithmetic (no float quotient, no corrections), is tiled over
[min|d|, max|d|] and gathered once for both classes.  For primes up to X
the cost is O(sum_p (p/2 + max|d| - min|d|) + |family| pi(X)).

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

``ingest`` tokenises the coefficient rows with numpy, one block of about
``_BLOCK_CHARS`` characters at a time, and converts each distinct label,
prime and a(p) of a block once; ``write_family`` formats each distinct
value of each ``_WRITE_ROWS`` rows once.  So the Python work follows the
distinct tokens: few for integer a(p), about one a(p) per row for floats.

Memory follows the input: ``ingest`` keeps the text (the file's bytes
are freed once digested and decoded), one block and its tokeniser's
arrays at a time, and typed columns of 20 bytes per coefficient row,
sorted by (record, p) once at the end; ``write_family`` formats
``_WRITE_ROWS`` rows per write, so its memory does not grow with the
family.
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
_BLOCK_CHARS = 1 << 16  # text per line block of ingest: bounds the tokeniser's temporaries
_WRITE_ROWS = 1 << 13  # rows per write of write_family: bounds the formatted text


def fnv1a64(data: bytes) -> int:
    """Standard 64-bit FNV-1a checksum: h <- (h XOR byte) * P mod 2^64.

    Evaluated exactly, block by block, in linear time and O(block)
    memory.  XOR with a byte changes only the low byte s_i of h_i, so
    h_i XOR b_i = h_i + d_i with d_i = (s_i XOR b_i) - s_i, and a block
    of n bytes maps h to h P^n + sum_i d_i P^(n-i) mod 2^64.  The low
    bytes come bit by bit: P is odd, so with t = s_i XOR b_i, bit j of
    s_(i+1) = t P mod 256 is bit j of t XOR ((t mod 2^j) P), which needs
    only the lower bits -- one prefix XOR over the block per bit, taken
    within 8-byte words by shifts and across them over their top bytes.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    powers = np.multiply.accumulate(np.full(min(len(buf), _FNV_CHUNK), _FNV_PRIME, dtype=np.uint64))
    h = _FNV_OFFSET
    for start in range(0, len(buf), _FNV_CHUNK):
        b = buf[start : start + _FNV_CHUNK]
        n = len(b)
        w = np.zeros(-(-n // 8), dtype="<u8")  # the block's flips in whole words, padded after every byte read
        flips = w.view(np.uint8)
        s = np.full(n, h & 0xFF, dtype=np.uint8)  # bits >= j are still those of s_0
        for j in range(8):
            low = (s ^ b) & np.uint8((1 << j) - 1)
            np.bitwise_and(b ^ low * (_FNV_PRIME & 0xFF), np.uint8(1 << j), out=flips[:n])
            for shift in (8, 16, 32):
                w ^= w << shift
            carries = np.bitwise_xor.accumulate(w >> 56)
            w[1:] ^= carries[:-1] * 0x0101010101010101  # each word's carry in, in every byte
            s[1:] ^= flips[: n - 1]
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


def _legendre_tables(primes: list[int], lo: int, hi: int):
    """For each prime p of the ascending list, the int8 array of (n|p),
    lo <= n <= hi, and (-1|p); p = 2 uses the mod-8 rule.  Every array is
    allocated once and reused.

    For odd p the quadratic residues are exactly the r*r mod p, r <= (p-1)/2,
    each r*r - p*floor(r*r/p) in exact int64 arithmetic, with no float
    quotient and no corrections.  One period of the table, rotated to start
    at lo, is tiled over [lo, hi] by one broadcast copy.
    """
    half = (primes[-1] - 1) // 2
    squares = np.arange(1, half + 1, dtype=np.int64) ** 2
    residues = np.empty(half, dtype=np.int64)
    table = np.empty(2 * max(primes[-1], 8), dtype=np.int8)
    tiled = np.empty(hi - lo + 1, dtype=np.int8)
    for p in primes:
        if p == 2:
            period = 8
            table[:period] = (0, 1, 0, -1, 0, -1, 0, 1)
        else:
            period, h = p, (p - 1) // 2
            rem = residues[:h]
            np.floor_divide(squares[:h], p, out=rem)
            rem *= -p
            rem += squares[:h]
            table[:period] = -1
            table[rem] = 1
            table[0] = 0
        table[period : 2 * period] = table[:period]  # two periods: a rotated period is one slice
        rotated, rows = table[lo % period :], len(tiled) // period
        tiled[: rows * period].reshape(rows, period)[:] = rotated[:period]
        tiled[rows * period :] = rotated[: len(tiled) - rows * period]
        yield tiled, int(table[period - 1])


def quadratic_murmuration(
    X: float,
    phi: WeightFunction,
    parity_class,
    primes: Sequence[int],
    normalization: str = "analytic",
):
    """Murmuration series E[chi_d(p)] of the discriminants d of one sign
    class: ``parity_class`` is +1 or -1 for one series, or a tuple of
    classes for a list of series, one per class, from one pass over the
    family; a class's series has the same bits either way.

    Vectorized over the family: for fixed p the character value is the
    Legendre symbol of d mod p (mod 8 for p = 2), so one residue table
    per prime serves the whole family.  The table, tiled over the window
    [min|d|, max|d|], gives (|d| | p) for both classes by one gather,
    cast once to float64; (d|p) = (-1|p)(|d| | p) for d < 0, so the class
    sum is negated after the dot when (-1|p) = -1.
    """
    classes = parity_class if isinstance(parity_class, tuple) else (parity_class,)
    if not classes or any(c not in (1, -1) for c in classes):
        raise DomainError(f"parity class must be +-1 or a tuple of them, got {parity_class}")
    check_normalization(normalization)
    grid = check_prime_grid(primes)
    discriminants = fundamental_discriminants(X, phi)
    family = []
    for cls in classes:
        absd = np.abs(discriminants[cls])
        members, weights = window(absd, X, phi)
        family.append((cls, absd[members], weights, float(weights.sum())))
    lo, hi = min(int(f[1][0]) for f in family), max(int(f[1][-1]) for f in family)
    offsets = np.concatenate([absd - lo for _, absd, _, _ in family])
    gathered, chars = np.empty(len(offsets), dtype=np.int8), np.empty(len(offsets))
    class_chars = np.split(chars, np.cumsum([len(absd) for _, absd, _, _ in family])[:-1])  # views
    values = np.empty((len(family), len(grid)), dtype=np.float64)
    negated = np.zeros(len(grid), dtype=bool)  # the primes with (-1|p) = -1
    for i, (residues, minus_one) in enumerate(_legendre_tables(grid.tolist(), lo, hi)):
        np.take(residues, offsets, out=gathered, mode="clip")  # every offset is in range; "clip" is unbuffered
        chars[:] = gathered
        negated[i] = minus_one == -1
        for j, ((_, _, weights, _), x) in enumerate(zip(family, class_chars)):
            values[j, i] = np.dot(weights, x)
    for j, (cls, _, _, den) in enumerate(family):
        if cls == -1:
            values[j, negated] = 0.0 - values[j, negated]  # the dots of the negated characters, +0.0 included
        values[j] /= den
    if normalization == "raw_sqrtp":
        values *= np.sqrt(grid)
    ys = grid / X
    series = [
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
    return series if isinstance(parity_class, tuple) else series[0]


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
    """The finite value of a numeral (``_is_numeral``)."""
    try:
        if not _is_numeral(token):
            raise ValueError(token)
        value = float(token)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse {what} from {token.strip()!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: {what} must be finite, got {token.strip()!r}")
    return value


def _label_record(index: dict, token: str, line_no: int) -> int:
    """The record of a coefficient row's label field."""
    label = token.strip()
    record = index.get(label)
    if record is None:
        raise DataError(f"line {line_no}: coefficient for unknown label {label!r}")
    return record


def _prime(token: str, line_no: int) -> int:
    """The prime of a coefficient row's p field, a numeral (``_is_numeral``)."""
    try:
        if not _is_numeral(token):
            raise ValueError(token)
        p = int(token)  # int() and float() ignore surrounding whitespace
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse prime from {token.strip()!r}") from None
    if not 2 <= p < _P_LIMIT:
        raise DataError(f"line {line_no}: prime must be in [2, 2^31), got {p}")
    return p


def _coefficient(token: str, line_no: int) -> float:
    """The a(p) of a coefficient row's last field, without the line's trailing whitespace."""
    return _parse_number(token.rstrip(), line_no, "coefficient")


# keys of the tokeniser: a field's bytes padded with ',' to whole little-endian words
_PAD = np.uint64(0x2C2C2C2C2C2C2C2C)
_LOW = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)  # the low n bytes of a word
_KEY_MIX = np.uint64(_FNV_PRIME)  # folds the words of a longer field into one key


def _distinct(words: np.ndarray, start: np.ndarray, length: np.ndarray):
    """np.unique's first indices and inverse over the fields' bytes.  A
    field is read as whole 8-byte words, padded with ',', which no field
    holds.  Fields of different word counts k differ, so each k is keyed
    apart, in about the fields' own bytes.  The key is one uint64, the
    word or the k words folded into one, which sorts faster than the k
    words' bytes; should two different fields fold alike, the bytes are
    the key.  The first index of a token is the least index of its
    fields.  ``words[i]`` is the block's word from byte i on."""
    n_words = np.maximum(1, -(-length // 8))
    firsts, inverse = [np.empty(0, dtype=np.intp)], np.empty(len(start), dtype=np.intp)
    for k in np.flatnonzero(np.bincount(n_words)).tolist():
        group = np.flatnonzero(n_words == k)
        group_start, group_length = start[group], length[group]
        keys = np.empty((len(group), k), dtype="<u8")
        for j in range(k):
            low = _LOW[np.minimum(group_length - 8 * j, 8)]
            keys[:, j] = (words[group_start + 8 * j] & low) | (_PAD & ~low)
        folded = keys[:, 0]
        for column in keys.T[1:]:
            folded = folded * _KEY_MIX ^ column
        for key in (folded, keys.view(f"S{8 * k}")[:, 0]):
            # return_index=True would make np.unique sort stably, which is slower
            _, group_inverse = np.unique(key, return_inverse=True)
            first = np.full(group_inverse.max() + 1, len(group))
            np.minimum.at(first, group_inverse, np.arange(len(group)))
            if k == 1 or np.array_equal(keys[first[group_inverse]], keys):
                break
        inverse[group] = group_inverse + sum(map(len, firsts))
        firsts.append(group[first])
    return np.concatenate(firsts), inverse


def _coefficient_rows(chunk: str, line_no: int, index: dict):
    """The columns (record, p, a(p), line) of the coefficient rows in one
    block of whole lines that starts at line ``line_no``, up to the
    block's first DataError, and that error (None if there is none).

    A row is a line with two commas; a line with another count is blank
    or the error.  Each distinct token of a field, found by ``_distinct``
    on fixed-width keys, is decoded from the block's bytes and converted
    once, at its first line, by the function that owns its checks and
    messages.  The first error is that of the smallest line, and within a
    line the label's, the prime's, then the coefficient's, as a reader
    that checks line by line meets them.
    """
    raw = chunk.encode("utf-8")
    buf = np.frombuffer(raw, dtype=np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    begin, end = np.concatenate(([0], breaks + 1)), np.append(breaks, len(buf))
    commas = np.flatnonzero(buf == ord(","))
    count = np.bincount(np.searchsorted(breaks, commas), minlength=len(begin))
    errors = []  # (line, field rank, DataError)
    for k in np.flatnonzero(count != 2).tolist():
        if raw[begin[k] : end[k]].decode("utf-8").strip():
            errors.append((line_no + k, 0, DataError(f"line {line_no + k}: expected 'label,p,ap'")))
            break
    rows = np.flatnonzero(count == 2)
    comma = (np.cumsum(count) - count)[rows]  # of each row's first comma
    first, second = commas[comma], commas[comma + 1]
    words = np.ndarray(len(raw) + 1, dtype="<u8", buffer=raw + b"," * 8, strides=(1,))
    fields = (
        (begin[rows], first, partial(_label_record, index)),
        (first + 1, second, _prime),
        (second + 1, end[rows], _coefficient),
    )
    lines = line_no + rows
    columns = []
    for rank, (start, stop, convert) in enumerate(fields, 1):
        at, inverse = _distinct(words, start, stop - start)
        spans = zip(start[at].tolist(), stop[at].tolist())
        values = []
        for token, line in zip([raw[s:e].decode("utf-8") for s, e in spans], lines[at].tolist()):
            try:
                values.append(convert(token, line))
            except DataError as error:
                values.append(0)
                errors.append((line, rank, error))
        columns.append(np.array(values)[inverse])
    columns.append(lines)
    line, _, error = min(errors, key=lambda e: e[:2], default=(math.inf, 0, None))
    return [column[lines < line] for column in columns], error


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
    """Copy a block's rows, one sequence per column of ``rows``, into rows from
    row ``filled`` on; returns the new count of filled rows."""
    end = filled + len(block[0])
    for name, values in zip(_ROW.names, block):
        rows[name][filled:end] = values
    return end


def ingest(path) -> IngestedFamily:
    """Parse and validate a murmur-family v1 file.

    The text is read in blocks of whole lines.  Each block is tokenised
    with numpy and each distinct label, prime and a(p) in it is converted
    once (``_coefficient_rows``); its rows go into typed columns (record,
    p, a(p) and the line number, 20 bytes a row), sorted by (record, p)
    once at the end.  The digest is taken from the file's bytes,
    normalized as text.
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
    for chunk in _line_blocks(text, pos):
        block, error = _coefficient_rows(chunk, line_no, index)
        filled = _store(rows, filled, block)
        if error is not None:
            _sort_order(rows[:filled], labels)  # a duplicate on an earlier line is the first error in the file
            raise error
        line_no += chunk.count("\n") + 1
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
    _WRITE_ROWS records or coefficient rows per write; each distinct
    label, prime and a(p) of a write is formatted once."""
    labels = family.labels
    with open(path, "wb") as fh:
        fh.write(f"{FAMILY_MAGIC}\nlabel,conductor,root_number\n".encode("utf-8"))
        for lo in range(0, len(labels), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            lines = zip(labels[lo:hi], family.conductor[lo:hi].tolist(), family.root_number[lo:hi].tolist())
            fh.write("".join(f"{label},{_format_number(n)},{root}\n" for label, n, root in lines).encode("utf-8"))
        fh.write(b"\n")
        forms = ((family.record, lambda i: labels[i] + ","), (family.p, lambda p: f"{p},"),
                 (family.ap, lambda ap: _format_number(ap) + "\n"))
        for lo in range(0, len(family.ap), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            pieces = np.empty(3 * len(family.ap[lo:hi]), dtype=object)
            for j, (column, form) in enumerate(forms):
                # each distinct value of the block once; -0.0 and 0.0 are one value and both "0"
                distinct, inverse = np.unique(column[lo:hi], return_inverse=True)
                pieces[j::3] = np.array([form(v) for v in distinct.tolist()], dtype=object)[inverse]
            fh.write("".join(pieces.tolist()).encode("utf-8"))
