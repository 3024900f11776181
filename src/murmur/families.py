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
murmuration averages are bias-sensitive.  The source digest is standard
64-bit FNV-1a of the UTF-8 text, without a leading byte-order mark
and with line endings normalized to LF,
computed in linear time and bounded memory (``fnv1a64``); its value is
that of the byte-at-a-time definition.
"""

from dataclasses import dataclass
from functools import cached_property, partial
import math
from typing import Sequence

import numpy as np

from .arith import check_prime_grid, is_prime, sieve
from .errors import CoverageError, DataError, DomainError, WindowError
from .frame import FamilyRecord, MurmurationSeries
from .specfn import WeightFunction

FAMILY_MAGIC = "#murmur-family v1"
_NORMALIZATIONS = ("analytic", "raw_sqrtp")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_CHUNK = 1 << 15  # bytes per vectorised block: bounds the temporaries
_MASK64 = 0xFFFFFFFFFFFFFFFF

# ingest keeps 2 <= p < 2^31, so (record << 31) | p orders rows by (record, p)
_P_BITS = 31


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


def _check_normalization(normalization: str) -> None:
    if normalization not in _NORMALIZATIONS:
        raise DomainError(f"unknown normalization {normalization!r}")


# ---------------------------------------------------------------------------
# quadratic characters


def _squarefree_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for k in range(2, math.isqrt(limit) + 1):
        mask[k * k :: k * k] = False
    return mask


def fundamental_discriminants(X: float, phi: WeightFunction) -> dict[int, np.ndarray]:
    """Fundamental discriminants d with |d|/X inside supp(phi), per sign
    class (keys +1 and -1), each an int64 array in ascending |d|.

    d is fundamental when d = 1 mod 4 is squarefree, or d = 4m with
    m = 2, 3 mod 4 squarefree.
    """
    if X < 3:
        raise DomainError(f"X must be >= 3, got {X}")
    a, b = phi.support
    lo = max(3, math.ceil(a * X))
    hi = max(lo - 1, math.floor(b * X))
    sf = _squarefree_mask(hi)
    absd = np.arange(lo, hi + 1, dtype=np.int64)
    classes = {}
    for sign in (1, -1):
        d = sign * absd
        mod4 = d % 4  # numpy % matches python semantics for negatives
        m = d // 4
        fund = ((mod4 == 1) & sf[absd]) | ((mod4 == 0) & np.isin(m % 4, (2, 3)) & sf[np.abs(m)])
        classes[sign] = d[fund]
    return classes


def _legendre_table(p: int, squares: np.ndarray) -> np.ndarray:
    """chi(r) = (r|p) for r in [0, p), as int8; p = 2 uses the mod-8 rule.

    ``squares`` holds r*r for r = 1, 2, ... up to at least (p - 1)/2; their
    residues are exactly the quadratic residues mod an odd prime p.
    """
    if p == 2:
        table = np.zeros(8, dtype=np.int8)
        table[[1, 7]] = 1
        table[[3, 5]] = -1
        return table
    table = np.full(p, -1, dtype=np.int8)
    table[squares[: (p - 1) // 2] % p] = 1
    table[0] = 0
    return table


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
    gives (|d| | p) by a gather; (d|p) = (-1|p)(|d| | p) for d < 0, and
    (-1|p) is the table's last entry.
    """
    if not classes or any(c not in (1, -1) for c in classes):
        raise DomainError(f"parity classes must be +-1, got {tuple(classes)}")
    _check_normalization(normalization)
    grid = check_prime_grid(primes)
    discriminants = fundamental_discriminants(X, phi)
    family = []
    for cls in classes:
        absd = np.abs(discriminants[cls])
        if len(absd) == 0:
            raise WindowError(f"no fundamental discriminants of sign {cls} in window at X={X}")
        weights = np.asarray(phi(absd / X), dtype=np.float64)
        keep = weights != 0.0
        if not np.any(keep):
            raise WindowError(f"window weights vanish on the whole family at X={X}")
        family.append((cls, absd[keep], weights[keep], float(weights[keep].sum())))
    span = max(int(absd[-1]) for _, absd, _, _ in family) + 1
    squares = np.arange(1, (int(grid[-1]) - 1) // 2 + 1, dtype=np.int64) ** 2
    values = np.empty((len(family), len(grid)), dtype=np.float64)
    for i, p in enumerate(grid.tolist()):
        table = _legendre_table(p, squares)
        residues = np.resize(table, span)  # residues[n] = table[n mod len(table)]
        for j, (cls, absd, weights, den) in enumerate(family):
            chi = residues[absd]
            if cls == -1 and table[-1] == -1:
                chi = -chi
            v = float(np.dot(weights, chi)) / den
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
    record, in file order; ``record`` (an index into ``labels``), ``p``
    and ``ap`` hold one entry per coefficient row, sorted by (record, p).
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
        return (self.record << _P_BITS) | self.p

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

    def coefficient(self, label: str, p: int) -> float:
        i = self._index.get(label)
        if i is not None and 0 <= p < 2**_P_BITS and p == int(p):
            key = (i << _P_BITS) | int(p)
            row = int(np.searchsorted(self._keys, key))
            if row < len(self._keys) and self._keys[row] == key:
                return float(self.ap[row])
        raise CoverageError(f"no coefficient for record {label!r} at prime {p}")

    def murmuration_series(
        self, X: float, phi: WeightFunction, primes: Sequence[int], normalization: str = "analytic"
    ) -> MurmurationSeries:
        """Expectation of the prime coefficient at every prime of the grid.

        One contraction of the (records in window x grid) block of
        coefficients, each prime's sum a ``math.fsum``: the values of
        ``frame.murmuration_series`` on ``records``, bit for bit.
        """
        grid = check_prime_grid(primes)
        _check_normalization(normalization)
        if not X > 0:
            raise DomainError(f"window scale X must be positive, got {X}")
        weights = np.asarray(phi(self.conductor / X), dtype=np.float64)
        in_window = np.flatnonzero(weights != 0.0)
        if len(in_window) == 0:
            raise WindowError(f"no family members in window at X={X}")
        weights = weights[in_window]
        keys = (in_window[:, None] << _P_BITS) | grid
        rows = np.searchsorted(self._keys, keys)
        found = (grid < 2**_P_BITS) & (rows < len(self._keys))
        found[found] = self._keys[rows[found]] == keys[found]
        if not np.all(found):
            j, i = np.argwhere(~found.T)[0]  # the first miss in (prime, record) order
            raise CoverageError(
                f"no coefficient for record {self.labels[in_window[i]]!r} at prime {int(grid[j])}"
            )
        block = self.ap[rows]
        if normalization == "analytic":
            block = block / np.sqrt(grid)
        den = math.fsum(weights.tolist())
        columns = (weights[:, None] * block).T.tolist()
        return MurmurationSeries(
            y=grid / X,
            value=np.array([math.fsum(column) / den for column in columns], dtype=np.float64),
            count=np.full(len(grid), len(in_window), dtype=np.int64),
            window_scale=X,
            normalization=normalization,
        )

    def __len__(self):
        return len(self.labels)


def _normalize_text(raw: bytes) -> str:
    raw = raw.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark is not text
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]  # line breaks as normalized below: LF, CRLF or a lone CR
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(f"line {line_no}: not valid UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_number(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse {what} from {token.strip()!r}") from None
    if not math.isfinite(value):
        raise DataError(f"line {line_no}: {what} must be finite, got {token.strip()!r}")
    return value


def _sorted_rows(record, p, labels: list, line_of) -> np.ndarray:
    """Order of the coefficient rows, given in file order, by (record, p);
    raises the DataError of the first duplicate row in the file.
    ``line_of(k)`` is the file line of row k."""
    record, p = np.asarray(record, dtype=np.int64), np.asarray(p, dtype=np.int64)
    order = np.lexsort((p, record))  # stable: equal pairs keep file order
    r, q = record[order], p[order]
    repeats = order[1:][(r[1:] == r[:-1]) & (q[1:] == q[:-1])]
    if len(repeats):
        k = repeats.min()
        raise DataError(f"line {line_of(k)}: duplicate coefficient for ({labels[record[k]]!r}, {p[k]})")
    return order


def ingest(path) -> IngestedFamily:
    """Parse and validate a murmur-family v1 file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    text = _normalize_text(raw)
    digest = fnv1a64(text.encode("utf-8"))
    lines = text.split("\n")
    if not lines or lines[0].strip() != FAMILY_MAGIC:
        raise DataError(f"line 1: expected header {FAMILY_MAGIC!r}")
    if len(lines) < 2 or lines[1].strip() != "label,conductor,root_number":
        raise DataError("line 2: expected column header 'label,conductor,root_number'")

    index = {}
    conductors, roots = [], []
    i = 2
    while i < len(lines) and lines[i].strip() != "":
        parts = lines[i].split(",")
        if len(parts) != 3:
            raise DataError(f"line {i + 1}: expected 'label,conductor,root_number'")
        label = parts[0].strip()
        if label in index:
            raise DataError(f"line {i + 1}: duplicate label {label!r}")
        conductor = _parse_number(parts[1].strip(), i + 1, "conductor")
        if not conductor > 0:
            raise DataError(f"line {i + 1}: conductor must be positive, got {parts[1].strip()}")
        root_token = parts[2].strip()
        if root_token not in ("1", "-1", "+1"):
            raise DataError(f"line {i + 1}: root number must be 1 or -1, got {root_token!r}")
        index[label] = len(conductors)
        conductors.append(conductor)
        roots.append(int(root_token))
        i += 1
    i += 1  # blank separator
    labels = list(index)

    start = i

    def line_of(row: int) -> int:
        return [j + 1 for j in range(start, len(lines)) if lines[j].strip()][row]

    rec_col, p_col, ap_col = [], [], []
    try:
        for i in range(start, len(lines)):
            line = lines[i].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"line {i + 1}: expected 'label,p,ap'")
            label, p_token, ap_token = parts
            record = index.get(label.strip())
            if record is None:
                raise DataError(f"line {i + 1}: coefficient for unknown label {label.strip()!r}")
            try:
                p = int(p_token)  # int() and float() ignore surrounding whitespace
            except ValueError:
                raise DataError(f"line {i + 1}: cannot parse prime from {p_token.strip()!r}") from None
            if not 2 <= p < 2**_P_BITS:
                raise DataError(f"line {i + 1}: prime must be in [2, 2^31), got {p}")
            ap_col.append(_parse_number(ap_token, i + 1, "coefficient"))
            rec_col.append(record)
            p_col.append(p)
    except DataError:
        # a duplicate on an earlier line is the first error in the file
        _sorted_rows(rec_col, p_col, labels, line_of)
        raise
    record, p, ap = np.array(rec_col, dtype=np.int64), np.array(p_col, dtype=np.int64), np.array(ap_col)
    del rec_col, p_col, ap_col
    order = _sorted_rows(record, p, labels, line_of)

    distinct, first, carriers = np.unique(p, return_index=True, return_counts=True)
    composite = first[~is_prime(distinct)]
    if len(composite):
        k = composite.min()
        raise DataError(f"line {line_of(k)}: coefficient at composite p={p[k]}")

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
        record=record[order],
        p=p[order],
        ap=ap[order],
    )


def _format_number(x: float) -> str:
    if float(x) == int(x):
        return str(int(x))
    return repr(float(x))


def write_family(family: IngestedFamily, path) -> None:
    """Write the canonical byte representation of an ingested family."""
    labels = family.labels
    lines = [FAMILY_MAGIC, "label,conductor,root_number"]
    lines += [
        f"{label},{_format_number(conductor)},{root}"
        for label, conductor, root in zip(labels, family.conductor.tolist(), family.root_number.tolist())
    ]
    lines.append("")
    lines += [
        f"{labels[i]},{p},{_format_number(ap)}"
        for i, p, ap in zip(family.record.tolist(), family.p.tolist(), family.ap.tolist())
    ]
    text = "\n".join(lines) + "\n"
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))
