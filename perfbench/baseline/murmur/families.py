"""Concrete family producers.

``enumerate_quadratic`` builds the family of primitive real quadratic
characters chi_d for fundamental discriminants d in a conductor window,
split into sign classes by sign(d) (real characters all have root
number +1, so sign(d) is the natural bisection).

``ingest`` reads externally computed coefficient tables (elliptic-curve
style families) in the murmur-family v1 format:

    #murmur-family v1
    label,conductor,root_number
    <one record line each>
    <blank line>
    <label,p,ap coefficient lines>

Raw coefficients a(p) are stored; analytic lambda(p) = a(p)/sqrt(p) is
computed on load.  Missing coefficients raise, never read as zero:
murmuration averages are bias-sensitive.
"""

from dataclasses import dataclass
import math
from typing import Sequence

import numpy as np

from .arith import ArithTables, kronecker, sieve
from .errors import CoverageError, DataError, DomainError, WindowError
from .frame import FamilyRecord, MurmurationSeries
from .specfn import WeightFunction

FAMILY_MAGIC = "#murmur-family v1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a checksum (stable, documented)."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


# ---------------------------------------------------------------------------
# quadratic characters


@dataclass(frozen=True)
class QuadraticCharacter:
    """A primitive real character indexed by a fundamental discriminant."""

    d: int

    @property
    def conductor(self) -> int:
        return abs(self.d)

    @property
    def parity_class(self) -> int:
        return 1 if self.d > 0 else -1

    def lam(self, p: int) -> float:
        return float(kronecker(self.d, p))


def _squarefree_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for k in range(2, math.isqrt(limit) + 1):
        mask[k * k :: k * k] = False
    return mask


def is_fundamental_discriminant(d: int) -> bool:
    """d = 1 mod 4 squarefree, or d = 4m with m = 2, 3 mod 4 squarefree."""
    if d == 0:
        return False

    def squarefree(n):
        n = abs(n)
        k = 2
        while k * k <= n:
            if n % (k * k) == 0:
                return False
            k += 1
        return True

    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and squarefree(m)
    return False


def enumerate_quadratic(X: float, phi: WeightFunction) -> list[QuadraticCharacter]:
    """All fundamental discriminants with |d|/X inside supp(phi), both signs."""
    if X < 3:
        raise DomainError(f"X must be >= 3, got {X}")
    a, b = phi.support
    lo = max(3, math.ceil(a * X))
    hi = math.floor(b * X)
    if hi < lo:
        return []
    sf = _squarefree_mask(hi)
    out = []
    absd = np.arange(lo, hi + 1)
    for sign in (1, -1):
        d = sign * absd
        mod4 = d % 4  # numpy % matches python semantics for negatives
        fund = (mod4 == 1) & sf[absd]
        four = mod4 == 0
        if np.any(four):
            m = d[four] // 4
            fund4 = np.isin(m % 4, (2, 3)) & sf[np.abs(m)]
            chosen = np.concatenate([d[fund], d[four][fund4]])
        else:
            chosen = d[fund]
        out.extend(QuadraticCharacter(int(v)) for v in chosen)
    out.sort(key=lambda ch: (ch.conductor, -ch.d))
    return out


def quadratic_records(characters: Sequence[QuadraticCharacter]) -> list[FamilyRecord]:
    """FamilyRecord view of a character list, for the generic framework."""
    return [
        FamilyRecord(
            label=f"chi_{ch.d}",
            conductor=float(ch.conductor),
            root_number=1,
            lam=ch.lam,
        )
        for ch in characters
    ]


def _legendre_table(p: int) -> np.ndarray:
    """chi(r) = (r|p) for r in [0, p), as int8; p = 2 uses the mod-8 rule."""
    if p == 2:
        table = np.zeros(8, dtype=np.int8)
        table[[1, 7]] = 1
        table[[3, 5]] = -1
        return table
    table = np.full(p, -1, dtype=np.int8)
    r = np.arange(1, p, dtype=np.int64)
    table[(r * r) % p] = 1
    table[0] = 0
    return table


def quadratic_murmuration(
    X: float,
    phi: WeightFunction,
    parity_class: int,
    primes: Sequence[int],
    normalization: str = "analytic",
) -> MurmurationSeries:
    """Murmuration series E[chi_d(p)] for one sign class of discriminants.

    Vectorized over the family: for fixed p the character value is the
    Legendre symbol of d mod p (mod 8 for p = 2), so one residue table
    per prime serves the whole family.
    """
    if parity_class not in (1, -1):
        raise DomainError(f"parity class must be +-1, got {parity_class}")
    chars = [ch for ch in enumerate_quadratic(X, phi) if ch.parity_class == parity_class]
    if not chars:
        raise WindowError(f"no fundamental discriminants of sign {parity_class} in window at X={X}")
    d = np.array([ch.d for ch in chars], dtype=np.int64)
    weights = np.asarray(phi(np.abs(d) / X), dtype=np.float64)
    keep = weights != 0.0
    d, weights = d[keep], weights[keep]
    if len(d) == 0:
        raise WindowError(f"window weights vanish on the whole family at X={X}")
    den = float(weights.sum())
    count = len(d)
    values = np.empty(len(primes), dtype=np.float64)
    for i, p in enumerate(primes):
        table = _legendre_table(int(p))
        modulus = 8 if p == 2 else int(p)
        chi = table[d % modulus]
        v = float(np.dot(weights, chi)) / den
        if normalization == "raw_sqrtp":
            v *= math.sqrt(p)
        elif normalization != "analytic":
            raise DomainError(f"unknown normalization {normalization!r}")
        values[i] = v
    ys = np.asarray(primes, dtype=np.float64) / X
    return MurmurationSeries(
        y=ys,
        value=values,
        count=np.full(len(primes), count, dtype=np.int64),
        window_scale=X,
        normalization=normalization,
        meta={"family": "quadratic", "parity_class": parity_class},
    )


# ---------------------------------------------------------------------------
# ingestion


@dataclass(frozen=True)
class IngestedFamily:
    """Externally computed family plus provenance checksum."""

    records: tuple
    source_digest: int
    prime_coverage: int
    _coefficients: dict

    def coefficient(self, label: str, p: int) -> float:
        try:
            return self._coefficients[(label, p)]
        except KeyError:
            raise CoverageError(f"no coefficient for record {label!r} at prime {p}") from None

    def __len__(self):
        return len(self.records)


def _normalize_text(raw: bytes) -> str:
    text = raw.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_number(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse {what} from {token!r}") from None


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

    meta = {}
    order = []
    i = 2
    while i < len(lines) and lines[i].strip() != "":
        parts = lines[i].split(",")
        if len(parts) != 3:
            raise DataError(f"line {i + 1}: expected 'label,conductor,root_number'")
        label = parts[0].strip()
        if label in meta:
            raise DataError(f"line {i + 1}: duplicate label {label!r}")
        conductor = _parse_number(parts[1].strip(), i + 1, "conductor")
        if not conductor > 0:
            raise DataError(f"line {i + 1}: conductor must be positive, got {parts[1].strip()}")
        root_token = parts[2].strip()
        if root_token not in ("1", "-1", "+1"):
            raise DataError(f"line {i + 1}: root number must be 1 or -1, got {root_token!r}")
        meta[label] = (conductor, int(root_token))
        order.append(label)
        i += 1
    i += 1  # blank separator

    coeffs = {}
    primes_by_label = {label: set() for label in order}
    while i < len(lines):
        line = lines[i].strip()
        if line == "":
            i += 1
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise DataError(f"line {i + 1}: expected 'label,p,ap'")
        label = parts[0].strip()
        if label not in meta:
            raise DataError(f"line {i + 1}: coefficient for unknown label {label!r}")
        try:
            p = int(parts[1].strip())
        except ValueError:
            raise DataError(f"line {i + 1}: cannot parse prime from {parts[1].strip()!r}") from None
        if p < 2:
            raise DataError(f"line {i + 1}: prime must be >= 2, got {p}")
        ap = _parse_number(parts[2].strip(), i + 1, "coefficient")
        if (label, p) in coeffs:
            raise DataError(f"line {i + 1}: duplicate coefficient for ({label!r}, {p})")
        coeffs[(label, p)] = ap
        primes_by_label[label].add(p)
        i += 1

    coverage = 0
    if order:
        all_present = set.intersection(*primes_by_label.values()) if primes_by_label else set()
        if all_present:
            top = max(all_present)
            for q in sorted(_small_primes(top)):
                if all(q in s for s in primes_by_label.values()):
                    coverage = q
                else:
                    break

    family = IngestedFamily(
        records=(), source_digest=digest, prime_coverage=coverage, _coefficients=coeffs
    )
    records = []
    for label in order:
        conductor, root = meta[label]
        records.append(
            FamilyRecord(
                label=label,
                conductor=conductor,
                root_number=root,
                lam=_lam_accessor(family, label),
                ap=_ap_accessor(family, label),
            )
        )
    object.__setattr__(family, "records", tuple(records))
    return family


def _small_primes(limit: int) -> list[int]:
    return [int(p) for p in sieve(max(2, limit)).primes]


def _ap_accessor(family: IngestedFamily, label: str):
    def ap(p: int) -> float:
        return family.coefficient(label, p)

    return ap


def _lam_accessor(family: IngestedFamily, label: str):
    def lam(p: int) -> float:
        return family.coefficient(label, p) / math.sqrt(p)

    return lam


def _format_number(x: float) -> str:
    if float(x) == int(x):
        return str(int(x))
    return repr(float(x))


def write_family(family: IngestedFamily, path) -> None:
    """Write the canonical byte representation of an ingested family."""
    lines = [FAMILY_MAGIC, "label,conductor,root_number"]
    for rec in family.records:
        lines.append(f"{rec.label},{_format_number(rec.conductor)},{rec.root_number}")
    lines.append("")
    for (label, p) in sorted(family._coefficients, key=lambda key: (_label_index(family, key[0]), key[1])):
        ap = family._coefficients[(label, p)]
        lines.append(f"{label},{p},{_format_number(ap)}")
    text = "\n".join(lines) + "\n"
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def _label_index(family: IngestedFamily, label: str) -> int:
    for i, rec in enumerate(family.records):
        if rec.label == label:
            return i
    return len(family.records)
