"""Output checks for each benchmark operation, computed independently of murmur.

Every check reads what a pass wrote and returns a list of problems (empty
when the output is right).  The references come from this file's own
numpy code (prime sieve, Euler's criterion, the closed-form density,
plain averages of the generated family) or from ``reference.json``,
which holds values stored at the commit that defined the benchmark.
Series are compared element by element within 1e-9 of each expected
value, plus a floor of 1e-14 of the series' largest magnitude for
samples that are zero or near it.
"""

import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
STORED_RTOL = 1e-9
SCALE_FLOOR = 1e-14
RESIDUAL_ATOL = 1e-6

PETERSSON_K, PETERSSON_Y = 100, (0.004, 0.055)
SYMSQ_K, SYMSQ_P_MAX = 24, 97
DIRICHLET_X, DIRICHLET_BINS, DIRICHLET_Y = 20000, 100, (0.05, 1.0)
DIRICHLET_SAMPLE_BINS = (0, 24, 49, 74, 99)
FAMILY_X = 100


def primes_upto(n: int) -> np.ndarray:
    composite = np.zeros(n + 1, dtype=bool)
    composite[:2] = True
    for q in range(2, math.isqrt(n) + 1):
        if not composite[q]:
            composite[q * q :: q] = True
    return np.flatnonzero(~composite)


def read_series(path):
    """(y, value, count) columns of a ``y,value,count`` CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2].astype(np.int64)


def _close(values, stored, what):
    stored = np.asarray(stored, dtype=np.float64)
    if values.shape != stored.shape:
        return [f"{what}: {len(values)} samples, stored {len(stored)}"]
    err = np.abs(values - stored)
    allowed = STORED_RTOL * np.abs(stored) + SCALE_FLOOR * float(np.max(np.abs(stored)))
    bad = np.flatnonzero(~(err <= allowed))
    if len(bad):
        i = bad[0]
        return [f"{what}: {len(bad)} samples differ from the reference, first at index {i}: "
                f"{float(values[i])!r} vs {float(stored[i])!r}"]
    return []


def _coverage(y, X, p_lo, p_hi, what):
    """The emitted primes p = y * X are every prime in [p_lo, p_hi]."""
    p = y * X
    expected = primes_upto(math.floor(p_hi))
    expected = expected[expected >= p_lo]
    if len(p) != len(expected) or not np.allclose(p, expected, rtol=0.0, atol=1e-6):
        return [f"{what}: emitted {len(p)} primes, expected all {len(expected)} in "
                f"[{p_lo:g}, {p_hi:g}]"]
    return []


# ---------------------------------------------------------------------------
# trace_formula: petersson, symsq


def _bump_1_2(x):
    t = (np.asarray(x, dtype=np.float64) - 1.5) / 0.5
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def _squarefree_totient(c: int):
    """(mu(c)^2, phi(c)) by trial division."""
    phi, n, q = 1, c, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0, 0
            phi *= q - 1
        q += 1
    if n > 1:
        phi *= n - 1
    return 1, phi


def harmonic_density(y, sign):
    """sign * 4 pi sum_c mu(c)^2/(c^2 phi(c)) Phi(16 pi^2 y / c^2) for Phi = bump on [1, 2]."""
    y = np.asarray(y, dtype=np.float64)
    c_max = int(4.0 * math.pi * math.sqrt(float(np.max(y)))) + 1
    total = np.zeros_like(y)
    for c in range(1, c_max + 1):
        sq, phi = _squarefree_totient(c)
        if sq:
            total += _bump_1_2(16.0 * math.pi**2 * y / c**2) / (c * c * phi)
    return sign * 4.0 * math.pi * total


def shape_residual(a, b):
    return float(np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b)))


def density_residual(y, value, sign):
    ref = harmonic_density(y, sign)
    support = ref != 0
    return shape_residual(value[support], ref[support])


def check_petersson(out, ctx, report):
    problems = []
    X = (PETERSSON_K - 1) ** 2
    for name, sign in (("pet.csv", 1), ("pet-minus.csv", -1)):
        key = "petersson_plus" if sign == 1 else "petersson_minus"
        y, value, _ = read_series(Path(out, name))
        problems += _coverage(y, X, PETERSSON_Y[0] * X, PETERSSON_Y[1] * X, name)
        problems += _close(value, ctx.reference[key], name)
        residual = density_residual(y, value, sign)
        report.setdefault("density_residual", []).append(residual)
        stored = ctx.reference[f"{key}_residual"]
        if not abs(residual - stored) <= RESIDUAL_ATOL:
            problems.append(f"{name}: density residual {residual:.6g}, stored {stored:.6g}")
    return problems


def check_symsq(out, ctx, report):
    y, value, _ = read_series(Path(out, "sym.csv"))
    X = (SYMSQ_K - 1) ** 2
    return _coverage(y, X, 2, SYMSQ_P_MAX, "sym.csv") + _close(
        value, ctx.reference["symsq"], "sym.csv"
    )


# ---------------------------------------------------------------------------
# families: dirichlet


def _squarefree_mask(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=bool)
    for q in range(2, math.isqrt(n) + 1):
        mask[q * q :: q * q] = False
    return mask


def fundamental_discriminants(lo: int, hi: int, sign: int) -> np.ndarray:
    """Fundamental discriminants d of the given sign with lo <= |d| <= hi."""
    sf = _squarefree_mask(hi)
    d = sign * np.arange(lo, hi + 1, dtype=np.int64)
    odd = (d % 4 == 1) & sf[np.abs(d)]
    m = d // 4
    even = (d % 4 == 0) & np.isin(m % 4, (2, 3)) & sf[np.abs(m)]
    return d[odd | even]


def _euler_criterion_sum(d: np.ndarray, p: int) -> int:
    """sum over d of the Legendre symbol (d|p), by d^((p-1)/2) mod p."""
    base = d % p
    result = np.ones_like(base)
    e = (p - 1) // 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return int(np.count_nonzero(result == 1)) - int(np.count_nonzero(result == p - 1))


def dirichlet_expectation():
    """Per sign class: bin mid-points, counts for every bin, values at the sample bins."""
    X = DIRICHLET_X
    lo, hi = DIRICHLET_Y
    edges = np.linspace(lo, hi, DIRICHLET_BINS + 1)
    primes = primes_upto(int(hi * X))
    primes = primes[primes >= lo * X]
    bin_of = np.clip(np.searchsorted(edges, primes / X, side="right") - 1, 0, DIRICHLET_BINS - 1)
    per_bin = np.bincount(bin_of, minlength=DIRICHLET_BINS)
    out = {}
    for sign in (1, -1):
        d = fundamental_discriminants(X, 2 * X, sign)
        values = {}
        for b in DIRICHLET_SAMPLE_BINS:
            ps = primes[bin_of == b]
            values[b] = float(np.mean(
                [math.sqrt(p) * _euler_criterion_sum(d, int(p)) / len(d) for p in ps]
            ))
        out[sign] = {
            "y": 0.5 * (edges[:-1] + edges[1:]),
            "count": per_bin * len(d),
            "values": values,
        }
    return out


def check_dirichlet(out, ctx, report):
    problems = []
    for name, sign in (("dir.csv", 1), ("dir-minus.csv", -1)):
        want = ctx.dirichlet[sign]
        y, value, count = read_series(Path(out, name))
        if len(y) != DIRICHLET_BINS or not np.allclose(y, want["y"], rtol=0.0, atol=1e-12):
            problems.append(f"{name}: expected {DIRICHLET_BINS} bins at the bin mid-points")
            continue
        if not np.array_equal(count, want["count"]):
            problems.append(f"{name}: bin counts differ from primes per bin x family size")
        sample = np.array([want["values"][b] for b in DIRICHLET_SAMPLE_BINS])
        problems += _close(value[list(DIRICHLET_SAMPLE_BINS)], sample, f"{name} (Euler criterion)")
    return problems


# ---------------------------------------------------------------------------
# families: ingest-run, ingest, write_family


def family_expectation(conductors, primes, ap):
    """Window average of a(p) over records with conductor / X in [1, 2]."""
    in_window = (conductors >= FAMILY_X) & (conductors <= 2 * FAMILY_X)
    return {
        "y": primes / FAMILY_X,
        "value": ap[in_window].sum(axis=0) / np.count_nonzero(in_window),
        "count": int(np.count_nonzero(in_window)),
        "records": len(conductors),
        "prime_coverage": int(primes[-1]),
    }


def check_ingest_run(out, ctx, report):
    want = ctx.family
    y, value, count = read_series(Path(out, "ing.csv"))
    if len(y) != len(want["y"]) or not np.allclose(y, want["y"], rtol=1e-15, atol=0.0):
        return [f"ing.csv: expected y = p/{FAMILY_X} at all {len(want['y'])} primes"]
    problems = _close(value, want["value"], "ing.csv")
    if not np.all(count == want["count"]):
        problems.append(f"ing.csv: counts differ from {want['count']} records in window")
    return problems


def check_ingest(out, ctx, report):
    observed = json.loads(Path(out, "ingest.json").read_text())
    want = [ctx.family["records"], ctx.family["prime_coverage"]]
    got = [observed["records"], observed["prime_coverage"]]
    return [] if got == want else [f"ingest: (records, prime coverage) {got}, expected {want}"]


def check_write_family(out, ctx, report):
    if Path(out, "written.txt").read_bytes() != ctx.family_bytes:
        return ["write_family: output is not byte-identical to the ingested file"]
    return []


# ---------------------------------------------------------------------------
# trace_formula: density-nu


def atom_summary(path):
    masses = [float(line.rsplit(" ", 1)[1])
              for line in Path(path).read_text().split("\n") if line.startswith("#atom ")]
    return len(masses), math.fsum(masses)


def check_density_nu(out, ctx, report):
    atoms, mass = atom_summary(Path(out, "nu.csv"))
    stored_atoms, stored_mass = ctx.reference["atoms"], ctx.reference["atom_mass"]
    if atoms != stored_atoms or not abs(mass - stored_mass) <= STORED_RTOL * stored_mass:
        return [f"nu.csv: {atoms} atoms of total mass {mass!r}, stored {stored_atoms} of {stored_mass!r}"]
    return []


CHECKS = {
    "petersson": check_petersson,
    "symsq": check_symsq,
    "dirichlet": check_dirichlet,
    "ingest-run": check_ingest_run,
    "ingest": check_ingest,
    "write_family": check_write_family,
    "density-nu": check_density_nu,
}


def load_reference():
    return json.loads(REFERENCE.read_text())
