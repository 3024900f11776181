"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive: trial division, direct divisor
enumeration, Euler's criterion, complex exponential sums with exact
modular inverses, arbitrary-precision power series, dense Simpson
integration, exact integer q-expansions, a byte-at-a-time checksum, a
line-at-a-time family parser and bin-at-a-time binning.  None of it shares code with the library
paths it checks; the parser raises the library's ``DataError``.
"""

import cmath
from fractions import Fraction
import math

import mpmath
import numpy as np

from murmur.errors import DataError


def naive_primes(limit):
    """Primes <= limit by trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius_naive(n):
    if n == 1:
        return 1
    m = 1
    for p in naive_primes(n):
        if n % p == 0:
            if n % (p * p) == 0:
                return 0
            m = -m
            n //= p
        if n == 1:
            break
    return m


def phi_naive(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def legendre_euler(a, p):
    """Legendre symbol via Euler's criterion, p an odd prime."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def kronecker_oracle(d, n):
    """(d|n) from the definition: factor n, multiply local symbols."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    for p in naive_primes(max(2, n)):
        while n % p == 0:
            n //= p
            if p == 2:
                if d % 2 == 0:
                    return 0
                result *= 1 if d % 8 in (1, 7) else -1
            else:
                result *= legendre_euler(d, p)
    return result


def kloosterman_complex(m, n, c):
    """S(m, n; c) as an exact-index complex sum; returns (re, im)."""
    if c == 1:
        return (1.0, 0.0)
    total = 0j
    for d in range(1, c):
        if math.gcd(d, c) != 1:
            continue
        dbar = pow(d, -1, c)
        total += cmath.exp(2j * math.pi * ((m * d + n * dbar) % c) / c)
    return (total.real, total.imag)


def bessel_series_mp(nu, x, dps=40):
    """J_nu(x) by the ascending power series in mpmath arithmetic.

    The alternating series cancels roughly x * log10(e) digits, so the
    working precision grows with the argument.
    """
    dps = max(dps, 30 + int(0.5 * x))
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        term = (xm / 2) ** nu / mpmath.factorial(nu)
        total = term
        biggest = abs(term)
        u = (xm / 2) ** 2
        eps = mpmath.mpf(10) ** (-dps)
        j = 0
        while True:
            j += 1
            term *= -u / (j * (nu + j))
            total += term
            biggest = max(biggest, abs(term))
            if abs(term) < eps * max(abs(total), biggest):
                break
            if j > 10000:
                raise RuntimeError("series did not converge")
        return total


def simpson(f, a, b, n=4001):
    """Dense composite Simpson rule (n odd sample count)."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (n - 1)
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def tau_qexp(n_max):
    """Ramanujan tau(n) for n <= n_max from q * prod (1 - q^j)^24, exact ints."""
    size = n_max  # coefficients of prod on q^0 .. q^{n_max - 1}
    poly = [0] * size
    poly[0] = 1
    for j in range(1, size):
        factor = [0] * size
        for i in range(0, 25):
            e = j * i
            if e < size:
                factor[e] = (-1) ** i * math.comb(24, i)
        new = [0] * size
        for i, aa in enumerate(poly):
            if aa == 0:
                continue
            for k in range(0, (size - i - 1) // j + 1):
                bb = factor[j * k] if j * k < size else 0
                if bb:
                    new[i + j * k] += aa * bb
        poly = new
    return {n: poly[n - 1] for n in range(1, n_max + 1)}


def is_fundamental_naive(d):
    def squarefree(n):
        n = abs(n)
        return all(n % (k * k) for k in range(2, math.isqrt(n) + 1))

    if d == 0:
        return False
    if d % 4 == 1:
        return squarefree(d)
    if d % 4 == 0 and (d // 4) % 4 in (2, 3):
        return squarefree(d // 4)
    return False


def fnv1a64_oracle(data):
    """64-bit FNV-1a, one byte at a time, as the specification states it."""
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def bin_series_oracle(y, value, count, bins, y_range, tail_bound=None):
    """Equal-width bins of a series, one bin at a time, as ``frame.bin_series``
    did before it grouped bins by occupancy.

    A sample in [lo, hi] falls in the last bin b < bins whose
    ``np.linspace`` edge is <= its y; each occupied bin takes its samples
    by a mask, in series order.  Returns (y, value, count, stderr,
    tail_bound) arrays of the occupied bins, tail_bound None when none is
    given.
    """
    lo, hi = y_range
    edges = np.linspace(lo, hi, bins + 1)
    in_range = np.flatnonzero((y >= lo) & (y <= hi))
    idx = np.searchsorted(edges[:-1], y[in_range], side="right") - 1
    ys, vals, cnts, errs, bounds = [], [], [], [], []
    for b in np.unique(idx).tolist():
        sel = in_range[idx == b]
        v = value[sel]
        c = count[sel].astype(np.float64)
        ys.append(0.5 * (edges[b] + edges[b + 1]))
        vals.append(float(np.sum(v * c) / np.sum(c)))
        cnts.append(int(np.sum(count[sel])))
        errs.append(float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else math.nan)
        if tail_bound is not None:
            bounds.append(float(np.sum(tail_bound[sel] * c) / np.sum(c)))
    return (np.array(ys), np.array(vals), np.array(cnts, dtype=np.int64), np.array(errs),
            None if tail_bound is None else np.array(bounds))


def window_density_oracle(E, q_max, prefactor):
    """Sorted (location, mass) atoms of the atomic prime-window density.

    One coprime pair (a, q) at a time, q squarefree by trial division,
    phi and sigma by direct enumeration, endpoints decided on exact
    rationals (Fraction) before the snap tolerance, and every ratio keyed
    by its reduced Fraction.
    """
    snap = 1e-12
    lo, hi = float(E[0]), float(E[1])

    def at_endpoint(q, a, endpoint):
        ratio = Fraction(q * q, a * a)
        exact = Fraction(endpoint).limit_denominator(10**12)
        if float(exact) == endpoint and exact == ratio:
            return True
        return abs(float(ratio) - endpoint) <= snap * max(1.0, abs(endpoint))

    atoms = {}
    for q in range(1, q_max + 1):
        if any(q % (k * k) == 0 for k in range(2, math.isqrt(q) + 1)):
            continue
        sigma = sum(divisors(q))
        base = prefactor * 1.0 / (phi_naive(q) ** 2 * sigma)
        a_lo = max(1, math.floor(q / math.sqrt(hi)))
        a_hi = math.ceil(q / math.sqrt(lo)) + 1
        for a in range(a_lo, a_hi + 1):
            if math.gcd(a, q) != 1:
                continue
            loc = (q / a) ** 2
            if loc < lo - snap or loc > hi + snap:
                continue
            at_end = at_endpoint(q, a, lo) or at_endpoint(q, a, hi)
            if not at_end and not (lo < loc < hi):
                continue
            mass = base * (q / a) ** 3
            if at_end:
                mass *= 0.5
            atoms[Fraction(q, a)] = (loc, mass)
    return tuple(sorted(atoms.values(), key=lambda lm: lm[0]))


def quadratic_class_oracle(X, phi, parity_class, primes, normalization="analytic"):
    """E[chi_d(p)] over one sign class of fundamental discriminants, the
    per-class loop the library ran before it shared one pass between classes.

    The class is enumerated on its own (squarefree mask, d = 1 mod 4 or
    d = 4m with m = 2, 3 mod 4), in ascending |d|; each prime gets a fresh
    Legendre table from r*r mod p over all 1 <= r < p (the mod-8 rule for
    p = 2), looked up at d mod p.
    """
    a, b = phi.support
    lo, hi = max(3, math.ceil(a * X)), math.floor(b * X)
    sf = np.ones(hi + 1, dtype=bool)
    sf[0] = False
    for k in range(2, math.isqrt(hi) + 1):
        sf[k * k :: k * k] = False
    absd = np.arange(lo, hi + 1)
    d = parity_class * absd
    mod4 = d % 4
    fund = (mod4 == 1) & sf[absd]
    four = mod4 == 0
    m = d[four] // 4
    chosen = np.concatenate([d[fund], d[four][np.isin(m % 4, (2, 3)) & sf[np.abs(m)]]])
    d = np.array(sorted(chosen.tolist(), key=abs), dtype=np.int64)
    weights = np.asarray(phi(np.abs(d) / X), dtype=np.float64)
    keep = weights != 0.0
    d, weights = d[keep], weights[keep]
    den = float(weights.sum())
    values = np.empty(len(primes), dtype=np.float64)
    for i, p in enumerate(primes):
        if p == 2:
            table = np.zeros(8, dtype=np.int8)
            table[[1, 7]] = 1
            table[[3, 5]] = -1
            modulus = 8
        else:
            table = np.full(p, -1, dtype=np.int8)
            r = np.arange(1, p, dtype=np.int64)
            table[(r * r) % p] = 1
            table[0] = 0
            modulus = p
        v = float(np.dot(weights, table[d % modulus])) / den
        if normalization == "raw_sqrtp":
            v *= math.sqrt(p)
        values[i] = v
    return values


def ingest_oracle(path):
    """A murmur-family v1 file parsed one line at a time from one list of
    all its lines, as ``families.ingest`` did before it read line blocks
    into typed columns; it raises the same ``DataError`` messages.

    Returns a dict: ``digest`` (byte-at-a-time FNV-1a of the normalized
    text), ``prime_coverage`` (the largest P such that every record has a
    coefficient at every prime <= P, by trial division), ``labels``,
    ``conductor`` and ``root_number`` in file order, and ``record``, ``p``
    and ``ap`` sorted by (record, p).  A numeral (conductor, p, a(p)) is
    plain ASCII without '_', checked token by token.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(b"\xef\xbb\xbf"):
        raw = raw[3:]
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(f"line {line_no}: not valid UTF-8") from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    digest = fnv1a64_oracle(text.encode("utf-8"))
    lines = text.split("\n")

    def plain(token):
        return all(ord(ch) < 128 for ch in token) and "_" not in token

    def number(token, line_no, what):
        try:
            if not plain(token):
                raise ValueError(token)
            value = float(token)
        except ValueError:
            raise DataError(f"line {line_no}: cannot parse {what} from {token.strip()!r}") from None
        if not math.isfinite(value):
            raise DataError(f"line {line_no}: {what} must be finite, got {token.strip()!r}")
        return value

    if lines[0].strip() != "#murmur-family v1":
        raise DataError("line 1: expected header '#murmur-family v1'")
    if len(lines) < 2 or lines[1].strip() != "label,conductor,root_number":
        raise DataError("line 2: expected column header 'label,conductor,root_number'")
    index, conductors, roots = {}, [], []
    i = 2
    while i < len(lines) and lines[i].strip() != "":
        parts = lines[i].split(",")
        if len(parts) != 3:
            raise DataError(f"line {i + 1}: expected 'label,conductor,root_number'")
        label = parts[0].strip()
        if label in index:
            raise DataError(f"line {i + 1}: duplicate label {label!r}")
        conductor = number(parts[1].strip(), i + 1, "conductor")
        if not conductor > 0:
            raise DataError(f"line {i + 1}: conductor must be positive, got {parts[1].strip()}")
        root = parts[2].strip()
        if root not in ("1", "-1", "+1"):
            raise DataError(f"line {i + 1}: root number must be 1 or -1, got {root!r}")
        index[label] = len(conductors)
        conductors.append(conductor)
        roots.append(int(root))
        i += 1
    labels = list(index)

    rows = []  # (record, p, ap, line) in file order

    def first_duplicate():
        seen = set()
        for record, p, _, line_no in rows:
            if (record, p) in seen:
                raise DataError(f"line {line_no}: duplicate coefficient for ({labels[record]!r}, {p})")
            seen.add((record, p))

    try:
        for i in range(i + 1, len(lines)):
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
                if not plain(p_token):
                    raise ValueError(p_token)
                p = int(p_token)
            except ValueError:
                raise DataError(f"line {i + 1}: cannot parse prime from {p_token.strip()!r}") from None
            if not 2 <= p < 2**31:
                raise DataError(f"line {i + 1}: prime must be in [2, 2^31), got {p}")
            rows.append((record, p, number(ap_token, i + 1, "coefficient"), i + 1))
    except DataError:
        first_duplicate()  # a duplicate on an earlier line is the first error in the file
        raise
    first_duplicate()

    def prime(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    verdict = {}
    for _, p, _, line_no in rows:
        if verdict.setdefault(p, prime(p)) is False:
            raise DataError(f"line {line_no}: coefficient at composite p={p}")

    carried = {}
    for record, p, _, _ in rows:
        carried.setdefault(p, set()).add(record)
    coverage, p = 0, 2
    while labels and len(carried.get(p, ())) == len(labels):
        coverage, p = p, p + 1
        while not prime(p):
            p += 1
    rows.sort()
    return {
        "digest": digest,
        "prime_coverage": coverage,
        "labels": tuple(labels),
        "conductor": np.array(conductors, dtype=np.float64),
        "root_number": np.array(roots, dtype=np.int64),
        "record": np.array([r[0] for r in rows], dtype=np.int64),
        "p": np.array([r[1] for r in rows], dtype=np.int64),
        "ap": np.array([r[2] for r in rows], dtype=np.float64),
    }
