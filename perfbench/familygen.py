"""Seeded generator of the ``families`` workload's input: a canonical murmur-family v1 file.

Records carry integer conductors spread around the X = 100 window, random
root numbers and, at each of the first ``n_primes`` primes, an integer
a(p) = round(2 sqrt(p) cos theta) with theta drawn from the Sato--Tate
law (2/pi) sin^2 theta, so |a(p)| stays within the Hasse bound.  The
text is written exactly as ``families.write_family`` would write it
(records in order, coefficients record-major with ascending p), so an
ingest -> write round trip must reproduce it byte for byte.
"""

import numpy as np


def first_primes(count: int) -> np.ndarray:
    limit = 16
    while True:
        composite = np.zeros(limit + 1, dtype=bool)
        composite[:2] = True
        for q in range(2, int(limit**0.5) + 1):
            if not composite[q]:
                composite[q * q :: q] = True
        primes = np.flatnonzero(~composite)
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def _sato_tate_angles(rng, shape) -> np.ndarray:
    size = int(np.prod(shape))
    out = np.empty(0)
    while len(out) < size:
        theta = rng.uniform(0.0, np.pi, 2 * size)
        keep = rng.uniform(0.0, 1.0, 2 * size) < np.sin(theta) ** 2
        out = np.concatenate([out, theta[keep]])
    return out[:size].reshape(shape)


def generate(seed: int, records: int = 500, n_primes: int = 100):
    """Return (text, conductors, root numbers, primes, a_p matrix) for one seed."""
    rng = np.random.default_rng(seed)
    primes = first_primes(n_primes)
    conductors = rng.integers(11, 400, size=records)
    roots = rng.choice(np.array([-1, 1]), size=records)
    bound = np.floor(2.0 * np.sqrt(primes))
    ap = np.rint(2.0 * np.sqrt(primes) * np.cos(_sato_tate_angles(rng, (records, n_primes))))
    ap = np.clip(ap, -bound, bound).astype(np.int64)
    labels = [f"e{i:04d}" for i in range(records)]
    lines = ["#murmur-family v1", "label,conductor,root_number"]
    lines += [f"{label},{int(n)},{int(r)}" for label, n, r in zip(labels, conductors, roots)]
    lines.append("")
    prime_text = [str(int(p)) for p in primes]
    for label, row in zip(labels, ap.tolist()):
        lines += [f"{label},{p},{a}" for p, a in zip(prime_text, row)]
    return "\n".join(lines) + "\n", conductors, roots, primes, ap
