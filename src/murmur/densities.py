"""Closed-form reference densities and one-level-density kernels.

Two murmuration densities are provided:

* ``harmonic_murmuration_density``: the weight-aspect density for
  harmonically weighted level-1 forms,

      +- 4*pi * sum_{c >= 1} mu(c)^2 / (c^2 phi(c)) * Phi(16 pi^2 y / c^2),

  an exact finite sum since only c with 16 pi^2 y / c^2 inside
  supp(Phi) contribute.

* ``window_murmuration_density``: the purely atomic density obtained
  after a small prime-window average, with point masses

      prefactor * mu(q)^2 / (phi(q)^2 sigma(q)) * (q/a)^3

  at (q/a)^2 for coprime a, q.  An atom sits at an endpoint e of the
  interval when the correctly rounded quotient q^2/a^2 is within
  _ENDPOINT_SNAP * max(1, |e|) of e, and its mass is halved.  The (q, a)
  candidates are counted in closed form first, and more than the
  sieve's supported size raises SizeError before anything is built;
  then they are laid out q-major, a ascending, and one numpy pass runs
  per block of at most _CANDIDATE_BLOCK consecutive candidates, a block
  spanning as many q as it holds, so the cost is linear in the number of
  candidates and the temporaries stay bounded.  The atoms come back as
  two float64 columns (locations, masses), 16 bytes per atom.  The
  zeta-type prefactor is a free parameter (default 1); all structural
  statements about the atoms are prefactor-free.

Both densities read mu^2, phi and sigma from the sieve tables of
``arith`` (``squarefree``, ``euler_phi``, ``divisor_sigma``), which
cover every modulus they sum over; products of table entries are taken
in Python ints.

Orthogonal-symmetry kernels carry their delta atoms as explicit
bookkeeping entries, never as narrow approximations.
"""

from dataclasses import dataclass
import itertools
import math
from typing import Callable, Optional

import numpy as np

from .arith import _MAX_MODULUS, ArithTables, _blocks, covering
from .errors import DataError, DomainError, SizeError
from .specfn import WeightFunction, quadrature

_ENDPOINT_SNAP = 1e-12
_CANDIDATE_BLOCK = 1 << 14  # (q, a) candidates per vectorised block: bounds the temporaries
_ATOM_BLOCK = 1 << 13  # atoms per block of Python floats: bounds the per-atom objects
_PAIRING_TOL = 1e-9  # quadrature tolerance of one_level_pairing


@dataclass(frozen=True, eq=False)
class DistributionValue:
    """A density with an explicit atomic part plus a continuous part.

    The atoms are two read-only float64 columns of equal length, 16
    bytes per atom: ``locations``, strictly increasing, and ``masses``,
    finite (both checked with numpy).  The continuous part must stay
    finite at atom locations (atoms are never folded into the function).
    Readers that need Python floats, such as ``total_atom_mass`` and the
    CLI's ``#atom`` lines, take them from ``atom_blocks``, at most
    _ATOM_BLOCK atoms at a time; ``atom_at`` bisects the locations.
    ``atoms`` builds the whole (location, mass) tuple on each access, for
    small consumers only.  ``window_murmuration_density`` fills the
    columns from blocks of candidates, after a size guard on their count.
    """

    locations: np.ndarray
    masses: np.ndarray
    continuous: Callable[[float], float]

    def __post_init__(self):
        for name in ("locations", "masses"):
            # a read-only view: no copy of a float64 column, and the caller's array keeps its flags
            column = np.asarray(getattr(self, name), dtype=np.float64).view()
            if column.ndim != 1:
                raise DataError(f"atom {name} must be one column, got shape {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        locs, masses = self.locations, self.masses
        if len(locs) != len(masses):
            raise DataError(f"{len(locs)} atom locations but {len(masses)} masses")
        if not np.all(locs[1:] > locs[:-1]):
            raise DataError("atom locations must be distinct and sorted")
        if not np.all(np.isfinite(masses)):
            raise DataError("atom masses must be finite")

    @property
    def atoms(self) -> tuple:
        """The sorted tuple of (location, mass), built on each access."""
        return tuple(zip(self.locations.tolist(), self.masses.tolist()))

    def atom_blocks(self):
        """Consecutive (locations, masses) column views of at most _ATOM_BLOCK
        atoms each, so a reader that needs Python floats holds one block."""
        for i in range(0, len(self.locations), _ATOM_BLOCK):
            yield self.locations[i : i + _ATOM_BLOCK], self.masses[i : i + _ATOM_BLOCK]

    def total_atom_mass(self) -> float:
        """The correctly rounded sum of the masses."""
        return math.fsum(itertools.chain.from_iterable(m.tolist() for _, m in self.atom_blocks()))

    def atom_at(self, location: float):
        """The atom (location, mass) exactly at ``location``, else None."""
        i = int(np.searchsorted(self.locations, location))
        if i < len(self.locations) and float(self.locations[i]) == location:
            return (float(self.locations[i]), float(self.masses[i]))
        return None


# ---------------------------------------------------------------------------
# weight-aspect murmuration density


def _moduli_bounds(y, phi: WeightFunction) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (c_lo, c_hi) over an array of y: the integers c with
    16 pi^2 y / c^2 inside [a, b] are c_lo <= c <= c_hi (none for y <= 0)."""
    a, b = phi.support
    y = np.maximum(np.asarray(y, dtype=np.float64), 0.0)
    c_lo = np.maximum(1, np.ceil(4.0 * math.pi * np.sqrt(y / b) - 1e-12))
    c_hi = np.where(y > 0, np.floor(4.0 * math.pi * np.sqrt(y / a) + 1e-12), 0)
    return c_lo, c_hi


def harmonic_murmuration_density(y, phi: WeightFunction, sign: int, tables: Optional[ArithTables] = None):
    """Closed-form weight-aspect density at y = p / X; exact finite sum.

    ``y`` is a finite float (returns a float) or an array of them (returns
    an array of its shape); each value adds its terms in ascending c.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +-1, got {sign}")
    ys = np.asarray(y, dtype=np.float64)
    if not np.isfinite(ys).all():
        raise DomainError("the density needs finite y")
    c_lo, c_hi = _moduli_bounds(ys, phi)
    c_max = int(c_hi.max(initial=0))
    tables = covering(tables, c_max)
    squarefree, totient = tables.squarefree, tables.euler_phi
    total = np.zeros(ys.shape)
    for c in range(int(c_lo.min(initial=1)), c_max + 1):
        live = (c_lo <= c) & (c <= c_hi)
        if live.any() and squarefree[c]:
            total[live] += phi(16.0 * math.pi**2 * ys[live] / c**2) / (c * c * int(totient[c]))
    value = sign * 4.0 * math.pi * total
    return value if value.ndim else float(value)


# ---------------------------------------------------------------------------
# atomic prime-window density


def window_murmuration_density(
    E, q_max: int, prefactor: float, tables: Optional[ArithTables] = None
) -> tuple[DistributionValue, float]:
    """Atomic murmuration density on the window E, plus a certified tail bound.

    Enumerates coprime pairs (a, q) with q <= q_max squarefree and
    (q/a)^2 in E, one numpy pass over each block of at most
    _CANDIDATE_BLOCK consecutive candidates in q-major order, cut by
    ``arith._blocks``, a block spanning several q; more candidates in all
    than the sieve's supported size raise SizeError before the first block.
    An atom sits at an endpoint e of E when the correctly rounded
    quotient q^2/a^2 lies within _ENDPOINT_SNAP * max(1, |e|) of e; its
    mass is halved.  The atoms are returned as columns, and building
    them holds at most about 32 bytes per atom.  The tail bound covers
    all omitted q > q_max using phi(q) >= sqrt(q/2) and
    phi(q)*sigma(q) >= q^2 * 6/pi^2 (valid for squarefree q), so each
    omitted term is at most
    (max E)^(3/2) * (q * L + 1) * (pi^2 sqrt(2) / 6) / q^(5/2)
    with L the length of the sqrt-reciprocal window.
    """
    lo, hi = float(E[0]), float(E[1])
    if not (0 < lo < hi < math.inf):
        raise DomainError(f"E must be a compact subinterval of (0, inf), got [{lo}, {hi}]")
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    try:
        hi_power = hi**1.5
    except OverflowError:
        raise DomainError(f"E max {hi:g} is too large: its tail bound (max E)^(3/2) overflows") from None
    tables = covering(tables, q_max)
    sqrt_lo, sqrt_hi = math.sqrt(lo), math.sqrt(hi)
    # the candidates a of each squarefree q are first..last+1; counted before any is built
    q = np.flatnonzero(tables.squarefree[: q_max + 1])
    first, last = np.maximum(1.0, np.floor(q / sqrt_hi)), np.ceil(q / sqrt_lo)
    # each count is an integer-valued float, so below 2^53 the float sum is the exact count
    if float(np.sum(last + 2.0 - first)) >= _MAX_MODULUS:
        candidates = sum(int(z) + 2 - int(f) for f, z in zip(first.tolist(), last.tolist()))
        raise SizeError(
            f"{candidates} (q, a) candidates on [{lo:g}, {hi:g}] up to q_max={q_max} "
            f"exceed supported size {_MAX_MODULUS - 1}"
        )
    if last[-1] + 1.0 >= _MAX_MODULUS:  # the largest a, of the largest q: a * a must stay exact in int64
        raise SizeError(
            f"(q, a) candidates on [{lo:g}, {hi:g}] up to q_max={q_max} reach a={int(last[-1]) + 1}, "
            f"past the supported size {_MAX_MODULUS - 1}"
        )
    first = first.astype(np.int64)
    count = last.astype(np.int64) + 2 - first
    # in Python ints: phi(q)^2 sigma(q) passes 2^63 for prime q above about 2.1e6
    base = prefactor * 1.0 / np.array([
        float(t * t * s) for t, s in zip(tables.euler_phi[q].tolist(), tables.divisor_sigma[q].tolist())
    ])
    locs, masses = [], []
    # blocks of consecutive candidates, q-major and a ascending, each spanning one or more q
    for which, rank in _blocks(count, _CANDIDATE_BLOCK):
        a = first[which] + rank
        coprime = np.gcd(a, q[which]) == 1
        a, which = a[coprime], which[coprime]
        qa = q[which]
        # float_power calls libm pow, as Python's ** does: r * r can differ in the last ulp
        r = qa / a
        loc = np.float_power(r, 2)
        ratio = (qa * qa) / (a * a)
        at_end = (np.abs(ratio - lo) <= _ENDPOINT_SNAP * max(1.0, abs(lo))) | (
            np.abs(ratio - hi) <= _ENDPOINT_SNAP * max(1.0, abs(hi))
        )
        keep = (loc >= lo - _ENDPOINT_SNAP) & (loc <= hi + _ENDPOINT_SNAP)
        keep &= at_end | ((lo < loc) & (loc < hi))
        mass = base[which[keep]] * np.float_power(r[keep], 3)
        mass[at_end[keep]] *= 0.5
        locs.append(loc[keep])
        masses.append(mass)
    # tail over q > q_max
    length = 1.0 / sqrt_lo - 1.0 / sqrt_hi
    const = hi_power * abs(prefactor) * math.pi**2 * math.sqrt(2.0) / 6.0
    tail = const * (length * 2.0 / math.sqrt(q_max) + (2.0 / 3.0) * q_max**-1.5)
    # one column at a time, each block list dropped once joined: at most 32 bytes per atom
    locs = np.concatenate(locs)
    # distinct locations (DistributionValue rejects ties) have one sorted order, so any sort gives it
    order = np.argsort(locs)
    locs = locs[order]
    masses = np.concatenate(masses)
    masses = masses[order]
    return DistributionValue(locs, masses, continuous=lambda x: 0.0), tail


# ---------------------------------------------------------------------------
# orthogonal-symmetry one-level-density kernels


def _sinc2(x):
    # sin(2 pi x) / (2 pi x) with the removable singularity filled
    return np.sinc(2.0 * np.asarray(x, dtype=np.float64))


def so_kernel(parity: str) -> DistributionValue:
    """W_SO kernel: 1 +- sin(2 pi x)/(2 pi x), odd parity carries atom (0, 1)."""
    if parity == "even":
        return DistributionValue((), (), continuous=lambda x: float(1.0 + _sinc2(x)))
    if parity == "odd":
        return DistributionValue((0.0,), (1.0,), continuous=lambda x: float(1.0 - _sinc2(x)))
    raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def so_kernel_fourier(parity: str) -> DistributionValue:
    """Fourier side of the W_SO kernels; both parities carry atom (0, 1).

    Continuous parts: 1_[-1,1](y)/2 for odd, (2 - 1_[-1,1](y))/2 for
    even.  At any y the two continuous parts sum to exactly 1 (the
    indicators cancel), while the un-hatted kernels sum to exactly 2.
    """
    def box(y):
        return 1.0 if -1.0 <= y <= 1.0 else 0.0

    if parity == "odd":
        return DistributionValue((0.0,), (1.0,), continuous=lambda y: 0.5 * box(y))
    if parity == "even":
        return DistributionValue((0.0,), (1.0,), continuous=lambda y: 0.5 * (2.0 - box(y)))
    raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def one_level_pairing(phi_hat: WeightFunction, parity: str) -> float:
    """Pair a transform-side test function against the Fourier SO kernel.

    Computes the atom contributions plus the quadrature of the
    continuous part; the test function's support must lie inside
    (-2, 2).
    """
    a, b = phi_hat.support
    if not (-2.0 < a and b < 2.0):
        raise DomainError(f"test-function support [{a}, {b}] must lie inside (-2, 2)")
    kernel = so_kernel_fourier(parity)
    atom_part = math.fsum(mass * float(phi_hat(loc)) for loc, mass in kernel.atoms)
    breaks = [-1.0, 1.0]
    result = quadrature(
        lambda x: float(phi_hat(x)) * kernel.continuous(x), (a, b), tol=_PAIRING_TOL, breakpoints=breaks
    )
    return atom_part + result.value
