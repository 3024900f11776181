"""Murmuration averages for families of L-functions.

Empirical family averages (direct enumeration of quadratic characters,
ingested coefficient tables, and a weight-aspect trace-formula engine)
cross-checked against closed-form murmuration densities and
one-level-density kernels.  Import the modules themselves, e.g.
``from murmur import petersson``.
"""

__version__ = "0.1.0"
