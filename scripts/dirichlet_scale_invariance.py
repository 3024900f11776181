#!/usr/bin/env python3
"""Scale-invariance experiment for quadratic-character murmurations.

Runs the family at X and 2X, bins both onto a common y-grid, and
reports how many bins agree within 3 combined standard errors, plus how
strongly the two discriminant sign classes separate.  The murmuration
pattern is the part that survives doubling X.  Writes X<X>.csv and
X<X>-minus.csv per scale and overlay.svg under --out-dir.
"""

from pathlib import Path
import sys

import numpy as np

from murmur import arith, cli, families, frame, specfn

Y_RANGE = (0.05, 1.0)  # y = p / X
PHI = specfn.indicator(1.0, 2.0)


def run(args) -> None:
    binned = {}  # X -> the binned series of the sign classes +1 and -1
    for X in (args.x, 2 * args.x):
        primes = arith.prime_grid(X, *Y_RANGE)
        both = families.quadratic_series(X, PHI, (1, -1), primes, normalization="raw_sqrtp")
        binned[X] = [frame.bin_series(series, args.bins, y_range=Y_RANGE) for series in both]
        tables = [(b.y, b.value, b.count) for b in binned[X]]
        args.out_dir.mkdir(parents=True, exist_ok=True)
        cli.write(args.out_dir / f"X{int(X)}", False, "y,value,count", tables, "")
    for b1, b2, tag in zip(binned[args.x], binned[2 * args.x], "+-"):
        se = np.sqrt(b1.stderr**2 + b2.stderr**2)
        frac = float(np.mean(np.abs(b1.value - b2.value) <= 3.0 * se))
        print(f"sign {tag}: {100 * frac:.1f}% of bins agree within 3 SE across X -> 2X")
    (bp, bm), (bp2, bm2) = binned[args.x], binned[2 * args.x]
    sep = float(np.mean(np.abs(bp.value - bm.value) > 3.0 * np.sqrt(bp.stderr**2 + bm.stderr**2)))
    print(f"sign classes distinguishable in {100 * sep:.1f}% of bins at X={args.x:g}")
    overlays = [("sign + at X", bp.y, bp.value), ("sign - at X", bm.y, bm.value),
                ("sign + at 2X", bp2.y, bp2.value), ("sign - at 2X", bm2.y, bm2.value)]
    title = f"quadratic characters, X={args.x:g} vs {2 * args.x:g}"
    cli.write(args.out_dir / "overlay", True, "", (), title, overlays)


def main(argv=None) -> int:
    parser = cli.Parser(description=__doc__)
    parser.add_argument("--x", type=cli.finite_float, default=1e5)
    parser.add_argument("--bins", type=cli.int_at_least(1), default=60)
    parser.add_argument("--out-dir", type=Path, default=Path("out/dirichlet"))
    return cli.run(parser, run, argv)


if __name__ == "__main__":
    sys.exit(main())
