#!/usr/bin/env python3
"""Scale-invariance experiment for quadratic-character murmurations.

Runs the family at X and 2X, bins both onto a common y-grid, and
reports how many bins agree within 3 combined standard errors, plus how
strongly the two discriminant sign classes separate.  The murmuration
pattern is the part that survives doubling X.
"""

import argparse
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from murmur import arith, cli, families, frame, specfn


@dataclass
class Config:
    x: float = 1e5
    bins: int = 60
    y_min: float = 0.05
    y_max: float = 1.0
    out_dir: Path = Path("out/dirichlet")


def run(cfg: Config) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    phi = specfn.indicator(1.0, 2.0)
    binned = {}
    for X in (cfg.x, 2 * cfg.x):
        primes = arith.prime_grid(X, cfg.y_min, cfg.y_max)
        both = families.quadratic_series(X, phi, (1, -1), primes, normalization="raw_sqrtp")
        for cls, series in zip((1, -1), both):
            b = frame.bin_series(series, cfg.bins, y_range=(cfg.y_min, cfg.y_max))
            binned[(X, cls)] = b
            tag = "plus" if cls == 1 else "minus"
            cli.emit_csv(cfg.out_dir / f"X{int(X)}_{tag}.csv", "y,value,count", (b.y, b.value, b.count))
    for cls, tag in ((1, "+"), (-1, "-")):
        b1, b2 = binned[(cfg.x, cls)], binned[(2 * cfg.x, cls)]
        se = np.sqrt(b1.stderr**2 + b2.stderr**2)
        frac = float(np.mean(np.abs(b1.value - b2.value) <= 3.0 * se))
        print(f"sign {tag}: {100 * frac:.1f}% of bins agree within 3 SE across X -> 2X")
    bp, bm = binned[(cfg.x, 1)], binned[(cfg.x, -1)]
    sep = float(np.mean(np.abs(bp.value - bm.value) > 3.0 * np.sqrt(bp.stderr**2 + bm.stderr**2)))
    print(f"sign classes distinguishable in {100 * sep:.1f}% of bins at X={cfg.x:g}")
    bp2, bm2 = binned[(2 * cfg.x, 1)], binned[(2 * cfg.x, -1)]
    cli.emit_svg(
        cfg.out_dir / "overlay.svg",
        [
            ("sign + at X", bp.y, bp.value),
            ("sign - at X", bm.y, bm.value),
            ("sign + at 2X", bp2.y, bp2.value),
            ("sign - at 2X", bm2.y, bm2.value),
        ],
        title=f"quadratic characters, X={cfg.x:g} vs {2 * cfg.x:g}",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x", type=float, default=1e5)
    parser.add_argument("--bins", type=int, default=60)
    parser.add_argument("--out-dir", type=Path, default=Path("out/dirichlet"))
    args = parser.parse_args()
    run(Config(x=args.x, bins=args.bins, out_dir=args.out_dir))


if __name__ == "__main__":
    main()
