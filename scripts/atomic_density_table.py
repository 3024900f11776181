#!/usr/bin/env python3
"""Tabulate the atomic murmuration density on an interval.

Lists the heaviest point masses (location, mass, reduced ratio q/a) and
the certified bound on everything omitted beyond the squarefree cutoff.
The masses at integer locations are the a = 1 atoms sitting at squares
of squarefree integers.
"""

import math
from pathlib import Path
import sys

import numpy as np

from murmur import cli, densities


def run(args) -> None:
    dist, tail = densities.window_murmuration_density((args.e_min, args.e_max), args.q_max, 1.0)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    cli.write(args.out_dir / "atoms", True, "y,value", [()], "atomic density", dist=dist)
    # stable: equal masses keep ascending location order
    heaviest = np.argsort(-dist.masses, kind="stable")[: args.top]
    print(f"{len(dist.locations)} atoms on [{args.e_min:g}, {args.e_max:g}], "
          f"total mass {dist.total_atom_mass():.6f}, tail bound {tail:.3g}")
    print(f"{'location':>12}  {'mass':>12}  ratio")
    for loc, mass in zip(dist.locations[heaviest].tolist(), dist.masses[heaviest].tolist()):
        root = math.sqrt(loc)
        approx = ""
        if abs(root - round(root)) < 1e-9:
            approx = f"= {int(round(root))}^2"
        print(f"{loc:12.6f}  {mass:12.8f}  {approx}")


def main(argv=None) -> int:
    parser = cli.Parser(description=__doc__)
    parser.add_argument("--e-min", type=cli.finite_float, default=0.5)
    parser.add_argument("--e-max", type=cli.finite_float, default=50.0)
    parser.add_argument("--q-max", type=cli.int_at_least(1), default=500)
    parser.add_argument("--top", type=cli.int_at_least(0), default=20)
    parser.add_argument("--out-dir", type=Path, default=Path("out/atoms"))
    return cli.run(parser, run, argv)


if __name__ == "__main__":
    sys.exit(main())
