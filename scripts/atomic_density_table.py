#!/usr/bin/env python3
"""Tabulate the atomic murmuration density on an interval.

Lists the heaviest point masses (location, mass, reduced ratio q/a) and
the certified bound on everything omitted beyond the squarefree cutoff.
The masses at integer locations are the a = 1 atoms sitting at squares
of squarefree integers.
"""

import argparse
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from murmur import cli, densities


@dataclass
class Config:
    e_min: float = 0.5
    e_max: float = 50.0
    q_max: int = 500
    top: int = 20
    out_dir: Path = Path("out/atoms")


def run(cfg: Config) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    dist, tail = densities.window_murmuration_density((cfg.e_min, cfg.e_max), cfg.q_max, 1.0)
    cli.emit_csv(cfg.out_dir / "atoms.csv", "y,value", dist=dist)
    cli.emit_svg(cfg.out_dir / "atoms.svg", [], dist=dist, title="atomic density")
    # stable: equal masses keep ascending location order
    heaviest = np.argsort(-dist.masses, kind="stable")[: cfg.top]
    print(f"{len(dist.locations)} atoms on [{cfg.e_min:g}, {cfg.e_max:g}], "
          f"total mass {dist.total_atom_mass():.6f}, tail bound {tail:.3g}")
    print(f"{'location':>12}  {'mass':>12}  ratio")
    for loc, mass in zip(dist.locations[heaviest].tolist(), dist.masses[heaviest].tolist()):
        root = math.sqrt(loc)
        approx = ""
        if abs(root - round(root)) < 1e-9:
            approx = f"= {int(round(root))}^2"
        print(f"{loc:12.6f}  {mass:12.8f}  {approx}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--e-min", type=float, default=0.5)
    parser.add_argument("--e-max", type=float, default=50.0)
    parser.add_argument("--q-max", type=int, default=500)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--out-dir", type=Path, default=Path("out/atoms"))
    args = parser.parse_args()
    run(Config(e_min=args.e_min, e_max=args.e_max, q_max=args.q_max, top=args.top, out_dir=args.out_dir))


if __name__ == "__main__":
    main()
