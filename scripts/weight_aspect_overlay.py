#!/usr/bin/env python3
"""Weight-aspect experiment: empirical harmonic murmuration vs the
closed-form density, for a ladder of central weights.

Writes one CSV and one overlay SVG per K under --out-dir and prints the
peak offset and normalized L2 residual per rung; the residual should
shrink as K doubles.
"""

import argparse
from dataclasses import dataclass
from pathlib import Path

from murmur import arith, cli, densities, frame, petersson, specfn


@dataclass
class Config:
    weights: tuple = (40.0, 80.0, 160.0)
    y_min: float = 0.004
    y_max: float = 0.055
    sign: int = 1
    phi_a: float = 1.0
    phi_b: float = 2.0
    out_dir: Path = Path("out/weight_aspect")


def run(cfg: Config) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    phi = specfn.bump(cfg.phi_a, cfg.phi_b)
    for K in cfg.weights:
        primes = arith.prime_grid(petersson.window_scale(K), cfg.y_min, cfg.y_max)
        series = petersson.harmonic_series(K, primes, phi, cfg.sign)
        ref = densities.harmonic_murmuration_density(series.y, phi, cfg.sign)
        support = ref != 0.0
        peak_err = abs(
            frame.peak_location(series.y, series.value) - frame.peak_location(series.y, ref)
        ) / abs(frame.peak_location(series.y, ref))
        resid = frame.shape_residual(series.value[support], ref[support])
        stem = cfg.out_dir / f"K{int(K)}"
        cli.emit_csv(f"{stem}.csv", "y,value,count", (series.y, series.value, series.count))
        cli.emit_svg(
            f"{stem}.svg",
            [("empirical", series.y, series.value), ("density", series.y, ref)],
            title=f"weight aspect K={K:g}, sign {cfg.sign:+d}",
        )
        print(f"K={K:6g}: {len(primes):4d} primes, peak offset {100 * peak_err:5.2f}%, L2 residual {resid:.4f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--weights", nargs="+", type=float, default=[40.0, 80.0, 160.0])
    parser.add_argument("--sign", type=int, choices=(1, -1), default=1)
    parser.add_argument("--out-dir", type=Path, default=Path("out/weight_aspect"))
    args = parser.parse_args()
    run(Config(weights=tuple(args.weights), sign=args.sign, out_dir=args.out_dir))


if __name__ == "__main__":
    main()
