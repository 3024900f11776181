#!/usr/bin/env python3
"""Weight-aspect experiment: empirical harmonic murmuration vs the
closed-form density, for a ladder of central weights.

Writes one CSV and one overlay SVG per K under --out-dir and prints the
peak offset and normalized L2 residual per rung; the residual should
shrink as K doubles.
"""

from pathlib import Path
import sys

from murmur import arith, cli, densities, frame, petersson, specfn

Y_RANGE = (0.004, 0.055)  # y = p / (K-1)^2
PHI = specfn.bump(1.0, 2.0)


def run(args) -> None:
    for K in args.weights:
        primes = arith.prime_grid(petersson.window_scale(K), *Y_RANGE)
        series = petersson.harmonic_series(K, primes, PHI, args.sign)
        ref = densities.harmonic_murmuration_density(series.y, PHI, args.sign)
        support = ref != 0.0
        peak_err = abs(
            frame.peak_location(series.y, series.value) - frame.peak_location(series.y, ref)
        ) / abs(frame.peak_location(series.y, ref))
        resid = frame.shape_residual(series.value[support], ref[support])
        overlays = [("empirical", series.y, series.value), ("density", series.y, ref)]
        args.out_dir.mkdir(parents=True, exist_ok=True)
        cli.write(args.out_dir / f"K{int(K)}", True, "y,value,count", [(series.y, series.value, series.count)],
                  f"weight aspect K={K:g}, sign {args.sign:+d}", overlays)
        print(f"K={K:6g}: {len(primes):4d} primes, peak offset {100 * peak_err:5.2f}%, L2 residual {resid:.4f}")


def main(argv=None) -> int:
    parser = cli.Parser(description=__doc__)
    parser.add_argument("--weights", nargs="+", type=cli.finite_float, default=[40.0, 80.0, 160.0])
    parser.add_argument("--sign", type=int, choices=(1, -1), default=1)
    parser.add_argument("--out-dir", type=Path, default=Path("out/weight_aspect"))
    return cli.run(parser, run, argv)


if __name__ == "__main__":
    sys.exit(main())
