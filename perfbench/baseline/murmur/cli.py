"""Command-line driver: run the engines, emit CSV series and SVG overlays.

Exit codes: 0 success, 1 usage, 2 data, 3 accuracy, 4 window.  Output
is deterministic: identical configuration and input files produce
byte-identical CSV.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import arith, densities, families, frame, petersson, specfn
from .errors import DataError, MurmurError, WindowError

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ACCURACY = 3
EXIT_WINDOW = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default; usage errors must map to 1
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    # shortest round-trip decimal, so determinism is byte-testable
    return repr(float(x))


def emit_csv(path, rows, header, atoms=()) -> None:
    """Write `#atom location mass` comment lines, a header, then data rows."""
    lines = []
    for loc, mass in atoms:
        lines.append(f"#atom {_fmt(loc)} {_fmt(mass)}")
    lines.append(header)
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _svg_path(points, width, height, pad, x_range, y_range) -> str:
    x0, x1 = x_range
    y0, y1 = y_range
    sx = (width - 2 * pad) / (x1 - x0) if x1 > x0 else 1.0
    sy = (height - 2 * pad) / (y1 - y0) if y1 > y0 else 1.0
    coords = []
    for x, y in points:
        px = pad + (x - x0) * sx
        py = height - pad - (y - y0) * sy
        coords.append(f"{px:.2f},{py:.2f}")
    return " ".join(coords)


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def emit_svg(path, overlays, atoms=(), title="") -> None:
    """Self-contained static SVG: one polyline per overlay, atoms as spikes.

    ``overlays`` is a list of (label, xs, ys).  Axes are linear and
    auto-scaled over all overlays and atom locations.
    """
    width, height, pad = 1200, 600, 60
    xs_all = [x for _, xs, _ in overlays for x in xs] + [loc for loc, _ in atoms]
    ys_all = [y for _, _, ys in overlays for y in ys] + [m for _, m in atoms] + [0.0]
    if not xs_all:
        raise DataError("nothing to plot")
    x_range = (min(xs_all), max(xs_all))
    y_range = (min(ys_all), max(ys_all))
    if x_range[0] == x_range[1]:
        x_range = (x_range[0] - 1.0, x_range[1] + 1.0)
    if y_range[0] == y_range[1]:
        y_range = (y_range[0] - 1.0, y_range[1] + 1.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # axes
    zero_y = height - pad - (0.0 - y_range[0]) * (height - 2 * pad) / (y_range[1] - y_range[0])
    zero_y = min(max(zero_y, pad), height - pad)
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{pad}" y2="{pad}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{pad}" y1="{zero_y:.2f}" x2="{width - pad}" y2="{zero_y:.2f}" stroke="black"/>'
    )
    for i in range(5):
        fx = x_range[0] + (x_range[1] - x_range[0]) * i / 4
        px = pad + (width - 2 * pad) * i / 4
        parts.append(
            f'<text x="{px:.2f}" y="{height - pad + 20}" font-size="12" text-anchor="middle">{fx:g}</text>'
        )
        fy = y_range[0] + (y_range[1] - y_range[0]) * i / 4
        py = height - pad - (height - 2 * pad) * i / 4
        parts.append(f'<text x="{pad - 8}" y="{py:.2f}" font-size="12" text-anchor="end">{fy:g}</text>')
    for (label, xs, ys), color in zip(overlays, _SVG_COLORS):
        pts = _svg_path(zip(xs, ys), width, height, pad, x_range, y_range)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
    for loc, mass in atoms:
        (spike,) = [_svg_path([(loc, 0.0), (loc, mass)], width, height, pad, x_range, y_range)]
        a, b = spike.split(" ")
        x1, y1 = a.split(",")
        x2, y2 = b.split(",")
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#d62728" stroke-width="2"/>'
        )
    if title:
        parts.append(f'<text x="{width / 2}" y="30" font-size="16" text-anchor="middle">{title}</text>')
    legend_y = 50
    for (label, _, _), color in zip(overlays, _SVG_COLORS):
        parts.append(
            f'<text x="{width - pad - 200}" y="{legend_y}" font-size="12" fill="{color}">{label}</text>'
        )
        legend_y += 16
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(sub):
    sub.add_argument("--out", required=True, help="output path prefix (writes <out>.csv)")
    sub.add_argument("--svg", action="store_true", help="also write <out>.svg")
    sub.add_argument(
        "--phi", nargs=3, metavar=("KIND", "A", "B"), default=("indicator", "1", "2"),
        help="weight function: 'bump A B' or 'indicator A B' (default indicator 1 2)",
    )
    sub.add_argument("--tail-tol", type=float, default=1e-12, help="trace-formula tail tolerance")
    sub.add_argument("--quad-tol", type=float, default=1e-9, help="quadrature tolerance")


def _parse_phi(spec) -> specfn.WeightFunction:
    kind, a, b = spec
    a, b = float(a), float(b)
    if kind == "bump":
        return specfn.bump(a, b)
    if kind == "indicator":
        return specfn.indicator(a, b)
    raise _UsageError(f"unknown weight kind {kind!r} (expected bump or indicator)")


def _parse_sign(text):
    if text in ("+1", "1", "+"):
        return 1
    if text in ("-1", "-"):
        return -1
    if text == "both":
        return "both"
    raise _UsageError(f"sign must be +1, -1 or both, got {text!r}")


def _workers() -> int:
    env = os.environ.get("MURMUR_WORKERS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise _UsageError(f"MURMUR_WORKERS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


class _worker_pool:
    """Context manager yielding an order-preserving parallel map (or None).

    Engines recombine mapped results in fixed order, so output is
    byte-identical for any worker count.
    """

    def __init__(self):
        self.pool = None

    def __enter__(self):
        n = _workers()
        if n > 1:
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(max_workers=n)
            return self.pool.map
        return None

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(wait=False)
        return False


def build_parser() -> _Parser:
    parser = _Parser(prog="murmur", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dirichlet", help="quadratic-character murmuration series")
    _add_common(p)
    p.add_argument("--x", type=float, required=True, help="conductor window scale X")
    p.add_argument("--sign", default="+1", help="discriminant sign class: +1, -1 or both")
    p.add_argument("--bins", type=int, default=200, help="y-bins for the series (>=1)")
    p.add_argument("--y-min", type=float, default=0.05)
    p.add_argument("--y-max", type=float, default=1.0)
    p.add_argument(
        "--normalization", choices=("analytic", "raw_sqrtp"), default="raw_sqrtp"
    )

    p = subs.add_parser("petersson", help="weight-aspect harmonic murmuration series")
    _add_common(p)
    p.add_argument("--k", type=float, help="central weight K (scale X = (K-1)^2)")
    p.add_argument("--k-window", nargs=2, type=float, metavar=("KMIN", "KMAX"),
                   help="explicit weight span; K defaults to its midpoint")
    p.add_argument("--sign", default="+1")
    p.add_argument("--y-min", type=float, default=0.004)
    p.add_argument("--y-max", type=float, default=0.055)
    p.add_argument("--raw", action="store_true", help="skip the density normalization bridge")

    p = subs.add_parser("symsq", help="symmetric-square murmuration series")
    _add_common(p)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--p-max", type=int, default=97, help="largest prime sampled")

    p = subs.add_parser("density-ils", help="closed-form weight-aspect density")
    _add_common(p)
    p.add_argument("--sign", default="+1")
    p.add_argument("--y-min", type=float, default=0.004)
    p.add_argument("--y-max", type=float, default=0.055)
    p.add_argument("--grid", type=int, default=400, help="number of y samples")

    p = subs.add_parser("density-nu", help="atomic prime-window density on an interval")
    _add_common(p)
    p.add_argument("--e-min", type=float, required=True)
    p.add_argument("--e-max", type=float, required=True)
    p.add_argument("--q-max", type=int, default=500)
    p.add_argument("--prefactor", type=float, default=1.0)

    p = subs.add_parser("old-kernel", help="one-level-density kernels and transforms")
    _add_common(p)
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.add_argument("--hat", action="store_true", help="emit the Fourier side")
    p.add_argument("--x-max", type=float, default=3.0)
    p.add_argument("--grid", type=int, default=601)

    p = subs.add_parser("ingest-run", help="murmuration series for an ingested family")
    _add_common(p)
    p.add_argument("--file", required=True, help="murmur-family v1 input file")
    p.add_argument("--x", type=float, required=True)
    p.add_argument(
        "--normalization", choices=("analytic", "raw_sqrtp"), default="raw_sqrtp"
    )
    p.add_argument("--p-max", type=int, default=None, help="largest prime sampled (default: coverage)")
    return parser


# ---------------------------------------------------------------------------
# commands


def _series_rows(series: frame.MurmurationSeries):
    return [(float(y), float(v), int(c)) for y, v, c in zip(series.y, series.value, series.count)]


def _summarize_series(name, series, ref=None):
    peak_y = frame.peak_location(series.y, series.value)
    peak_v = float(series.value[int(np.argmax(np.abs(series.value)))])
    msg = f"{name}: peak y={peak_y:.6g} value={peak_v:.6g} samples={len(series)}"
    if ref is not None:
        sup = ref != 0
        if np.any(sup) and np.linalg.norm(series.value[sup]) > 0:
            msg += f" residual-vs-reference={frame.shape_residual(series.value[sup], ref[sup]):.4g}"
    print(msg)


def _cmd_dirichlet(args) -> int:
    phi = _parse_phi(args.phi)
    sign = _parse_sign(args.sign)
    if args.bins < 1:
        raise _UsageError("--bins must be >= 1")
    limit = int(math.ceil(args.y_max * args.x)) + 1
    tables = arith.sieve(max(1024, limit))
    primes = [int(q) for q in tables.primes if args.y_min * args.x <= q <= args.y_max * args.x]
    if not primes:
        raise WindowError(f"no primes with p/X in [{args.y_min}, {args.y_max}] at X={args.x:g}")
    classes = (1, -1) if sign == "both" else (sign,)
    outputs = []
    for cls in classes:
        ser = families.quadratic_murmuration(args.x, phi, cls, primes, normalization=args.normalization)
        binned = frame.bin_series(ser, args.bins, y_range=(args.y_min, args.y_max))
        outputs.append((cls, binned))
    for i, (cls, binned) in enumerate(outputs):
        path = f"{args.out}.csv" if i == 0 else f"{args.out}-minus.csv"
        emit_csv(path, _series_rows(binned), "y,value,count")
    if args.svg:
        overlays = [
            (f"sign {cls:+d}", list(map(float, b.y)), list(map(float, b.value)))
            for cls, b in outputs
        ]
        emit_svg(f"{args.out}.svg", overlays, title=f"quadratic family, X={args.x:g}")
    _summarize_series("dirichlet", outputs[0][1])
    return 0


def _harmonic_primes(args, tables):
    X = (args_k(args) - 1.0) ** 2
    lo, hi = args.y_min * X, args.y_max * X
    return [int(q) for q in tables.primes if lo <= q <= hi]


def args_k(args) -> float:
    if getattr(args, "k", None) is not None:
        return args.k
    if getattr(args, "k_window", None):
        return 0.5 * (args.k_window[0] + args.k_window[1])
    raise _UsageError("one of --k or --k-window is required")


def _cmd_petersson(args) -> int:
    phi = _parse_phi(args.phi)
    sign = _parse_sign(args.sign)
    K = args_k(args)
    span = tuple(args.k_window) if args.k_window else None
    policy = specfn.TruncationPolicy(tail_bound=args.tail_tol)
    limit = max(2048, int(4 * math.pi * math.sqrt(args.y_max) * (K - 1)) + 64)
    tables = arith.sieve(limit)
    primes = _harmonic_primes(args, tables)
    signs = (1, -1) if sign == "both" else (sign,)
    outputs = []
    with _worker_pool() as mapper:
        for s in signs:
            ser = petersson.harmonic_series(
                K, primes, phi, s, span=span, policy=policy, tables=tables,
                density_normalized=not args.raw, map_fn=mapper,
            )
            outputs.append((s, ser))
    ref = None
    if not args.raw:
        ref = np.array(
            [densities.harmonic_murmuration_density(y, phi, signs[0], tables) for y in outputs[0][1].y]
        )
    for i, (s, ser) in enumerate(outputs):
        path = f"{args.out}.csv" if i == 0 else f"{args.out}-minus.csv"
        emit_csv(path, _series_rows(ser), "y,value,count")
    if args.svg:
        overlays = [
            (f"sign {s:+d}", list(map(float, ser.y)), list(map(float, ser.value)))
            for s, ser in outputs
        ]
        if ref is not None:
            overlays.append(("reference density", list(map(float, outputs[0][1].y)), list(map(float, ref))))
        emit_svg(f"{args.out}.svg", overlays, title=f"weight aspect, K={K:g}")
    _summarize_series("petersson", outputs[0][1], ref)
    return 0


def _cmd_symsq(args) -> int:
    phi = _parse_phi(args.phi)
    policy = specfn.TruncationPolicy(tail_bound=args.tail_tol)
    tables = arith.sieve(max(2048, 8 * args.p_max))
    primes = [int(q) for q in tables.primes if q <= args.p_max]
    with _worker_pool() as mapper:
        ser = petersson.symsq_series(args.k, primes, phi, policy=policy, tables=tables, map_fn=mapper)
    emit_csv(f"{args.out}.csv", _series_rows(ser), "y,value,count")
    if args.svg:
        emit_svg(
            f"{args.out}.svg",
            [("symmetric square", list(map(float, ser.y)), list(map(float, ser.value)))],
            title=f"symmetric-square mode, K={args.k:g}",
        )
    _summarize_series("symsq", ser)
    return 0


def _cmd_density_ils(args) -> int:
    phi = _parse_phi(args.phi)
    sign = _parse_sign(args.sign)
    if sign == "both":
        raise _UsageError("density-ils needs a single sign")
    if args.grid < 2:
        raise _UsageError("--grid must be >= 2")
    tables = arith.sieve(4096)
    ys = np.linspace(args.y_min, args.y_max, args.grid)
    vals = [densities.harmonic_murmuration_density(float(y), phi, sign, tables) for y in ys]
    emit_csv(f"{args.out}.csv", list(zip(map(float, ys), map(float, vals))), "y,value")
    if args.svg:
        emit_svg(
            f"{args.out}.svg",
            [("density", list(map(float, ys)), list(map(float, vals)))],
            title="weight-aspect murmuration density",
        )
    i = int(np.argmax(np.abs(vals)))
    print(f"density-ils: peak y={ys[i]:.6g} value={vals[i]:.6g} samples={len(ys)}")
    return 0


def _cmd_density_nu(args) -> int:
    tables = arith.sieve(max(1024, 4 * args.q_max))
    dist, tail = densities.window_murmuration_density(
        (args.e_min, args.e_max), args.q_max, args.prefactor, tables
    )
    emit_csv(f"{args.out}.csv", [], "y,value", atoms=dist.atoms)
    if args.svg:
        emit_svg(f"{args.out}.svg", [], atoms=dist.atoms, title="atomic murmuration density")
    total = dist.total_atom_mass()
    print(
        f"density-nu: atoms={len(dist.atoms)} total-mass={total:.6g} tail-bound={tail:.3g}"
    )
    return 0


def _cmd_old_kernel(args) -> int:
    if args.grid < 2:
        raise _UsageError("--grid must be >= 2")
    dist = (
        densities.so_kernel_fourier(args.parity) if args.hat else densities.so_kernel(args.parity)
    )
    xs = np.linspace(-args.x_max, args.x_max, args.grid)
    vals = [dist.continuous(float(x)) for x in xs]
    emit_csv(f"{args.out}.csv", list(zip(map(float, xs), map(float, vals))), "y,value", atoms=dist.atoms)
    if args.svg:
        emit_svg(
            f"{args.out}.svg",
            [(f"SO {args.parity}{' hat' if args.hat else ''}", list(map(float, xs)), list(map(float, vals)))],
            atoms=dist.atoms,
            title="one-level-density kernel",
        )
    i = int(np.argmax(np.abs(vals)))
    print(f"old-kernel: peak x={xs[i]:.6g} value={vals[i]:.6g} atoms={len(dist.atoms)}")
    return 0


def _cmd_ingest_run(args) -> int:
    family = families.ingest(args.file)
    if not family.records:
        raise DataError(f"{args.file}: family has no records")
    p_max = args.p_max if args.p_max is not None else family.prime_coverage
    if p_max < 2:
        raise DataError(f"{args.file}: no usable prime coverage")
    phi = _parse_phi(args.phi)
    tables = arith.sieve(max(1024, p_max))
    primes = [int(q) for q in tables.primes if q <= p_max]
    ser = frame.murmuration_series(
        family.records, args.x, phi, primes, normalization=args.normalization
    )
    emit_csv(f"{args.out}.csv", _series_rows(ser), "y,value,count")
    if args.svg:
        emit_svg(
            f"{args.out}.svg",
            [("ingested family", list(map(float, ser.y)), list(map(float, ser.value)))],
            title=f"ingested family, X={args.x:g}",
        )
    _summarize_series("ingest-run", ser)
    print(f"ingest-run: digest={family.source_digest:016x} records={len(family.records)}")
    return 0


_COMMANDS = {
    "dirichlet": _cmd_dirichlet,
    "petersson": _cmd_petersson,
    "symsq": _cmd_symsq,
    "density-ils": _cmd_density_ils,
    "density-nu": _cmd_density_nu,
    "old-kernel": _cmd_old_kernel,
    "ingest-run": _cmd_ingest_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MurmurError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
