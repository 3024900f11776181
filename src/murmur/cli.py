"""Command-line driver: run the engines, emit CSV series and SVG overlays.

Every command and every script in ``scripts/`` writes its files through
one writer, ``write``: ``<out>.csv`` (and ``<out>-minus.csv`` for the
minus sign class) from numpy columns, each value as its shortest
round-trip repr, formatted a block of columns at a time by ``numtext``,
and ``<out>.svg`` with --svg.  The scripts share the
``Parser``, the option types and ``run``, whose exit code is 0 on success
and otherwise the ``exit_code`` of the error's class in ``errors``: 1
usage, domain or size (out of memory included; an integer option below
its bound, such as --bins 0, --grid 1 or --p-max 1, and a reversed
sampling range are usage errors), 2 data (i/o included), 3 accuracy, 4
window.  Each subcommand's parser carries its handler.  Output is
deterministic: identical configuration and input files produce
byte-identical CSV.

One table, ``_COMMANDS``, holds each subcommand's help, handler and
options.  ``main`` builds the parser of the subcommand that its first
argument names, and the parser of every subcommand only when it names
none (``murmur``, ``murmur --help``, an unknown command), so a command
pays for its own options alone.  ``murmur --help`` prints this
docstring up to this paragraph.
"""

import argparse
import math
import sys

import numpy as np

from . import arith, densities, families, frame, numtext, petersson, specfn
from .errors import DataError, DomainError, MurmurError, SizeError


class _UsageError(DomainError):
    """A bad option value or combination: one "usage error:" line, exit code 1."""


class Parser(argparse.ArgumentParser):
    """The option parser of the CLI and the scripts: a bad option exits 1, not argparse's 2."""

    def error(self, message):
        raise _UsageError(message)


def finite_float(text: str) -> float:
    """argparse type of every float option: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def int_at_least(low: int):
    """argparse type of an integer option with the lower bound ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def emit_csv(path, header, columns=(), dist=None) -> None:
    """Write the atoms of ``dist`` (a DistributionValue, if given) as
    `#atom location mass` comment lines, a header, then one row per index
    of the numpy ``columns``.  Every value is written by ``numtext`` as the
    repr of its ``tolist()`` value: the shortest round-trip decimal of a
    float, the digits of an int.  The atom lines are streamed, one write
    per block of the columns."""
    with open(path, "wb") as fh:
        if dist is not None:
            fh.writelines(numtext.lines((dist.locations, dist.masses), b" ", b"#atom "))
        fh.write(header.encode() + b"\n")
        fh.writelines(numtext.lines(columns))


def _pixels(width, height, pad, x_range, y_range):
    """The map from a data point (x, y) to its SVG pixel coordinates."""
    x0, x1 = x_range
    y0, y1 = y_range
    sx = (width - 2 * pad) / (x1 - x0) if x1 > x0 else 1.0
    sy = (height - 2 * pad) / (y1 - y0) if y1 > y0 else 1.0
    return lambda x, y: (pad + (x - x0) * sx, height - pad - (y - y0) * sy)


def _axis_range(parts):
    """(min, max) over the values of ``parts``, widened by 1 each way when it is one point or empty."""
    values = np.concatenate([np.zeros(0), *parts])
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)
    return (lo - 1.0, hi + 1.0) if lo == hi else (lo, hi)


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def emit_svg(path, overlays, dist=None, title="") -> None:
    """Self-contained static SVG: one polyline per overlay, the atoms of
    ``dist`` (a DistributionValue, if given) as spikes.

    ``overlays`` is a list of (label, xs, ys), lists or numpy arrays.  Axes
    are linear and auto-scaled over all overlays and atom locations; with
    nothing to plot only the axes are drawn.  The spikes are streamed, one
    write per block of the columns.
    """
    width, height, pad = 1200, 600, 60
    xs_all = [xs for _, xs, _ in overlays]
    ys_all = [ys for _, _, ys in overlays] + [(0.0,)]
    if dist is not None and len(dist.locations):
        # the locations are sorted: their ends are their extremes
        xs_all.append(dist.locations[[0, -1]])
        ys_all.append((dist.masses.min(), dist.masses.max()))
    x_range = _axis_range(xs_all)
    y_range = _axis_range(ys_all)
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
    # elementwise float64 arithmetic: the same bits as to_pixels on each Python float
    to_pixels = _pixels(width, height, pad, x_range, y_range)
    for (label, xs, ys), color in zip(overlays, _SVG_COLORS):
        pxs, pys = to_pixels(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(pxs.tolist(), pys.tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
    tail = []
    if title:
        tail.append(f'<text x="{width / 2}" y="30" font-size="16" text-anchor="middle">{title}</text>')
    legend_y = 50
    for (label, _, _), color in zip(overlays, _SVG_COLORS):
        tail.append(
            f'<text x="{width - pad - 200}" y="{legend_y}" font-size="12" fill="{color}">{label}</text>'
        )
        legend_y += 16
    tail.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
        _, base = to_pixels(0.0, 0.0)
        for locs, masses in () if dist is None else dist.atom_blocks():
            xs, tops = to_pixels(locs, masses)
            fh.write("".join(
                f'<line x1="{x:.2f}" y1="{base:.2f}" x2="{x:.2f}" y2="{top:.2f}" stroke="#d62728" stroke-width="2"/>\n'
                for x, top in zip(xs.tolist(), tops.tolist())
            ))
        fh.write("\n".join(tail) + "\n")


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_phi(spec) -> specfn.WeightFunction:
    kind, a, b = spec
    try:
        a, b = finite_float(a), finite_float(b)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"--phi bounds: {exc}") from None
    if kind == "bump":
        return specfn.bump(a, b)
    if kind == "indicator":
        return specfn.indicator(a, b)
    raise _UsageError(f"unknown weight kind {kind!r} (expected bump or indicator)")


def _y_range(args) -> tuple[float, float]:
    """(--y-min, --y-max); a reversed or empty sampling range is a usage error."""
    if args.y_min >= args.y_max:
        raise _UsageError(f"--y-min {args.y_min:g} must be below --y-max {args.y_max:g}")
    return args.y_min, args.y_max


def _sign_classes(text) -> tuple[int, ...]:
    """The sign classes that --sign names: (1,), (-1,) or, for both, (1, -1)."""
    if text in ("+1", "1", "+"):
        return (1,)
    if text in ("-1", "-"):
        return (-1,)
    if text == "both":
        return (1, -1)
    raise _UsageError(f"sign must be +1, -1 or both, got {text!r}")


# ---------------------------------------------------------------------------
# commands


def _summarize_series(name, series, ref=None):
    peak_y = frame.peak_location(series.y, series.value)
    peak_v = float(series.value[int(np.argmax(np.abs(series.value)))])
    msg = f"{name}: peak y={peak_y:.6g} value={peak_v:.6g} samples={len(series)}"
    if ref is not None:
        sup = ref != 0
        if np.any(sup) and np.linalg.norm(series.value[sup]) > 0:
            msg += f" residual-vs-reference={frame.shape_residual(series.value[sup], ref[sup]):.4g}"
    if "tail_bound" in series.meta:
        msg += f" tail-bound={float(np.max(series.meta['tail_bound'], initial=0.0)):.3g}"
    print(msg)


def write(out, svg, header, tables, title, overlays=(), dist=None) -> None:
    """The one writer of the files of every command and script: the columns
    of the first of ``tables`` to <out>.csv and of the second (the minus sign
    class) to <out>-minus.csv, each under ``header`` and after the atoms of
    ``dist``; with ``svg`` the ``overlays`` and the atoms to <out>.svg."""
    for i, columns in enumerate(tables):
        emit_csv(f"{out}.csv" if i == 0 else f"{out}-minus.csv", header, columns, dist)
    if svg:
        emit_svg(f"{out}.svg", overlays, dist, title)


def _emit_series(args, name, outputs, title, refs=None) -> None:
    """Write the series of ``outputs``, a list of (label, series), one CSV
    each; with --svg one overlay per series and per reference curve of
    ``refs`` ((label, values) or None per series, on its grid); and a
    ``name`` / ``name-minus`` summary line per series, with its reference
    residual."""
    refs = refs or [None] * len(outputs)
    overlays = [(label, ser.y, ser.value) for label, ser in outputs]
    overlays += [(ref[0], ser.y, ref[1]) for (_, ser), ref in zip(outputs, refs) if ref is not None]
    write(args.out, args.svg, "y,value,count", [(ser.y, ser.value, ser.count) for _, ser in outputs], title, overlays)
    for i, ((_, ser), ref) in enumerate(zip(outputs, refs)):
        _summarize_series(name if i == 0 else f"{name}-minus", ser, None if ref is None else ref[1])


def _cmd_dirichlet(args) -> None:
    phi = _parse_phi(args.phi)
    classes = _sign_classes(args.sign)
    y_range = _y_range(args)
    primes = arith.prime_grid(args.x, *y_range)
    series = families.quadratic_murmuration(args.x, phi, classes, primes, normalization=args.normalization)
    outputs = [
        (f"sign {cls:+d}", frame.bin_series(ser, args.bins, y_range=y_range))
        for cls, ser in zip(classes, series)
    ]
    _emit_series(args, "dirichlet", outputs, f"quadratic family, X={args.x:g}")


def _cmd_petersson(args) -> None:
    phi = _parse_phi(args.phi)
    signs = _sign_classes(args.sign)
    K = args.k
    primes = arith.prime_grid(petersson.window_scale(K), *_y_range(args))
    series = petersson.harmonic_series(K, primes, phi, signs, tail_tol=args.tail_tol, density_normalized=not args.raw)
    outputs = [(f"sign {s:+d}", ser) for s, ser in zip(signs, series)]
    # the density is odd in the sign, so one evaluation serves both classes
    refs = None
    if not args.raw:
        ref = densities.harmonic_murmuration_density(outputs[0][1].y, phi, 1)
        refs = [(f"reference density {s:+d}", s * ref) for s in signs]
    _emit_series(args, "petersson", outputs, f"weight aspect, K={K:g}", refs)


def _cmd_symsq(args) -> None:
    phi = _parse_phi(args.phi)
    primes = arith.prime_grid(1.0, 0.0, args.p_max)
    ser = petersson.symsq_series(args.k, primes, phi, tail_tol=args.tail_tol)
    _emit_series(args, "symsq", [("symmetric square", ser)], f"symmetric-square mode, K={args.k:g}")


def _cmd_density_ils(args) -> None:
    phi = _parse_phi(args.phi)
    signs = _sign_classes(args.sign)
    if len(signs) != 1:
        raise _UsageError("density-ils needs a single sign")
    ys = np.linspace(*_y_range(args), args.grid)
    vals = densities.harmonic_murmuration_density(ys, phi, signs[0])
    write(args.out, args.svg, "y,value", [(ys, vals)], "weight-aspect murmuration density", [("density", ys, vals)])
    i = int(np.argmax(np.abs(vals)))
    print(f"density-ils: peak y={ys[i]:.6g} value={vals[i]:.6g} samples={len(ys)}")


def _cmd_density_nu(args) -> None:
    dist, tail = densities.window_murmuration_density((args.e_min, args.e_max), args.q_max, args.prefactor)
    write(args.out, args.svg, "y,value", [()], "atomic murmuration density", dist=dist)
    total = dist.total_atom_mass()
    print(
        f"density-nu: atoms={len(dist.locations)} total-mass={total:.6g} tail-bound={tail:.3g}"
    )


def _cmd_old_kernel(args) -> None:
    if args.x_max <= 0:
        raise _UsageError(f"--x-max must be > 0, got {args.x_max:g}")
    if math.isinf(2.0 * args.x_max):
        raise _UsageError(f"--x-max {args.x_max:g} is too large: the grid width 2*x_max overflows")
    dist = (
        densities.so_kernel_fourier(args.parity) if args.hat else densities.so_kernel(args.parity)
    )
    xs = np.linspace(-args.x_max, args.x_max, args.grid)
    vals = np.array([dist.continuous(x) for x in xs.tolist()])
    label = f"SO {args.parity}{' hat' if args.hat else ''}"
    write(args.out, args.svg, "y,value", [(xs, vals)], "one-level-density kernel", [(label, xs, vals)], dist)
    i = int(np.argmax(np.abs(vals)))
    print(f"old-kernel: peak x={xs[i]:.6g} value={vals[i]:.6g} atoms={len(dist.locations)}")


def _cmd_ingest_run(args) -> None:
    family = families.ingest(args.file)
    if not len(family):
        raise DataError(f"{args.file}: family has no records")
    p_max = args.p_max if args.p_max is not None else family.prime_coverage
    if p_max < 2:
        raise DataError(f"{args.file}: no usable prime coverage")
    phi = _parse_phi(args.phi)
    primes = arith.prime_grid(1.0, 0.0, p_max)
    ser = family.murmuration_series(args.x, phi, primes, normalization=args.normalization)
    _emit_series(args, "ingest-run", [("ingested family", ser)], f"ingested family, X={args.x:g}")
    print(f"ingest-run: digest={family.source_digest:016x} records={len(family)}")


# ---------------------------------------------------------------------------
# the command table


def _option(*flags, **settings):
    """The arguments of one ``add_argument`` call."""
    return flags, settings


_COMMON = (
    _option("--out", required=True, help="output path prefix (writes <out>.csv)"),
    _option("--svg", action="store_true", help="also write <out>.svg"),
)
_PHI = _option(
    "--phi", nargs=3, metavar=("KIND", "A", "B"), default=("indicator", "1", "2"),
    help="weight function: 'bump A B' or 'indicator A B' (default indicator 1 2)",
)
_TAIL_TOL = _option("--tail-tol", type=finite_float, default=1e-12, help="trace-formula tail tolerance (> 0)")
_NORMALIZATION = _option("--normalization", choices=frame.NORMALIZATIONS, default="raw_sqrtp")

# name: (help, handler, options in their --help order)
_COMMANDS = {
    "dirichlet": ("quadratic-character murmuration series", _cmd_dirichlet, (
        *_COMMON, _PHI,
        _option("--x", type=finite_float, required=True, help="conductor window scale X"),
        _option("--sign", default="+1", help="discriminant sign class: +1, -1 or both"),
        _option("--bins", type=int_at_least(1), default=200, help="y-bins for the series (>=1)"),
        _option("--y-min", type=finite_float, default=0.05),
        _option("--y-max", type=finite_float, default=1.0),
        _NORMALIZATION,
    )),
    "petersson": ("weight-aspect harmonic murmuration series", _cmd_petersson, (
        *_COMMON, _PHI, _TAIL_TOL,
        _option("--k", type=finite_float, required=True, help="central weight K (scale X = (K-1)^2)"),
        _option("--sign", default="+1"),
        _option("--y-min", type=finite_float, default=0.004),
        _option("--y-max", type=finite_float, default=0.055),
        _option("--raw", action="store_true", help="skip the density normalization bridge"),
    )),
    "symsq": ("symmetric-square murmuration series", _cmd_symsq, (
        *_COMMON, _PHI, _TAIL_TOL,
        _option("--k", type=finite_float, required=True),
        _option("--p-max", type=int_at_least(2), default=97, help="largest prime sampled"),
    )),
    "density-ils": ("closed-form weight-aspect density", _cmd_density_ils, (
        *_COMMON, _PHI,
        _option("--sign", default="+1"),
        _option("--y-min", type=finite_float, default=0.004),
        _option("--y-max", type=finite_float, default=0.055),
        _option("--grid", type=int_at_least(2), default=400, help="number of y samples"),
    )),
    "density-nu": ("atomic prime-window density on an interval", _cmd_density_nu, (
        *_COMMON,
        _option("--e-min", type=finite_float, required=True),
        _option("--e-max", type=finite_float, required=True),
        _option("--q-max", type=int_at_least(1), default=500),
        _option("--prefactor", type=finite_float, default=1.0),
    )),
    "old-kernel": ("one-level-density kernels and transforms", _cmd_old_kernel, (
        *_COMMON,
        _option("--parity", choices=("even", "odd"), default="even"),
        _option("--hat", action="store_true", help="emit the Fourier side"),
        _option("--x-max", type=finite_float, default=3.0),
        _option("--grid", type=int_at_least(2), default=601),
    )),
    "ingest-run": ("murmuration series for an ingested family", _cmd_ingest_run, (
        *_COMMON, _PHI,
        _option("--file", required=True, help="murmur-family v1 input file"),
        _option("--x", type=finite_float, required=True),
        _NORMALIZATION,
        _option("--p-max", type=int_at_least(2), default=None, help="largest prime sampled (default: coverage)"),
    )),
}


def build_parser(command=None) -> Parser:
    """The ``murmur`` parser with every subcommand, or with ``command``'s alone."""
    parser = Parser(prog="murmur", description=__doc__.rpartition("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        summary, handler, options = _COMMANDS[name]
        sub = subs.add_parser(name, help=summary)
        sub.set_defaults(handler=handler)
        for flags, settings in options:
            sub.add_argument(*flags, **settings)
    return parser


def run(parser, command, argv=None) -> int:
    """Run ``command`` on the options ``argv`` parsed by ``parser``: 0 when it
    returns, else one stderr line and the exit code of the usage, library,
    memory or i/o error."""
    try:
        command(parser.parse_args(argv))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MurmurError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: out of memory ({exc})" if str(exc) else "error: out of memory", file=sys.stderr)
        return SizeError.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return DataError.exit_code
    return 0


def main(argv=None) -> int:
    """Run ``murmur`` on ``argv`` (default ``sys.argv[1:]``) with the parser of
    the command that ``argv[0]`` names, or of every command when it names none."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    return run(build_parser(command), lambda args: args.handler(args), argv)


if __name__ == "__main__":
    sys.exit(main())
