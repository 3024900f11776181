"""Outside-in tracer for the murmur layers.

Each traced function is wrapped at the name its callers look up, not at
its definition: ``petersson`` binds ``bessel_j`` and ``kloosterman_many``
at import, so those are patched as ``murmur.petersson.bessel_j`` and
``murmur.petersson.kloosterman_many``.  The library itself is never
edited.

Every call adds to the function's call count and busy (inclusive) time
and to its layer's self time, which is the call's duration minus the
time spent in traced calls it made.  Calls of non-hot functions are also
kept as spans (id, parent id, name, start, end) in memory until the pass
ends.  A function none of whose call sites exists any more is reported
as absent, with zero calls, instead of failing the run.
"""

from collections import defaultdict
import importlib
import os
import time

LAYERS = ("arith", "specfn", "frame", "petersson", "densities", "families", "cli")


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (function metric name, call sites "module:attribute", hot, (count name, counter))
# Hot functions are called tens of thousands of times per pass: they are
# aggregated only, without spans.
TRACED = (
    ("arith.sieve", ("murmur.arith:sieve", "murmur.petersson:sieve", "murmur.families:sieve"), False, None),
    ("arith.kloosterman_many", ("murmur.petersson:kloosterman_many",), True,
     ("arith.kloosterman_many.moduli", lambda a, kw, r: len(a[2]))),
    ("specfn.bessel_j", ("murmur.petersson:bessel_j",), True, None),
    ("specfn.quadrature", ("murmur.petersson:quadrature", "murmur.densities:quadrature"), False, None),
    ("frame.murmuration_series", ("murmur.frame:murmuration_series",), False, None),
    ("frame.bin_series", ("murmur.frame:bin_series",), False, None),
    ("petersson.harmonic_series", ("murmur.petersson:harmonic_series",), False, None),
    ("petersson.symsq_series", ("murmur.petersson:symsq_series",), False, None),
    ("petersson.petersson_delta", ("murmur.petersson:petersson_delta",), False,
     ("petersson.terms", lambda a, kw, r: r.cutoff)),
    ("densities.harmonic_murmuration_density", ("murmur.densities:harmonic_murmuration_density",), False, None),
    ("densities.window_murmuration_density", ("murmur.densities:window_murmuration_density",), False,
     ("densities.atoms", lambda a, kw, r: len(r[0].atoms))),
    ("families.quadratic_murmuration", ("murmur.families:quadratic_murmuration",), False, None),
    ("families.enumerate_quadratic", ("murmur.families:enumerate_quadratic",), False, None),
    ("families.ingest", ("murmur.families:ingest",), False, ("families.ingest.bytes", _file_bytes)),
    ("families.fnv1a64", ("murmur.families:fnv1a64",), False, None),
    ("families.write_family", ("murmur.families:write_family",), False, None),
    ("cli.main", ("murmur.cli:main",), False, None),
    ("cli.emit_csv", ("murmur.cli:emit_csv",), False, ("cli.emit_csv.bytes", _file_bytes)),
    ("cli.emit_svg", ("murmur.cli:emit_svg",), False, None),
)

COUNTS = tuple(count[0] for _, _, _, count in TRACED if count is not None)


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for name, _, _, _ in TRACED:
        names += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [(count, "bytes" if count.endswith(".bytes") else "count") for count in COUNTS]
    return names


class Tracer:
    """Wraps the traced call sites of an imported murmur and records into itself."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.absent = []
        self._stack = []  # [child seconds, span id] per open traced call
        self._next_id = 0

    def install(self):
        for name, sites, hot, count in TRACED:
            patched = 0
            for site in sites:
                module_name, attr = site.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                setattr(module, attr, self._wrap(name, original, hot, count))
                patched += 1
            if not patched:
                self.absent.append(name)

    def _wrap(self, name, fn, hot, count):
        layer = name.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else None
            entry = [0.0, span_id]
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.busy[name] += duration
                self.self_time[layer] += duration - entry[0]
                if not hot:
                    self.spans.append((span_id, parent, name, start, end))
            if count is not None:
                self.counts[count[0]] += count[1](args, kwargs, result)
            return result

        return traced

    def metrics(self):
        """Per-layer metric values; absent functions read as zero."""
        out = {}
        for name, _, _, _ in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.busy_s"] = self.busy[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_time[layer]
        for count in COUNTS:
            out[count] = self.counts[count]
        return out
