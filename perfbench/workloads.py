"""The two benchmark workloads: the operations of one pass.

An operation is ``(name, argv)``: a ``murmur`` CLI argv (``{out}`` is the
pass's output directory, ``{family}`` the generated family file), or
``None`` for a library call that ``onepass.py`` makes by name.  Input
sizes are fixed and small enough that one pass takes a few seconds, so
that a run holds a dozen or more passes; the seed only changes the
generated family read by the ``families`` workload.  Why each workload
exists, what it bypasses and which per-layer metrics should move its
end-to-end metrics is written once, in the ``why`` strings of
``BENCHMARK.json``.
"""

WORKLOADS = {
    "trace_formula": (
        ("petersson", ("petersson", "--k", "100", "--phi", "bump", "1", "2",
                       "--sign", "both", "--svg", "--out", "{out}/pet")),
        ("symsq", ("symsq", "--k", "24", "--p-max", "97", "--phi", "bump", "1", "2",
                   "--out", "{out}/sym")),
        ("density-nu", ("density-nu", "--e-min", "0.5", "--e-max", "50", "--q-max", "400",
                        "--out", "{out}/nu")),
    ),
    "families": (
        ("dirichlet", ("dirichlet", "--x", "20000", "--phi", "indicator", "1", "2",
                       "--sign", "both", "--bins", "100", "--svg", "--out", "{out}/dir")),
        ("ingest-run", ("ingest-run", "--file", "{family}", "--x", "100",
                        "--phi", "indicator", "1", "2", "--out", "{out}/ing")),
        ("ingest", None),
        ("write_family", None),
    ),
}
