"""One benchmark pass in a fresh interpreter.

Usage: onepass.py SPAWNED_AT RESULT_JSON WORKLOAD OUT_DIR FAMILY_FILE TRACE

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process, so set-up time spans interpreter start and the imports of
the murmur that PYTHONPATH names.  The pass runs the workload's
operations in sequence, as one closed-loop client, and writes set-up time, wall time per operation,
errors, peak RSS and (when TRACE is 1) the per-layer trace to
RESULT_JSON.  WORKLOAD ``setup`` runs no operation, so that the process
only measures set-up.
"""

import sys
import time

import murmur
import murmur.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run_op(argv, name, out, family, state):
    if argv is not None:
        argv = [a.format(out=out, family=family) for a in argv]
        code = murmur.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"murmur {argv[0]} exited with code {code}")
    elif name == "ingest":
        state["family"] = fam = murmur.families.ingest(family)
        facts = {"records": len(fam.records), "prime_coverage": fam.prime_coverage}
        Path(out, "ingest.json").write_text(json.dumps(facts))
    elif name == "write_family":
        murmur.families.write_family(state["family"], f"{out}/written.txt")
    else:
        raise ValueError(f"unknown library op {name!r}")


def main(argv):
    setup_s = READY - float(argv[0])
    workload, out, family, traced = argv[2], argv[3], argv[4], argv[5] == "1"
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    state, ops = {}, []
    for name, op_argv in () if workload == "setup" else WORKLOADS[workload]:
        error = None
        start = time.perf_counter()
        try:
            _run_op(op_argv, name, out, family, state)
        except Exception:
            error = traceback.format_exc(limit=3)
        ops.append({"name": name, "seconds": time.perf_counter() - start, "error": error})
    result = {
        "setup_s": setup_s,
        "ops": ops,
        "run_s": sum(op["seconds"] for op in ops),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        Path(out, "spans.json").write_text(json.dumps(tracer.spans))
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
