"""murmur benchmark: run one workload for a while, check its outputs, report metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see ``workloads.py``) for about S seconds.
Each pass is a fresh interpreter, pinned to MURMUR_WORKERS=1, that
imports murmur and issues the workload's operations in sequence.  Passes
come in pairs, one of each of two variants, and the order within a pair
alternates.  Every output is checked (``checks.py``); a failed operation
makes the run exit with code 1.

With ``--trace 0`` the variants are murmur from ``src/`` and the frozen
copy in ``baseline/`` (``src/murmur`` as it was when the benchmark was
defined).  The shared host this runs on drifts in speed by up to ~2x
over minutes, so wall times of runs made minutes apart disagree by more
than a regression worth catching; a baseline pass made seconds before or
after each ``src/`` pass slows down with it.  The last line of stdout is
a JSON object with the end-to-end metrics: setup_s (median wall time
from starting a fresh interpreter until murmur from ``src/`` and its CLI
are imported, over the ``src/`` passes and over interpreters that only
set up, in the time the last pair leaves), run_rel (the pass time of
``src/`` over that of the baseline, where a variant's pass time is the
sum over operations of the median seconds of each) and peak_rss_mb
(median peak RSS of the ``src/`` pass process, in MB of 10^6 bytes).
With ``--trace 1`` the variants are ``src/`` untraced and traced, and the
JSON object carries the per-layer metrics of ``tracer.py``, medians over
the traced passes, plus trace.overhead_s, the traced minus the untraced
pass time.  Lines before it give the run facts, every metric by name and
unit, the pass times of the variants (run_s for ``src/``, and
baseline_run_s or traced_run_s), the median seconds of each operation
of ``src/`` (op.<name>.s), error_rate and, on trace_formula,
density_residual.  Spans of the last traced pass and the full record
are written under ``perfbench/work/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import scipy

import checks
import familygen
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
WORK = HERE / "work"
RUN_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_ONLY = "setup"  # onepass.py workload that only imports murmur
SETUP_SLOT_S = 1.5  # time kept for one set-up-only interpreter
# name: (murmur copy, traced)
VARIANTS = {"src": (SRC, False), "baseline": (BASELINE, False), "traced": (SRC, True)}


def _env(code: Path):
    return dict(
        os.environ,
        PYTHONPATH=str(code),
        PYTHONHASHSEED="0",
        MURMUR_WORKERS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def spawn(out_dir: Path, variant: str, args, timeout: float):
    """Run onepass.py in a fresh interpreter; return its result dict or None on timeout/crash."""
    out_dir.mkdir(parents=True)
    code, traced = VARIANTS[variant]
    result_path = out_dir / "result.json"
    with open(out_dir / "log.txt", "w") as log:
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "onepass.py"), repr(spawned_at), str(result_path),
                 *args, str(int(traced))],
                stdout=log, stderr=subprocess.STDOUT, env=_env(code), cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not result_path.is_file():
        return None
    return json.loads(result_path.read_text())


def check_pass(out_dir: Path, result, ctx):
    """Check one pass's outputs: (list of failed operations, check report)."""
    failures, report = [], {}
    for op in result["ops"]:
        if op["error"] is not None:
            failures.append(f"{op['name']}: {op['error']}")
            continue
        try:
            problems = checks.CHECKS[op["name"]](out_dir, ctx, report)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"{op['name']}: output unreadable: {exc!r}"]
        failures += problems[:1]
    return failures, report


def prepare(workload, seed, work: Path):
    """Make the workload's inputs and the references its checks need."""
    family = work / "family.txt"
    ctx = types.SimpleNamespace()
    ops = {name for name, _ in WORKLOADS[workload]}
    if ops & {"petersson", "symsq", "density-nu"}:
        ctx.reference = checks.load_reference()
    if "dirichlet" in ops:
        ctx.dirichlet = checks.dirichlet_expectation()
    if "ingest-run" in ops:
        text, conductors, _, primes, ap = familygen.generate(seed)
        ctx.family_bytes = text.encode("utf-8")
        ctx.family = checks.family_expectation(conductors, primes, ap)
        family.write_bytes(ctx.family_bytes)
    return family, ctx


def _tree_sha256(package: Path):
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_facts(workload, seed, seconds, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "why": next(w["why"] for w in declared if w["name"] == workload),
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "git_commit": commit,
        "src_sha256": _tree_sha256(SRC / "murmur"),
        "baseline_sha256": _tree_sha256(BASELINE / "murmur"), "MURMUR_WORKERS": "1",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "murmur" / "__init__.py").is_file():
        print(f"error: no murmur sources at {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    for code in (SRC, BASELINE):
        build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(code / "murmur")],
                               env=_env(code), stdout=subprocess.DEVNULL)
        if build.returncode != 0:
            print(f"error: byte-compiling {code / 'murmur'} failed", file=sys.stderr)
            return 2

    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def pass_time(results, ops):
    """Sum over operations of each one's median seconds over the given passes."""
    return sum(statistics.median(r["ops"][i]["seconds"] for r in results) for i in range(len(ops)))


def measure(args, work: Path, started: float) -> int:
    family, ctx = prepare(args.workload, args.seed, work)
    ops = WORKLOADS[args.workload]
    variants = ("src", "traced") if args.trace else ("src", "baseline")
    begin = time.monotonic()

    def remaining():
        return max(1.0, RUN_BUDGET_S - (time.monotonic() - started))

    # Pairs run while the next one, as long as the median pair so far,
    # still ends within --seconds; there is at least one pair.  Outputs are
    # checked after the loop, so checking takes no pass's place.
    passes, pair_walls, crashed = [], [], False
    while not crashed and (not pair_walls or time.monotonic() - begin
                           + statistics.median(pair_walls) <= args.seconds):
        pair_start = time.monotonic()
        for variant in variants if len(pair_walls) % 2 == 0 else variants[::-1]:
            out_dir = work / f"pass{len(passes)}"
            result = spawn(out_dir, variant, [args.workload, str(out_dir), str(family)], remaining())
            passes.append((out_dir, variant, result))
            crashed = crashed or result is None
        pair_walls.append(time.monotonic() - pair_start)
    # The time left after the last pair that fits goes to interpreters that
    # only set up, so setup_s has more samples than there are passes.
    setup_runs = []
    while not crashed and time.monotonic() - begin + SETUP_SLOT_S <= args.seconds:
        out_dir = work / f"setup{len(setup_runs)}"
        setup_runs.append(spawn(out_dir, "src", [SETUP_ONLY, str(out_dir), "-"], remaining()))
        crashed = setup_runs[-1] is None

    by_variant = {variant: [] for variant in variants}
    failures, reports, setups = [], [], []
    for out_dir, variant, result in passes:
        if result is None:
            log = (out_dir / "log.txt").read_text()[-2000:]
            failures += [f"{variant} pass process failed:\n{log}"] * len(ops)
            continue
        failed, report = check_pass(out_dir, result, ctx)
        failures += failed
        by_variant[variant].append(result)
        if variant == "src":
            reports.append(report)
            setups.append(result["setup_s"])
        if variant == "traced":
            shutil.copy(out_dir / "spans.json", WORK / f"spans-{args.workload}.json")
    for result in setup_runs:
        if result is None:
            failures.append("set-up-only process failed")
        else:
            setups.append(result["setup_s"])
    attempted = len(ops) * len(passes) + len(setup_runs)

    if not all(by_variant.values()):
        print("\n".join(f"FAILED {failure}" for failure in failures), file=sys.stderr)
        return 1

    src, other = by_variant["src"], by_variant[variants[1]]
    e2e = {"setup_s": (statistics.median(setups), "s")}
    if not args.trace:
        e2e["run_rel"] = (pass_time(src, ops) / pass_time(other, ops), "ratio")
    e2e["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in src), "MB")
    layers = {}
    if args.trace:
        for name, unit in tracer.metric_names():
            layers[name] = (statistics.median(r["layers"][name] for r in other), unit)
        layers["trace.overhead_s"] = (pass_time(other, ops) - pass_time(src, ops), "s")
    info = {"run_s": (pass_time(src, ops), "s"),
            f"{variants[1]}_run_s": (pass_time(other, ops), "s")}
    for i, (name, _) in enumerate(ops):
        info[f"op.{name}.s"] = (statistics.median(r["ops"][i]["seconds"] for r in src), "s")
    residuals = [max(r["density_residual"]) for r in reports if "density_residual" in r]
    if residuals:
        info["density_residual"] = (statistics.median(residuals), "1")
    info["error_rate"] = (len(failures) / attempted, "1")

    facts = run_facts(args.workload, args.seed, args.seconds, args.trace)
    facts.update(pairs=len(pair_walls), setup_samples=len(setups),
                 absent=other[0]["absent"] if args.trace else [])
    print("facts " + json.dumps(facts))
    for name, (value, unit) in {**e2e, **layers, **info}.items():
        print(f"metric {name} {value!r} {unit}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    chosen = layers if args.trace else e2e
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    record = dict(facts, result=line, density_residual=residuals, setups=setups,
                  passes_detail=[dict(variant=variant, **{k: r[k] for k in ("setup_s", "run_s", "peak_rss_mb", "ops")})
                                 for _, variant, r in passes if r is not None])
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
