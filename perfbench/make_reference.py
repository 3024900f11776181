"""Write reference.json: the stored values the trace_formula checks use.

Run once, from the repository root, at the commit whose outputs become the
reference:  python3 perfbench/make_reference.py
"""

import json
import shutil

import checks
import run


def main():
    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "trace_formula"
    result = run.spawn(out, "src", ["trace_formula", str(out), str(work / "unused")], timeout=170)
    if result is None or any(op["error"] for op in result["ops"]):
        raise SystemExit(f"trace_formula: pass failed, see {out / 'log.txt'}")
    ref = {}
    for name, key, sign in (("pet.csv", "petersson_plus", 1), ("pet-minus.csv", "petersson_minus", -1)):
        y, value, _ = checks.read_series(out / name)
        ref[key] = value.tolist()
        ref[f"{key}_residual"] = checks.density_residual(y, value, sign)
    ref["symsq"] = checks.read_series(out / "sym.csv")[1].tolist()
    ref["atoms"], ref["atom_mass"] = checks.atom_summary(out / "nu.csv")
    checks.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
