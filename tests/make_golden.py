"""Write tests/golden.json: what the README's commands write, pinned.

    python tests/make_golden.py

Runs the nine commands of the README's CLI block (both `catalog`s, `verify`,
both `sff`s, `codazzi`, `pde` and both `reconstruct`s) in one process, each
`--deterministic` with a report.  A temporary directory is the working
directory and every path is relative, so the reports embed no path of the
machine.  The golden holds:

- the fingerprint the bytes are pinned under: numpy's version, the machine
  and the CPU features numpy's SIMD dispatch found;
- the sha256 of every file written (reports, sidecars, CSV, PSSF, OBJ);
- every JSON report and sidecar, parsed, for the comparison within
  tolerances on another fingerprint;
- for each OBJ the sha256 of its float64 vertices and a strided sample of
  them, and for the CSV and the PSSF the same of their float64 cells.

`test_golden.py` re-runs the commands and compares.  Run this script only
for a change that alters the outputs on purpose, and name every file and key
that moved in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().with_name("golden.json")

# The README's spec example, validated by `pss catalog --family`.
SPEC = {"branch": "T24", "params": {"lam": 1.0, "eta2": 1.0, "C": 0.0},
        "f": "s", "phi12": "z0*(z1-z0)^2", "sign": 1}

COMMANDS = [
    ["catalog", "--deterministic", "--report", "catalog.json"],
    ["catalog", "--family", "spec.json", "--deterministic", "--report", "catalog-family.json"],
    ["verify", "--preset", "novikov", "--samples", "1000", "--tol", "1e-8",
     "--deterministic", "--report", "verify.json"],
    ["sff", "--preset", "t22-demo", "--Cstrip", "3", "--beta", "1", "--out", "triple.csv",
     "--deterministic", "--report", "sff-t22.json"],
    ["sff", "--preset", "t23-demo", "--deterministic", "--report", "sff-t23.json"],
    ["codazzi", "--preset", "novikov", "--sigma", "3", "--beta", "0.5",
     "--deterministic", "--report", "codazzi.json"],
    ["pde", "--preset", "novikov", "--nx", "256", "--tmax", "1", "--dt", "1e-3", "--nsave", "201",
     "--out", "field.pssf", "--deterministic", "--report", "pde.json"],
    ["reconstruct", "--preset", "sine-gordon", "--soliton", "--grid", "200x200", "--out", "kink.obj",
     "--deterministic", "--report", "kink.json"],
    ["reconstruct", "--preset", "novikov", "--field", "field.pssf", "--sigma", "3", "--beta", "0.5",
     "--grid", "32x32", "--origin", "0.02", "0.02", "--extent", "0.36", "0.16", "--out", "surface.obj",
     "--deterministic", "--report", "surface.json"],
]
EXIT_CODES = [0, 0, 0, 0, 3, 0, 0, 0, 0]  # t23-demo admits no immersion (Proposition 4.2)

SAMPLES = 97  # about this many values (or vertices) per sample; prime, so a stride crosses columns


def fingerprint():
    """numpy's version, the machine and numpy's runtime CPU features: where
    these match the golden's, the outputs must match it byte for byte."""
    from numpy._core import _multiarray_umath as umath

    features = getattr(umath, "__cpu_features__", {})
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_features": sorted(k for k, on in features.items() if on)}


def float_values(name, data):
    """The float64 cells of a written file: OBJ vertices as rows of 3, the
    PSSF's times and frames, the CSV's cells below its header."""
    if name.endswith(".obj"):
        rows = [ln[2:] for ln in data.split(b"\n") if ln.startswith(b"v ")]
        return np.array(b" ".join(rows).split(), dtype=float).reshape(-1, 3)
    if name.endswith(".pssf"):
        return np.frombuffer(data, dtype="<f8", offset=32).astype(float)
    return np.array(data.split(b"\n", 1)[1].replace(b",", b" ").split(), dtype=float)


def record():
    """Run the commands in the current directory; return the golden's content."""
    from pss.cli import run

    with open("spec.json", "w", encoding="utf-8") as fh:
        json.dump(SPEC, fh)
    codes = [run(list(argv)) for argv in COMMANDS]
    if codes != EXIT_CODES:
        raise RuntimeError(f"exit codes {codes}, expected {EXIT_CODES}")
    files, reports, values = {}, {}, {}
    for name in sorted(os.listdir(".")):
        if name == "spec.json":
            continue
        with open(name, "rb") as fh:
            data = fh.read()
        files[name] = hashlib.sha256(data).hexdigest()
        if name.endswith(".json"):
            reports[name] = json.loads(data)
            continue
        cells = float_values(name, data)
        stride = max(1, len(cells) // SAMPLES)
        values[name] = {"shape": list(cells.shape), "sha256": hashlib.sha256(cells.tobytes()).hexdigest(),
                        "stride": stride, "sample": cells[::stride].ravel().tolist()}
    return {"fingerprint": fingerprint(), "spec": SPEC, "commands": COMMANDS,
            "files": files, "values": values, "reports": reports}


def main():
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            doc = record()
        finally:
            os.chdir(here)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN.name}: {len(doc['files'])} files")


if __name__ == "__main__":
    main()
