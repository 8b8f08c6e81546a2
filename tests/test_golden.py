"""The README's commands write what tests/golden.json pins.

Under the golden's fingerprint (numpy's version, the machine and its CPU
features) every file must match byte for byte.  Under another fingerprint
numpy may take other SIMD paths, so the reports' numbers, the CSV's and the
PSSF's cells compare within REL_TOL (plus ABS_TOL, for the residuals and
drifts that sit at rounding level) and the OBJ vertices within VERTEX_TOL.
A change that alters outputs on purpose regenerates the golden with
`python tests/make_golden.py`.
"""

import json
import math

import numpy as np
import pytest

import make_golden

REL_TOL = 1e-9
ABS_TOL = 1e-9
VERTEX_TOL = 1e-13


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("readme"))
        return make_golden.record()


@pytest.fixture(scope="module")
def golden():
    with open(make_golden.GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, where, bad):
    """Append to `bad` each place where the parsed reports a and b differ beyond the tolerances."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            bad.append(f"{where}: keys {sorted(set(a) ^ set(b))}")
        for k in set(a) & set(b):
            _close(a[k], b[k], f"{where}.{k}", bad)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{where}[{i}]", bad)
    elif isinstance(a, float) and isinstance(b, float):
        if not (a == b or (math.isfinite(a) and abs(a - b) <= REL_TOL * abs(b) + ABS_TOL)):
            bad.append(f"{where}: {a!r} vs {b!r}")
    elif a != b or type(a) is not type(b):
        bad.append(f"{where}: {a!r} vs {b!r}")


def within_tolerance(got, golden):
    """The places where `got` departs from `golden` beyond the tolerances."""
    bad = []
    if set(got["files"]) != set(golden["files"]):
        bad.append(f"files {sorted(set(got['files']) ^ set(golden['files']))}")
    _close(got["reports"], golden["reports"], "reports", bad)
    for name, want in golden["values"].items():
        have = got["values"].get(name)
        if have is None or have["shape"] != want["shape"] or have["stride"] != want["stride"]:
            bad.append(f"{name}: shape")
            continue
        a, b = np.array(have["sample"]), np.array(want["sample"])
        tol = VERTEX_TOL if name.endswith(".obj") else REL_TOL * np.abs(b) + ABS_TOL
        if not np.all(np.abs(a - b) <= tol):
            bad.append(f"{name}: sample max-abs difference {np.max(np.abs(a - b)):.3e}")
    return bad


def test_the_golden_runs_the_readme_commands(golden):
    assert golden["commands"] == make_golden.COMMANDS and golden["spec"] == make_golden.SPEC


def test_readme_outputs_equal_the_golden(outputs, golden):
    if outputs["fingerprint"] != golden["fingerprint"]:
        bad = within_tolerance(outputs, golden)
        assert not bad, bad
        return
    moved = sorted(n for n in set(outputs["files"]) | set(golden["files"])
                   if outputs["files"].get(n) != golden["files"].get(n))
    assert not moved, f"files changed: {moved}"
    assert outputs["values"] == golden["values"]


def test_the_tolerant_comparison_accepts_the_outputs_and_refuses_a_moved_vertex(outputs, golden):
    """The comparison used under another fingerprint passes these outputs and
    fails a vertex of the sample moved by 10 * VERTEX_TOL, or a report number
    moved by a millionth."""
    assert within_tolerance(outputs, golden) == []
    moved = json.loads(json.dumps(outputs))
    moved["values"]["kink.obj"]["sample"][4] += 10 * VERTEX_TOL
    assert within_tolerance(moved, golden) == ["kink.obj: sample max-abs difference 1.000e-12"]
    moved = json.loads(json.dumps(outputs))
    moved["reports"]["pde.json"]["u_inf_final"] *= 1 + 1e-6
    assert [s.split(":")[0] for s in within_tolerance(moved, golden)] == ["reports.pde.json.u_inf_final"]
