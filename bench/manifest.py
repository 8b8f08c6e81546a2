"""Outputs manifest: what a workload's checked pass wrote, for the
"outputs unchanged" gate.

Every benchmark run leaves `manifest.json` in its work directory
(`.bench_run/<workload>-s<seed>-t<trace>/work/`): the sha256 of every
`--deterministic` report, CSV, PSSF and OBJ of its first pass, and next to
it `<obj>.vertices.npy` with each mesh's vertex positions.  To show that a
change keeps the outputs, run the same workload and seed on both commits
(`--seconds 1` is enough), copy the two work directories aside, and compare:

    python3 bench/manifest.py PARENT_WORK_DIR CHANGE_WORK_DIR [--vertex-tol 1e-14]

Exit 0 when every file is byte-identical or, with --vertex-tol, when the
only differences are in reconstruct outputs whose mesh vertices agree to
that max-abs tolerance.  Exit 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

MANIFEST = "manifest.json"


def write(plan, wdir, hashes):
    """Write `manifest.json` and the vertex arrays of the pass's meshes."""
    import numpy as np

    from worker import read_obj_vertices

    meshes = {}
    for cmd in plan["commands"]:
        for name in cmd["outputs"]:
            if name.endswith(".obj") and os.path.exists(os.path.join(wdir, name)):
                with open(os.path.join(wdir, cmd["outputs"][0]), encoding="utf-8") as fh:
                    nx, nt = json.load(fh)["grid"]
                verts = read_obj_vertices(os.path.join(wdir, name), (nx + 1, nt + 1))
                np.save(os.path.join(wdir, name + ".vertices.npy"), verts)
                meshes[name] = {"command": cmd["id"], "shape": list(verts.shape)}
    doc = {
        "workload": plan["workload"],
        "seed": plan["seed"],
        "plan_digest": plan["digest"],
        "files": dict(sorted(hashes.items())),
        "meshes": meshes,
        "producers": {name: cmd["id"] for cmd in plan["commands"] for name in cmd["outputs"]},
    }
    with open(os.path.join(wdir, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def compare(dir_a, dir_b, vertex_tol=None, out=sys.stdout):
    """Print a per-file verdict; return True when the outputs count as unchanged."""
    import numpy as np

    docs = []
    for d in (dir_a, dir_b):
        with open(os.path.join(d, MANIFEST), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a, b = docs
    if a["plan_digest"] != b["plan_digest"]:
        print(f"inputs differ (plan digest {a['plan_digest'][:12]} vs {b['plan_digest'][:12]}); "
              "compare runs of one workload and seed", file=out)
        return False
    tolerated = set()
    for name, info in a["meshes"].items():
        if name in b["meshes"]:
            va = np.load(os.path.join(dir_a, name + ".vertices.npy"))
            vb = np.load(os.path.join(dir_b, name + ".vertices.npy"))
            diff = float(np.max(np.abs(va - vb))) if va.shape == vb.shape else float("inf")
            print(f"{name}: vertices max-abs difference {diff:.3e}", file=out)
            if vertex_tol is not None and diff <= vertex_tol:
                tolerated.add(info["command"])
    ok = True
    for name in sorted(set(a["files"]) | set(b["files"])):
        ha, hb = a["files"].get(name), b["files"].get(name)
        if ha == hb:
            verdict = "identical"
        elif a["producers"].get(name) in tolerated and ha and hb:
            verdict = f"differs; mesh within {vertex_tol:g}"
        else:
            verdict = "DIFFERS" if ha and hb else "MISSING on one side"
            ok = False
        print(f"{name}: {verdict}", file=out)
    print("outputs unchanged" if ok else "outputs changed", file=out)
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description="compare the output manifests of two benchmark work directories")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--vertex-tol", type=float, default=None)
    args = p.parse_args(argv)
    return 0 if compare(args.a, args.b, args.vertex_tol) else 1


if __name__ == "__main__":
    sys.exit(main())
