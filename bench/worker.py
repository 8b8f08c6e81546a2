"""Child process of the benchmark: builds inputs, runs passes, checks outputs.

    python3 bench/worker.py setup   --workload W --seed N --dir D
    python3 bench/worker.py measure --workload W --seed N --dir D --seconds S --trace 0|1 --out R

`setup` imports pss, writes the workload's inputs and prints the plan
digest; `bench/run.py` times several of these starts for `setup_s`.
`measure` runs the workload's commands through `pss.cli.run`, one pass
after another, in this one process, and writes a result JSON to R.  Its
first pass is a warm-up that is checked in full (exit codes, verdicts,
propositions, PSSF round trip, mesh bounds) and whose output hashes become
the reference every later pass must reproduce byte for byte.

Run it from the root of a checkout with `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import reference
import workloads as wl


def _import_pss():
    import pss

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(pss.__file__).startswith(src + os.sep):
        raise SystemExit(f"pss was imported from {pss.__file__}, not from the checkout's src/")
    import pss.cli  # noqa: F401  (loads every layer the cli imports)

    return pss


# ----------------------------------------------------------------------
# One pass


def run_pass(plan, wdir, tracer=None, between=None):
    """Run every command once; returns [(command, exit code, seconds, stderr)].
    `between()`, if given, runs untimed before every command but the first."""
    from pss.cli import run

    for cmd in plan["commands"]:
        for out in cmd["outputs"]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(wdir, out))
    results = []
    for cmd in plan["commands"]:
        if between is not None and results:
            between()
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            if tracer is None:
                code = run(cmd["argv"])
            else:
                with tracer.span("cli.run"):
                    code = run(cmd["argv"])
        results.append((cmd, code, time.perf_counter() - t0, err.getvalue().strip()))
    return results


def output_hashes(plan, wdir):
    out = {}
    for cmd in plan["commands"]:
        for name in cmd["outputs"]:
            path = os.path.join(wdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _report(wdir, cmd):
    with open(os.path.join(wdir, cmd["outputs"][0]), encoding="utf-8") as fh:
        return json.load(fh)


def _size(wdir, names):
    return sum(os.path.getsize(os.path.join(wdir, n)) for n in names if os.path.exists(os.path.join(wdir, n)))


def read_obj_vertices(path, shape):
    """Vertex positions of a pss OBJ (v records, header line first) as (nx, nt, 3)."""
    import numpy as np

    nverts = shape[0] * shape[1]
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n", nverts + 1)[1:nverts + 1]
    if len(lines) != nverts or not all(ln.startswith(b"v ") for ln in (lines[0], lines[-1])):
        raise ValueError(f"{path}: expected {nverts} vertex records after the header")
    flat = np.array(b" ".join(ln[2:] for ln in lines).split(), dtype=float)
    return flat.reshape(shape[0], shape[1], 3)


def _check(cmd, code, wdir, counts, full):
    """Check one command's exit code and report, add its work to `counts`;
    returns an error string or ''.  `full` adds the costly checks (PSSF
    round trip, kink curvature), needed only until outputs are pinned by hash."""
    exp = cmd["expect"]
    want = exp.get("code", 0)
    if code != want:
        return f"exit code {code}, expected {want}"
    rep = _report(wdir, cmd)
    kind = cmd["kind"]
    counts["bytes_written"] += _size(wdir, cmd["outputs"])
    counts["bytes_read"] += _size(wdir, cmd["inputs"])
    if kind in ("verify_narrow", "verify_wide"):
        counts["jets"] += int(rep["samples"])
        return "" if rep["verdict"] == "pass" else f"verdict {rep['verdict']}"
    if want == 3:
        if kind == "sff":
            counts["families_no_immersion"] += 1
        if rep.get("proposition") != exp["proposition"]:
            return f"cites {rep.get('proposition')!r}, expected {exp['proposition']!r}"
        return ""
    if kind == "sff":
        if rep["result"] != exp["result"]:
            return f"result {rep['result']}, expected {exp['result']}"
        counts["families_" + exp["result"].lower()] += 1
        counts["ode_table_points"] += int(rep.get("table_points", 0))
        if rep.get("gauss_residual_max", 0.0) > wl.GAUSS_RESIDUAL_MAX:
            return f"gauss residual {rep['gauss_residual_max']:.3e}"
        return ""
    if kind == "codazzi":
        counts["jets"] += int(rep["samples"])
        return "" if rep["verdict"] == "pass" else f"codazzi verdict {rep['verdict']}"
    if kind == "pde":
        counts["rk4_steps"] += int(round(rep["t_final"] / rep["provenance"]["dt"]))
        return _check_pssf(rep, wdir) if full else ""
    # reconstruct
    nx, nt = rep["grid"]
    counts["mesh_vertices"] += (nx + 1) * (nt + 1)
    diag = rep["diagnostics"]
    if kind == "reconstruct_field":
        if not diag["drift_max"] <= wl.FIELD_DRIFT_MAX:
            return f"drift_max {diag['drift_max']:.3e} > {wl.FIELD_DRIFT_MAX}"
        if not abs(diag["K_mean"] + 1.0) <= wl.FIELD_K_MEAN_TOL:
            return f"K_mean {diag['K_mean']} not within {wl.FIELD_K_MEAN_TOL} of -1"
        if not diag["delta12_min"] >= wl.FIELD_DELTA12_MIN:
            return f"delta12_min {diag['delta12_min']:.3e} < {wl.FIELD_DELTA12_MIN}"
        return ""
    return _check_kink(rep, wdir, (nx + 1, nt + 1)) if full else ""


def _check_pssf(rep, wdir):
    import numpy as np
    from pss.pde import load_field, save_field

    path = os.path.join(wdir, "field.pssf")
    copy = os.path.join(wdir, "roundtrip.pssf")
    field = load_field(path)
    save_field(field, copy)
    with open(path, "rb") as a, open(copy, "rb") as b:
        same = a.read() == b.read()
    os.remove(copy)
    if not same:
        return "PSSF does not round-trip bit-exactly through load_field/save_field"
    if len(field.times) != rep["snapshots"]:
        return f"PSSF holds {len(field.times)} snapshots, report says {rep['snapshots']}"
    if float(np.max(np.abs(field.frames[-1]))) != rep["u_inf_final"]:
        return "PSSF last frame disagrees with the report's u_inf_final"
    return ""


def _check_kink(rep, wdir, shape):
    import numpy as np
    from pss.frames import discrete_gaussian_curvature

    drift = rep["diagnostics"]["drift_max"]
    if not drift <= wl.KINK_DRIFT_MAX:
        return f"drift_max {drift:.3e} > {wl.KINK_DRIFT_MAX}"
    K = discrete_gaussian_curvature(read_obj_vertices(os.path.join(wdir, "kink.obj"), shape))[1:-1, 1:-1]
    lo, hi = wl.KINK_K_BAND
    share = float(np.mean((K >= lo) & (K <= hi)))
    if not share >= wl.KINK_K_SHARE:
        return f"only {share:.3f} of interior K in [{lo}, {hi}]"
    return ""


COUNT_KEYS = ("families_closed_form", "families_ode_table", "families_solution_dependent",
              "families_no_immersion", "jets", "ode_table_points", "rk4_steps", "mesh_vertices",
              "bytes_written", "bytes_read")


def check_pass(plan, wdir, results, reference=None):
    """(failures, counts, hashes).  Without a reference every check runs;
    with one (the hashes of the fully checked warm-up pass) a command also
    fails when its outputs are not byte-identical to it."""
    counts = dict.fromkeys(COUNT_KEYS, 0)
    failures = {}
    hashes = output_hashes(plan, wdir)
    for cmd, code, _, err in results:
        try:
            why = _check(cmd, code, wdir, counts, full=reference is None)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            why = f"{type(exc).__name__}: {exc}"
        if not why and reference is not None:
            bad = [o for o in cmd["outputs"] if hashes.get(o) != reference.get(o)]
            if bad:
                why = f"outputs differ from the first pass: {bad}"
        if why:
            failures[cmd["id"]] = why + (f" (stderr: {err})" if err else "")
    return failures, counts, hashes


# ----------------------------------------------------------------------
# Throughputs of one untraced pass (printed by name above the result line)


def pass_rates(results, counts):
    """Throughputs of one pass, by the workload's command kinds."""
    by = {}
    for cmd, _, seconds, _ in results:
        by.setdefault(cmd["kind"], []).append(seconds)

    def secs(*kinds):
        return sum(s for k in kinds for s in by.get(k, ()))

    out = {}
    if "verify_narrow" in by:
        out["verify_jets_per_s"] = len(by["verify_narrow"]) * wl.NARROW_SAMPLES / secs("verify_narrow")
        out["verify_wide_jets_per_s"] = len(by["verify_wide"]) * wl.WIDE_SAMPLES / secs("verify_wide")
        out["triples_per_s"] = len(by["sff"]) / secs("sff", "codazzi")
    if "pde" in by:
        out["pde_steps_per_s"] = counts["rk4_steps"] / secs("pde")
        out["field_vertices_per_s"] = counts["mesh_vertices"] / secs("reconstruct_field")
    if "reconstruct_kink" in by:
        out["kink_vertices_per_s"] = counts["mesh_vertices"] / secs("reconstruct_kink")
    return out


# ----------------------------------------------------------------------
# Traced-run metrics


def span_metrics(workload, summary, counts):
    """Per-layer numbers of one traced pass, prefixed with the workload."""

    def self_s(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    cli = summary["cli.run"]
    out = {f"{workload}.cli.self_s": cli["self_s"]}
    if workload == "certify":
        catalog = ("catalog.load_family", "catalog.build_family", "catalog.preset")
        builds = sum(summary.get(n, {}).get("roots", 0) for n in catalog)
        out.update({
            "certify.catalog.build_ms": 1e3 * self_s(*catalog) / builds,
            "certify.verifier.sample_envs_s": self_s("verifier.sample_envs"),
            "certify.verifier.structure_s": self_s("verifier.structure_residuals_env"),
            "certify.verifier.theorem21_s": self_s("verifier.check_theorem21_conditions"),
            "certify.verifier.certify_self_s": self_s("verifier.certify", "verifier.certify_structure"),
            "certify.immersion.solve_triple_s": self_s("immersion.solve_triple"),
            "certify.immersion.ode_triple_s": self_s("immersion.integrate_b_ode"),
            "certify.immersion.codazzi_s": self_s("immersion.codazzi_residuals"),
            "certify.immersion.export_csv_s": self_s("immersion.ImmersionTriple.export_csv"),
        })
    elif workload == "field":
        solve = summary["pde.solve_mol"]
        out.update({
            "field.pde.solve_mol_s": solve["total_s"],
            "field.pde.step_us": 1e6 * solve["total_s"] / counts["rk4_steps"],
            "field.pde.save_field_s": self_s("pde.save_field"),
            "field.pde.load_field_s": self_s("pde.load_field"),
            "field.frames.integrate_frame_s": self_s("frames.integrate_frame"),
            "field.frames.curvature_s": self_s("frames.discrete_gaussian_curvature"),
            "field.frames.export_obj_s": self_s("frames.export_obj"),
        })
    else:
        out.update({
            "kink.pde.kink_field_s": self_s("pde.kink_field"),
            "kink.frames.integrate_frame_s": self_s("frames.integrate_frame"),
            "kink.frames.curvature_s": self_s("frames.discrete_gaussian_curvature"),
            "kink.frames.export_obj_s": self_s("frames.export_obj"),
        })
    return out


def count_metrics(workload, counts, wdir):
    if workload == "certify":
        return {
            "certify.catalog.families_closed_form": counts["families_closed_form"],
            "certify.catalog.families_ode_table": counts["families_ode_table"],
            "certify.catalog.families_solution_dependent": counts["families_solution_dependent"],
            "certify.catalog.families_no_immersion": counts["families_no_immersion"],
            "certify.verifier.jets": counts["jets"],
            "certify.immersion.ode_table_points": counts["ode_table_points"],
        }
    if workload == "field":
        return {
            "field.pde.rk4_steps": counts["rk4_steps"],
            "field.pde.field_bytes": os.path.getsize(os.path.join(wdir, "field.pssf")),
            "field.frames.vertices": counts["mesh_vertices"],
            "field.frames.obj_bytes": os.path.getsize(os.path.join(wdir, "surface.obj")),
        }
    return {
        "kink.frames.vertices": counts["mesh_vertices"],
        "kink.frames.obj_bytes": os.path.getsize(os.path.join(wdir, "kink.obj")),
    }


# ----------------------------------------------------------------------


class Run:
    """Passes of one workload in one directory, with their bookkeeping."""

    def __init__(self, workload, seed, wdir):
        self.wdir = wdir
        self.plan = wl.build(workload, seed, wdir)
        self.attempted = 0
        self.failures = []
        self.reference = None
        self.counts = None

    def one(self, tracer=None, between=None):
        """Run and check one pass; returns (results, counts, wall seconds of
        its commands)."""
        cwd = os.getcwd()
        os.chdir(self.wdir)
        try:
            results = run_pass(self.plan, ".", tracer, between)
            seconds = sum(r[2] for r in results)
            fails, counts, hashes = check_pass(self.plan, ".", results, self.reference)
        finally:
            os.chdir(cwd)
        self.attempted += len(results)
        self.failures += [{"command": k, "error": v} for k, v in fails.items()]
        if self.reference is None:
            self.reference, self.counts = hashes, counts
        elif counts != self.counts:
            self.failures.append({"command": "*", "error": f"work counts changed: {counts} != {self.counts}"})
        return results, counts, seconds

    def manifest(self):
        import manifest

        manifest.write(self.plan, self.wdir, self.reference)


def traced(args, main, passes, traced_times, t_start):
    """Per-layer metrics of a traced run (see bench/README.md)."""
    from tracing import Tracer

    import probes

    # Half the budget alternates untraced and traced passes of this
    # workload; the other workloads' traced passes and the probes take about
    # as long again, so a traced run lasts about as long as an untraced one.
    samples = []
    while len(traced_times) < 2 or time.perf_counter() - t_start < args.seconds / 2:
        passes.append(main.one()[2])
        tracer = Tracer()
        with tracer.installed():
            _, counts, seconds = main.one(tracer)
        traced_times.append(seconds)
        samples.append(span_metrics(args.workload, tracer.summary(), counts))
    per_layer = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    per_layer.update(count_metrics(args.workload, main.counts, args.dir))
    per_layer["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(passes) - 1.0
    spans = {args.workload: tracer.records()}
    for other in wl.WORKLOADS:
        if other == args.workload:
            continue
        side = Run(other, args.seed, os.path.join(os.path.dirname(args.dir), f"trace-{other}"))
        side.one()
        tracer = Tracer()
        with tracer.installed():
            _, counts, _ = side.one(tracer)
        per_layer.update(span_metrics(other, tracer.summary(), counts))
        per_layer.update(count_metrics(other, side.counts, side.wdir))
        spans[other] = tracer.records()
        main.attempted += side.attempted
        main.failures += side.failures
    per_layer.update(probes.run_all(args.seed))
    with open(os.path.join(args.dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return per_layer


def measure(args):
    _import_pss()
    main = Run(args.workload, args.seed, args.dir)
    main.one()  # warm-up, checked in full
    main.manifest()
    passes, refs, rates, traced_times, per_layer = [], [], [], [], {}
    t_start = time.perf_counter()
    if not args.trace:
        kernel = reference.Sampler()
        while not passes or time.perf_counter() - t_start < args.seconds:
            first = len(kernel.samples) - 1
            results, counts, seconds = main.one(between=kernel.maybe)
            kernel.take()
            passes.append(seconds)
            refs.append(statistics.mean(kernel.samples[first:]))
            rates.append(pass_rates(results, counts))
    else:
        per_layer = traced(args, main, passes, traced_times, t_start)
    import numpy

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "plan_digest": main.plan["digest"],
        "commands_per_pass": len(main.plan["commands"]),
        "attempted": main.attempted,
        "failures": main.failures,
        "counts": main.counts,
        "pass_s": passes,
        "reference_s": refs,
        "traced_pass_s": traced_times,
        "rates": rates,
        "per_layer": per_layer,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def setup(args):
    _import_pss()
    plan = wl.build(args.workload, args.seed, args.dir)
    print(json.dumps({"digest": plan["digest"]}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    if args.mode == "setup":
        setup(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
