"""pss benchmark: certify, field and kink pipelines through `pss.cli.run`.

    python3 bench/run.py --workload certify|field|kink|all --seed N --seconds S --trace 0|1

Run it from the root of a pss checkout (the directory holding `src/pss`);
it needs only the standard library and numpy, and writes only under
`.bench_run/` there.  A run

1. starts a fresh process SETUP_STARTS + 1 times that imports pss and builds
   the workload's inputs from the seed (the first start only warms the
   bytecode cache); `setup_s` is the median wall time of the others, and
   every start must build inputs with the same digest;
2. starts one measuring process (`bench/worker.py measure`) that runs a
   checked warm-up pass and then whole passes of the workload for S
   seconds, every pass byte-identical to the warm-up;
3. prints the workload's throughputs by name and unit, its work counts and
   the run environment, then, as the last line, one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones (setup_s, peak_rss_mb, pass_s); with
   --trace 1 they are the per-layer ones of the traced run.

See bench/README.md for the workloads, the metrics and what each per-layer
number is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_STARTS = 7
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

RATE_UNITS = {
    "verify_jets_per_s": "jets/s",
    "verify_wide_jets_per_s": "jets/s",
    "triples_per_s": "pairs/s",
    "pde_steps_per_s": "steps/s",
    "field_vertices_per_s": "vertices/s",
    "kink_vertices_per_s": "vertices/s",
}


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "thread_vars": {v: "1" for v in THREAD_VARS},
    }


def _worker(args, env, timeout):
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout, check=False)


def run_workload(workload, seed, seconds, trace, root, t_begin):
    import reference

    env = child_env(root)
    rundir = os.path.join(root, ".bench_run", f"{workload}-s{seed}-t{trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    info = {"environment": environment()}
    setup_args = ["setup", "--workload", workload, "--seed", str(seed), "--dir", os.path.join(rundir, "setup")]
    setup_s, setup_norm, digests = [], [], []
    before = reference.seconds()
    for k in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = _worker(setup_args, env, 60)
        dt = time.perf_counter() - t0
        after = reference.seconds()
        if proc.returncode != 0:
            raise RuntimeError(f"setup start failed:\n{proc.stderr.strip()}")
        digests.append(json.loads(proc.stdout.strip().splitlines()[-1])["digest"])
        if k:
            setup_s.append(dt)
            setup_norm.append(dt * reference.NOMINAL_S * 2 / (before + after))
        before = after
    out = os.path.join(rundir, "result.json")
    proc = _worker(["measure", "--workload", workload, "--seed", str(seed),
                    "--dir", os.path.join(rundir, "work"), "--seconds", str(seconds),
                    "--trace", str(trace), "--out", out],
                   env, max(10.0, DEADLINE_S - (time.perf_counter() - t_begin)))
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process failed:\n{proc.stderr.strip()}")
    with open(out, encoding="utf-8") as fh:
        res = json.load(fh)
    failures = list(res["failures"])
    digests.append(res["plan_digest"])
    if len(set(digests)) != 1:
        failures.append({"command": "setup", "error": f"input digests differ across starts: {sorted(set(digests))}"})
    attempted = res["attempted"] + len(digests)
    failed = min(attempted, len(failures))
    info.update(setup_wall_s=setup_s, setup_s=setup_norm, result=res)
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(res["per_layer"].items())}
    else:
        norm = [p * reference.NOMINAL_S / r for p, r in zip(res["pass_s"], res["reference_s"])]
        metrics = {
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "pass_s": {"value": statistics.median(norm), "unit": "s"},
        }
    line = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(rundir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({**info, "line": line}, fh, indent=1, sort_keys=True)
    _print_human(workload, seed, trace, info, line, failures)
    return line


def _layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    for suffix, unit in (("_ns_per_jet", "ns/jet"), ("_us_per_call", "us"), ("_us", "us"),
                         ("_ms", "ms"), ("_s", "s"), ("_frac", "ratio"), ("_bytes", "bytes")):
        if last.endswith(suffix):
            return unit
    return "count"


def _print_human(workload, seed, trace, info, line, failures):
    import reference

    res = info["result"]
    env = info["environment"]
    print(f"# workload {workload}, seed {seed}, trace {trace}")
    print(f"# python {res['versions']['python']}, numpy {res['versions']['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']}, loadavg {env['loadavg_at_start']}")
    passes = res["pass_s"]
    print(f"# {len(passes)} passes of {res['commands_per_pass']} commands; wall seconds per pass "
          f"min/median/max {min(passes):.4f}/{statistics.median(passes):.4f}/{max(passes):.4f}; "
          f"setup starts median {statistics.median(info['setup_wall_s']):.4f}")
    if res["reference_s"]:
        print(f"# reference kernel median {statistics.median(res['reference_s']):.6f} s "
              f"(setup_s and pass_s are scaled to a kernel time of {reference.NOMINAL_S} s)")
    print("# work per pass: " + ", ".join(f"{k} {v}" for k, v in res["counts"].items() if v))
    if res["rates"]:
        for key in res["rates"][0]:
            vals = [r[key] for r in res["rates"]]
            print(f"{key} {statistics.median(vals):.6g} {RATE_UNITS[key]}")
    print(f"failed_frac {line['failed'] / line['attempted']:.6g} ratio")
    for name, m in line["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for f in failures[:20]:
        print(f"# FAILED {f['command']}: {f['error']}")


def main(argv=None):
    p = argparse.ArgumentParser(description="pss benchmark")
    p.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    for var in THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(root, "src", "pss", "__init__.py")):
        print("bench: no src/pss here; run from the root of a pss checkout", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            line = run_workload(name, args.seed, args.seconds, args.trace, root, time.perf_counter())
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
