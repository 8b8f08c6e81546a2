"""Timed calls into single layers on fixed, seeded fixtures.

Each probe calls one public entry of a layer in the shape a workload uses
it and reports the median time per call (or per jet) over several batches.
Fixtures: the novikov family on a wide environment of WIDE jets (the shape
of `certify`'s wide verifies) and on a one-jet environment (the shape of the
frame spine in `field` and `kink`); a 256-point grid (the march of
`field`); a short novikov march sampled on one 33-point row (the mesh rows
of `field`); the exact kink field sampled at one point and on one 201-point
row (the spine and rows of `kink`).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

WIDE = 100_000
BATCHES = 7
MIN_BATCH_S = 0.02


def per_call(fn, batches=BATCHES, min_batch_s=MIN_BATCH_S):
    """Median seconds per call of fn() over batches of equal size."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= min_batch_s:
            break
        n = max(n + 1, int(n * 1.5 * min_batch_s / max(dt, 1e-9)))
    times = [dt / n]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def run_all(seed):
    from pss import dual
    from pss.catalog import novikov_preset
    from pss.jets import dt_env_onshell, dx_env
    from pss.pde import Grid1D, helmholtz_invert, kink_field, solve_mol, spectral_derivative
    from pss.verifier import sample_envs

    rng = np.random.default_rng(seed)
    out = {}
    fam = novikov_preset()
    fij = [fam.fij(i, j) for i in (1, 2, 3) for j in (1, 2)] + [fam.G_fn]
    wide = sample_envs(fam, WIDE, rng)
    one = sample_envs(fam, 1, rng)

    def all_fij(env):
        return lambda: [f(env) for f in fij]

    out["expr.fij_wide_ns_per_jet"] = 1e9 * per_call(all_fij(wide)) / WIDE
    out["expr.fij_narrow_us_per_call"] = 1e6 * per_call(all_fij(one)) / len(fij)

    def partials():
        lvl, seeded = dual.seed(dict(wide), ("z0", "z1"))
        return dual.value_grad(fam.phi12_fn(seeded), lvl, 2)

    out["dual.partials_ns_per_jet"] = 1e9 * per_call(partials) / WIDE
    f_dx = [fam.fij(i, 2) for i in (1, 2, 3)]
    f_dt = [fam.fij(i, 1) for i in (1, 2, 3)]
    out["jets.dx_ns_per_jet"] = 1e9 * per_call(lambda: [dx_env(f, wide) for f in f_dx]) / WIDE

    def dt_onshell():
        zt = fam.zt(wide, 2)
        return [dt_env_onshell(f, wide, zt) for f in f_dt]

    out["jets.dt_onshell_ns_per_jet"] = 1e9 * per_call(dt_onshell) / WIDE

    grid = Grid1D(0.0, 2.0 * np.pi, 256)
    u = 0.1 + 0.05 * np.cos(grid.nodes() + rng.uniform(-0.01, 0.01))
    out["pde.helmholtz_invert_us"] = 1e6 * per_call(lambda: helmholtz_invert(grid, u))
    out["pde.spectral_derivative_us"] = 1e6 * per_call(
        lambda: [spectral_derivative(grid, u, m) for m in (1, 2, 3)]) / 3

    field = solve_mol(fam, grid, u, 0.05, 1e-3, n_save=11)
    row = 0.02 + 0.36 * np.arange(33) / 32
    t_off = 0.0123 + rng.uniform(0.0, 1e-3)  # between snapshots (every 0.005)
    out["pde.sample_numeric_us_per_call"] = 1e6 * per_call(lambda: field.sample_env(row, t_off, 3))

    kink = kink_field(1.0, Grid1D(-6.0, 6.0, 16), t_span=(-6.0, 6.0))
    x0, t0 = -2.1 + rng.uniform(-0.05, 0.05), -2.1 + rng.uniform(-0.05, 0.05)
    point = np.array([x0])
    kink_row = x0 + 1.9 * np.arange(201) / 200
    out["pde.sample_exact_us_per_call"] = 1e6 * per_call(lambda: kink.sample_env(point, t0, 2))
    out["pde.sample_exact_row_us_per_call"] = 1e6 * per_call(lambda: kink.sample_env(kink_row, t0, 2))
    return out
