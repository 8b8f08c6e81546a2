"""Spans around calls into the public functions of the pss layers.

`Tracer.installed()` swaps each function listed in `TRACED` for a wrapper
that records a span (name, parent, start, end) and restores the originals
on exit.  The swap covers every `pss` module that holds a reference to the
function (including names bound by `from .x import f`) and the preset
constructors in `catalog.PRESETS`, so a `pss.cli.run` call made under it
yields a span tree without any change to the program.  Spans stay in
memory; `summary()` turns them into call counts, total and self seconds.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# layer -> public functions (and Class.method) timed by the traced run.
TRACED = {
    "catalog": ("load_family", "build_family"),
    "verifier": ("certify", "certify_structure", "check_theorem21_conditions",
                 "sample_envs", "structure_residuals_env"),
    "immersion": ("solve_triple", "integrate_b_ode", "codazzi_residuals",
                  "ImmersionTriple.strip_samples", "ImmersionTriple.gauss_residual_at",
                  "ImmersionTriple.export_csv"),
    "pde": ("solve_mol", "save_field", "load_field", "kink_field"),
    "frames": ("integrate_frame", "discrete_gaussian_curvature", "export_obj", "write_diagnostics"),
}

PRESET_SPAN = "catalog.preset"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Trace the `TRACED` functions of every loaded pss module."""
        for layer in TRACED:
            importlib.import_module(f"pss.{layer}")
        modules = {n: m for n, m in sys.modules.items() if n == "pss" or n.startswith("pss.")}
        wrappers = {}
        undo = []
        for layer, names in TRACED.items():
            mod = modules[f"pss.{layer}"]
            for fname in names:
                owner, _, attr = fname.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                fn = getattr(holder, attr, None)
                if fn is None:
                    raise RuntimeError(f"pss.{layer}.{fname} no longer exists; update bench/tracing.py")
                wrapper = self.wrap(f"{layer}.{fname}", fn)
                if owner:
                    undo.append((holder, attr, fn))
                    setattr(holder, attr, wrapper)
                else:
                    wrappers[id(fn)] = wrapper
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None and wrapper.__wrapped__ is val:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        presets = modules["pss.catalog"].PRESETS
        saved = dict(presets)
        for key, fn in saved.items():
            presets[key] = self.wrap(PRESET_SPAN, fn)
        try:
            yield self
        finally:
            presets.update(saved)
            for mod, attr, val in undo:
                setattr(mod, attr, val)

    def summary(self):
        """{name: {"calls", "total_s", "self_s", "roots"}}: self time excludes
        child spans; roots counts the calls entered from another layer."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "roots": 0})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            if parent_name.split(".")[0] != name.split(".")[0]:
                agg["roots"] += 1  # entered from another layer
        return out

    def records(self):
        """Spans as JSON-able dicts, times relative to the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        return [{"id": i, "parent": p, "name": n, "start": t0 - base, "end": t1 - base}
                for i, (n, p, t0, t1) in enumerate(self.spans)]
