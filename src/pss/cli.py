"""Command-line entry point: catalog -> verify -> sff/codazzi -> pde -> reconstruct.

Exit codes: 0 pass/success, 1 usage or configuration error, 2 verification
failure (including PDE blow-up), 3 no-immersion (the expected negative
result for the T23/T25 branches, still reported).

A JSON config file may mirror any long flag (dashes become underscores);
explicit flags win on conflict.  With --deterministic the report contains
no timestamp, so identical argv + seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .catalog import (
    PRESETS,
    CatalogError,
    ConstraintViolation,
    load_family,
    read_json,
    validate_params,
)
from .expr import ExprError
from .immersion import (
    MAX_ODE_STEPS,
    DiscriminantCollapse,
    ImmersionParams,
    InvalidStrip,
    NoImmersion,
    Representation,
    TripleDomainError,
    codazzi_residuals,
    solve_triple,
)
from .verifier import DEFAULT_SEED, certify, sample_envs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_NO_IMMERSION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _sign(text):
    if text in ("+", "+1", "1"):
        return 1
    if text in ("-", "-1"):
        return -1
    raise argparse.ArgumentTypeError("sign must be + or -")


def _grid(text):
    try:
        a, b = text.lower().split("x")
        sizes = int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("grid must look like 200x200") from exc
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"grid sizes must be positive, got {text!r}")
    return sizes


def _positive_float(text):
    try:
        v = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from exc
    if not v > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return v


def _int_from(lo, what):
    """An argparse type: an integer >= lo, called a `what` integer in the error."""

    def parse(text):
        try:
            n = int(text)
            if n < lo:
                raise ValueError(text)
            return n
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}") from exc

    return parse


@functools.cache
def build_parser():
    """The parser, built once per process: parsing never mutates it, and
    `_apply_config` parses into the namespace it is given."""
    p = _Parser(prog="pss", description="pseudospherical-surface toolkit")
    p.add_argument("--version", action="version", version=f"pss {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, immersion=False):
        sp.set_defaults(_parser=sp)  # lets _apply_config check values against this parser's flags
        sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--family", help="path to a family spec JSON")
        sp.add_argument("--config", help="JSON config mirroring flags (flags win)")
        sp.add_argument("--report", help="write the JSON report here (default: stdout)")
        sp.add_argument("--deterministic", action="store_true",
                        help="omit timestamps so reports are byte-identical")
        sp.add_argument("--seed", type=_int_from(0, "non-negative"), default=DEFAULT_SEED)
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--samples", type=_int_from(1, "positive"), default=1000)
        if immersion:
            sp.add_argument("--sign", type=_sign, default=None, help="family sign (+/-)")
            sp.add_argument("--a-sign", dest="a_sign", type=_sign, default=1)
            sp.add_argument("--beta", type=float, default=0.0)
            sp.add_argument("--Cstrip", dest="Cstrip", type=float, default=None)
            sp.add_argument("--sigma", type=float, default=None)
            sp.add_argument("--b0", type=float, default=0.0)
            sp.add_argument("--s0", type=float, default=0.0)
            sp.add_argument("--h", type=float, default=1e-3)
            sp.add_argument("--eps", type=float, default=1.0)

    sp = sub.add_parser("catalog", help="list presets / validate a family spec")
    common(sp)

    sp = sub.add_parser("verify", help="structure equations + classification conditions")
    common(sp)

    sp = sub.add_parser("sff", help="second-fundamental-form triple (CSV export)")
    common(sp, immersion=True)
    sp.add_argument("--out", help="CSV path for the triple table")

    sp = sub.add_parser("codazzi", help="cross-check a triple against its family")
    common(sp, immersion=True)

    sp = sub.add_parser("pde", help="method-of-lines solve on a periodic grid")
    common(sp)
    sp.add_argument("--nx", type=int, default=256)
    sp.add_argument("--xmin", type=float, default=0.0)
    sp.add_argument("--xmax", type=float, default=2.0 * np.pi)
    sp.add_argument("--tmax", type=float, default=1.0)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--space", default="spectral", choices=["spectral", "2", "4"])
    sp.add_argument("--nsave", type=int, default=33,
                    help="snapshot spacing: t = 0, every max(1, steps // (nsave - 1))-th step "
                         "and the last step are stored (33 over 1000 steps stores 34); >= 2")
    sp.add_argument("--u0", default="0.1 + 0.05*cos(x)", help="initial data, an expression in x")
    sp.add_argument("--out", help="write the field in PSSF format")
    sp.add_argument("--csv", help="also export x,t,u rows")

    sp = sub.add_parser("reconstruct", help="integrate the moving frame into an OBJ mesh")
    common(sp, immersion=True)
    sp.add_argument("--soliton", action="store_true", help="use the exact sine-Gordon kink field")
    sp.add_argument("--eta", type=float, default=1.0)
    sp.add_argument("--field", help="reconstruct over a saved PSSF field")
    sp.add_argument("--grid", type=_grid, default=(200, 200))
    sp.add_argument("--origin", type=float, nargs=2, default=None, metavar=("X0", "T0"))
    sp.add_argument("--extent", type=_positive_float, nargs=2, default=None, metavar=("DX", "DT"),
                    help="window size from the origin (default: all of the usable domain)")
    sp.add_argument("--out", help="OBJ output path")
    # a config may mirror the long flags of every subcommand (a key another
    # subcommand owns is ignored), but not --config or --help
    p.config_keys = {a.dest for sp in sub.choices.values() for a in sp._actions
                     if a.option_strings and a.dest not in ("config", "help")}
    return p


def _apply_config(args, argv):
    """Read the config as flags of this subcommand's parser, so its values get
    the flags' own type and choices checks."""
    if not getattr(args, "config", None):
        return args
    doc = read_json(args.config)
    if not isinstance(doc, dict):
        raise _UsageError(f"config: must be a JSON object, got {json.dumps(doc)}")
    unknown = set(doc) - build_parser().config_keys
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    argv_flags = {a.lstrip("-").replace("-", "_").split("=")[0] for a in argv if a.startswith("--")}
    actions = {a.dest: a for a in args._parser._actions}
    flags = []
    for key, val in doc.items():
        action = actions.get(key)
        if action is None or key in argv_flags:
            continue
        opt = action.option_strings[0]
        if action.nargs == 0:  # store_true
            if not isinstance(val, bool):
                raise _UsageError(f"config: {opt} takes true or false, got {val!r}")
            flags += [opt] if val else []
        elif isinstance(val, list):
            flags += [opt, *map(_config_text, val)]
        else:
            flags.append(f"{opt}={_config_text(val)}")
    try:
        return args._parser.parse_args(flags, namespace=args)
    except _UsageError as exc:
        raise _UsageError(f"config: {exc}") from exc


def _config_text(val):
    return val if isinstance(val, str) else json.dumps(val)


def _check_ranges(args):
    for name in ("tol", "h", "eps", "dt", "tmax"):
        v = getattr(args, name, None)
        if v is not None and not v > 0:
            raise _UsageError(f"--{name} must be > 0")
    for name in ("beta", "Cstrip", "sigma", "b0", "s0", "h", "eps", "tmax", "dt", "xmin", "xmax"):
        v = getattr(args, name, None)
        if v is not None and not np.isfinite(v):
            raise _UsageError(f"--{name} must be finite")
    if getattr(args, "h", None) is not None and args.eps / args.h > MAX_ODE_STEPS + 0.5:
        raise _UsageError(f"--eps / --h must be at most {MAX_ODE_STEPS} b-ODE steps per direction")
    origin = getattr(args, "origin", None)
    if origin is not None and not np.all(np.isfinite(origin)):
        raise _UsageError("--origin must be finite")
    eta = getattr(args, "eta", None)
    if eta is not None and not (np.isfinite(eta) and eta != 0.0):
        raise _UsageError("--eta must be finite and nonzero")
    for name, lo in (("nsave", 2), ("nx", 16)):
        v = getattr(args, name, None)
        if v is not None and v < lo:
            raise _UsageError(f"--{name} must be >= {lo}")
    if args.command == "pde":
        from .pde import MAX_PDE_STEPS, PdeError, step_count

        if not args.xmax > args.xmin:
            raise _UsageError("--xmax must be > --xmin")
        if not args.tmax / args.dt <= MAX_PDE_STEPS + 0.5:
            raise _UsageError(f"--tmax / --dt must be at most {MAX_PDE_STEPS} RK4 steps")
        try:
            step_count(args.tmax, args.dt)
        except PdeError:
            raise _UsageError(f"--tmax {args.tmax} is not a whole number of --dt {args.dt} steps") from None


def _load(args):
    if getattr(args, "family", None):
        fam = load_family(args.family)
    elif getattr(args, "preset", None):
        fam = PRESETS[args.preset]()
    else:
        raise _UsageError("one of --preset or --family is required")
    if getattr(args, "sign", None) is not None and fam.params.sign != args.sign:
        from dataclasses import replace

        from .catalog import build_family

        fam = build_family(
            replace(fam.params, sign=args.sign),
            f=fam.f_expr, phi12=fam.phi12_expr, phi=fam.phi_expr, name=fam.name,
        )
    return fam


def _immersion_params(args):
    return ImmersionParams(
        beta=args.beta,
        C_strip=args.Cstrip,
        sigma=args.sigma,
        b0=args.b0,
        s0=args.s0,
        h=args.h,
        eps=args.eps,
        a_sign=args.a_sign,
    )


def _emit(args, payload, command):
    doc = {
        "tool": "pss",
        "version": __version__,
        "command": command,
        "config": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "config") and not k.startswith("_") and _jsonable(v)
        },
    }
    doc.update(payload)
    if not args.deterministic:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(v):
    return isinstance(v, (str, int, float, bool, type(None), list, tuple))


# ----------------------------------------------------------------------
# Subcommands


def _cmd_catalog(args):
    if not args.preset and not args.family:
        payload = {"presets": sorted(PRESETS)}
        _emit(args, payload, "catalog")
        return EXIT_OK
    if args.family:
        # validate params before building, so violations are reported
        # rather than thrown as a load error
        doc = read_json(args.family)
        from .catalog import family_from_dict, params_from_dict

        fam, name, params = None, args.family, params_from_dict(doc)
    else:
        fam = _load(args)
        name, params = fam.name, fam.params
    violations = validate_params(params)
    payload = {
        "family": name,
        "branch": params.branch,
        "violations": violations,
        "verdict": "pass" if not violations else "fail",
    }
    if not violations:
        payload["spec"] = (fam or family_from_dict(doc, name=name)).to_dict()
    _emit(args, payload, "catalog")
    return EXIT_OK if not violations else EXIT_FAIL


def _cmd_verify(args):
    fam = _load(args)
    rep = certify(fam, samples=args.samples, tol=args.tol, seed=args.seed)
    _emit(args, rep.to_dict(), "verify")
    if rep.verdict == "pass":
        return EXIT_OK
    maxima = {k: v for k, v in rep.residuals.items() if k != "c42_min"}
    if all(v <= args.tol for v in maxima.values()):  # so only the nondegeneracy witness failed
        c42 = rep.residuals["c42_min"]
        print(f"pss: c42_min {c42:.3e}, the nondegeneracy witness, is not above the tolerance", file=sys.stderr)
        return EXIT_FAIL
    return _fail_on_worst(maxima, args.tol)


def _fail_on_worst(maxima, tol):
    """A failing verdict's one stderr line: the largest of `maxima` (a NaN
    counting as the largest) against --tol."""
    name, worst = max(maxima.items(), key=lambda kv: np.inf if np.isnan(kv[1]) else kv[1])
    print(f"pss: {name} {worst:.3e} exceeds --tol {tol:g}", file=sys.stderr)
    return EXIT_FAIL


def _cmd_sff(args):
    fam = _load(args)
    trip = solve_triple(fam, _immersion_params(args))
    if isinstance(trip, NoImmersion):
        _emit(args, {
            "family": fam.name,
            "result": "no-immersion",
            "proposition": trip.proposition,
            "reason": trip.reason,
        }, "sff")
        return EXIT_NO_IMMERSION
    payload = {
        "family": fam.name,
        "result": trip.representation,
        "branch_label": trip.branch_label,
        "reduced_coordinate": trip.svar,
        "validity": [trip.validity[0], trip.validity[1]],
    }
    if trip.representation == Representation.ODE_TABLE:
        payload["stops"] = trip.stops
        payload["table_points"] = int(len(trip.s))
    if args.out:
        trip.export_csv(args.out)
        payload["csv"] = args.out
    if trip.representation != Representation.SOLUTION_DEPENDENT:
        s = trip.strip_samples(256)
        payload["gauss_residual_max"] = float(np.max(np.abs(trip.gauss_residual_at(s))))
    _emit(args, payload, "sff")
    gauss = payload.get("gauss_residual_max", 0.0)
    if not gauss <= args.tol:  # NaN fails too
        print(f"pss: Gauss residual {gauss:.3e} on the strip exceeds --tol {args.tol:g}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_codazzi(args):
    fam = _load(args)
    trip = solve_triple(fam, _immersion_params(args))
    if isinstance(trip, NoImmersion):
        _emit(args, {"family": fam.name, "result": "no-immersion",
                     "proposition": trip.proposition}, "codazzi")
        return EXIT_NO_IMMERSION
    rng = np.random.default_rng(args.seed)
    n = args.samples
    env = sample_envs(fam, n, rng)
    if trip.representation == Representation.SOLUTION_DEPENDENT:
        e1, e2 = codazzi_residuals(fam, trip, env, 0.0, 0.0)
        s_desc = "per-jet u"
    else:
        # each strip point s = sx*x + st*t on whichever axis has a nonzero coefficient
        s = trip.strip_samples(n)
        xv, tv = (s / trip.sx, np.zeros(n)) if trip.sx else (np.zeros(n), s / trip.st)
        e1, e2 = codazzi_residuals(fam, trip, env, xv, tv)
        s_desc = f"{n} strip points"
    e1_max, e2_max = float(np.max(np.abs(e1))), float(np.max(np.abs(e2)))
    payload = {
        "family": fam.name,
        "branch_label": trip.branch_label,
        "samples": n,
        "strip": s_desc,
        "E1_max": e1_max,
        "E2_max": e2_max,
        # each maximum on its own: max(E1, NaN) is E1, so a NaN E2 would pass
        "verdict": "pass" if e1_max <= args.tol and e2_max <= args.tol else "fail",
    }
    _emit(args, payload, "codazzi")
    if payload["verdict"] == "pass":
        return EXIT_OK
    return _fail_on_worst({"E1_max": e1_max, "E2_max": e2_max}, args.tol)


def _cmd_pde(args):
    from .expr import parse_expression
    from .pde import BlowUpError, CflError, Grid1D, export_csv, save_field, solve_mol

    fam = _load(args)
    grid = Grid1D(args.xmin, args.xmax, args.nx)
    u0e = parse_expression(args.u0, ["x"])
    u0 = np.asarray(u0e({"x": grid.nodes()}), dtype=float)
    if u0.shape != (grid.nx,):
        u0 = np.full(grid.nx, float(u0))
    if not np.all(np.isfinite(u0)):
        raise _UsageError("--u0 must be finite on the grid")
    space = args.space if args.space == "spectral" else int(args.space)
    try:
        field = solve_mol(fam, grid, u0, args.tmax, args.dt, space=space, n_save=args.nsave)
    except CflError:
        raise  # a one-line message that names dt and its cap, not a blow-up report
    except BlowUpError as exc:
        _emit(args, {"family": fam.name, "result": "blow-up", "t": exc.t,
                     "amplitude": exc.amplitude}, "pde")
        return EXIT_FAIL
    payload = {
        "family": fam.name,
        "result": "ok",
        "snapshots": len(field.times),
        "t_final": float(field.times[-1]),
        "u_inf_final": float(np.max(np.abs(field.frames[-1]))),
        "provenance": field.provenance,
    }
    if args.out:
        save_field(field, args.out)
        payload["field_file"] = args.out
    if args.csv:
        export_csv(field, args.csv)
        payload["csv"] = args.csv
    _emit(args, payload, "pde")
    return EXIT_OK


def _clip_to_strip(trip, xrange_, trange, margin=0.1):
    """Shrink an (x, t) window so s = sx*x + st*t stays well inside the
    strip: the closed forms have c ~ 1/sqrt(L) near the edges, so a thin
    margin makes the frame ODE stiff there.  The sine-Gordon triple (sx = st
    = 0, an unbounded strip) leaves the window as it is."""
    lo, hi = trip.validity
    width = hi - lo if np.isfinite(hi - lo) else 1.0
    lo2 = lo + margin * width if np.isfinite(lo) else -np.inf
    hi2 = hi - margin * width if np.isfinite(hi) else np.inf
    (xlo, xhi), (tlo, thi) = xrange_, trange
    if trip.sx == 0.0 and trip.st != 0.0:
        a, b = sorted((lo2 / trip.st, hi2 / trip.st))
        tlo, thi = max(tlo, a), min(thi, b)
    elif trip.sx != 0.0:
        # keep the t-range, shrink x so every corner maps inside (st = 0 included)
        smin = min(trip.st * tlo, trip.st * thi)
        smax = max(trip.st * tlo, trip.st * thi)
        a, b = sorted(((lo2 - smin) / trip.sx, (hi2 - smax) / trip.sx))
        xlo, xhi = max(xlo, a), min(xhi, b)
    if xlo >= xhi or tlo > thi:
        raise _UsageError(
            f"field domain and triple validity {trip.validity} do not overlap; "
            "adjust --sigma/--beta/--Cstrip or pass --origin"
        )
    return (xlo, xhi), (tlo, thi)


def _cmd_reconstruct(args):
    from .frames import export_obj, integrate_frame, write_diagnostics
    from .pde import Grid1D, kink_field, load_field

    fam = _load(args)
    trip = solve_triple(fam, _immersion_params(args))
    if isinstance(trip, NoImmersion):
        _emit(args, {"family": fam.name, "result": "no-immersion",
                     "proposition": trip.proposition}, "reconstruct")
        return EXIT_NO_IMMERSION
    nxs, nts = args.grid
    if args.soliton or (fam.params.branch == "SINE_GORDON" and not args.field):
        field = kink_field(args.eta, Grid1D(-6.0, 6.0, 16), t_span=(-6.0, 6.0))
        # one-sided window: the immersion is regular for u in (0, pi); the
        # cusp edge sin(u) = 0 and the far trumpet ends are excluded
        origin = tuple(args.origin) if args.origin else (-2.1, -2.1)
        hx = 1.9 / nxs
        ht = 1.9 / nts
    elif args.field:
        field = load_field(args.field)
        (xlo, xhi), (tlo, thi) = field.domain()
        (xlo, xhi), (tlo, thi) = _clip_to_strip(trip, (xlo, xhi), (tlo, thi))
        origin = tuple(args.origin) if args.origin else (xlo, tlo)
        if args.extent:
            xhi = min(xhi, origin[0] + args.extent[0])
            thi = min(thi, origin[1] + args.extent[1])
        hx = (xhi - origin[0]) / nxs
        ht = (thi - origin[1]) / nts
        if not hx > 0:
            raise _UsageError("the requested window lies outside the triple's validity strip")
        if not ht > 0:
            raise _UsageError(f"the requested window has no t extent: origin t {origin[1]!r} "
                              f"is not below the usable t bound {thi!r}")
    else:
        raise _UsageError("reconstruct needs --soliton or --field")
    mesh = integrate_frame(fam, trip, field, origin=origin, steps=(nxs, nts), h=(hx, ht))
    payload = {
        "family": fam.name,
        "grid": [nxs, nts],
        "origin": list(origin),
        "diagnostics": {k: v for k, v in mesh.diagnostics.items()},
    }
    if args.out:
        export_obj(mesh, args.out)
        write_diagnostics(mesh, args.out + ".json")
        payload["obj"] = args.out
        payload["diagnostics_file"] = args.out + ".json"
    _emit(args, payload, "reconstruct")
    return EXIT_OK


_COMMANDS = {
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
    "sff": _cmd_sff,
    "codazzi": _cmd_codazzi,
    "pde": _cmd_pde,
    "reconstruct": _cmd_reconstruct,
}


def run(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, argv)
        _check_ranges(args)
        # every command refuses or fails a non-finite result itself, so
        # numpy's warnings about computing one would only add lines
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"pss: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExprError as exc:  # the offset is into the expression's text, so name it
        where = "" if exc.source is None else f" in {exc.source!r}"
        print(f"pss: {exc}{where}", file=sys.stderr)
        return EXIT_USAGE
    except (CatalogError, ConstraintViolation, InvalidStrip, OSError) as exc:
        print(f"pss: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DiscriminantCollapse, TripleDomainError, RuntimeError) as exc:
        # run-level failures: collapse at the IVP point, domain exceeded,
        # frame drift, blow-up
        print(f"pss: {exc}", file=sys.stderr)
        return EXIT_FAIL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
