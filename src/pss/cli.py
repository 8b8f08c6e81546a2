"""Command-line entry point: catalog -> verify -> sff/codazzi -> pde -> reconstruct.

Exit codes: 0 pass/success, 1 usage or configuration error, 2 verification
failure (including PDE blow-up), 3 no-immersion (the expected negative
result for the T23/T25 branches, still reported).

Each subcommand takes only the flags it reads: --seed and --samples on
verify and codazzi, --tol on those and sff; only reconstruct --soliton
reaches the sine-Gordon kink.  A JSON config file may mirror any long
flag (dashes become underscores).  It is parsed ahead of the command
line, so explicit flags win, abbreviated or not, and every config value
gets its flag's check.  With --deterministic the report contains no
timestamp, so identical argv + seed give byte-identical files; a
non-finite value is written as null.

Each command returns its report and exit code, and `run` writes the
report after the command returns.  So when the report goes to stdout, a
failing verdict's one stderr line comes before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .catalog import PRESETS, CatalogError, ConstraintViolation, load_family, read_json
from .expr import ExprError
from .immersion import (
    MAX_ODE_STEPS,
    ImmersionParams,
    InvalidStrip,
    NoImmersion,
    Representation,
    TripleDomainError,
    codazzi_residuals,
    gauss_residual,
    json_text,
    solve_triple,
)
from .verifier import DEFAULT_SEED, _jet_blocks, certify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_NO_IMMERSION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -2 and -2.5 for values; a word that starts as a
        # number (-1e-3, -inf, -nan) is one too, so the flag's type checks it
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

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


def _value(cast, ok, what):
    """An argparse type: cast(text) for which ok holds, else "must be {what}"."""

    def parse(text):
        try:
            v = cast(text)
            if ok(v):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")

    return parse


def _int_from(lo, what):
    """An argparse type: an integer >= lo, named `what` in the error."""
    return _value(int, lambda n: n >= lo, what)


_finite = _value(float, math.isfinite, "finite")
_positive = _value(float, lambda v: v > 0, "> 0")  # inf passes: a tolerance or extent with no bound
_step = _value(float, lambda v: 0 < v < math.inf, "finite and > 0")
_nonzero = _value(float, lambda v: math.isfinite(v) and v != 0, "finite and nonzero")


@functools.cache
def build_parser():
    """The parser, built once per process: parsing never mutates it, and
    `_apply_config` parses into the namespace it is given."""
    p = _Parser(prog="pss", description="pseudospherical-surface toolkit")
    p.add_argument("--version", action="version", version=f"pss {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, jets=False, tol=False, immersion=False):
        sp.set_defaults(_parser=sp)  # lets _apply_config check values against this parser's flags
        sp.add_argument("--preset", choices=sorted(PRESETS))
        sp.add_argument("--family", help="path to a family spec JSON")
        sp.add_argument("--config", help="JSON config mirroring flags (flags win)")
        sp.add_argument("--report", help="write the JSON report here (default: stdout)")
        sp.add_argument("--deterministic", action="store_true",
                        help="omit timestamps so reports are byte-identical")
        if jets:  # the commands that draw random jets
            sp.add_argument("--seed", type=_int_from(0, "a non-negative integer"), default=DEFAULT_SEED)
            sp.add_argument("--samples", type=_int_from(1, "a positive integer"), default=1000)
        if tol:
            sp.add_argument("--tol", type=_positive, default=1e-8)
        if immersion:
            sp.add_argument("--sign", type=_sign, default=None, help="family sign (+/-)")
            sp.add_argument("--a-sign", dest="a_sign", type=_sign, default=1)
            sp.add_argument("--beta", type=_finite, default=0.0)
            sp.add_argument("--Cstrip", dest="Cstrip", type=_finite, default=None)
            sp.add_argument("--sigma", type=_finite, default=None)
            sp.add_argument("--b0", type=_finite, default=0.0)
            sp.add_argument("--s0", type=_finite, default=0.0)
            sp.add_argument("--h", type=_step, default=1e-3)
            sp.add_argument("--eps", type=_step, default=1.0)

    sp = sub.add_parser("catalog", help="list presets / validate a family spec")
    common(sp)

    sp = sub.add_parser("verify", help="structure equations + classification conditions")
    common(sp, jets=True, tol=True)

    sp = sub.add_parser("sff", help="second-fundamental-form triple (CSV export)")
    common(sp, tol=True, immersion=True)
    sp.add_argument("--out", help="CSV path for the triple table")

    sp = sub.add_parser("codazzi", help="cross-check a triple against its family")
    common(sp, jets=True, tol=True, immersion=True)

    sp = sub.add_parser("pde", help="method-of-lines solve on a periodic grid")
    common(sp)
    sp.add_argument("--nx", type=_int_from(16, "an integer >= 16"), default=256)
    sp.add_argument("--xmin", type=_finite, default=0.0)
    sp.add_argument("--xmax", type=_finite, default=2.0 * np.pi)
    sp.add_argument("--tmax", type=_step, default=1.0)
    sp.add_argument("--dt", type=_step, default=1e-3)
    sp.add_argument("--space", default="spectral", choices=["spectral", "2", "4"])
    sp.add_argument("--nsave", type=_int_from(2, "an integer >= 2"), default=33,
                    help="snapshot spacing: t = 0, every max(1, steps // (nsave - 1))-th step "
                         "and the last step are stored (33 over 1000 steps stores 34); >= 2")
    sp.add_argument("--u0", default="0.1 + 0.05*cos(x)", help="initial data, an expression in x")
    sp.add_argument("--out", help="write the field in PSSF format")
    sp.add_argument("--csv", help="also export x,t,u rows")

    sp = sub.add_parser("reconstruct", help="integrate the moving frame into an OBJ mesh")
    common(sp, immersion=True)
    sp.add_argument("--soliton", action="store_true", help="use the exact sine-Gordon kink field")
    sp.add_argument("--eta", type=_nonzero, default=1.0)
    sp.add_argument("--field", help="reconstruct over a saved PSSF field")
    sp.add_argument("--grid", type=_grid, default=(200, 200))
    sp.add_argument("--origin", type=_finite, nargs=2, default=None, metavar=("X0", "T0"))
    sp.add_argument("--extent", type=_positive, nargs=2, default=None, metavar=("DX", "DT"),
                    help="window size from the origin (default: all of the usable domain)")
    sp.add_argument("--out", help="OBJ output path")
    # a config may mirror the long flags of every subcommand (a key another
    # subcommand owns is ignored), but not --config or --help
    p.config_keys = {a.dest for sp in sub.choices.values() for a in sp._actions
                     if a.option_strings and a.dest not in ("config", "help")}
    return p


def _apply_config(args, argv):
    """Parse the config as flags of this subcommand, then the words after the
    subcommand: each value gets its flag's checks, and argparse keeps a
    flag's last occurrence, so an explicit flag wins, abbreviated or not."""
    if not getattr(args, "config", None):
        return args
    doc = read_json(args.config)
    if not isinstance(doc, dict):
        raise _UsageError(f"config: must be a JSON object, got {json.dumps(doc)}")
    unknown = set(doc) - build_parser().config_keys
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    actions = {a.dest: a for a in args._parser._actions}
    flags = []
    for key, val in doc.items():
        action = actions.get(key)
        if action is None:
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
    # the words after the subcommand parsed alone, so a failure here is the config's
    words = argv[argv.index(args.command) + 1:]
    try:
        return args._parser.parse_args([*flags, *words], namespace=argparse.Namespace(command=args.command))
    except _UsageError as exc:
        raise _UsageError(f"config: {exc}") from exc


def _config_text(val):
    return val if isinstance(val, str) else json.dumps(val)


def _check_ranges(args):
    """The rules that read two flags; each flag's type checks its own value."""
    if hasattr(args, "h") and args.eps / args.h > MAX_ODE_STEPS + 0.5:
        raise _UsageError(f"--eps / --h must be at most {MAX_ODE_STEPS} b-ODE steps per direction")
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
    """The family of --family or --preset, built once, with --sign, where
    given, in place of the spec's sign."""
    sign = getattr(args, "sign", None)
    if getattr(args, "family", None):
        return load_family(args.family, sign=sign)
    if getattr(args, "preset", None):
        return PRESETS[args.preset](sign=sign)
    raise _UsageError("one of --preset or --family is required")


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


def _emit(args, payload):
    doc = {
        "tool": "pss",
        "version": __version__,
        "command": args.command,
        "config": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "config") and not k.startswith("_")
        },
    }
    doc.update(payload)
    if not args.deterministic:
        doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = json_text(doc)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _no_immersion(fam, trip):
    """The report of a branch the paper proves admits no immersion."""
    return {"family": fam.name, "result": "no-immersion", "proposition": trip.proposition}


# ----------------------------------------------------------------------
# Subcommands


def _cmd_catalog(args):
    if not args.preset and not args.family:
        return {"presets": sorted(PRESETS)}, EXIT_OK
    try:
        fam = _load(args)
    except ConstraintViolation as exc:  # reported, not thrown
        return {"family": args.family or args.preset, "branch": exc.branch, "violations": exc.violations,
                "verdict": "fail"}, EXIT_FAIL
    return {"family": fam.name, "branch": fam.params.branch, "violations": [], "verdict": "pass",
            "spec": fam.to_dict(), "derived": fam.derived()}, EXIT_OK


def _cmd_verify(args):
    fam = _load(args)
    rep = certify(fam, samples=args.samples, tol=args.tol, seed=args.seed)
    payload = rep.to_dict()
    if rep.verdict == "pass":
        return payload, EXIT_OK
    maxima = {k: v for k, v in rep.residuals.items() if k != "c42_min"}
    if all(v <= args.tol for v in maxima.values()):  # so only the nondegeneracy witness failed
        c42 = rep.residuals["c42_min"]
        print(f"pss: c42_min {c42:.3e}, the nondegeneracy witness, is not above the tolerance", file=sys.stderr)
        return payload, EXIT_FAIL
    return payload, _fail_on_worst(maxima, args.tol)


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
        return {**_no_immersion(fam, trip), "reason": trip.reason}, EXIT_NO_IMMERSION
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
    scaled = 0.0
    if trip.representation != Representation.SOLUTION_DEPENDENT:
        a, b, c = trip.abc(trip.strip_samples(256))
        res = np.abs(gauss_residual(a, b, c))
        payload["gauss_residual_max"] = float(np.max(res))
        # like verify's residuals, judged against the magnitude of its terms
        scaled = float(np.max(res / np.maximum(1.0, np.maximum(np.abs(a * c), b * b))))
    if not scaled <= args.tol:  # NaN fails too
        print(f"pss: Gauss residual {scaled:.3e} on the strip, scaled by max(1, |ac|, b^2), "
              f"exceeds --tol {args.tol:g}", file=sys.stderr)
        return payload, EXIT_FAIL
    return payload, EXIT_OK


def _cmd_codazzi(args):
    fam = _load(args)
    trip = solve_triple(fam, _immersion_params(args))
    if isinstance(trip, NoImmersion):
        return _no_immersion(fam, trip), EXIT_NO_IMMERSION
    n = args.samples
    per_jet = trip.representation == Representation.SOLUTION_DEPENDENT
    s = None if per_jet else trip.strip_samples(n)
    peaks, start = [], 0
    for env in _jet_blocks(fam, n, np.random.default_rng(args.seed)):
        m = len(env["z0"])
        if per_jet:
            xv = tv = 0.0
        else:
            # jet j meets strip point j, s = sx*x + st*t on whichever axis has a nonzero coefficient
            sb = s[start:start + m]
            xv, tv = (sb / trip.sx, np.zeros(m)) if trip.sx else (np.zeros(m), sb / trip.st)
        e1, e2 = codazzi_residuals(fam, trip, env, xv, tv)
        peaks.append((np.max(np.abs(e1)), np.max(np.abs(e2))))
        start += m
    # np.max, not max: a NaN block maximum must reach the report
    e1_max, e2_max = (float(np.max(col)) for col in zip(*peaks))
    s_desc = "per-jet u" if per_jet else f"{n} strip points"
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
    if payload["verdict"] == "pass":
        return payload, EXIT_OK
    return payload, _fail_on_worst({"E1_max": e1_max, "E2_max": e2_max}, args.tol)


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
        print(f"pss: {exc}", file=sys.stderr)
        return {"family": fam.name, "result": "blow-up", "t": exc.t, "amplitude": exc.amplitude}, EXIT_FAIL
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
    return payload, EXIT_OK


def _clip_to_strip(trip, xrange_, trange):
    """Shrink an (x, t) window so s = sx*x + st*t stays well inside the
    strip: the closed forms have c ~ 1/sqrt(L) near the edges, so a thin
    margin makes the frame ODE stiff there.  The sine-Gordon triple (sx = st
    = 0, an unbounded strip) leaves the window as it is."""
    lo, hi = trip.validity
    margin = 0.1 * (hi - lo if np.isfinite(hi - lo) else 1.0)
    lo2 = lo + margin if np.isfinite(lo) else -np.inf
    hi2 = hi - margin if np.isfinite(hi) else np.inf
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
    if args.soliton and fam.is_form7:
        raise _UsageError(f"--soliton needs the sine-Gordon family, not {fam.name} (branch {fam.params.branch})")
    if args.soliton and (args.field or args.extent):
        raise _UsageError("--soliton uses the kink's own 1.9 x 1.9 window; it takes no --field or --extent")
    trip = solve_triple(fam, _immersion_params(args))
    if isinstance(trip, NoImmersion):
        return _no_immersion(fam, trip), EXIT_NO_IMMERSION
    nxs, nts = args.grid
    if args.soliton:
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
        "diagnostics": dict(mesh.diagnostics),
    }
    if args.out:
        export_obj(mesh, args.out)
        write_diagnostics(mesh, args.out + ".json")
        payload["obj"] = args.out
        payload["diagnostics_file"] = args.out + ".json"
    return payload, EXIT_OK


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
            payload, code = _COMMANDS[args.command](args)
        _emit(args, payload)
        return code
    except ExprError as exc:  # the offset is into the expression's text, so name it
        where = "" if exc.source is None else f" in {exc.source!r}"
        print(f"pss: {exc}{where}", file=sys.stderr)
        return EXIT_USAGE
    except (_UsageError, CatalogError, InvalidStrip, OSError) as exc:
        print(f"pss: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TripleDomainError, RuntimeError) as exc:
        # run-level failures: collapse at the IVP point, domain exceeded,
        # frame drift, blow-up
        print(f"pss: {exc}", file=sys.stderr)
        return EXIT_FAIL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
