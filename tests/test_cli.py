"""Command-line interface: exit codes, reports, determinism, config files."""

import json
import warnings
from dataclasses import replace

import numpy as np

from pss import cli
from pss.catalog import delta, novikov_preset
from pss.cli import EXIT_FAIL, EXIT_NO_IMMERSION, EXIT_OK, EXIT_USAGE, build_parser, run
from pss.immersion import ImmersionTriple, Representation, solve_triple
from pss.pde import load_field
from pss.verifier import sample_envs
from references import columns


def test_verify_novikov_passes(tmp_path):
    rep = tmp_path / "report.json"
    code = run(["verify", "--preset", "novikov", "--samples", "1000", "--tol", "1e-8",
                "--report", str(rep), "--deterministic"])
    assert code == EXIT_OK
    doc = json.loads(rep.read_text())
    assert doc["verdict"] == "pass"
    assert doc["residuals"]["R1_max"] <= 1e-8
    assert "timestamp" not in doc
    assert doc["config"]["preset"] == "novikov"
    assert doc["version"]


def test_verify_failure_exit_code(tmp_path):
    # a corrupted family spec: T23 with an eta3 that violates the quadratic
    spec = {"branch": "T23", "params": {"lam": 1.0, "eta2": 1.0, "mu3": 0.0, "eta3": 0.5},
            "f": "s", "sign": 1}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(spec))
    code = run(["verify", "--family", str(p), "--deterministic"])
    assert code == EXIT_USAGE  # constraint violations surface at load time


def test_sff_no_immersion_exit_3(tmp_path):
    rep = tmp_path / "r.json"
    for preset, prop in (("t23-demo", "Proposition 4.2"),
                         ("t25i-demo", "Proposition 4.4"),
                         ("t25ii-demo", "Proposition 4.5")):
        code = run(["sff", "--preset", preset, "--report", str(rep), "--deterministic"])
        assert code == EXIT_NO_IMMERSION
        doc = json.loads(rep.read_text())
        assert doc["proposition"] == prop


def test_sff_closed_form_csv(tmp_path):
    rep = tmp_path / "r.json"
    csv = tmp_path / "triple.csv"
    code = run(["sff", "--preset", "t22-demo", "--Cstrip", "3", "--beta", "1",
                "--out", str(csv), "--report", str(rep), "--deterministic"])
    assert code == EXIT_OK
    doc = json.loads(rep.read_text())
    assert doc["gauss_residual_max"] <= 1e-12
    assert csv.read_text().splitlines()[0] == "s,a,b,c,gauss_residual"


def test_codazzi_subcommand(tmp_path):
    rep = tmp_path / "r.json"
    code = run(["codazzi", "--preset", "novikov", "--sigma", "3", "--beta", "0.5",
                "--samples", "200", "--tol", "1e-8", "--report", str(rep), "--deterministic"])
    assert code == EXIT_OK
    doc = json.loads(rep.read_text())
    assert doc["E1_max"] <= 1e-8 and doc["E2_max"] <= 1e-8


def _codazzi_with(tmp_path, monkeypatch, argv, change):
    """(exit code, report, representation) of `codazzi argv` run on change(triple, params)."""
    seen = []

    def solve(fam, ip):
        trip = solve_triple(fam, ip)
        seen.append(trip.representation)
        return change(trip, ip)

    monkeypatch.setattr(cli, "solve_triple", solve)
    rep = tmp_path / "r.json"
    code = run(["codazzi", *argv, "--report", str(rep), "--deterministic"])
    return code, json.loads(rep.read_text()), seen[0]


def _scale_b(trip, factor):
    """The triple with b and b' scaled by factor, a and c kept."""
    abc_derivs = trip.abc_derivs

    def scaled(s):
        a, b, c, ap, bp, cp = abc_derivs(s)
        return a, factor * b, c, ap, factor * bp, cp

    trip.abc_derivs = scaled
    return trip


NOVIKOV_STRIP = ["--preset", "novikov", "--sigma", "3", "--beta", "0.5"]


def _bend_b(trip, k):
    """The triple with b replaced by (1 + k*s^2) b and b' to match, a and c
    kept: the values and the derivatives are right at s = 0 only."""
    abc_derivs = trip.abc_derivs

    def bent(s):
        a, b, c, ap, bp, cp = abc_derivs(s)
        return a, (1.0 + k * s * s) * b, c, ap, (1.0 + k * s * s) * bp + 2.0 * k * s * b, cp

    trip.abc_derivs = bent
    return trip


def test_codazzi_rejects_a_wrong_triple_of_each_representation(tmp_path, monkeypatch):
    spec = tmp_path / "t24.json"
    spec.write_text(json.dumps({"branch": "T24", "params": {"mu2": 0.6, "eta2": 1.0, "lam": 1.0, "C": 0.3},
                                "f": "s", "phi12": "z1"}))
    # eta2 = 0: s = C*t (Prop 4.3(iii) with no x term), so the strip lies along t
    spec_t = tmp_path / "t24t.json"
    spec_t.write_text(json.dumps({"branch": "T24", "params": {"mu2": 0.6, "eta2": 0, "lam": 1, "C": 0.3},
                                  "f": "s", "phi12": "z1"}))
    table = [
        # (argv, representation, a wrong triple): cbar and rho set the exponent of E(s) = exp(ce*s)
        (NOVIKOV_STRIP, Representation.CLOSED_FORM, lambda t, ip: replace(t, cbar=1.001 * t.cbar)),
        (["--family", str(spec), "--beta", "0.3", "--b0", "1.2", "--eps", "0.3"], Representation.ODE_TABLE,
         lambda t, ip: type(t)(t.branch_label, t.svar, t.sx, t.st, t.mu2, t.beta, 1.001 * t.rho,
                               t.sign, t.a_sign, ip)),
        (["--preset", "sine-gordon"], Representation.SOLUTION_DEPENDENT, lambda t, ip: _scale_b(t, 1.001)),
        (["--family", str(spec_t), "--beta", "0.3", "--b0", "1.2", "--eps", "0.3"], Representation.ODE_TABLE,
         lambda t, ip: _bend_b(t, 0.1)),
    ]
    for argv, representation, wrong in table:
        code, doc, seen = _codazzi_with(tmp_path, monkeypatch, argv, lambda t, ip: t)
        assert (code, doc["verdict"], seen) == (EXIT_OK, "pass", representation)
        code, doc, _ = _codazzi_with(tmp_path, monkeypatch, argv, wrong)
        assert (code, doc["verdict"]) == (EXIT_FAIL, "fail"), argv
        assert max(doc["E1_max"], doc["E2_max"]) > 1e-3, argv


def test_codazzi_passes_the_symmetries_of_the_novikov_triple(tmp_path, monkeypatch):
    # novikov is T24 with mu2 = 0, eta2 = 1, C = 0: the triple depends on x
    # alone, f22 = 0, Delta13 = 0 and Delta23 = f12, so the two combinations are
    #     E1 = -f12 a' + (a - c) Delta23,    E2 = f12 (2b - b').
    # E1 is linear in (a, c) and free of b; E2 is linear in b and free of
    # (a, c).  Flipping the sign of b, or of a (which flips c), keeps both at
    # zero.  E2 also vanishes for any b with b' = 2b, so it cannot see a b of
    # the wrong size: only the Gauss equation (checked by sff) fixes it.
    fam = novikov_preset()
    env = sample_envs(fam, 200, np.random.default_rng(0))
    assert np.all(fam.fij(2, 2)(env) == 0.0) and np.all(delta(*columns(fam, env), 1, 3) == 0.0)
    assert np.allclose(delta(*columns(fam, env), 2, 3), fam.fij(1, 2)(env), rtol=1e-14, atol=0.0)
    for same in (lambda t, ip: replace(t, bsign=-t.bsign),
                 lambda t, ip: replace(t, a_sign=-t.a_sign),
                 lambda t, ip: _scale_b(t, 1.001)):
        code, doc, _ = _codazzi_with(tmp_path, monkeypatch, NOVIKOV_STRIP, same)
        assert code == EXIT_OK and doc["E1_max"] <= 1e-12 and doc["E2_max"] <= 1e-12


def test_pde_csv_bytes_equal_the_per_cell_writer(tmp_path):
    field, csv = tmp_path / "f.pssf", tmp_path / "u.csv"
    assert run(["pde", "--preset", "novikov", "--nx", "16", "--dt", "1e-3", "--tmax", "0.01",
                "--out", str(field), "--csv", str(csv), "--report", str(tmp_path / "r.json"),
                "--deterministic"]) == EXIT_OK
    f = load_field(field)
    want = ["x,t,u\n"]  # the former writer of pde.export_csv, one f-string per cell
    for j, t in enumerate(f.times):
        for i, x in enumerate(f.grid.nodes()):
            want.append(f"{float(x)!r},{float(t)!r},{float(f.frames[j, i])!r}\n")
    assert len(want) == 1 + 11 * 16
    assert csv.read_bytes() == "".join(want).encode("utf-8")


def test_usage_error_exit_1(capsys):
    assert run(["verify"]) == EXIT_USAGE
    assert run(["sff", "--preset", "novikov", "--tol", "-1"]) == EXIT_USAGE
    assert "pss:" in capsys.readouterr().err


def test_bad_seed_and_non_finite_immersion_flags_are_one_line(tmp_path, capsys):
    spec = tmp_path / "t24.json"
    spec.write_text(json.dumps({"branch": "T24", "params": {"mu2": 0.6, "eta2": 1.0, "lam": 1.0, "C": 0.3},
                                "f": "s", "phi12": "z1"}))
    ode = ["sff", "--family", str(spec), "--beta", "0.3", "--b0", "1.2"]
    seed_line = "pss: argument --seed: must be a non-negative integer, got '-1'\n"
    table = [
        # (argv, stderr line)
        (["verify", "--preset", "novikov", "--seed", "-1"], seed_line),
        (["codazzi", "--preset", "novikov", "--sigma", "3", "--beta", "0.5", "--seed", "-1"], seed_line),
        ([*ode, "--eps", "inf"], "pss: --eps must be finite\n"),
        ([*ode, "--h", "inf"], "pss: --h must be finite\n"),
        ([*ode, "--h=-inf"], "pss: --h must be > 0\n"),
        ([*ode, "--s0", "inf"], "pss: --s0 must be finite\n"),
        ([*ode, "--b0", "inf"], "pss: --b0 must be finite\n"),
        ([*ode, "--beta", "nan"], "pss: --beta must be finite\n"),
        (["sff", "--preset", "t22-demo", "--Cstrip", "inf"], "pss: --Cstrip must be finite\n"),
        (["sff", "--preset", "t22-demo", "--Cstrip", "3", "--beta=-inf"], "pss: --beta must be finite\n"),
        (["sff", "--preset", "novikov", "--sigma", "inf"], "pss: --sigma must be finite\n"),
        (["codazzi", "--preset", "novikov", "--sigma", "nan"], "pss: --sigma must be finite\n"),
        (["reconstruct", "--preset", "sine-gordon", "--soliton", "--eps", "inf"], "pss: --eps must be finite\n"),
        # about 1e300 steps per direction: refused before the march starts
        ([*ode, "--h", "1e-300", "--eps", "1"], "pss: --eps / --h must be at most 1000000 b-ODE steps per direction\n"),
        ([*ode, "--h", "1e-300", "--eps", "1e300"],
         "pss: --eps / --h must be at most 1000000 b-ODE steps per direction\n"),
        ([*ode, "--h", "1e-6", "--eps", "1.0000006"],
         "pss: --eps / --h must be at most 1000000 b-ODE steps per direction\n"),
        *((["reconstruct", "--preset", "sine-gordon", "--soliton", "--eta", eta],
           "pss: --eta must be finite and nonzero\n") for eta in ("inf", "nan", "0")),
    ]
    rep = tmp_path / "r.json"
    for argv, line in table:
        code = run([*argv, "--report", str(rep), "--deterministic"])
        assert (code, capsys.readouterr().err) == (EXIT_USAGE, line), argv
        assert not rep.exists()
    # finite flags whose b-ODE start overflows (delta = inf, so den and its
    # floor are inf) are refused at s0 in one line, not marched as NaN
    for argv in ([*ode, "--b0", "1e300"], [*ode, "--beta", "1e300"], ["codazzi", *ode[1:], "--b0", "1e300"]):
        code = run([*argv, "--eps", "0.3", "--report", str(rep), "--deterministic"])
        assert (code, capsys.readouterr().err) == (EXIT_FAIL, "pss: discriminant collapsed at s = 0.0\n"), argv
        assert not rep.exists()
    # exactly the cap is accepted (a closed-form triple marches nothing)
    assert run(["sff", "--preset", "novikov", "--sigma", "3", "--beta", "0.5", "--h", "1e-6", "--eps", "1",
                "--report", str(rep), "--deterministic"]) == EXIT_OK


def test_catalog_lists_presets(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["catalog", "--report", str(rep), "--deterministic"]) == EXIT_OK
    doc = json.loads(rep.read_text())
    assert "novikov" in doc["presets"]


def test_catalog_validates_family(tmp_path):
    spec = {"branch": "T24", "params": {"lam": 0.0, "eta2": 5.0, "C": 0.0},
            "f": "s", "phi12": "z1", "sign": 1}
    p = tmp_path / "bad24.json"
    p.write_text(json.dumps(spec))
    rep = tmp_path / "r.json"
    code = run(["catalog", "--family", str(p), "--report", str(rep), "--deterministic"])
    assert code == EXIT_FAIL
    doc = json.loads(rep.read_text())
    assert doc["verdict"] == "fail"
    assert any("(lam*eta2)^2 + C^2 != 0" in v for v in doc["violations"])

    good = {"branch": "T24", "params": {"lam": 1.0, "eta2": 1.0, "C": 0.0},
            "f": "s", "phi12": "z0*(z1-z0)^2", "sign": 1}
    p.write_text(json.dumps(good))
    assert run(["catalog", "--family", str(p), "--report", str(rep), "--deterministic"]) == EXIT_OK


def test_family_spec_types_are_checked(tmp_path, capsys):
    base = {"branch": "T22", "params": {"mu2": 0.0, "eta2": 1.0}, "f": "s", "phi12": "z1", "sign": 1}

    def spec(**change):
        return {**base, **change}

    def with_params(**change):
        return spec(params={**base["params"], **change})

    table = [
        # (spec, stderr line after "pss: family spec: "; None for a spec that loads)
        (["T22"], 'must be a JSON object, got ["T22"]'),
        (spec(params=None), "params must be a JSON object, got null"),
        ({k: v for k, v in base.items() if k != "branch"}, "branch must be a string, got null"),
        (with_params(lam=None), "lam must be a number, got null"),
        (with_params(lam="x"), 'lam must be a number, got "x"'),
        (with_params(eta2=True), "eta2 must be a number, got true"),
        (spec(sign="+"), 'sign must be an integer, got "+"'),
        (spec(sign=1.0), "sign must be an integer, got 1.0"),
        (with_params(root="a"), 'root must be an integer, got "a"'),
        (with_params(mu3="x"), 'mu3 must be a number or null, got "x"'),
        (spec(f=3), "f must be a string or null, got 3"),
        (spec(params={"mu2": 0, "eta2": 1, "mu3": None, "root": -1}), None),
    ]
    for command in ("verify", "catalog"):
        for i, (doc, line) in enumerate(table):
            path = tmp_path / f"spec{i}.json"
            path.write_text(json.dumps(doc))
            rep = tmp_path / f"{command}{i}.json"
            code = run([command, "--family", str(path), "--samples", "50",
                        "--report", str(rep), "--deterministic"])
            err = capsys.readouterr().err
            if line is None:
                assert code == EXIT_OK and err == "", (command, doc, err)
            else:
                assert code == EXIT_USAGE, (command, doc)
                assert err == f"pss: family spec: {line}\n", (command, doc)
                assert not rep.exists()


def test_deterministic_reports_are_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    argv = ["verify", "--preset", "t22-demo", "--samples", "300", "--seed", "7",
            "--deterministic", "--report", str(out)]
    assert run(argv) == EXIT_OK
    first = out.read_bytes()
    assert run(argv) == EXIT_OK
    assert out.read_bytes() == first


def test_non_deterministic_report_has_timestamp(tmp_path):
    rep = tmp_path / "r.json"
    run(["catalog", "--report", str(rep)])
    assert "timestamp" in json.loads(rep.read_text())


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "t22-demo", "samples": 50}))
    rep = tmp_path / "r.json"
    code = run(["verify", "--config", str(cfg), "--samples", "120",
                "--report", str(rep), "--deterministic"])
    assert code == EXIT_OK
    doc = json.loads(rep.read_text())
    assert doc["config"]["preset"] == "t22-demo"  # from config
    assert doc["samples"] == 120  # flag wins


def test_config_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "novikov", "bogus_knob": 3}))
    assert run(["verify", "--config", str(cfg)]) == EXIT_USAGE


def test_config_mirrors_every_long_flag(tmp_path):
    """--csv from a config writes the CSV; keys that are no flag are still refused."""
    base = ["pde", "--preset", "novikov", "--nx", "32", "--tmax", "0.01", "--deterministic"]
    csv = tmp_path / "u.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"csv": str(csv)}))
    rep = tmp_path / "r.json"
    assert run([*base, "--config", str(cfg), "--report", str(rep)]) == EXIT_OK
    assert json.loads(rep.read_text())["csv"] == str(csv)
    assert csv.read_text().startswith("x,t,u\n")
    for doc in ({"csv": str(csv), "bogus_knob": 3}, {"config": "other.json"}, {"help": True}):
        cfg.write_text(json.dumps(doc))
        assert run([*base, "--config", str(cfg)]) == EXIT_USAGE, doc
    assert set(build_parser().config_keys) >= {"csv", "a_sign", "Cstrip", "extent", "soliton"}


def test_pde_subcommand_with_field_export(tmp_path):
    out = tmp_path / "field.pssf"
    rep = tmp_path / "r.json"
    code = run(["pde", "--preset", "novikov", "--nx", "64", "--tmax", "0.1", "--dt", "1e-3",
                "--out", str(out), "--report", str(rep), "--deterministic"])
    assert code == EXIT_OK
    assert out.read_bytes()[:4] == b"PSSF"
    doc = json.loads(rep.read_text())
    assert doc["result"] == "ok" and doc["snapshots"] >= 2


def test_reconstruct_subcommand(tmp_path):
    obj = tmp_path / "kink.obj"
    rep = tmp_path / "r.json"
    code = run(["reconstruct", "--preset", "sine-gordon", "--soliton",
                "--grid", "40x40", "--out", str(obj), "--report", str(rep), "--deterministic"])
    assert code == EXIT_OK
    doc = json.loads(rep.read_text())
    assert -1.05 <= doc["diagnostics"]["K_mean"] <= -0.95
    assert doc["diagnostics"]["drift_max"] <= 1e-6
    sidecar = json.loads((tmp_path / "kink.obj.json").read_text())
    assert {"K_min", "K_max", "K_mean", "drift_max", "compat_max"} <= set(sidecar)
    assert obj.read_text().startswith("#")


def test_reconstruct_no_immersion_families_exit_3(tmp_path):
    code = run(["reconstruct", "--preset", "t23-demo", "--grid", "10x10",
                "--report", str(tmp_path / "r.json"), "--deterministic"])
    assert code == EXIT_NO_IMMERSION


def test_full_pipeline_numeric_field_reconstruction(tmp_path):
    """solver -> saved field -> universal triple -> mesh: a marched Novikov
    solution reconstructs to a K = -1 surface on a window where the
    immersion stays nondegenerate (f12 has zeros elsewhere)."""
    field = tmp_path / "nov.pssf"
    rep = tmp_path / "r.json"
    assert run(["pde", "--preset", "novikov", "--nx", "256",
                "--xmin", "0", "--xmax", "6.283185307179586",
                "--tmax", "0.2", "--dt", "5e-4", "--nsave", "401",
                "--u0", "1 + 0.3*cos(x)",
                "--out", str(field), "--report", str(rep), "--deterministic"]) == EXIT_OK
    assert run(["reconstruct", "--preset", "novikov", "--field", str(field),
                "--sigma", "3", "--beta", "0.5", "--grid", "32x32",
                "--origin", "0.02", "0.02", "--extent", "0.36", "0.16",
                "--report", str(rep), "--deterministic"]) == EXIT_OK
    dd = json.loads(rep.read_text())["diagnostics"]
    assert -1.05 <= dd["K_mean"] <= -0.95
    assert -1.05 <= dd["K_min"] and dd["K_max"] <= -0.95
    assert dd["drift_max"] <= 1e-6
    assert dd["delta12_min"] > 0.1


def test_pde_cfl_crossing_mid_march_is_one_line(tmp_path, capsys):
    # dt passes the cap at t = 0; the growing amplitude crosses it later
    code = run(["pde", "--preset", "novikov", "--nx", "64", "--xmin", "0", "--xmax", "6.283185307179586",
                "--u0", "10*sin(x)", "--dt", "2e-4", "--tmax", "0.02",
                "--report", str(tmp_path / "r.json"), "--deterministic"])
    err = capsys.readouterr().err
    assert code == EXIT_FAIL
    assert err.startswith("pss: dt = 0.0002 exceeds the heuristic cap") and err.count("\n") == 1
    assert err.rstrip().endswith("at t = 0.0128")  # crossed during the march, not at the start


def test_pss_threads_is_not_read(tmp_path, monkeypatch):
    monkeypatch.setenv("PSS_THREADS", "abc")
    rep = tmp_path / "r.json"
    assert run(["catalog", "--report", str(rep), "--deterministic"]) == EXIT_OK
    assert "threads" not in json.loads(rep.read_text())


def test_samples_must_be_positive(tmp_path, capsys):
    for command, extra in (("verify", []), ("codazzi", ["--sigma", "3", "--beta", "0.5"])):
        for bad in ("0", "-5", "ten"):
            rep = tmp_path / f"{command}.json"
            code = run([command, "--preset", "novikov", *extra, "--samples", bad,
                        "--report", str(rep), "--deterministic"])
            err = capsys.readouterr().err
            assert code == EXIT_USAGE, (command, bad)
            assert err.startswith("pss: argument --samples: must be a positive integer") and err.count("\n") == 1
            assert not rep.exists()


def test_config_values_take_the_flag_checks(tmp_path, capsys):
    table = [
        # (command, config, expected exit code, report field -> expected value)
        (["reconstruct", "--preset", "sine-gordon", "--soliton"], {"grid": "6x5"}, EXIT_OK, ("grid", [6, 5])),
        (["reconstruct", "--preset", "sine-gordon", "--soliton"], {"grid": "6x5x4"}, EXIT_USAGE, None),
        (["reconstruct", "--preset", "sine-gordon", "--soliton"], {"grid": [6, 5]}, EXIT_USAGE, None),
        (["reconstruct", "--preset", "sine-gordon", "--soliton"], {"grid": "0x0"}, EXIT_USAGE, None),
        (["reconstruct", "--preset", "sine-gordon", "--soliton"], {"grid": "10x0"}, EXIT_USAGE, None),
        (["reconstruct", "--preset", "sine-gordon", "--soliton"], {"grid": "0x10"}, EXIT_USAGE, None),
        (["reconstruct", "--preset", "sine-gordon", "--soliton"], {"grid": "-3x10"}, EXIT_USAGE, None),
        (["verify", "--preset", "t22-demo"], {"samples": 0}, EXIT_USAGE, None),
        (["verify", "--preset", "t22-demo"], {"samples": 40}, EXIT_OK, ("samples", 40)),
        (["verify", "--preset", "t22-demo"], {"seed": -1}, EXIT_USAGE, None),
        (["pde", "--preset", "novikov", "--nx", "32", "--tmax", "0.01"], {"space": "3"}, EXIT_USAGE, None),
        (["pde", "--preset", "novikov", "--nx", "32", "--tmax", "0.01"], {"space": 4}, EXIT_OK, ("result", "ok")),
        (["reconstruct", "--preset", "sine-gordon"], {"soliton": "yes"}, EXIT_USAGE, None),
    ]
    for i, (argv, cfg, want, field) in enumerate(table):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        rep = tmp_path / f"r{i}.json"
        code = run([*argv, "--config", str(path), "--report", str(rep), "--deterministic"])
        err = capsys.readouterr().err
        assert code == want, (cfg, err)
        if want == EXIT_USAGE:
            assert err.startswith("pss: config: ") and err.count("\n") == 1, err
        else:
            key, value = field
            assert json.loads(rep.read_text())[key] == value


def test_grid_sizes_must_be_positive(tmp_path, capsys):
    rep = tmp_path / "r.json"
    for bad in ("0x0", "10x0", "0x10", "-3x10"):
        code = run(["reconstruct", "--preset", "sine-gordon", "--soliton", f"--grid={bad}",
                    "--report", str(rep), "--deterministic"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, bad
        assert err == f"pss: argument --grid: grid sizes must be positive, got {bad!r}\n"
        assert not rep.exists()


def test_pde_input_checks(tmp_path, capsys):
    base = ["pde", "--preset", "novikov", "--nx", "32", "--tmax", "0.01"]
    table = [
        # (extra flags, stderr line)
        (["--tmax", "0"], "pss: --tmax must be > 0\n"),
        (["--tmax", "-1"], "pss: --tmax must be > 0\n"),
        (["--nsave", "1"], "pss: --nsave must be >= 2\n"),
        (["--nsave", "0"], "pss: --nsave must be >= 2\n"),
        (["--nx", "8"], "pss: --nx must be >= 16\n"),
        (["--nx", "0"], "pss: --nx must be >= 16\n"),
        (["--tmax", "0.0015", "--dt", "1e-3"], "pss: --tmax 0.0015 is not a whole number of --dt 0.001 steps\n"),
        (["--xmin", "1", "--xmax", "1"], "pss: --xmax must be > --xmin\n"),
        (["--dt", "0.001", "--u0", "exp(1000*cos(x))"], "pss: --u0 must be finite on the grid\n"),
        (["--u0", "1e999"], "pss: --u0 must be finite on the grid\n"),
        (["--seed", "-1"], "pss: argument --seed: must be a non-negative integer, got '-1'\n"),
        (["--tmax", "inf"], "pss: --tmax must be finite\n"),
        (["--dt", "inf"], "pss: --dt must be finite\n"),
        (["--dt", "nan"], "pss: --dt must be > 0\n"),
        (["--xmin=-inf"], "pss: --xmin must be finite\n"),
        (["--xmin", "nan"], "pss: --xmin must be finite\n"),
        (["--xmax", "inf"], "pss: --xmax must be finite\n"),
        (["--tmax", "1e300", "--dt", "1e-300"], "pss: --tmax / --dt must be at most 100000 RK4 steps\n"),
        (["--tmax", "1e6", "--dt", "1e-3"], "pss: --tmax / --dt must be at most 100000 RK4 steps\n"),
        (["--tmax", "100.001", "--dt", "1e-3"], "pss: --tmax / --dt must be at most 100000 RK4 steps\n"),
    ]
    for extra, want in table:
        rep = tmp_path / "r.json"
        code = run([*base, *extra, "--report", str(rep), "--deterministic"])
        assert code == EXIT_USAGE, extra
        assert capsys.readouterr().err == want
        assert not rep.exists()


def test_pde_runs_at_exactly_the_step_cap(tmp_path, monkeypatch, capsys):
    from pss import pde

    assert pde.MAX_PDE_STEPS == 10**5
    args = build_parser().parse_args(["pde", "--preset", "novikov", "--tmax", "100", "--dt", "1e-3"])
    cli._check_ranges(args)  # 10^5 steps are accepted (checked, not marched)
    monkeypatch.setattr(pde, "MAX_PDE_STEPS", 10)
    base = ["pde", "--preset", "novikov", "--nx", "32", "--dt", "1e-3"]
    rep = tmp_path / "r.json"
    assert run([*base, "--tmax", "0.01", "--report", str(rep), "--deterministic"]) == EXIT_OK
    doc = json.loads(rep.read_text())
    assert (doc["result"], doc["t_final"], doc["snapshots"]) == ("ok", 0.01, 11)
    assert run([*base, "--tmax", "0.011", "--report", str(rep), "--deterministic"]) == EXIT_USAGE
    assert capsys.readouterr().err == "pss: --tmax / --dt must be at most 10 RK4 steps\n"


def test_overflowing_float_power_is_one_line(tmp_path, capsys):
    spec = {"branch": "T22", "params": {"mu2": 0.3, "eta2": 1}, "f": "s + 1e200^2", "phi12": "z1"}
    fam = tmp_path / "t22.json"
    fam.write_text(json.dumps(spec))
    for argv, want in [
        (["verify", "--family", str(fam), "--samples", "10"], "pss: power overflows (offset 9) in 's + 1e200^2'\n"),
        (["pde", "--preset", "novikov", "--nx", "32", "--tmax", "0.01", "--u0", "1e200^2*0+cos(x)"],
         "pss: power overflows (offset 5) in '1e200^2*0+cos(x)'\n"),
    ]:
        rep = tmp_path / "r.json"
        assert run([*argv, "--report", str(rep), "--deterministic"]) == EXIT_USAGE, argv
        assert capsys.readouterr().err == want
        assert not rep.exists()


def test_expression_errors_name_their_expression(tmp_path, capsys):
    """Parse and evaluation errors name the expression their offset points
    into; its repr keeps a newline in the source on the one stderr line."""
    def spec(**exprs):
        path = tmp_path / f"spec{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps({"branch": "T22", "params": {"mu2": 0.3, "eta2": 1},
                                    "f": "s", "phi12": "z1", **exprs}))
        return ["verify", "--family", str(path), "--samples", "10"]

    pde = ["pde", "--preset", "novikov", "--nx", "32", "--tmax", "0.01"]
    for argv, want in [
        (spec(phi12="z1 + 1/0"), "pss: division by zero (offset 6) in 'z1 + 1/0'\n"),
        (spec(phi12="z1 + q"), "pss: unknown identifier 'q' (offset 5) in 'z1 + q'\n"),
        (spec(f="s +\n$"), "pss: unexpected character '$' (offset 4) in 's +\\n$'\n"),
        ([*pde, "--u0", "1/(x-x)"], "pss: division by zero (offset 1) in '1/(x-x)'\n"),
    ]:
        rep = tmp_path / "r.json"
        assert run([*argv, "--report", str(rep), "--deterministic"]) == EXIT_USAGE, argv
        assert capsys.readouterr().err == want
        assert not rep.exists()


def test_t22_with_C_ends_as_t22_with_lam(tmp_path, capsys):
    """C, like lam, has no place in a T22 spec: one stderr line and the same exit code."""
    for key, line in (("lam", "T22 has no lam*u^2*u_xxx term (lam must be 0)"),
                      ("C", "T22 has no C term (C must be 0)")):
        path = tmp_path / f"t22-{key}.json"
        path.write_text(json.dumps({"branch": "T22", "params": {"eta2": 1, key: 0.5}, "f": "s", "phi12": "z1"}))
        assert run(["verify", "--family", str(path), "--deterministic"]) == EXIT_USAGE, key
        assert capsys.readouterr().err == f"pss: {line}\n"
        rep = tmp_path / "catalog.json"
        assert run(["catalog", "--family", str(path), "--report", str(rep), "--deterministic"]) == EXIT_FAIL, key
        assert json.loads(rep.read_text())["violations"] == [line]


def test_sine_gordon_triple_leaves_a_field_window_as_it_is():
    from pss.catalog import sine_gordon_preset
    from pss.cli import _clip_to_strip
    from pss.immersion import ImmersionParams, solve_triple

    trip = solve_triple(sine_gordon_preset(), ImmersionParams())
    assert _clip_to_strip(trip, (-1.0, 2.0), (0.0, 0.5)) == ((-1.0, 2.0), (0.0, 0.5))


def test_sff_fails_when_the_gauss_check_fails(tmp_path, capsys, monkeypatch):
    # a triple off the Gauss equation: a shifted by 0.5 gives a*c - b^2 + 1 = 0.5*c
    abc = ImmersionTriple.abc
    monkeypatch.setattr(ImmersionTriple, "abc", lambda self, s: (lambda a, b, c: (a + 0.5, b, c))(*abc(self, s)))
    rep = tmp_path / "r.json"
    code = run(["sff", "--preset", "t22-demo", "--Cstrip", "3", "--report", str(rep), "--deterministic"])
    err = capsys.readouterr().err
    assert code == EXIT_FAIL
    assert err.startswith("pss: Gauss residual ") and err.count("\n") == 1
    assert err.rstrip().endswith("exceeds --tol 1e-08")
    assert json.loads(rep.read_text())["gauss_residual_max"] > 0.1  # the report is still written


def test_sff_ode_table_stops_before_a_pole(tmp_path, capsys):
    # this T22 march grazes a pole of b' near s = -0.0195; the table ends
    # before the step that lands on b = 4e16
    spec = {"branch": "T22", "params": {"mu2": -0.3, "eta2": 1}, "f": "s", "phi12": "z1"}
    fam = tmp_path / "t22.json"
    fam.write_text(json.dumps(spec))
    rep, csv = tmp_path / "r.json", tmp_path / "t.csv"
    argv = ["sff", "--family", str(fam), "--beta", "0.2", "--eps", "0.3", "--deterministic"]
    assert run([*argv, "--b0", "1.3", "--report", str(rep), "--out", str(csv)]) == EXIT_OK
    out = json.loads(rep.read_text())
    assert out["stops"] == {"backward": {"reason": "denominator", "s": -0.02000000000000001}}
    assert out["validity"][0] == -0.01900000000000001 and out["gauss_residual_max"] < 1e-12
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert len(rows) == out["table_points"] == 320
    assert max(abs(float(r[2])) for r in rows) < 16.2 and max(abs(float(r[4])) for r in rows) < 1e-12
    # a start where den is lost in the rounding of its terms is refused at s0
    assert run([*argv, "--b0", "30000"]) == EXIT_FAIL
    assert capsys.readouterr().err == "pss: ODE denominator collapsed at s = 0.0\n"


def test_parser_is_built_once_and_reused_cleanly(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 0.7}))
    base = ["sff", "--preset", "t22-demo", "--Cstrip", "3", "--deterministic"]

    def report(*extra):
        rep = tmp_path / "r.json"
        code = run([*base, *extra, "--report", str(rep)])
        return code, rep.read_text()

    code, text = report("--config", str(cfg))
    assert code == EXIT_OK and json.loads(text)["config"]["beta"] == 0.7
    code, fresh = report()
    assert code == EXIT_OK and json.loads(fresh)["config"]["beta"] == 0.0
    # usage errors in argv and in a config leave nothing behind
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"beta": 0.7, "h": "x"}))
    assert run([*base, "--beta", "x"]) == EXIT_USAGE
    assert run([*base, "--config", str(bad)]) == EXIT_USAGE
    assert run(["sff", "--preset", "t22-demo", "--bogus"]) == EXIT_USAGE
    assert report() == (EXIT_OK, fresh)
    capsys.readouterr()


def test_reconstruct_refuses_a_window_without_extent(tmp_path, capsys):
    field = tmp_path / "f.pssf"
    assert run(["pde", "--preset", "novikov", "--nx", "32", "--tmax", "0.02", "--dt", "1e-3",
                "--u0", "0.1+0.05*cos(x)", "--out", str(field),
                "--report", str(tmp_path / "p.json"), "--deterministic"]) == EXIT_OK
    base = ["reconstruct", "--preset", "novikov", "--sigma", "3", "--beta", "0.5",
            "--field", str(field), "--grid", "8x8"]
    rep = tmp_path / "r.json"
    table = [
        # (extra flags, config or None, stderr line)
        (["--extent", "0.3", "-1"], None, "pss: argument --extent: must be > 0, got '-1'\n"),
        (["--extent", "0.3", "0"], None, "pss: argument --extent: must be > 0, got '0'\n"),
        (["--extent", "-0.3", "0.01"], None, "pss: argument --extent: must be > 0, got '-0.3'\n"),
        (["--extent", "0.3", "nan"], None, "pss: argument --extent: must be > 0, got 'nan'\n"),
        ([], {"extent": [0.3, -1]}, "pss: config: argument --extent: must be > 0, got '-1'\n"),
        ([], {"extent": [0, 0.01]}, "pss: config: argument --extent: must be > 0, got '0'\n"),
        # origin on the last stored time: the window has no t extent
        (["--origin", "0.1", "0.02"], None,
         "pss: the requested window has no t extent: origin t 0.02 is not below the usable t bound 0.02\n"),
        (["--origin", "0.1", "0.02", "--extent", "0.3", "0.01"], None,
         "pss: the requested window has no t extent: origin t 0.02 is not below the usable t bound 0.02\n"),
    ]
    for i, (extra, cfg, line) in enumerate(table):
        argv = [*base, *extra, "--report", str(rep), "--deterministic"]
        if cfg is not None:
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(cfg))
            argv += ["--config", str(path)]
        code = run(argv)
        err = capsys.readouterr().err
        assert (code, err) == (EXIT_USAGE, line), extra
        assert not rep.exists()
    assert run([*base, "--origin", "0.1", "0.01", "--extent", "0.3", "0.005",
                "--report", str(rep), "--deterministic"]) == EXIT_OK
    dd = json.loads(rep.read_text())["diagnostics"]
    assert np.isfinite(dd["K_mean"]) and dd["compat_max"] > 0.0


def test_codazzi_verdict_tests_each_maximum_on_its_own(tmp_path, monkeypatch, capsys):
    """Python's max(E1, NaN) is E1, so a NaN E2 must fail on its own, as must a
    NaN E1, and the one stderr line names the NaN maximum."""
    residuals = cli.codazzi_residuals
    rep = tmp_path / "r.json"
    for k in (0, 1):
        def with_nan(*args, _k=k):
            e = list(residuals(*args))
            e[_k] = np.full_like(e[_k], np.nan)
            return tuple(e)

        monkeypatch.setattr(cli, "codazzi_residuals", with_nan)
        code = run(["codazzi", *NOVIKOV_STRIP, "--samples", "50", "--report", str(rep), "--deterministic"])
        doc = json.loads(rep.read_text())
        assert (code, doc["verdict"]) == (EXIT_FAIL, "fail"), k
        assert np.isnan(doc[f"E{k + 1}_max"]) and doc[f"E{2 - k}_max"] <= 1e-8, k
        assert capsys.readouterr().err == f"pss: E{k + 1}_max nan exceeds --tol 1e-08\n", k


def test_bad_input_ends_in_one_line_without_a_traceback_or_warning(tmp_path, capsys):
    """Bad argv, malformed family specs and configs, files that are not UTF-8
    or are directories, truncated PSSF files, a b-ODE table that runs toward
    overflow and failing verify and codazzi verdicts each end in an exit code
    of 1, 2 or 3 and one stderr line, with no traceback and no warning.  A
    file that cannot be read, decoded or parsed is named in that line."""
    specs = {
        "trunc": '{"branch": "T24", "params": {',
        "t99": '{"branch": "T99", "params": {}}',
        "nophi": '{"branch": "T24", "params": {"lam": 1, "eta2": 1}, "f": "s"}',
        "badexpr": '{"branch": "T24", "params": {"lam": 1, "eta2": 1}, "f": "s +", "phi12": "z1"}',
        "t22": '{"branch": "T22", "params": {"mu2": 2.0, "eta2": 1}, "f": "s", "phi12": "z1"}',
        "t24big": '{"branch": "T24", "params": {"mu2": 0, "eta2": 1, "lam": 1, "C": 0.3}, "f": "s^2000", "phi12": "z1"}',
    }
    configs = {"cfg5": "5", "cfglist": "[{}]", "cfgtrunc": '{"tol": '}
    for name, text in {**specs, **configs}.items():
        (tmp_path / f"{name}.json").write_text(text)
    (tmp_path / "latin1.json").write_bytes('{"branch": "T24", "f": "\u00e9"}'.encode("latin-1"))
    (tmp_path / "dir.json").mkdir()
    (tmp_path / "dir.pssf").mkdir()
    good = tmp_path / "good.pssf"
    assert run(["pde", "--preset", "novikov", "--nx", "16", "--tmax", "0.01", "--dt", "1e-3",
                "--out", str(good), "--report", str(tmp_path / "pde.json"), "--deterministic"]) == EXIT_OK
    pssf = {"empty": b"", "magic": b"PSSX", "header": good.read_bytes()[:20], "body": good.read_bytes()[:100],
            "version": good.read_bytes()[:4] + (99).to_bytes(4, "little") + good.read_bytes()[8:]}
    for name, data in pssf.items():
        (tmp_path / f"{name}.pssf").write_bytes(data)

    def family(name):
        return ["--family", str(tmp_path / f"{name}.json")]

    def field(name):
        return ["reconstruct", *NOVIKOV_STRIP, "--grid", "9x9", "--field", str(tmp_path / f"{name}.pssf")]

    def path(name):
        return str(tmp_path / name)

    kink = ["reconstruct", "--preset", "sine-gordon", "--soliton", "--grid", "4x4", "--out", path("kink.obj")]
    table = [
        # (argv, exit code, the file the line must name or None)
        (["frobnicate"], EXIT_USAGE, None),
        (["verify", "--bogus"], EXIT_USAGE, None),
        (["verify", "--preset", "nope"], EXIT_USAGE, None),
        (["verify", "--preset", "novikov", "--samples", "abc"], EXIT_USAGE, None),
        (["sff"], EXIT_USAGE, None),
        (["verify", *family("missing")], EXIT_USAGE, path("missing.json")),
        (["verify", *family("trunc")], EXIT_USAGE, path("trunc.json")),
        *((["verify", *family(name)], EXIT_USAGE, None) for name in ("t99", "nophi", "badexpr")),
        *((field(name), EXIT_FAIL, path(f"{name}.pssf")) for name in pssf),
        *((["verify", "--preset", "novikov", "--config", path(f"{name}.json")], EXIT_USAGE, None)
          for name in ("cfg5", "cfglist")),
        *((["verify", "--preset", "novikov", "--config", path(f"{name}.json")], EXIT_USAGE, path(f"{name}.json"))
          for name in ("cfgtrunc", "latin1", "dir", "missing")),
        *((["verify", *family(name)], EXIT_USAGE, path(f"{name}.json")) for name in ("latin1", "dir")),
        (["catalog", *family("latin1")], EXIT_USAGE, path("latin1.json")),
        (["catalog", *family("trunc")], EXIT_USAGE, path("trunc.json")),
        (field("dir"), EXIT_USAGE, path("dir.pssf")),
        # delta' overflows at s = 0.053: the table stops there, and the Gauss check fails
        (["sff", *family("t22"), "--beta", "1e154", "--b0", "1.2", "--eps", "0.3"], EXIT_FAIL, None),
        (["codazzi", *family("t22"), "--beta", "1e154", "--b0", "1.2", "--eps", "0.3"], EXIT_FAIL, None),  # E1_max 1e139
        (["verify", "--preset", "novikov", "--samples", "50", "--tol", "1e-300"], EXIT_FAIL, None),  # round-off fails
        # s^2000 overflows on the sampled jets: the NaN residuals fail the verdict
        (["verify", *family("t24big")], EXIT_FAIL, None),
        (["codazzi", *family("t24big"), "--sigma", "3", "--beta", "0.5"], EXIT_FAIL, None),
        *(([*kink, "--origin", x0, "0"], EXIT_USAGE, None) for x0 in ("nan", "inf")),
        ([*kink, "--origin", "1e300", "0"], EXIT_FAIL, None),  # a NaN frame
    ]
    rep = tmp_path / "r.json"
    for argv, want, named in table:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run([*argv, "--report", str(rep), "--deterministic"])
        err = capsys.readouterr().err
        assert code == want and code in (EXIT_USAGE, EXIT_FAIL, EXIT_NO_IMMERSION), (argv, code, err)
        assert err.startswith("pss: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert named is None or named in err, (argv, err)
        assert "Traceback" not in err and "Warning" not in err and not seen, (argv, err, seen)
