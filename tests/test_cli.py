"""Command-line interface: exit codes, reports, determinism, config files."""

import json

from pss.cli import EXIT_FAIL, EXIT_NO_IMMERSION, EXIT_OK, EXIT_USAGE, build_parser, run
from pss.immersion import ImmersionTriple


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


def test_usage_error_exit_1(capsys):
    assert run(["verify"]) == EXIT_USAGE
    assert run(["sff", "--preset", "novikov", "--tol", "-1"]) == EXIT_USAGE
    assert "pss:" in capsys.readouterr().err


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
        (["verify", "--preset", "t22-demo"], {"samples": 0}, EXIT_USAGE, None),
        (["verify", "--preset", "t22-demo"], {"samples": 40}, EXIT_OK, ("samples", 40)),
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
    ]
    for extra, want in table:
        rep = tmp_path / "r.json"
        code = run([*base, *extra, "--report", str(rep), "--deterministic"])
        assert code == EXIT_USAGE, extra
        assert capsys.readouterr().err == want
        assert not rep.exists()


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
