"""CLI: record formats, round-trips, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import toruszeta
from toruszeta.cli import _g17, main, parse_complex
from toruszeta.conjecture import QUANTITY_REGISTRY
from toruszeta.errors import NonFiniteError
from toruszeta.lattice import StencilVariant, TorusGrid, spectral_zeta


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_complex():
    assert parse_complex("0.3+2i") == complex(0.3, 2.0)
    assert parse_complex("-1.5-2.0i") == complex(-1.5, -2.0)
    assert parse_complex("0.25") == complex(0.25, 0.0)
    assert parse_complex("1e-2+3e1i") == complex(0.01, 30.0)
    for bad in ("0.3 + 2i", "2i", "abc", "1+2j"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_zeta_command_value(capsys):
    code, out, _ = run_cli(["zeta", "--n", "2", "--variant", "five", "--s", "1"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["value_re"]) == pytest.approx(6.1685027507, abs=1e-9)
    assert float(rows[0]["value_im"]) == 0.0
    assert rows[0]["meta"] == "variant=five"


def test_zeta_empty_spectrum_exit_code(capsys):
    code, _, err = run_cli(["zeta", "--n", "1", "--variant", "five", "--s", "1"], capsys)
    assert code == 2
    assert "empty spectrum" in err


def test_zeta_large_n_convergence(capsys):
    code, out, _ = run_cli(["zeta", "--n", "256", "--variant", "nine", "--s", "2"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert abs(float(rows[0]["value_re"]) - 6.0268120396) <= 1e-2


def test_bad_complex_exit_code(capsys):
    code, _, err = run_cli(["zeta", "--n", "4", "--variant", "five", "--s", "0.3 + 2i"], capsys)
    assert code == 2


def test_csv_round_trip_bit_exact(capsys):
    s = complex(0.37, 1.25)
    code, out, _ = run_cli(["zeta", "--n", "17", "--variant", "nine",
                            "--s", "0.37+1.25i"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    lib = spectral_zeta(TorusGrid(17), StencilVariant.NINE_POINT, s)
    assert float(rows[0]["value_re"]) == lib.real
    assert float(rows[0]["value_im"]) == lib.imag


def test_json_round_trip_bit_exact(tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _, _ = run_cli(["--format", "json", "--out", str(path),
                          "zeta", "--n", "17", "--variant", "nine",
                          "--s", "0.37+1.25i"], capsys)
    assert code == 0
    rows = json.loads(path.read_text())
    lib = spectral_zeta(TorusGrid(17), StencilVariant.NINE_POINT,
                        complex(0.37, 1.25))
    assert float(rows[0]["value_re"]) == lib.real
    assert float(rows[0]["value_im"]) == lib.imag


def test_output_determinism_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run_cli(["--out", str(p), "scan", "--kind", "omega",
                              "--b", "70", "--a-min", "0.3", "--a-max", "0.7",
                              "--points", "11"], capsys)
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scan_zeros(capsys):
    code, out, _ = run_cli(["scan", "--kind", "zeros", "--t-min", "1",
                            "--t-max", "20"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) >= 2
    sources = {r["meta"].split("=")[1] for r in rows}
    assert sources == {"riemann", "beta"}
    for r in rows:
        assert float(r["err_est"]) < 1e-8


def test_scan_empty_region(capsys):
    code, out, _ = run_cli(["scan", "--kind", "zeros", "--t-min", "5",
                            "--t-max", "5"], capsys)
    assert code == 0
    assert out.strip() == "quantity,s_re,s_im,n,value_re,value_im,err_est,meta"


def test_scan_omega_monotone_verdict(capsys):
    code, out, _ = run_cli(["scan", "--kind", "omega", "--b", "70",
                            "--a-min", "0.01", "--a-max", "0.99",
                            "--points", "101"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 101
    assert all(r["meta"] == "monotone_scan=true" for r in rows)


def test_expansion_strict_rejects_outside_strip(capsys):
    code, _, err = run_cli(["--strict", "expansion", "--s", "1.5+1i",
                            "--variant", "nine", "--n-list", "32,64,128"], capsys)
    assert code == 2
    assert "strip" in err


def test_expansion_slope_row(capsys):
    code, out, _ = run_cli(["expansion", "--s", "0.3+2i", "--variant", "nine",
                            "--n-list", "32,64,128", "--orders", "0"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    slope = [r for r in rows if r["quantity"] == "expansion_slope"]
    assert len(slope) == 1
    assert float(slope[0]["value_re"]) == pytest.approx(-2.0, abs=0.3)


def test_expansion_signal_lost_exit_code(capsys):
    code, _, err = run_cli(["--tol", "1e-4", "expansion", "--s", "0.3+2i",
                            "--variant", "nine", "--n-list", "64,128,256",
                            "--orders", "1"], capsys)
    assert code == 3
    assert "noise" in err


def test_emcheck(capsys):
    code, out, _ = run_cli(["emcheck", "--m", "3", "--n", "10", "--fn", "runge"],
                           capsys)
    assert code == 0
    rows = {r["quantity"]: r for r in csv.DictReader(io.StringIO(out))}
    assert float(rows["em_diff"]["value_re"]) <= 1e-12


def test_config_file_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quad_tol=1e-6\nfmt=json\n")
    out_path = tmp_path / "o.json"
    code, _, _ = run_cli(["--config", str(cfg), "--out", str(out_path),
                          "xi", "--s", "0.3+5i"], capsys)
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert rows[0]["quantity"] == "xi"


def test_config_validation(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("quad_tol=0.5\n")  # outside (0, 1e-3]
    code, _, err = run_cli(["--config", str(cfg), "xi", "--s", "0.3+5i"], capsys)
    assert code == 2
    cfg.write_text("nonsense=1\n")
    code, _, _ = run_cli(["--config", str(cfg), "xi", "--s", "0.3+5i"], capsys)
    assert code == 2
    cfg.write_text("threads=2\n")  # the thread pool and its key are gone
    code, _, _ = run_cli(["--config", str(cfg), "xi", "--s", "0.3+5i"], capsys)
    assert code == 2
    cfg.write_text("lattice_cutoff=64\n")  # the angular sum is exact now
    code, _, _ = run_cli(["--config", str(cfg), "xi", "--s", "0.3+5i"], capsys)
    assert code == 2


def test_coeff_commands(capsys):
    code, out, _ = run_cli(["coeff", "a", "--s", "0.5", "--variant", "nine"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["value_re"]) == pytest.approx(3.3314201382356536, abs=1e-11)
    code, out, _ = run_cli(["coeff", "angular", "--s", "0.5"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert float(rows[0]["value_re"]) == pytest.approx(-0.0161659728, abs=1e-6)


def test_coeff_a_reports_achieved_error(capsys):
    tol = 1e-9
    code, out, _ = run_cli(["--tol", str(tol), "coeff", "a", "--s", "0.5",
                            "--variant", "nine"], capsys)
    assert code == 0
    err = float(next(csv.DictReader(io.StringIO(out)))["err_est"])
    assert 0.0 < err
    assert err != tol


def test_cli_import_builds_no_tables():
    # Gauss-Legendre rules and Bernoulli numbers are built on first use, so
    # a CLI job that needs neither does not pay for them at import
    probe = ("import toruszeta.cli\n"
             "from toruszeta.quadrature import _gl_rule\n"
             "from toruszeta.special import _bernoulli_numbers\n"
             "print(_gl_rule.cache_info().currsize,"
             " _bernoulli_numbers.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(toruszeta.__file__))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.split() == ["0", "0"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_value_exits_3(capsys):
    # lambda^400 overflows, so the spectral sum is inf - inf = nan
    code, out, err = run_cli(["zeta", "--n", "64", "--variant", "five",
                              "--s", "-400"], capsys)
    assert code == 3
    assert "non-finite" in err
    assert out.splitlines() == [
        "quantity,s_re,s_im,n,value_re,value_im,err_est,meta"]


def test_g17_rejects_non_finite():
    assert _g17(0.1) == "0.10000000000000001"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteError):
            _g17(bad)


def test_omega_ratio_at_large_height(capsys):
    # the Borwein weights no longer overflow at |Im s| ~ 800
    code, out, _ = run_cli(["omega", "--s", "0.5+800i", "--ratio"], capsys)
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert abs(complex(float(row["value_re"]), float(row["value_im"]))) \
        == pytest.approx(1.0, abs=1e-11)


def test_zero_scan_rejects_bad_step(capsys):
    for step in ("0", "-0.1"):
        code, _, err = run_cli(["scan", "--kind", "zeros", "--t-min", "1",
                                "--t-max", "20", "--step", step], capsys)
        assert code == 2, step
        assert "step" in err


def test_hn_command(capsys):
    code, out, _ = run_cli(["hn", "--s", "0.3+2i", "--n-list", "32,64"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ratios = [r for r in rows if r["quantity"] == "hn_ratio"]
    assert len(ratios) == 2
    assert float(ratios[1]["value_re"]) == pytest.approx(1.0, abs=1e-2)


def test_omega_command_routes(capsys):
    code, out, _ = run_cli(["omega", "--s", "0.5+70i", "--ratio"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    val = complex(float(rows[0]["value_re"]), float(rows[0]["value_im"]))
    assert abs(val) == pytest.approx(1.0, abs=1e-10)
    code, out, _ = run_cli(["omega", "--s", "2"], capsys)
    assert code == 2  # Omega pole at s=2


def test_scan_xi_defect(capsys):
    code, out, _ = run_cli(["scan", "--kind", "xi-defect", "--re-min", "0.2",
                            "--re-max", "0.8", "--re-points", "3",
                            "--im-min", "2", "--im-max", "10",
                            "--im-points", "2"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert all(float(r["value_re"]) <= 1e-9 for r in rows)


def test_every_emitted_quantity_is_registered(capsys):
    commands = (
        ["zeta1d", "--n", "16", "--s", "0.25"],
        ["epstein", "--s", "2", "--direct-cutoff", "10"],
        ["coeff", "b0", "--s", "0.3+2i"],
        ["coeff", "b1tilde", "--s", "0.3+2i"],
        ["coeff", "b1", "--s", "0.3+2i"],
        ["omega", "--s", "0.3+2i"],
        ["scan", "--kind", "hn", "--s", "0.3+2i", "--n-list", "16,32"],
    )
    for argv in commands:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows, argv
        assert {r["quantity"] for r in rows} <= QUANTITY_REGISTRY, argv


def test_scan_required_flags(capsys):
    code, _, err = run_cli(["scan", "--kind", "hn"], capsys)
    assert code == 2 and "--s" in err
    code, _, err = run_cli(["scan", "--kind", "omega", "--b", "70",
                            "--points", "0"], capsys)
    assert code == 0  # empty grid -> header only
