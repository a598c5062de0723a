"""CLI: record formats, round-trips, determinism, exit codes."""

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toruszeta
from _cli_digest import cli_digest, golden
from toruszeta import conjecture, epstein, expansion, lattice
from toruszeta.cli import (_COMPLEX_RE, QUANTITY_REGISTRY, SCAN_MAX_POINTS,
                           RecordWriter, ScanRecord, _cmd_coeff, _cmd_emcheck,
                           _cmd_epstein, _cmd_expansion, _cmd_hn, _cmd_omega,
                           _cmd_scan, _cmd_xi, _cmd_zeta, _cmd_zeta1d, _g17,
                           main, parse_args, parse_complex)
from toruszeta.errors import NonFiniteError, ZeroShortfallWarning
from toruszeta.lattice import StencilVariant, TorusGrid, spectral_zeta


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_scan_record_registry():
    with pytest.raises(ValueError):
        ScanRecord(s=0.5 + 1j, quantity="not_registered", value=1.0)
    # the columns of one batch of rows have one length
    with pytest.raises(ValueError):
        ScanRecord(s=np.array([0.5 + 1j, 0.5 + 2j]), quantity="xi",
                   value=np.ones(3))


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


def test_zeta_calls_the_public_spectral_zeta_once(capsys, monkeypatch):
    # the benchmark's tracer wraps lattice.spectral_zeta, so the CLI must
    # reach the spectral sum through that name
    calls = []
    original = lattice.spectral_zeta

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lattice, "spectral_zeta", counted)
    code, out, _ = run_cli(["zeta", "--n", "16", "--variant", "nine",
                            "--s", "0.3+2i"], capsys)
    assert code == 0 and out.count("zeta_discrete") == 1
    assert len(calls) == 1 and calls[0][0] == TorusGrid(16)


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
    metas = [dict(kv.split("=") for kv in r["meta"].split(";")) for r in rows]
    assert {m["source"] for m in metas} == {"riemann", "beta"}
    for m in metas:
        # zeta has 1 zero on [1, 20], beta 5
        n = sum(x["source"] == m["source"] for x in metas)
        assert m["expected"] == m["found"] == str(n)
    for r in rows:
        assert float(r["err_est"]) < 1e-8


def test_scan_zeros_shortfall_warns_or_exits_3(capsys, monkeypatch):
    # the beta signal flipped between two of its zeros hides the pair
    real = epstein._hardy_z
    lo, hi = 10.2437703041666, 12.9880980123124
    monkeypatch.setattr(epstein, "_hardy_z", lambda ts, beta: np.where(
        np.asarray(beta) & (lo < np.asarray(ts)) & (np.asarray(ts) < hi),
        -1.0, 1.0) * real(ts, beta))
    argv = ["scan", "--kind", "zeros", "--t-min", "1", "--t-max", "20"]
    with pytest.warns(ZeroShortfallWarning):
        code, out, _ = run_cli(argv, capsys)
    assert code == 0
    beta = [r for r in csv.DictReader(io.StringIO(out))
            if "source=beta" in r["meta"]]
    assert beta and all("expected=5;found=3" in r["meta"] for r in beta)
    code, out, err = run_cli(["--strict"] + argv, capsys)
    assert code == 3
    assert "convergence error" in err and "beta factor shows 3 of the 5" in err
    assert out == ""  # raised before the first row: not even the header


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
    # the remainder kernel B_(2M+1) needs 2M+1 <= 64: M is rejected up front
    for m in ("0", "32", "40"):
        code, out, err = run_cli(["emcheck", "--m", m], capsys)
        assert (code, out) == (2, ""), m
        assert f"M={m} outside 1..31" in err


def test_config_validation(tmp_path, capsys):
    # --tol outside (0, 1e-3] exits 2 before --out is opened
    out_path = tmp_path / "o.csv"
    for tol in ("0.5", "0", "-1e-8", "nan"):
        code, out, err = run_cli(["--tol", tol, "--out", str(out_path),
                                  "xi", "--s", "0.3+5i"], capsys)
        assert (code, out) == (2, ""), tol
        assert "outside (0, 1e-3]" in err and not out_path.exists(), tol
    code, _, _ = run_cli(["--tol", "1e-3", "xi", "--s", "0.3+5i"], capsys)
    assert code == 0


def test_an_empty_out_is_stdout_and_stays_open(capsys):
    expect = run_cli(["xi", "--s", "0.3+5i"], capsys)
    assert run_cli(["--out", "", "xi", "--s", "0.3+5i"], capsys) == expect
    assert not sys.stdout.closed


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
    # Gauss-Legendre rules, Bernoulli numbers, Borwein weights, the sieve
    # and its plans are built on first use, so a CLI job that needs none of
    # them does not pay for them at import
    probe = ("import toruszeta.cli\n"
             "from toruszeta.quadrature import _gl_rule\n"
             "from toruszeta.special import (_SIEVE, _bernoulli_numbers,\n"
             "    _borwein_weights, _sieve_plan)\n"
             "print(*(f.cache_info().currsize for f in (_gl_rule,\n"
             "    _bernoulli_numbers, _borwein_weights, _sieve_plan)),\n"
             "    len(_SIEVE))")
    src = os.path.dirname(os.path.dirname(toruszeta.__file__))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.split() == ["0", "0", "0", "0", "0"]


def test_a_cli_job_loads_no_argparse():
    # the command line is read from the option table in cli, so a job
    # imports neither argparse nor the gettext and locale it pulls in
    probe = ("import contextlib, io, sys\n"
             "import toruszeta.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = toruszeta.cli.main(['xi', '--s', '0.3+5i'])\n"
             "print(code, *sorted({'argparse', 'gettext', 'locale'}\n"
             "                    & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(toruszeta.__file__))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.split() == ["0"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_value_exits_3(capsys):
    # lambda^400 overflows, so the spectral sum is inf - inf = nan
    code, out, err = run_cli(["zeta", "--n", "64", "--variant", "five",
                              "--s", "-400"], capsys)
    assert code == 3
    assert "non-finite" in err
    assert out == ""  # the only row is bad: not even the header


def test_a_spectral_overflow_writes_one_stderr_line_and_exits_3():
    # the overflow is reported once, by the error; no RuntimeWarning names
    # a library source line before it
    src = os.path.join(os.path.dirname(toruszeta.__file__), os.pardir)
    done = subprocess.run(
        [sys.executable, "-m", "toruszeta.cli", "zeta", "--n", "64",
         "--s", "-400"], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.splitlines() == [
        "convergence error: non-finite spectral sum (nan+nanj) at "
        "s=(-400+0j) (lam^-s overflows)"]


@pytest.mark.parametrize("line, limit", [
    ("zeta --n 1000000 --s 0.5", lattice.GRID_MAX_N),
    ("epstein --s 1.5 --direct-cutoff 1000000",
     epstein.DIRECT_SUM_MAX_CUTOFF)])
def test_a_grid_or_cutoff_past_its_limit_exits_2_before_any_work(
        line, limit, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the spectral pass ran")

    monkeypatch.setattr(lattice, "_powsum", no_work)
    monkeypatch.setattr(epstein, "_powsum", no_work)
    code, out, err = run_cli(shlex.split(line), capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"[1, {limit}]" in err
    # the limit itself is accepted
    code, _, err = run_cli(shlex.split(line.replace("1000000", str(limit))),
                           capsys)
    assert code == 4 and "the spectral pass ran" in err


@pytest.mark.parametrize("line, message", [
    ("epstein --s 2+1i --direct-cutoff 100000", "cutoff 100000 outside"),
    ("epstein --s 0.5 --direct-cutoff 10", "needs Re(s) > 1")])
def test_a_rejected_direct_sum_exits_2_before_the_series(line, message,
                                                         capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(epstein, "_zeta_beta", calls.append)
    code, out, err = run_cli(shlex.split(line), capsys)
    assert (code, out, calls) == (2, "", [])
    assert message in err


def test_a_zero_scan_past_its_bound_exits_2_before_any_output(capsys,
                                                              monkeypatch):
    def no_work(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(epstein, "_hardy_phase", no_work)
    line = "scan --kind zeros --t-min 1 --t-max 1501"
    for fmt in ("csv", "json"):
        code, out, err = run_cli(["--format", fmt, *shlex.split(line)], capsys)
        assert (code, out) == (2, "")
        assert "exceeds 1500" in err


def test_an_expansion_job_evaluates_zeta_delta_at_s_and_s_minus_1(
        capsys, monkeypatch):
    # expansion_b0 is built from the constant term residual_order used,
    # not from a third series pass
    calls, own = [], epstein.epstein_zeta_2d

    def counted(s):
        calls.append(s)
        return own(s)

    for module in (conjecture, epstein, expansion):
        monkeypatch.setattr(module, "epstein_zeta_2d", counted)
    s = 0.3 + 2j
    for variant in ("nine", "five"):
        calls.clear()
        code, _, _ = run_cli(["expansion", "--s", "0.3+2i", "--variant",
                              variant, "--n-list", "32,64,128"], capsys)
        assert code == 0
        assert calls == [s, s - 1.0]


@pytest.mark.parametrize("line, at_limit, options", [
    ("scan --kind omega --b 70 --points 1000000000000",
     "scan --kind omega --b 70 --points 262144", "--points"),
    ("scan --kind xi-defect --re-points 1000000 --im-points 1000000",
     "scan --kind xi-defect --re-points 262144 --im-points 1", "--re-points"),
    ("scan --kind xi-defect --re-points 2 --im-points 1000000",
     "scan --kind xi-defect --re-points 2 --im-points 131072", "--im-points"),
    ("scan --kind xi-defect --re-points 1024 --im-points 1024",
     "scan --kind xi-defect --re-points 512 --im-points 512",
     "--re-points x --im-points"),
])
def test_a_scan_past_its_point_cap_exits_2_before_any_output(
        line, at_limit, options, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(conjecture, "omega_ratio", no_work)
    monkeypatch.setattr(epstein, "complete_xi", no_work)
    code, out, err = run_cli(shlex.split(line), capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {options} = ")
    assert f"exceeds {SCAN_MAX_POINTS}" in err
    # the cap itself is accepted
    code, _, err = run_cli(shlex.split(at_limit), capsys)
    assert code == 4 and "the scan ran" in err


def test_a_five_point_expansion_job_runs_each_coefficient_once(capsys,
                                                               monkeypatch):
    from toruszeta import expansion
    calls = []
    for name in ("angular_lattice_sum", "leading_coeff"):
        def counted(*args, _original=getattr(expansion, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(expansion, name, counted)
    code, out, _ = run_cli(["expansion", "--s", "0.5", "--variant", "five",
                            "--n-list", "32,64,128"], capsys)
    assert code == 0 and out.count("expansion_b1") == 1
    assert sorted(calls) == ["angular_lattice_sum", "leading_coeff"]


def test_an_hn_n_list_with_a_bad_n_exits_2_before_any_quadrature(
        capsys, monkeypatch):
    from toruszeta import expansion

    def no_work(*args):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(expansion, "_graded_panels", no_work)
    code, out, err = run_cli(["hn", "--s", "0.3+2i", "--n-list", "64,1"],
                             capsys)
    assert (code, out) == (2, "")
    assert "n must be >= 2" in err


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


def test_strict_rejects_points_outside_series_domain(capsys):
    # zeta/beta are validated on |Im s| <= 100; --strict refuses the rest
    outside = (
        ["omega", "--s", "0.5+800i", "--ratio"],
        ["omega", "--s", "0.3-101i"],
        ["xi", "--s", "0.3+600i"],
        ["epstein", "--s", "2+150i"],
        ["scan", "--kind", "omega", "--b", "120", "--points", "3"],
        ["scan", "--kind", "xi-defect", "--re-points", "2", "--im-min", "-101",
         "--im-max", "0", "--im-points", "2"],
        ["scan", "--kind", "zeros", "--t-min", "99", "--t-max", "101"],
    )
    for argv in outside:
        code, _, err = run_cli(["--strict"] + argv, capsys)
        assert code == 2, argv
        assert "|Im(s)|" in err
    code, out, _ = run_cli(["--strict", "xi", "--s", "0.3+100i"], capsys)
    assert code == 0 and len(out.splitlines()) == 2


def test_domain_checks_only_under_strict(capsys):
    # without --strict the points outside the domain are still computed
    for argv in (["omega", "--s", "0.5+800i", "--ratio"],
                 ["xi", "--s", "0.3+600i"]):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and len(out.splitlines()) == 2, argv


def test_xi_underflow_is_flagged(capsys):
    # xi_2(s) and xi_2(1-s) both underflow to 0 at Im(s) = 600, so the
    # defect 0 there says nothing; the rows say so and stderr warns once
    flagged = (["xi", "--s", "0.3+600i"],
               ["scan", "--kind", "xi-defect", "--re-points", "2",
                "--im-min", "600", "--im-max", "600", "--im-points", "1"])
    for argv in flagged:
        code, out, err = run_cli(argv, capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and rows, argv
        assert all("underflow=true" in r["meta"] for r in rows), argv
        assert err.count("underflow") == 1, argv
    for argv in (["xi", "--s", "0.3+5.0i"],
                 ["scan", "--kind", "xi-defect", "--re-points", "2"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and "underflow" not in out + err, argv


def test_zero_scan_rejects_bad_step(capsys):
    # rejected before any output: no CSV header, no lone "[" in JSON
    for fmt in ([], ["--format", "json"]):
        for step in ("0", "-0.1", "nan", "inf"):
            code, out, err = run_cli(fmt + ["scan", "--kind", "zeros",
                                            "--t-min", "1", "--t-max", "20",
                                            "--step", step], capsys)
            assert code == 2 and out == "", (fmt, step)
            assert "step" in err
        for t_min in ("0", "-1"):
            code, out, err = run_cli(fmt + ["scan", "--kind", "zeros",
                                            "--t-min", t_min,
                                            "--t-max", "20"], capsys)
            assert code == 2 and out == "", (fmt, t_min)
            assert "t_min" in err


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
        ["hn", "--s", "0.3+2i", "--n-list", "16,32"],
    )
    for argv in commands:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows, argv
        assert {r["quantity"] for r in rows} <= QUANTITY_REGISTRY, argv
    # and the registry holds nothing that the golden listing's commands,
    # which run every subcommand, coeff kind and scan kind, do not write
    written = {row["quantity"] for argv, (_, lines) in golden().items()
               for row in cli_digest._rows(argv, lines)}
    assert written == QUANTITY_REGISTRY


def test_negative_complex_after_a_space(capsys):
    # a word like "-0.5+3i" or "-1e-3" after a value-taking option is its
    # value, spaced or attached with '='
    for argv in (["xi", "--s", "-0.5+3i"], ["xi", "--s", "-1e-3"],
                 ["omega", "--s", "-0.7-2.5i"],
                 ["omega", "--s", "-0.7-2.5i", "--ratio", "--route",
                  "direct"]):
        spaced = run_cli(argv, capsys)
        attached = run_cli(argv[:1] + [f"--s={argv[2]}"] + argv[3:], capsys)
        assert spaced[0] == attached[0] == 0
        assert spaced[1] == attached[1] and spaced[1].count("\n") == 2
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--kind", "nope"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_scan_required_flags(capsys):
    # a scan's per-kind requirements exit 2 before the header, in both formats
    for fmt in ("csv", "json"):
        for argv, phrase in ((["scan", "--kind", "omega"], "requires --b"),
                             (["--strict", "scan", "--kind", "omega", "--b",
                               "60"], "b > 65"),
                             (["--strict", "scan", "--kind", "zeros",
                               "--t-max", "101"], "|Im(s)|"),
                             (["--strict", "scan", "--kind", "xi-defect",
                               "--im-min", "-101"], "|Im(s)|")):
            code, out, err = run_cli(["--format", fmt] + argv, capsys)
            assert (code, out) == (2, ""), (fmt, argv)
            assert phrase in err, (fmt, argv)
    code, _, err = run_cli(["scan", "--kind", "omega", "--b", "70",
                            "--points", "0"], capsys)
    assert code == 0  # empty grid -> header only


def test_xi_at_real_integers(capsys):
    # s = 3, and a grid with Re(s) in {2, 3} on the real axis: their
    # mirrors 1 - s sit at the negative integers, where xi_2 is finite
    for argv in (["xi", "--s", "3"],
                 ["scan", "--kind", "xi-defect", "--re-min", "2",
                  "--re-max", "3", "--re-points", "2", "--im-min", "0",
                  "--im-max", "1", "--im-points", "2"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, (argv, err)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) in (1, 4), argv
    defects = [float(r["value_re"]) for r in rows]
    assert max(defects) <= 1e-12


_GOOD = [ScanRecord(complex(0.5, 14.1), "zero", complex(14.1), err_est=1e-9,
                    meta={"source": "riemann"}),
         ScanRecord(None, "em_lhs", complex(1.5, -2.0), n=10,
                    meta={"fn": "runge", "m": "3"}),
         ScanRecord(0.3 + 2.0j, "xi", complex(0.1, 0.2))]
_NAN = ScanRecord(0.3 + 2.0j, "xi", complex(float("nan"), 0.0))


def _writer_output(records, fmt, path, batched, capsys):
    """(raised, output) of RecordWriter over ``records``: one write_all
    call, or one write per record.  Like main, it stops at a NonFiniteError
    without closing the writer."""
    w = RecordWriter(fmt, path)
    raised = False
    try:
        if batched:
            w.write_all(records)
        else:
            for rec in records:
                w.write(rec)
        w.close()
    except NonFiniteError:
        raised = True
    text = capsys.readouterr().out
    if path:
        with open(path, newline="") as fh:
            text = fh.read()
        w._fh.close()
    return raised, text


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("records", [_GOOD, _GOOD[:1] + [_NAN] + _GOOD[1:]],
                         ids=["finite", "nan-in-middle"])
def test_write_all_writes_the_bytes_of_one_write_per_record(
        fmt, to_file, records, tmp_path, capsys):
    out = [_writer_output(records, fmt,
                          str(tmp_path / f"{int(batched)}.out")
                          if to_file else None, batched, capsys)
           for batched in (False, True)]
    assert out[0] == out[1]
    raised, text = out[1]
    assert raised == (_NAN in records)
    # the rows before the bad record are written, none after it
    assert ("14.1" in text) and (("em_lhs" in text) != raised)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True])
def test_non_finite_record_mid_batch_exits_3_after_the_prefix(
        fmt, to_file, tmp_path, capsys, monkeypatch):
    # a nan ratio at the second n: the rows of the first n go out, then
    # the writer stops at the nan row
    s, ratios = 0.3 + 2.0j, [1.25, float("nan"), 1.0625]
    meta = {"near_zero": "false"}
    records = [ScanRecord(s, quantity, value, n=n, meta=meta)
               for n, ratio in zip((16, 32, 64), ratios)
               for quantity, value in (("hn_ratio", ratio),
                                       ("hn_ratio_defect_n2",
                                        (ratio - 1.0) * n * n))]
    path = str(tmp_path / "run.out") if to_file else None
    _, expect = _writer_output(records, fmt, path, False, capsys)
    assert "hn_ratio_defect_n2" in expect and "32" not in expect
    monkeypatch.setattr(conjecture, "hn_ratio_study",
                        lambda *args, **kwargs: (ratios, None))
    argv = ["--format", fmt] + (["--out", path] if path else []) \
        + ["hn", "--s", "0.3+2i", "--n-list", "16,32,64"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and "non-finite" in err
    if path:
        with open(path, newline="") as fh:
            out = fh.read()
    assert out == expect


_COLUMNS = ("quantity", "s_re", "s_im", "n", "value_re", "value_im",
            "err_est", "meta")


def _reference_text(records, fmt) -> str:
    """The rows of one-row records as the csv and json modules write their
    cells: the former per-row writer, kept as the reference."""
    buf = io.StringIO()
    rows = csv.writer(buf)
    if fmt == "csv":
        rows.writerow(_COLUMNS)
    else:
        buf.write("[")
    for i, rec in enumerate(records):
        cells = [rec.quantity,
                 "" if rec.s is None else _g17(rec.s.real),
                 "" if rec.s is None else _g17(rec.s.imag),
                 "" if rec.n is None else str(rec.n),
                 _g17(rec.value.real), _g17(rec.value.imag),
                 "" if rec.err_est is None else _g17(rec.err_est),
                 ";".join(f"{k}={v}" for k, v in sorted(rec.meta.items()))]
        if fmt == "csv":
            rows.writerow(cells)
        else:
            buf.write(",\n " if i else "\n ")
            buf.write(json.dumps(dict(zip(_COLUMNS, cells)), sort_keys=True))
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("bad_row", [None, 0, 2])
def test_a_columnar_record_writes_the_bytes_of_its_rows(fmt, bad_row,
                                                        capsys):
    # constant cells that need quoting or escaping, and a % sign
    meta = {"source": 'a,b "c"\n100%', "ünï": "x"}
    s = np.array([0.5 + 14.1j, -0.0 + 1e-300j, 0.5 - 25.0j])
    value = np.array([14.1, -2.5e17 + 1j / 3.0, 0.1])
    if bad_row is not None:
        value[bad_row] = complex(0.0, float("inf"))
    err = np.array([1e-9, 0.0, 3.0])
    record = ScanRecord(s, "zero", value, n=7, err_est=err, meta=meta)
    rows = [ScanRecord(complex(a), "zero", complex(v), n=7, err_est=float(e),
                       meta=meta)
            for a, v, e in zip(s, value, err)][:bad_row]
    # the header goes out with the first row: none when row 0 is bad
    expect = _reference_text(rows, fmt) if rows else ""
    if bad_row is None and fmt == "json":
        expect += "\n]\n"
    assert _writer_output([record], fmt, None, True, capsys) \
        == (bad_row is not None, expect)


# ---------------------------------------------------------------------------
# the command line: the option table against the former argparse parser
# ---------------------------------------------------------------------------

def _reference_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toruszeta",
        description="Spectral zeta functions of discrete-torus Laplacians "
                    "and the Epstein-Riemann machinery")
    p.add_argument("--tol", type=float, default=1e-12,
                   help="quadrature tolerance override")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--strict", action="store_true",
                   help="reject arguments outside the theorem regime")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("zeta", help="discrete spectral zeta on the 2-torus")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--variant", default="five")
    sp.add_argument("--s", required=True)
    sp.set_defaults(handler=_cmd_zeta)

    sp = sub.add_parser("zeta1d", help="discrete circle spectral zeta")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", required=True)
    sp.set_defaults(handler=_cmd_zeta1d)

    sp = sub.add_parser("epstein", help="zeta(Delta, s) via Glasser factors")
    sp.add_argument("--s", required=True)
    sp.add_argument("--direct-cutoff", type=int, default=0,
                    help="also emit the truncated direct lattice sum")
    sp.set_defaults(handler=_cmd_epstein)

    sp = sub.add_parser("xi", help="complete Epstein zeta xi_2(s)")
    sp.add_argument("--s", required=True)
    sp.set_defaults(handler=_cmd_xi)

    sp = sub.add_parser("omega", help="Omega(s) or the Omega ratio")
    sp.add_argument("--s", required=True)
    sp.add_argument("--ratio", action="store_true",
                    help="emit Omega(1-s)/Omega(s) instead of Omega(s)")
    sp.add_argument("--route", choices=("omega1", "omega2", "direct"),
                    default="omega1")
    sp.set_defaults(handler=_cmd_omega)

    sp = sub.add_parser("coeff", help="expansion coefficients")
    sp.add_argument("which", choices=("a", "b0", "b1", "b1tilde", "angular"))
    sp.add_argument("--s", required=True)
    sp.add_argument("--variant", default="nine")
    sp.set_defaults(handler=_cmd_coeff)

    sp = sub.add_parser("expansion", help="residual study of the expansion")
    sp.add_argument("--s", required=True)
    sp.add_argument("--variant", default="nine")
    sp.add_argument("--n-list", default="32,64,128,256")
    sp.add_argument("--orders", type=int, default=1)
    sp.set_defaults(handler=_cmd_expansion)

    sp = sub.add_parser("hn", help="|H_n(1-s)/H_n(s)| study")
    sp.add_argument("--s", required=True)
    sp.add_argument("--n-list", default="32,64,128,256")
    sp.set_defaults(handler=_cmd_hn)

    sp = sub.add_parser("scan", help="grid scans (omega, xi-defect, zeros)")
    sp.add_argument("--kind", choices=("omega", "xi-defect", "zeros"),
                    required=True)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--a-min", type=float, default=0.01)
    sp.add_argument("--a-max", type=float, default=0.99)
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--t-min", type=float, default=1.0)
    sp.add_argument("--t-max", type=float, default=20.0)
    sp.add_argument("--step", type=float, default=None,
                    help="zero scan: the largest sampling spacing in t "
                         "(default: Gram points only)")
    sp.add_argument("--re-min", type=float, default=0.1)
    sp.add_argument("--re-max", type=float, default=0.9)
    sp.add_argument("--re-points", type=int, default=5)
    sp.add_argument("--im-min", type=float, default=1.0)
    sp.add_argument("--im-max", type=float, default=40.0)
    sp.add_argument("--im-points", type=int, default=4)
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("emcheck", help="Euler-Maclaurin two-sided identity")
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--fn", choices=("runge", "square"), default="runge")
    sp.set_defaults(handler=_cmd_emcheck)
    return p


def _reference_attach(argv: list[str]) -> list[str]:
    """``--s -0.5+3i`` as ``--s=-0.5+3i``: argparse takes a word that
    starts with '-' for an option, not for the value of the option before
    it, unless the word is a plain negative decimal."""
    out = list(argv[:1])
    for arg in argv[1:]:
        if arg.startswith("-") and _COMPLEX_RE.match(arg) \
                and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


_REFERENCE = _reference_parser()
_REFERENCE_COMMANDS = next(
    a for a in _REFERENCE._actions
    if isinstance(a, argparse._SubParsersAction)).choices


def _reference_parse(argv):
    """The former argparse parser with its rewrite of negative values, kept
    as the reference for ``parse_args``."""
    return _REFERENCE.parse_args(_reference_attach(argv))


def _outcome(parse, argv):
    """(vars of the parsed arguments, None) or (None, exit code), and what
    the parser wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv)), None
        except SystemExit as exc:
            result = None, exc.code
    return result, out.getvalue(), err.getvalue()


def _same_options(a, b) -> bool:
    """a == b for two option dicts (or None), except that a nan value
    equals a nan value, and nothing else does."""
    if a is None or b is None:
        return a is b

    def same(x, y):
        return x == y or isinstance(x, float) and isinstance(y, float) \
            and math.isnan(x) and math.isnan(y)

    return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)


def test_same_options_equates_nan_with_nan_only():
    nan = float("nan")
    assert _same_options({"a": nan, "b": 1}, {"a": nan, "b": 1})
    assert _same_options(None, None)
    for other in ({"a": 0.0, "b": 1}, {"a": nan, "b": 2}, {"a": nan},
                  {"a": "nan", "b": 1}, None):
        assert not _same_options({"a": nan, "b": 1}, other)
        assert not _same_options(other, {"a": nan, "b": 1})


@pytest.mark.parametrize("line", cli_digest.COMMANDS)
def test_parser_agrees_with_the_reference_on_the_digest_commands(line):
    argv = shlex.split(line)
    (ref, ref_code), _, _ = _outcome(_reference_parse, argv)
    (new, code), out, err = _outcome(parse_args, argv)
    assert code == ref_code and _same_options(new, ref)
    if code is not None:
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith(
            ("toruszeta: error: ", f"toruszeta {argv[0]}: error: "))


# Values for each type of option, valid and not: negative numbers and
# complex numbers that start with '-', a word that looks like an option,
# one with a space, an empty one.
_VALUES = {int: ("8", "-3", "0", "x", "1.5", ""),
           float: ("70", "-1e-3", "0.25", "-.5", "-2", "inf", "x"),
           None: ("0.3+2i", "-0.5+3i", "-1e-3", "-7", "five", "nine",
                  "32,64", "-x", "a b", "")}
# words that name no option or stand where no positional is expected
_NOISE = ("--bogus", "-x", "stray", "-5", "-0.5+3i", "--re", "--r", "-h")


@st.composite
def _option_words(draw, action):
    """One argument of the reference parser as command-line words: its
    flag or a prefix of it (unique, ambiguous or naming another option),
    spaced or with '=', or without its value."""
    if not action.option_strings:
        return [draw(st.sampled_from([*action.choices, "nope"]))]
    flag = action.option_strings[0]
    name = draw(st.sampled_from(
        [flag, flag, flag[:draw(st.integers(3, len(flag)))]]))
    if action.nargs == 0:
        return [draw(st.sampled_from([name, name, name, name + "=x"]))]
    value = draw(st.sampled_from(
        [*action.choices, "nope"] if action.choices else _VALUES[action.type]))
    form = draw(st.sampled_from(["spaced"] * 3 + ["attached"] * 2
                                + ["missing"]))
    return {"spaced": [name, value], "attached": [f"{name}={value}"],
            "missing": [name]}[form]


def _arguments(parser):
    return [a for a in parser._actions if not isinstance(
        a, (argparse._HelpAction, argparse._SubParsersAction))]


@st.composite
def _command_lines(draw):
    """Global flags, a subcommand (or none, or a bad one), its required
    arguments (rarely one left out) and optional ones, repeats, noise and a
    global flag after the subcommand, in any order after the subcommand."""
    flags = [st.sampled_from(_NOISE).map(lambda w: [w])] \
        + [_option_words(a) for a in _arguments(_REFERENCE)]
    words = sum(draw(st.lists(st.one_of(flags), max_size=3)), [])
    command = draw(st.sampled_from([*_REFERENCE_COMMANDS, "nope", None]))
    if command is None:
        return words
    arguments = _arguments(_REFERENCE_COMMANDS.get(command, _REFERENCE))
    parts = [draw(_option_words(a)) for a in arguments
             if (a.required or not a.option_strings)
             and draw(st.integers(0, 9))]
    parts += draw(st.lists(st.one_of(
        [_option_words(a) for a in arguments] + flags), max_size=4))
    return words + [command] + sum(draw(st.permutations(parts)), [])


@settings(max_examples=600, deadline=None)
@given(_command_lines())
def test_parser_agrees_with_the_reference(argv):
    # the same arguments and handler, or the same exit: 2 for every
    # command line the reference rejects, 0 after help
    (ref, ref_code), _, _ = _outcome(_reference_parse, argv)
    (new, code), out, err = _outcome(parse_args, argv)
    assert (new, code) == (ref, ref_code), argv
    if code == 2:
        assert out == "" and ": error: " in err


def test_help_at_both_levels(capsys):
    for argv, words in ((["-h"], ["--tol", "--strict", "emcheck", "scan"]),
                        (["--strict", "--help"], ["--format {csv,json}"]),
                        (["coeff", "-h"], ["--s S", "b1tilde"]),
                        (["scan", "--kind", "zeros", "--he"],
                         ["--re-points", "--kind", "Gram points"])):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 0 and out.err == ""
        assert out.out.startswith("usage: toruszeta")
        assert all(w in out.out for w in words), (argv, out.out)


def test_a_bad_command_line_exits_2_before_the_header(capsys):
    for argv, phrase in ((["zeta", "--n", "8"], "--s"),
                         (["--format", "xml", "xi", "--s", "1"],
                          "invalid choice"),
                         (["scan", "--kind", "xi-defect", "--re", "3"],
                          "ambiguous option"),
                         (["xi", "--s"], "expected one argument"),
                         (["zeta", "--n", "x", "--s", "1"],
                          "invalid int value"),
                         (["xi", "--strict", "--s", "0.3+5i"],
                          "unrecognized arguments: --strict")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert ": error: " in out.err and phrase in out.err, argv


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("line, code", [
    ("--strict omega --s 0.5+800i --ratio", 2),
    ("--strict xi --s 0.3+600i", 2),
    ("--strict expansion --s 1.5+1i --variant nine --n-list 32,64,128", 2),
    ("zeta --n 1 --variant five --s 1", 2),
    ("--tol 1e-4 expansion --s 0.3+2i --variant nine --n-list 64,128,256 "
     "--orders 1", 3),
    ("xi --s garbage", 2),
    ("zeta --n 8 --variant seven --s 0.5", 2),
    ("expansion --s 0.3+2i --n-list 32,x", 2),
    ("coeff a --s 2", 2),
    ("epstein --s 0.5 --direct-cutoff 5", 2),
])
def test_a_failure_before_the_first_row_writes_nothing(fmt, to_file, line,
                                                       code, tmp_path, capsys):
    # the header goes out with the first row: no CSV header, no lone "["
    path = tmp_path / "run.out"
    argv = ["--format", fmt] + (["--out", str(path)] if to_file else []) \
        + shlex.split(line)
    got, out, err = run_cli(argv, capsys)
    assert (got, out) == (code, ""), err
    assert "error" in err
    if to_file:
        assert path.read_text() == ""


@pytest.mark.parametrize("line, option", [
    ("scan --kind omega --b 70 --a-min nan", "--a-min"),
    ("scan --kind omega --b 70 --a-max inf", "--a-max"),
    ("scan --kind omega --b nan --points 5", "--b"),
    ("scan --kind xi-defect --im-max inf", "--im-max"),
    ("scan --kind xi-defect --im-min=-inf", "--im-min"),
    ("scan --kind xi-defect --re-min nan --re-points 3 --im-points 2",
     "--re-min"),
    ("scan --kind xi-defect --re-max inf", "--re-max"),
    ("scan --kind zeros --t-max inf", "--t-max"),
    ("scan --kind zeros --t-min nan", "--t-min"),
])
def test_non_finite_scan_bounds_exit_2_naming_the_option(line, option,
                                                         capsys):
    # rejected before any point is built from them: no NumPy warning, and
    # the message names the option, not a nan nobody typed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(shlex.split(line), capsys)
    assert (code, out) == (2, "")
    assert f"error: {option} must be finite" in err


@pytest.mark.parametrize("line, options", [
    ("scan --kind omega --b 70 --a-min -1e308 --a-max 1e308 --points 3",
     "--a-max - --a-min"),
    ("scan --kind xi-defect --im-min -1e308 --im-max 1e308",
     "--im-max - --im-min"),
    ("scan --kind xi-defect --re-min 1e308 --re-max -1e308",
     "--re-max - --re-min"),
])
def test_non_finite_points_exit_2_as_a_domain_error(line, options, capsys):
    # finite bounds whose span overflows would make non-finite points:
    # rejected before np.linspace, with no NumPy warning, naming both
    # options, not a nan nobody typed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(shlex.split(line), capsys)
    assert (code, out) == (2, "")
    assert f"error: {options} overflows" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("line, option", [
    ("scan --kind omega --b 70", "--points"),
    ("scan --kind xi-defect", "--re-points"),
    ("scan --kind xi-defect", "--im-points"),
])
def test_a_negative_point_count_exits_2_and_zero_is_an_empty_scan(
        fmt, line, option, capsys):
    argv = ["--format", fmt] + shlex.split(line) + [option]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for count in ("-1", "-5"):
            code, out, err = run_cli(argv + [count], capsys)
            assert (code, out) == (2, ""), count
            assert f"error: {option} must not be negative, got {count}" in err
        code, out, _ = run_cli(argv + ["0"], capsys)
    assert code == 0
    assert out == ("[\n]\n" if fmt == "json" else
                   "quantity,s_re,s_im,n,value_re,value_im,err_est,meta\r\n")


@pytest.mark.parametrize("line", ["xi --s garbage",
                                  "scan --kind omega --b 70 --a-min nan",
                                  "--tol 1e-4 expansion --s 0.3+2i "
                                  "--variant nine --n-list 64,128,256",
                                  "xi --s 0.3+5i"])
def test_the_out_file_is_closed_on_every_exit(line, tmp_path, monkeypatch,
                                              capsys):
    # an unclosed file warns when it is collected; as an error there it
    # reaches sys.unraisablehook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    path = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code, _, _ = run_cli(["--out", str(path), *shlex.split(line)], capsys)
        gc.collect()
    assert not unraisable, unraisable[0].exc_value
    assert (path.read_text() == "") == (code != 0)
