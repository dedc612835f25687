import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nkji
from nkji import cli, shocks
from nkji.cli import AUDIT_MAX_DRAWS, MAX_PERIODS, main
from nkji.params import DEFAULTS, FIELD_NAMES, InvalidParams, Violation, validate
from nkji.shocks import AR_STATES, KINDS
from nkji.sim import SERIES
from nkji.slots import INDEX_SETS, VARIABLES
from nkji.statespace import SWEEP_MAX_CELLS, ConvergenceFailure, sweep


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main([*argv, "--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def test_simulate_basic(tmp_path):
    code, text = run(tmp_path, "simulate", "--seed", "42", "--T", "1000")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "# nkji simulate csv v1"
    assert lines[1].startswith("t,r,y,yhat,pi,c,I,i,u,Ey,Eyhat,Epi,Eu,JI,fe")
    assert len(lines) == 2 + 1000
    assert lines[-1].endswith(",")   # final row has no forecast error


def test_simulate_deterministic(tmp_path):
    _, a = run(tmp_path, "simulate", "--seed", "7", "--T", "200")
    _, b = run(tmp_path, "simulate", "--seed", "7", "--T", "200")
    assert a == b


def test_simulate_burn(tmp_path):
    code, text = run(tmp_path, "simulate", "--seed", "7", "--T", "50", "--burn", "10")
    assert code == 0
    assert len(text.strip().split("\n")) == 2 + 50


def test_csv_floats_roundtrip(tmp_path):
    names = {*KINDS, *SERIES, *AR_STATES, *VARIABLES}
    series = [str(t) for t in range(5)]
    for argv, first_column in (
            (("simulate", "--seed", "3", "--T", "5", "--burn", "3"), series),
            (("shocks", "--seed", "3", "--T", "5", "--burn", "3", "--transparent"),
             series),
            (("irf", "--shock", "lambda", "--H", "4"),
             [str(h) for h in range(4)] * (len(SERIES) + len(AR_STATES))),
            (("coeffs", "--format", "csv"),
             [v for v in VARIABLES for _ in INDEX_SETS[v]])):
        code, text = run(tmp_path, *argv)
        assert code == 0, argv
        header, *rows = [line.split(",") for line in text.splitlines()[1:]]
        # one row per period after the burn (per horizon, per entry), in order
        assert [row[0] for row in rows] == first_column, argv
        for i, row in enumerate(rows):
            assert len(row) == len(header), (argv, i)
            for column, cell in zip(header, row):
                if cell == "":
                    assert (column, i) == ("fe", len(rows) - 1), argv
                elif not (re.fullmatch(r"-?[0-9]+", cell) or cell in names):
                    assert repr(float(cell)) == cell, (argv, column, i, cell)


def test_coeffs_json_and_csv(tmp_path):
    code, text = run(tmp_path, "coeffs")
    assert code == 0
    table = json.loads(text)
    assert set(table) == {"r", "y", "yhat", "Eyhat", "Epi", "pi", "c", "I",
                          "i", "u", "Eu"}
    assert table["u"]["11"] == 0.5 and table["u"]["12"] == 0.9
    code, text = run(tmp_path, "coeffs", "--format", "csv")
    assert code == 0
    assert text.splitlines()[1] == "variable,index,value"
    # the same numbers at full precision in both formats
    rows = [line.split(",") for line in text.splitlines()[2:]]
    assert {(v, int(i)): float(x) for v, i, x in rows} == \
        {(v, int(i)): x for v, idx in table.items() for i, x in idx.items()}


def test_coeffs_param_override(tmp_path):
    _, text = run(tmp_path, "coeffs", "--param", "theta=0.7")
    assert json.loads(text)["u"]["11"] == 0.7


def test_calib_file_and_override_precedence(tmp_path):
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps({"theta": 0.25}))
    _, text = run(tmp_path, "coeffs", "--calib", str(calib))
    assert json.loads(text)["u"]["11"] == 0.25
    _, text = run(tmp_path, "coeffs", "--calib", str(calib), "--param", "theta=0.6")
    assert json.loads(text)["u"]["11"] == 0.6


def test_invalid_param_exits_2(tmp_path, capsys):
    code = main(["coeffs", "--param", "rho_chi=1.0", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "NonStationary" in capsys.readouterr().err


def test_unknown_calib_key_exits_2(tmp_path):
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps({"c2": 0.4}))
    code, _ = run(tmp_path, "coeffs", "--calib", str(calib))
    assert code == 2


def test_calib_values_must_be_numbers(tmp_path, capsys):
    # float() would take true as 1.0 and "2" as 2.0
    calib = tmp_path / "calib.json"
    calib.write_text(json.dumps({"theta": True, "sigma": "2", "k": 0.1}))
    err = _invalid_input(capsys, ["coeffs", "--calib", str(calib),
                                  "--out", str(tmp_path / "out.json")])
    assert err == ("nkji: invalid input: InvalidDomain(theta: not a number); "
                   "InvalidDomain(sigma: not a number)")
    assert not (tmp_path / "out.json").exists()


def test_budget_conflict_exits_2(tmp_path, capsys, monkeypatch):
    # refused before the draw, so a long run is refused as fast as a short one
    draws = []
    monkeypatch.setattr(shocks, "draw", lambda *args: draws.append(args))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--T", "400000", "--budget", "balanced",
                 "--param", "rho_g=0.6", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "nkji: invalid input: InvalidDomain(rho_tax: balanced budget needs "
        "rho_g == rho_tax, got 0.6 != 0.8)\n")
    assert draws == [] and not out.exists()


def test_determinacy_json(tmp_path):
    code, text = run(tmp_path, "determinacy")
    assert code == 0
    obj = json.loads(text)
    assert len(obj["eigenvalues"]) == 9
    assert len(obj["k"]) == 10 and obj["k"][9] == -1.0
    assert set(obj["verdicts"]) == {str(n) for n in range(10)}
    assert obj["counts"]["stable"] + obj["counts"]["unstable"] \
        + obj["counts"]["borderline"] == 9


def test_determinacy_single_n_pre(tmp_path):
    code, text = run(tmp_path, "determinacy", "--n-pre", "4")
    assert code == 0
    assert set(json.loads(text)["verdicts"]) == {"4"}


def test_determinacy_retries_by_the_rank6_route(tmp_path, capsys):
    # at sigma = 1e-40 the 9 x 9 route falsely fails its residual check;
    # determinacy prints the rank-6 route's eigenvalues, three of them the
    # exact zeros of rank 6, with the sweep's counts at the same parameters
    code, text = run(tmp_path, "determinacy", "--param", "sigma=1e-40")
    assert (code, capsys.readouterr().err) == (0, "")
    obj = json.loads(text)
    assert len(obj["eigenvalues"]) == 9
    assert sum(v["re"] == v["im"] == 0.0 for v in obj["eigenvalues"]) >= 3
    counts, = sweep(validate({**DEFAULTS, "sigma": 1e-40}), ("sigma", 1e-40, 1e-40, 1),
                    ("k", DEFAULTS["k"], DEFAULTS["k"], 1)).counts
    assert obj["counts"] == dict(zip(("stable", "unstable", "borderline"), counts.tolist()))
    # where both routes fail, the rank-6 route's failure is the message
    for param, err in (("k=1e40", "eigenpair residual check failed"),
                       ("k=1e160", "transition matrix norm overflows")):
        (tmp_path / "out.txt").unlink(missing_ok=True)
        assert run(tmp_path, "determinacy", "--param", param) == (3, ""), param
        assert capsys.readouterr().err == f"nkji: numerical failure: {err}\n", param


#: a double root at 1 - 1e-6, where rounding A's entries moves the root by
#: more than its distance to the unit circle: the 9 x 9 route alone counts
#: 8 stable roots there and the rank-6 route 9
DOUBLE_ROOT = [arg for pair in (
    "sigma=5e-324", "beta=0.5", "s1=0.5", "gamma1=-1", "rho_ybar=0.999999",
    "rho_g=0.999999", "alpha_y=0", "c3=0", "s3=0", "gamma3=0", "rho_chi=0", "k=0",
    "alpha_pi=0") for arg in ("--param", pair)]


def test_determinacy_and_sweep_agree_at_a_double_root(tmp_path):
    code, text = run(tmp_path, "determinacy", "--n-pre", "8", *DOUBLE_ROOT)
    assert code == 0
    obj = json.loads(text)
    code, text = run(tmp_path, "sweep", "--axis1", "alpha_pi:0:0:1", "--axis2", "k:0:0:1",
                     "--n-pre", "8", *DOUBLE_ROOT)
    assert code == 0
    header, row = text.splitlines()[1:]
    cell = dict(zip(header.split(","), row.split(",")))
    assert {key: int(cell[key]) for key in obj["counts"]} == obj["counts"]
    assert cell["verdict"] == obj["verdicts"]["8"]


def test_non_finite_matching_blocks_keep_lapack_off_stdout(capfd):
    # 1/sigma is inf at sigma = 5e-324: the condition number is inf without
    # an SVD, which would have LAPACK write to file descriptor 1 itself
    assert main(["audit", "--T", "10", "--param", "sigma=5e-324"]) == 3
    assert capfd.readouterr() == ("", "nkji: numerical failure: matching system is "
                                      "singular\n")


def test_determinacy_n_pre_out_of_range(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["determinacy", "--n-pre", "12", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_shocks_csv(tmp_path):
    code, text = run(tmp_path, "shocks", "--seed", "5", "--T", "20")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[1] == ("t,omega,eta,L,lambda,xi,v,sigma_cp,T_natu,Xi,"
                        "chi,mu,ybar,g,tax,eps,ubar,signal")
    assert len(lines) == 2 + 20


def test_irf_csv(tmp_path):
    code, text = run(tmp_path, "irf", "--shock", "lambda", "--H", "8")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[1] == "h,variable,response"
    # 13 emitted series + 6 exogenous states, 8 horizons each
    assert len(lines) == 2 + 19 * 8


def test_irf_unknown_kind(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["irf", "--shock", "zeta", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_transparency_json(tmp_path):
    code, text = run(tmp_path, "transparency")
    assert code == 0
    obj = json.loads(text)
    assert set(obj["Eu"]) == {"z7", "z8", "sign7", "sign8", "paradox"}


@pytest.mark.parametrize("params, variables", [(["theta=0"], ("u", "Eu")),
                                               (["gamma5=0", "phi2=0"], ("y", "c"))])
def test_transparency_zero_news_coefficient_is_no_paradox(tmp_path, params, variables):
    # these variables load on no news (z8 is 0.0 or -0.0), and only a
    # strictly positive (u, Eu) or negative (y, c) loading is adverse
    code, text = run(tmp_path, "transparency",
                     *(arg for param in params for arg in ("--param", param)))
    assert code == 0
    obj = json.loads(text)
    for var in variables:
        assert obj[var]["z8"] == 0.0 and obj[var]["paradox"] is False, var


def test_sweep_csv_and_axis_errors(tmp_path):
    code, text = run(tmp_path, "sweep", "--axis1", "alpha_pi:0.5:2.5:5",
                     "--axis2", "alpha_y:0:1:4")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[1] == "alpha_pi,alpha_y,stable,unstable,borderline,verdict"
    assert len(lines) == 2 + 20
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--axis1", "alpha_pi:0.5:2.5", "--axis2", "alpha_y:0:1:4",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("sweep", "--axis1", "alpha_pi:0.5:2.5:7", "--axis2", "alpha_y:0:1:7"),
    # three array passes whose edges fall inside rows
    ("sweep", "--axis1", "alpha_pi:0.5:2.5:23", "--axis2", "alpha_y:0:1:25"),
    ("audit", "--T", "50", "--draws", "4"),
], ids=["sweep", "sweep slices", "audit"])
def test_sweep_worker_bytes_identical(tmp_path, argv):
    code, a = run(tmp_path, *argv, "--workers", "1")
    assert code == 0
    _, b = run(tmp_path, *argv, "--workers", "4")
    assert a == b


def test_audit_json(tmp_path):
    code, text = run(tmp_path, "audit", "--T", "500")
    assert code == 0
    obj = json.loads(text)
    assert {"condition_number", "errata", "suspects", "residuals"} <= set(obj)
    assert obj["residuals"]["oracle"]["resource"] <= 1e-9
    assert obj["suspects"]["pi[4]"]["variant_confirmed"] is True


def test_audit_with_draws(tmp_path):
    code, text = run(tmp_path, "audit", "--T", "200", "--draws", "3")
    assert code == 0
    obj = json.loads(text)
    assert obj["stability"]["identical_across_draws"] is True


def test_rate_free_point_fails_the_audit_only(tmp_path, capsys):
    # s2 = gamma2 = 0 takes the rate out of saving and investment: validate
    # accepts the point and the closed forms give a finite rate block, but
    # the matching system leaves the rate undetermined, so the audit exits 3
    point = ("--param", "s2=0", "--param", "gamma2=0")
    validate({**DEFAULTS, "s2": 0.0, "gamma2": 0.0})
    code, text = run(tmp_path, "coeffs", *point)
    assert code == 0
    assert all(math.isfinite(x) for x in json.loads(text)["r"].values())
    (tmp_path / "out.txt").unlink()
    capsys.readouterr()
    code, text = run(tmp_path, "audit", "--T", "50", *point)
    assert (code, text) == (3, "")
    assert capsys.readouterr().err == ("nkji: numerical failure: matching system "
                                       "is singular\n")


HUGE = str(10**17)


def test_numerical_failure_exits_3(tmp_path, capsys):
    for argv in (("audit", "--param", "c1=0.5", "--param", "s2=0.1",
                  "--param", "gamma2=0.4", "--param", "s1=0.625"),
                 # the rate-free surface s2 + gamma2 = 0 is singular, and
                 # near it the solved rate block's rounding exceeds the
                 # bound on loadings outside its index set
                 ("audit", "--param", "s2=0.2", "--param", "gamma2=-0.2"),
                 ("audit", "--T", "50", "--param", "s2=1e-8", "--param", "gamma2=0"),
                 ("determinacy", "--param", "k=1e160"),   # overflowing norm
                 ("coeffs", "--param", "k=1e308"),        # non-finite coefficients
                 ("transparency", "--param", "k=1e308"),
                 ("shocks", "--T", "3", "--param", "sd_omega=1e308"),   # and paths
                 ("simulate", "--T", "3", "--param", "sd_xi=1.7e308"),
                 ("audit", "--T", "50", "--param", "sd_omega=1e308"),
                 # horizons whose paths need 8e17 bytes, beyond any address
                 # space: the allocation fails at once
                 ("shocks", "--T", HUGE),
                 ("shocks", "--T", "3", "--burn", HUGE),
                 ("irf", "--shock", "lambda", "--H", HUGE),
                 ("simulate", "--T", HUGE),
                 ("audit", "--T", HUGE)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, *argv)
        assert (code, text) == (3, ""), argv
        assert os.listdir(tmp_path) == [], argv
        err = capsys.readouterr().err.strip()
        assert err.startswith("nkji: numerical failure: ") and "\n" not in err, argv


def test_huge_horizon_exits_2(tmp_path, capsys):
    # horizons no float64 path can hold are refused as input, before any
    # computation; one period fewer is an allocation failure (exit 3)
    beyond = str(MAX_PERIODS + 1)
    for argv in (("shocks", "--T", "99999999999999999999999"),
                 ("irf", "--shock", "lambda", "--H", "99999999999999999999999"),
                 ("simulate", "--T", "3", "--burn", "9999999999999999999"),
                 ("audit", "--T", "99999999999999999999999"),
                 ("shocks", "--T", beyond),
                 ("simulate", "--T", "1", "--burn", str(MAX_PERIODS))):
        err = _invalid_input(capsys, [*argv, "--out", str(tmp_path / "out.txt")])
        assert f"more than {MAX_PERIODS}" in err, argv
        assert os.listdir(tmp_path) == [], argv
    assert run(tmp_path, "shocks", "--T", str(MAX_PERIODS)) == (3, "")
    assert os.listdir(tmp_path) == []


def test_argument_edges(tmp_path, capsys):
    # the largest 64-bit seed is taken (2**64 is refused with the argument
    # guards); a burn of 0 is no burn; beta = 1 lies outside its open interval
    assert run(tmp_path, "shocks", "--T", "3", "--seed", str(2**64 - 1))[0] == 0
    assert (run(tmp_path, "simulate", "--T", "20", "--burn", "0")
            == run(tmp_path, "simulate", "--T", "20"))
    err = _invalid_input(capsys, ["coeffs", "--param", "beta=1",
                                  "--out", str(tmp_path / "x")])
    assert err == "nkji: invalid input: InvalidDomain(beta: must be in (0, 1))"


def test_argument_guards(tmp_path, capsys):
    for argv in (["simulate", "--T", "0"],
                 ["shocks", "--seed", "-5"],
                 ["shocks", "--seed", str(2**64)],
                 ["simulate", "--burn", "-1"],
                 ["irf", "--shock", "lambda", "--H", "0"],
                 ["audit", "--draws", "-2"],
                 ["determinacy", "--tol", "-1"],
                 ["determinacy", "--tol", "0"],
                 ["sweep", "--axis1", "alpha_pi:0.5:2:3", "--axis2", "alpha_y:0:1:3",
                  "--tol", "-1e-8"],
                 ["audit", "--tol", "0"],
                 ["sweep", "--axis1", "alpha_pi:0.5:2:0", "--axis2", "alpha_y:0:1:3"],
                 ["sweep", "--axis1", "alpha_pi:0.5:2:3", "--axis2", "alpha_y:0:1:-3"],
                 ["sweep", "--axis1", "alpha_pi:0.5:inf:3", "--axis2", "alpha_y:0:1:3"],
                 ["sweep", "--axis1", "alpha_pi:0.5:2:3", "--axis2", "alpha_y:nan:1:3"],
                 ["sweep", "--axis1", "s0:-1e308:1e308:3", "--axis2", "alpha_y:0:1:3"],
                 ["sweep", "--axis1", "alpha_pi:a:2:3", "--axis2", "alpha_y:0:1:3"],
                 ["coeffs", "--param", "sigma"],
                 ["coeffs", "--param", "sigma=abc"],
                 ["simulate", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2, argv
    capsys.readouterr()
    # an infinite tolerance makes every root borderline and no entry an
    # erratum; float reads 1e400 as inf
    for argv in (["determinacy"], ["audit", "--T", "10"],
                 ["sweep", "--axis1", "alpha_pi:0.5:2:3", "--axis2", "alpha_y:0:1:3"]):
        for tol in ("inf", "1e400"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--tol", tol, "--out", str(tmp_path / "x")])
            assert exc.value.code == 2, argv
            assert capsys.readouterr().err.endswith("argument --tol: must be finite\n")
    # a grid above the cell limit is refused before any of it is allocated
    for argv in (["sweep", "--axis1", "k:0:1:99999999999999999999999",
                  "--axis2", "s0:0:1:2"],
                 ["sweep", "--axis1", "k:0:1:1001", "--axis2", "s0:0:1:1000"]):
        err = _invalid_input(capsys, [*argv, "--out", str(tmp_path / "x")])
        assert f"cells, more than {SWEEP_MAX_CELLS}" in err
        assert not (tmp_path / "x").exists()


def test_draws_above_the_cap_are_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # more stability draws than AUDIT_MAX_DRAWS exit 2 before the
    # parameters are loaded; as many as the cap pass the guard
    def no_work(args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_load_params", no_work)
    out = tmp_path / "x"
    for draws in (AUDIT_MAX_DRAWS + 1, 100_000_000_000_000):
        err = _invalid_input(capsys, ["audit", "--draws", str(draws), "--out", str(out)])
        assert err == ("nkji: invalid input: InvalidDomain(<draws>: "
                       f"{draws} draws, more than {AUDIT_MAX_DRAWS})")
        assert not out.exists()
    with pytest.raises(AssertionError, match="work started"):
        main(["audit", "--draws", str(AUDIT_MAX_DRAWS), "--out", str(out)])


def _invalid_input(capsys, argv) -> str:
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("nkji: invalid input: ") and "\n" not in err
    return err


def test_missing_calib_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    err = _invalid_input(capsys, ["coeffs", "--calib", str(missing),
                                  "--out", str(tmp_path / "out.json")])
    assert str(missing) in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("content", [
    b'{"theta": 0.25,', b'\xff\xfe{}', b"[1, 2]",
    # beyond the JSON parser's recursion limit, and beyond int's digit limit
    b'{"sigma": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"sigma": ' + b"1" * 5000 + b"}",
], ids=["truncated", "not-utf8", "not-an-object", "deeply-nested", "long-integer"])
def test_malformed_calib_json_exits_2(tmp_path, capsys, content):
    calib = tmp_path / "calib.json"
    calib.write_bytes(content)
    _invalid_input(capsys, ["coeffs", "--calib", str(calib),
                            "--out", str(tmp_path / "out.json")])
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("option, argv", [
    ("--calib", ["--calib", "", "--out", "out.json"]),
    ("--out", ["--out", ""]),
], ids=["calib", "out"])
def test_empty_path_is_a_usage_error(tmp_path, monkeypatch, capsys, option, argv):
    # an empty path, as an unset shell variable gives, is not an absent one:
    # the run stops before any work, writes nothing and prints no data
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: argument {option}: must not be empty\n")
    assert not list(tmp_path.iterdir())


def test_out_in_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "out.json"
    assert main(["coeffs", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"nkji: cannot write output: {out}: "
                                       "No such file or directory\n")


def test_out_writes_through_symlinks(tmp_path, capsys):
    assert main(["coeffs"]) == 0
    expected = capsys.readouterr().out
    target = tmp_path / "target.json"
    target.write_text("previous\n")
    link, dangling = tmp_path / "link.json", tmp_path / "dangling.json"
    link.symlink_to(target)
    dangling.symlink_to(tmp_path / "new.json")
    for out in (link, dangling):
        assert main(["coeffs", "--out", str(out)]) == 0
        assert out.is_symlink() and out.read_text() == expected
    assert target.read_text() == expected
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "dangling.json", "link.json", "new.json", "target.json"]


def test_out_writes_through_a_fifo(tmp_path, capsys):
    assert main(["coeffs", "--format", "csv"]) == 0
    expected = capsys.readouterr().out
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["coeffs", "--format", "csv", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [expected]
    assert fifo.is_fifo() and [f.name for f in tmp_path.iterdir()] == ["fifo"]


def test_closed_stdout_is_one_write_failure_line():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _cli_process("coeffs", stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (
        2, "nkji: cannot write output: <stdout>: Broken pipe\n")


@pytest.mark.parametrize("error, code", [
    (ConvergenceFailure("failed"), 3), (OverflowError("failed"), 3), (MemoryError("failed"), 3),
    (InvalidParams([Violation("InvalidDomain", "sigma", "bad")]), 2),
    (json.JSONDecodeError("bad", "{", 1), 2),
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad"), 2),
    (FileNotFoundError(2, "No such file or directory", "calib.json"), 2),
], ids=lambda value: type(value).__name__ if isinstance(value, BaseException) else None)
def test_exit_code_map(tmp_path, capsys, monkeypatch, error, code):
    def fail(args, p):
        raise error

    monkeypatch.setattr(cli, "cmd_coeffs", fail)
    out = tmp_path / "out.json"
    assert main(["coeffs", "--out", str(out)]) == code
    err = capsys.readouterr().err
    prefix = {2: "nkji: invalid input: ", 3: "nkji: numerical failure: "}[code]
    assert err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, violations", [
    (["coeffs", "--param", "nosuch=1"], ["nosuch: unknown parameter"]),
    (["sweep", "--axis1", "nosuch:0:1:3", "--axis2", "k:0:1:2"],
     ["nosuch: unknown parameter"]),
    (["sweep", "--axis1", "nosuch:0:1:3", "--axis2", "other:0:1:2"],
     ["nosuch: unknown parameter", "other: unknown parameter"]),
    (["sweep", "--axis1", "k:0:1:3", "--axis2", "k:2:3:2"], ["k: varied by both sweep axes"]),
    (["simulate", "--budget", "balanced", "--param", "rho_g=0.6"],
     ["rho_tax: balanced budget needs rho_g == rho_tax, got 0.6 != 0.8"]),
], ids=["param", "axis", "both-axes", "same-axis", "balanced-budget"])
def test_every_bad_parameter_exits_2_the_same_way(tmp_path, capsys, argv, violations):
    # one exception type, so one message form naming each offending field
    out = tmp_path / "out"
    err = _invalid_input(capsys, [*argv, "--out", str(out)])
    assert err == "nkji: invalid input: " + "; ".join(f"InvalidDomain({v})" for v in violations)
    assert not out.exists()


def test_control_characters_escaped_in_messages(tmp_path, capsys):
    calib = tmp_path / "calib.json"
    out = ["--out", str(tmp_path / "out")]
    for names, expected in ((["\r"], "InvalidDomain(\\r: unknown parameter)"),
                            (["a\x1bb", "\u2028"],
                             "InvalidDomain(a\\x1bb: unknown parameter); "
                             "InvalidDomain(\\u2028: unknown parameter)"),
                            # printable names keep their bytes
                            (["nosuch"], "InvalidDomain(nosuch: unknown parameter)"),
                            (["\u00e9 \\r"], "InvalidDomain(\u00e9 \\r: unknown parameter)")):
        calib.write_text(json.dumps(dict.fromkeys(names, 0)))
        err = _invalid_input(capsys, ["coeffs", "--calib", str(calib), *out])
        assert err == f"nkji: invalid input: {expected}"
        err = _invalid_input(capsys, ["coeffs", *(f"--param={n}=0" for n in names), *out])
        assert err == f"nkji: invalid input: {expected}"
    err = _invalid_input(capsys, ["sweep", "--axis1", "no\nsuch:0:1:3",
                                  "--axis2", "k:0:1:2", *out])
    assert err == "nkji: invalid input: InvalidDomain(no\\nsuch: unknown parameter)"
    with pytest.raises(SystemExit):
        main(["coeffs", "--param", "\t=abc", *out])
    assert capsys.readouterr().err.endswith("error: argument --param: \\t: 'abc' is not a number\n")


def test_same_sweep_axis_twice_exits_2(tmp_path, capsys):
    err = _invalid_input(capsys, ["sweep", "--axis1", "k:0:1:3", "--axis2", "k:2:3:2",
                                  "--out", str(tmp_path / "out.csv")])
    assert "varied by both sweep axes" in err
    assert not (tmp_path / "out.csv").exists()


def test_failed_sweep_cells_do_not_abort_the_sweep(tmp_path):
    for axis1, axis2, cells in (("sigma:1e-300:1e300:5", "k:0:1e308:5", 25),
                                ("c1:0.5:1e300:3", "k:0:1:2", 6)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run(tmp_path, "sweep", "--axis1", axis1, "--axis2", axis2,
                             "--workers", "1")
        assert code == 0, axis1
        rows = text.strip().split("\n")[2:]
        assert len(rows) == cells, axis1
        failed = [r for r in rows if r.endswith(",failed")]
        assert failed and all(r.split(",")[2:5] == ["", "", ""] for r in failed), axis1


def test_failed_write_keeps_previous_out(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.json"
    out.write_text("previous\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["coeffs", "--out", str(out)]) == 2
    assert "rename refused" in capsys.readouterr().err
    assert out.read_text() == "previous\n"
    assert [f.name for f in tmp_path.iterdir()] == ["out.json"]


#: a drift whose level overflows to inf at row 1407, past the first CSV part
STREAM_OVERFLOW = ["shocks", "--seed", "0", "--T", "4000", "--param", "sd_omega=1.2e304",
                   "--param", "rho_ybar=0.999"]


def test_non_finite_past_the_first_part_writes_nothing(tmp_path, capfd):
    with np.errstate(all="ignore"):
        ybar = shocks.draw(validate({"sd_omega": 1.2e304, "rho_ybar": 0.999}), 0, 4000).ybar
    # the first part holds CSV_CHUNK floats: CSV_CHUNK // 17 rows of the 17 float columns
    assert np.isfinite(ybar[:cli.CSV_CHUNK // 17]).all() and not np.isfinite(ybar).all()
    assert main(STREAM_OVERFLOW) == 3
    assert capfd.readouterr() == ("", "nkji: numerical failure: output is not finite\n")
    out = tmp_path / "out.csv"
    out.write_text("previous\n")
    assert main([*STREAM_OVERFLOW, "--out", str(out)]) == 3
    assert out.read_text() == "previous\n"
    assert [f.name for f in tmp_path.iterdir()] == ["out.csv"]


def test_csv_formats_one_part_at_a_time(tmp_path):
    # the path's 17 float columns of 50 000 periods hold 6.8 MB; formatting
    # them may add at most as much again
    T, columns = 50_000, 17
    tracemalloc.start()
    try:
        assert main(["shocks", "--T", str(T), "--out", str(tmp_path / "out.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * columns * T * 8


@pytest.mark.parametrize("argv", [
    ("simulate", "--seed", "3", "--T", "40", "--burn", "2"),
    ("shocks", "--seed", "3", "--T", "20", "--transparent"),
    ("irf", "--shock", "lambda", "--H", "30"),
    ("sweep", "--axis1", "alpha_pi:0.5:2.5:7", "--axis2", "rho_chi:0:1.1:5"),
    ("coeffs", "--format", "csv")])
def test_csv_bytes_do_not_depend_on_the_part_size(tmp_path, monkeypatch, argv):
    whole = run(tmp_path, *argv)
    # 17 floats a part: one row of simulate (whose fe column ends inside the
    # last part) and of shocks, 17 rows of irf and coeffs, 8 of sweep
    monkeypatch.setattr(cli, "CSV_CHUNK", 17)
    assert run(tmp_path, *argv) == whole


def _cli_process(*argv, stdout=subprocess.PIPE, **env):
    """``python -m nkji.cli argv`` in a fresh process that imports this
    nkji, with ``env`` added to the environment; its stdout goes to
    ``stdout``."""
    src = str(Path(nkji.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "nkji.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60)


def test_single_param_override_is_quiet(tmp_path):
    proc = _cli_process("coeffs", "--param", "sigma=2", "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_audit_bytes_do_not_depend_on_the_blas_thread_count():
    # the report's solve and the draws' run only 9 x 9 and 18 x 18 kernels,
    # none of whose results moves with the BLAS thread count
    argv = ("audit", "--T", "100", "--draws", "6", "--seed", "3")
    one, two = (_cli_process(*argv, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout


# --- CLI fuzz: every input ends in exit 0, 2 or 3 and leaves no partial file

def _mostly(valid, invalid):
    """Draw ``valid`` three times in four, so that most runs get past
    argument parsing and validation."""
    return st.sampled_from((valid, valid, valid, invalid)).flatmap(lambda s: s)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_floats = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_names = _mostly(st.sampled_from(FIELD_NAMES), st.text(max_size=6))
_values = _mostly(st.floats(0.0, 0.95).map(repr),
                  st.one_of(_floats, st.text(max_size=4)))
_axis = st.builds(lambda *parts: ":".join(parts), _names, _values, _values,
                  _mostly(_ints(1, 3), _ints(-1, 0)))
_params = st.lists(st.builds(lambda n, v: ["--param", f"{n}={v}"], _names, _values),
                   max_size=3).map(lambda items: sum(items, []))
_T = _mostly(_ints(1, 40), _ints(-1, 0)).map(lambda v: ["--T", v])
_seed = _opt("--seed", _mostly(_ints(0, 2**64 - 1), st.sampled_from(["-1", str(2**64)])))
_tol = _opt("--tol", _mostly(st.floats(1e-12, 1e-2).map(repr), _floats))

_COMMAND_OPTS = {
    "coeffs": [_opt("--format", st.sampled_from(["json", "csv", "xml"]))],
    "shocks": [_seed, _T, _opt("--burn", _mostly(_ints(0, 40), _ints(-2, -1))),
               st.sampled_from([[], ["--transparent"]])],
    "simulate": [_seed, _T, _opt("--burn", _mostly(_ints(0, 40), _ints(-2, -1))),
                 _opt("--budget", st.sampled_from(["independent", "balanced"]))],
    "irf": [_mostly(st.sampled_from(KINDS), st.text(max_size=4))
            .map(lambda k: ["--shock", k]),
            _mostly(_ints(1, 40), _ints(-1, 0)).map(lambda v: ["--H", v])],
    "transparency": [],
    "determinacy": [_opt("--n-pre", _ints(-1, 10)), _tol],
    "sweep": [_axis.map(lambda a: ["--axis1", a]),
              _axis.map(lambda a: ["--axis2", a]),
              _opt("--n-pre", _ints(-1, 10)), _tol],
    "audit": [_seed, _T, _tol, _opt("--draws", _ints(-1, 2))],
}

_argv = st.sampled_from(sorted(_COMMAND_OPTS)).flatmap(
    lambda cmd: st.tuples(_params, *_COMMAND_OPTS[cmd]).map(
        lambda parts: [cmd] + sum(parts, [])))

_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=6)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=6), kids, max_size=3)),
    max_leaves=6)
_calib = _mostly(st.none(), st.one_of(
    st.binary(max_size=40),
    st.dictionaries(_names, _mostly(st.floats(0.0, 0.95), _json_values), max_size=4)
    .map(lambda d: json.dumps(d).encode())))


_NON_FINITE = re.compile(r"\b(NaN|Infinity|nan|inf)\b")


@settings(max_examples=60, deadline=None)
@given(argv=_argv, calib=_calib)
@example(argv=["coeffs"], calib=b"\xff\xfe{}")
@example(argv=["coeffs", "--param", "s1=0.0"], calib=None)
@example(argv=["coeffs", "--param", "c1=1e300"], calib=None)
@example(argv=["coeffs", "--param", "k=1e308"], calib=None)
@example(argv=["shocks", "--param", "sd_omega=1e308"], calib=None)
@example(argv=["coeffs"], calib=b'{"sigma": 1' + b"0" * 400 + b"}")
@example(argv=["coeffs"], calib=b'{"\\r": 0}')
@example(argv=["sweep", "--axis1", "k:0:1:99999999999999999999999", "--axis2", "s0:0:1:2"],
         calib=None)
@example(argv=["simulate", "--T", "3", "--burn", "9999999999999999999"], calib=None)
def test_cli_fuzz_exit_codes_and_no_partial_output(argv, calib):
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "out"
        if calib is not None:
            (Path(d) / "calib.json").write_bytes(calib)
            argv = [*argv, "--calib", str(Path(d) / "calib.json")]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:   # argparse: usage lines, then the error
                code, usage = exc.code, True
            else:
                usage = False
        err = stderr.getvalue()
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code != 0 and not usage:
            # one message line of printable characters, and no numpy
            # warning before it
            assert err.count("\n") <= 1 and err.rstrip("\n").isprintable(), (argv, err)
            assert "Warning" not in err and not caught, (argv, err, caught)
        assert not list(Path(d).glob("*.tmp"))
        assert out.exists() == (code == 0)
        if out.exists():
            assert not _NON_FINITE.search(out.read_text()), argv
