import numpy as np
import pytest

from nkji import compute_all, simulate, steady_state, zero_path
from nkji.oracle import random_params
from nkji.params import DEFAULTS, validate
from nkji import slots


def test_unemployment_structural_cells(default_rf, default_params):
    u = default_rf.as_table()["u"]
    assert u[11] == default_params.theta == 0.5
    assert u[12] == default_params.rho_u == 0.9


def test_zero_intercepts_without_autonomous_terms(default_rf):
    # c0 = s0 = 0 in the default calibration
    assert default_rf.as_table()["r"][0] == 0.0
    assert steady_state(default_rf)["r"] == 0.0


def test_block_lengths(default_rf):
    lengths = {v: len(idx) for v, idx in default_rf.as_table().items()}
    assert lengths == {"r": 11, "y": 11, "yhat": 11, "Eyhat": 9, "Epi": 14,
                       "pi": 14, "c": 11, "I": 11, "i": 14, "u": 13, "Eu": 11}


def test_all_entries_finite(rng):
    for _ in range(20):
        rf = compute_all(random_params(rng))
        for idx in rf.as_table().values():
            assert all(np.isfinite(v) for v in idx.values())


def test_gap_chain(rng):
    for _ in range(10):
        p = random_params(rng)
        rf = compute_all(p)
        y, yh = rf.block("y"), rf.block("yhat")
        assert yh[1] == y[1] - p.rho_ybar**2
        assert yh[2] == y[2] - p.rho_ybar
        for i in (0, *range(3, 11)):
            assert yh[i] == y[i]
        assert yh[slots.OMEGA] == -1.0


def test_expected_gap_chain(rng):
    for _ in range(10):
        p = random_params(rng)
        rf = compute_all(p)
        yh, ey = rf.block("yhat"), rf.as_table()["Eyhat"]
        assert ey[0] == p.rho_ybar * yh[1]   # verbatim pattern-breaking entry
        assert ey[1] == p.rho_ybar * yh[1]
        assert ey[2] == yh[1]
        assert ey[3] == p.rho_g * yh[3]
        assert ey[4] == yh[3]
        assert ey[5] == p.rho_tax * yh[5]
        assert ey[6] == yh[5]
        assert ey[7] == p.rho_chi * yh[7]
        assert ey[8] == yh[7]


def test_expected_inflation_chain(rng):
    for _ in range(10):
        p = random_params(rng)
        rf = compute_all(p)
        yh, ep = rf.block("yhat"), rf.as_table()["Epi"]
        scale = (p.alpha_pi * p.k + p.alpha_y + p.sigma) / (1 - p.alpha_pi * p.beta)
        for i in range(11):
            assert ep[i] == pytest.approx(yh[i] * scale, rel=1e-14, abs=1e-300)
        assert ep[11] == -(p.alpha_pi * p.k + p.alpha_y) / (1 - p.alpha_pi * p.beta)
        assert ep[12] == p.rho_eps * p.alpha_pi / (1 - p.alpha_pi * p.beta)
        assert ep[13] == p.alpha_pi / (1 - p.alpha_pi * p.beta)


def test_inflation_chain(rng):
    for _ in range(10):
        p = random_params(rng)
        rf = compute_all(p)
        y, ep, pi = rf.block("y"), rf.block("Epi"), rf.as_table()["pi"]
        for i in (0, 1, 2, 3, 5, 6, 7, 8, 9, 10):
            assert pi[i] == p.beta * ep[i] + p.k * y[i]
        assert pi[4] == p.beta * ep[4] + p.k * y[5]   # verbatim pattern break
        assert pi[11] == p.beta * ep[slots.OMEGA] - p.k
        assert pi[12] == p.beta * ep[slots.EPS_LAG1]
        assert pi[13] == p.beta * ep[slots.VARSIGMA]


def test_policy_rate_chain(rng):
    # the rate block includes the gap's structural -1 loading on the current
    # potential-output innovation so the rule holds path-wise
    for _ in range(10):
        p = random_params(rng)
        rf = compute_all(p)
        pi, yh, i_ = rf.block("pi"), rf.block("yhat"), rf.block("i")
        assert np.array_equal(i_, p.alpha_pi * pi + p.alpha_y * yh)


def test_unemployment_chain(rng):
    for _ in range(10):
        p = random_params(rng)
        rf = compute_all(p)
        yh, u = rf.block("yhat"), rf.as_table()["u"]
        for i in range(11):
            assert u[i] == -p.theta * yh[i]
        assert u[11] == p.theta
        assert u[12] == p.rho_u


def test_expected_unemployment_chain(rng):
    for _ in range(10):
        p = random_params(rng)
        rf = compute_all(p)
        u, eu = rf.as_table()["u"], rf.as_table()["Eu"]
        assert eu[0] == u[0]
        assert eu[1] == p.rho_ybar * u[1]
        assert eu[2] == u[1]
        assert eu[3] == p.rho_g * u[3]
        assert eu[4] == u[3]
        assert eu[5] == p.rho_tax * u[5]
        assert eu[6] == u[5]
        assert eu[7] == p.rho_chi * u[7]
        assert eu[8] == u[7]
        assert eu[9] == p.rho_u * u[12]
        assert eu[10] == u[12]


def test_rate_is_minus_sigma_times_output(rng):
    for _ in range(10):
        p = random_params(rng)
        rf = compute_all(p)
        r, y = rf.as_table()["r"], rf.as_table()["y"]
        for i in (0, 1, 2):
            assert r[i] == pytest.approx(-p.sigma * y[i], rel=1e-12, abs=1e-300)
        # the proportionality in fact spans the whole block
        for i in range(11):
            assert r[i] == pytest.approx(-p.sigma * y[i], rel=1e-9, abs=1e-12)


def test_intercept_separation(rng):
    for _ in range(5):
        p = random_params(rng)
        base = compute_all(p).as_table()
        bumped = compute_all(p.replace(c0=p.c0 + 0.3, s0=p.s0 - 0.2)).as_table()
        for var in slots.VARIABLES:
            for i in base[var]:
                if i == 0:
                    continue
                assert bumped[var][i] == base[var][i], (var, i)


def test_gamma1_zero_kills_drift_entries():
    rf = compute_all(validate({**DEFAULTS, "gamma1": 0.0}))
    y = rf.as_table()["y"]
    assert y[1] == 0.0 and y[2] == 0.0


def test_signal_neutral_rate_when_phi2_equals_gamma5():
    rf = compute_all(validate({**DEFAULTS, "phi2": 0.2, "gamma5": 0.2}))
    r = rf.as_table()["r"]
    assert r[7] == 0.0 and r[8] == 0.0


def test_information_entries_match_simplified_form(default_rf, default_params):
    # z7^y and z8^y are written over the scaled denominator s1*D; they reduce
    # to rho_chi*P/D and P/D
    p = default_params
    D = p.denominator()
    P = (p.c1 - p.s1) * (p.gamma5 - p.phi2)
    y = default_rf.as_table()["y"]
    assert y[7] == pytest.approx(p.rho_chi * P / D, rel=1e-12)
    assert y[8] == pytest.approx(P / D, rel=1e-12)


def test_steady_state_policy_rate_identity(rng):
    for _ in range(10):
        p = random_params(rng)
        rf = compute_all(p)
        ss = steady_state(rf)
        assert ss["i"] == pytest.approx(
            p.alpha_pi * ss["pi"] + p.alpha_y * ss["yhat"], rel=1e-12, abs=1e-15)


def test_steady_state_is_zero_shock_fixed_point(default_rf, default_params):
    ep = simulate(default_rf, zero_path(default_params, 1000))
    ss = steady_state(default_rf)
    for var, value in ss.items():
        assert np.max(np.abs(ep[var] - value)) <= 1e-12
