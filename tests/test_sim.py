import numpy as np
import pytest

from nkji import (compute_all, draw, forecast_error, irf, job_insecurity,
                  simulate, steady_state, transparency_audit, zero_path,
                  expectations, search_paradox)
from nkji.params import DEFAULTS, validate
from nkji.coeffs import _chain_expectation
from nkji.shocks import KINDS, combine, impulse_path
from nkji.sim import (SERIES, BudgetModeConflict, MissingState, regressor_matrix,
                      _EXPECTATION_SLOTS)
from nkji import slots

ZERO_STATE = {name: 0.0 for name in slots.STATE_NAMES}


def test_zero_shocks_hold_steady_state(default_rf, default_params):
    ep = simulate(default_rf, zero_path(default_params, 1000))
    for var, value in steady_state(default_rf).items():
        assert np.max(np.abs(ep[var] - value)) <= 1e-12


def test_taylor_rule_pathwise(default_rf, default_params):
    ep = simulate(default_rf, draw(default_params, 42, 10_000))
    resid = ep["i"] - default_params.alpha_pi * ep["pi"] \
        - default_params.alpha_y * ep["yhat"]
    assert np.max(np.abs(resid)) <= 1e-12


def test_okun_pathwise(default_rf, default_params):
    path = draw(default_params, 42, 10_000)
    ep = simulate(default_rf, path)
    resid = (ep["u"] - path.state("ubar")) \
        + default_params.theta * (ep["y"] - path.state("mu"))
    assert np.max(np.abs(resid)) <= 1e-12


def test_saving_equals_investment_by_construction(default_rf, default_params):
    ep = simulate(default_rf, draw(default_params, 7, 100))
    assert "I" in ep.series  # a single shared series stands for both


def test_superposition(default_rf, default_params):
    a = draw(default_params, 1, 400)
    b = draw(default_params, 2, 400)
    both = simulate(default_rf, combine(a, b))
    ea, eb = simulate(default_rf, a), simulate(default_rf, b)
    ss = steady_state(default_rf)
    for var in ("r", "y", "yhat", "pi", "c", "I", "i", "u"):
        gap = both[var] - (ea[var] + eb[var] - ss[var])
        assert np.max(np.abs(gap)) <= 1e-10, var


def test_balanced_budget_requires_equal_persistence(default_rf, default_params):
    path = draw(default_params, 3, 50)
    p_bad = validate({**DEFAULTS, "rho_g": 0.8, "rho_tax": 0.5})
    rf_bad = compute_all(p_bad)
    with pytest.raises(BudgetModeConflict):
        simulate(rf_bad, draw(p_bad, 3, 50), budget_mode="balanced")
    ep = simulate(default_rf, path, budget_mode="balanced")
    assert np.array_equal(ep.path.state("g"), ep.path.state("tax"))


def test_unknown_budget_mode(default_rf, default_params):
    with pytest.raises(ValueError):
        simulate(default_rf, zero_path(default_params, 5), budget_mode="mixed")


# --- point-wise expectations -------------------------------------------------

def test_expectations_intercepts(default_rf):
    e = expectations(default_rf, ZERO_STATE)
    assert e["Ey"] == default_rf.block("y")[slots.CONST]
    assert e["Eu"] == default_rf.block("Eu")[slots.CONST]


def test_expected_output_ignores_nonpersistent_shocks(default_rf):
    # expected inflation is the exception: its equation carries current
    # preference, idiosyncratic and potential-output innovations
    base = expectations(default_rf, ZERO_STATE)
    for sym in ("xi", "v", "omega"):
        bumped = expectations(default_rf, {**ZERO_STATE, sym: 3.7})
        for key in ("Ey", "Eyhat", "Eu"):
            assert bumped[key] == base[key], (sym, key)
        assert bumped["Epi"] != base["Epi"]


def test_expected_output_unit_information_state(default_rf):
    # lambda = 1 with a zero lagged information state makes the current
    # information state equal one
    e = expectations(default_rf, {**ZERO_STATE, "lambda": 1.0})
    y = default_rf.block("y")
    assert e["Ey"] - y[slots.CONST] == pytest.approx(y[slots.CHI_LAG1], rel=1e-14)


def test_expectations_missing_symbol(default_rf):
    state = dict(ZERO_STATE)
    del state["tax_lag1"]
    with pytest.raises(MissingState):
        expectations(default_rf, state)
    with pytest.raises(ValueError, match="unknown state symbol"):
        expectations(default_rf, {**ZERO_STATE, "bogus": 1.0})


# --- job insecurity ----------------------------------------------------------

def test_job_insecurity_zero_state(default_rf):
    assert job_insecurity(default_rf, ZERO_STATE) == 0.0


def test_job_insecurity_ignores_nonpersistent_shocks(default_rf, rng):
    for _ in range(25):
        state = {name: float(rng.normal()) for name in slots.STATE_NAMES}
        base = job_insecurity(default_rf, state)
        for sym in ("xi", "v"):
            assert job_insecurity(default_rf, {**state, sym: float(rng.normal())}) == base


def test_job_insecurity_unit_natural_unemployment_shock(default_rf, default_params):
    ji = job_insecurity(default_rf, {**ZERO_STATE, "T_natu": 1.0})
    assert ji == default_params.rho_u


def test_job_insecurity_two_routes(default_rf, rng):
    eu = default_rf.as_table()["Eu"]
    u0 = default_rf.block("u")[slots.CONST]
    # indexed evaluation of the insecurity equation (no intercept)
    idx_to_name = {1: "ybar_lag2", 2: "omega_lag1", 3: "g_lag1", 4: "eta",
                   5: "tax_lag1", 6: "L", 7: "chi_lag1", 8: "lambda",
                   9: "ubar_lag1", 10: "T_natu"}
    for _ in range(100):
        state = {name: float(rng.normal()) for name in slots.STATE_NAMES}
        direct = sum(eu[i] * state[n] for i, n in idx_to_name.items())
        via_expectation = expectations(default_rf, state)["Eu"] - u0
        ji = job_insecurity(default_rf, state)
        scale = max(1.0, abs(direct))
        assert abs(ji - direct) <= 1e-12 * scale
        assert abs(ji - via_expectation) <= 1e-12 * scale


def test_job_insecurity_matches_simulated_series(default_rf, default_params):
    ep = simulate(default_rf, draw(default_params, 21, 200))
    R = regressor_matrix(ep.path)
    u0 = default_rf.block("u")[slots.CONST]
    assert np.array_equal(ep["JI"], ep["Eu"] - u0)
    # point-wise evaluator agrees with the emitted series at every period
    for t in (0, 1, 57, 199):
        state = {name: float(R[t, j + 1])
                 for j, name in enumerate(slots.STATE_NAMES)}
        assert job_insecurity(default_rf, state) == pytest.approx(
            ep["JI"][t], rel=1e-13, abs=1e-15)


# --- forecast errors ---------------------------------------------------------

def test_forecast_error_zero_without_shocks(default_rf, default_params):
    ep = simulate(default_rf, zero_path(default_params, 100))
    assert not forecast_error(ep).series.any()


def test_forecast_error_is_next_output_minus_expectation(default_rf, default_params):
    ep = simulate(default_rf, draw(default_params, 5, 300))
    fe = forecast_error(ep)
    assert np.array_equal(fe.series, ep["y"][1:] - ep["Ey"][:-1])


def test_forecast_error_whiteness(default_rf, default_params):
    ep = simulate(default_rf, draw(default_params, 20260809, 100_000))
    fe = forecast_error(ep)
    assert abs(fe.mean) <= 4.0 * fe.se
    assert abs(fe.lag1_autocorr) <= 0.01
    p, y = default_params, default_rf.block("y")
    analytic = (y[2]**2 * p.sd_omega**2 + y[4]**2 * p.sd_eta_g**2
                + y[6]**2 * p.sd_taxshock**2 + y[8]**2 * p.sd_lambda**2
                + y[9]**2 * p.sd_xi**2 + y[10]**2 * p.sd_v**2)
    assert np.var(fe.series, ddof=1) == pytest.approx(analytic, rel=0.05)


def test_series_are_one_matvec_per_block(default_rf, default_params):
    # the byte-identity reference: every emitted series is exactly R @ block
    # over the path's regressor matrix
    blocks = {v: default_rf.block(v) for v in SERIES if v not in ("Ey", "JI")}
    blocks["Ey"] = _chain_expectation(default_rf.block("y"), default_params)
    u0 = default_rf.block("u")[slots.CONST]
    for mode in ("independent", "balanced"):
        ep = simulate(default_rf, draw(default_params, 42, 500), budget_mode=mode)
        R = regressor_matrix(ep.path)
        for var, blk in blocks.items():
            assert np.array_equal(ep[var], R @ blk), (mode, var)
        assert np.array_equal(ep["JI"], R @ blocks["Eu"] - u0), mode
    for kind in KINDS:
        table = irf(default_rf, kind, 25)
        R = regressor_matrix(impulse_path(default_params, kind, 25))
        R[:, slots.CONST] = 0.0
        for var, blk in blocks.items():
            assert np.array_equal(table[var], R @ blk), (kind, var)
        assert np.array_equal(table["JI"], R @ blocks["Eu"]), kind


# --- impulse responses -------------------------------------------------------

def test_irf_news_shock_information_state(default_rf, default_params):
    table = irf(default_rf, "lambda", 30)
    rho = default_params.rho_chi
    assert np.max(np.abs(table["chi"] - rho ** np.arange(30))) <= 1e-14


def test_irf_preference_shock_dies_immediately(default_rf):
    table = irf(default_rf, "xi", 20)
    assert table["u"][0] == default_rf.as_table()["u"][9]
    for var in SERIES:
        assert not table[var][1:].any(), var


def test_irf_idiosyncratic_shock_dies_immediately(default_rf):
    table = irf(default_rf, "v", 20)
    for var in SERIES:
        assert not table[var][1:].any(), var


def test_irf_potential_innovation_gap_impact(default_rf):
    table = irf(default_rf, "omega", 10)
    assert table["yhat"][0] == -1.0


def test_irf_noise_shock_is_equilibrium_neutral(default_rf):
    table = irf(default_rf, "Xi", 10)
    for var in SERIES:
        assert not table[var].any(), var


def test_irf_linearity_power_of_two_exact(default_rf):
    unit = irf(default_rf, "eta", 25)
    for a in (2.0, 0.5, -4.0):
        scaled = irf(default_rf, "eta", 25, size=a)
        for var in SERIES:
            assert np.array_equal(scaled[var], a * unit[var]), (a, var)


def test_irf_linearity_general_scale(default_rf):
    unit = irf(default_rf, "L", 25)
    scaled = irf(default_rf, "L", 25, size=1.7)
    for var in SERIES:
        assert np.allclose(scaled[var], 1.7 * unit[var], rtol=1e-12, atol=1e-15)


def test_irf_bounds(default_rf):
    with pytest.raises(ValueError):
        irf(default_rf, "eta", 0)


# --- transparency ------------------------------------------------------------

def test_audit_covers_all_variables(default_rf):
    audit = transparency_audit(default_rf)
    assert set(audit.entries) == set(slots.VARIABLES)


def test_audit_signal_neutral_rate():
    rf = compute_all(validate({**DEFAULTS, "phi2": 0.2, "gamma5": 0.2}))
    entry = transparency_audit(rf).entries["r"]
    assert entry["z7"] == 0.0 and entry["z8"] == 0.0
    assert entry["sign7"] == 0 and entry["sign8"] == 0


def test_audit_signs_match_news_perturbation(default_rf, default_params):
    audit = transparency_audit(default_rf)
    base = simulate(default_rf, zero_path(default_params, 2))
    bumped = simulate(default_rf, impulse_path(default_params, "lambda", 2))
    for var in slots.VARIABLES:
        delta = bumped[var][0] - base[var][0]
        assert int(np.sign(delta)) == audit.entries[var]["sign8"], var


def test_paradox_search_finds_adverse_disclosure():
    p = search_paradox(seed=1, max_draws=2000)
    assert p is not None
    rf = compute_all(p)
    assert rf.block("Eu")[slots.LAM] > 0
    assert transparency_audit(rf).paradox("Eu")


def test_expectation_slots_exclude_unreferenced_innovations():
    assert _EXPECTATION_SLOTS == (1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 14, 15)
