import json
import logging

import pytest
from hypothesis import given, settings, strategies as st

from nkji.params import (DEFAULTS, EPS_SING, FIELD_NAMES, RHO_FIELDS, SD_FIELDS,
                         InvalidParams, StructuralParams, load_calibration, validate)

RHOS = ("rho_chi", "rho_ybar", "rho_g", "rho_tax", "rho_eps", "rho_u")
SDS = ("sd_omega", "sd_eta_g", "sd_taxshock", "sd_lambda", "sd_xi", "sd_v",
       "sd_costpush", "sd_natu", "sd_noise")


def kinds(err: InvalidParams) -> set[tuple[str, str]]:
    return {(v.kind, v.field) for v in err.violations}


def test_defaults_accepted():
    p = validate(DEFAULTS)
    assert isinstance(p, StructuralParams)
    assert validate({}).as_dict() == p.as_dict()


def test_nonstationary_rho_chi():
    with pytest.raises(InvalidParams) as exc:
        validate({**DEFAULTS, "rho_chi": 1.0})
    assert kinds(exc.value) == {("NonStationary", "rho_chi")}


@pytest.mark.parametrize("field", RHOS)
def test_each_persistence_named(field):
    with pytest.raises(InvalidParams) as exc:
        validate({**DEFAULTS, field: -1.25})
    assert kinds(exc.value) == {("NonStationary", field)}


@pytest.mark.parametrize("field", SDS)
def test_each_scale_named(field):
    with pytest.raises(InvalidParams) as exc:
        validate({**DEFAULTS, field: -0.01})
    assert kinds(exc.value) == {("NegativeScale", field)}


def test_singular_shared_denominator():
    # D = s1 - sigma*[c1*(gamma2+s2) + gamma2*s1]
    #   = 1 - (0.5*(0.5+0.5) + 0.5*1) = 0
    raw = {**DEFAULTS, "sigma": 1.0, "gamma2": 0.5, "c1": 0.5, "s2": 0.5, "s1": 1.0}
    with pytest.raises(InvalidParams) as exc:
        validate(raw)
    assert any(v.kind == "SingularDenominator" for v in exc.value.violations)


def test_singular_policy_denominator():
    raw = {**DEFAULTS, "beta": 0.99, "alpha_pi": 1.0 / 0.99}
    with pytest.raises(InvalidParams) as exc:
        validate(raw)
    assert any(v.kind == "SingularDenominator" for v in exc.value.violations)


def test_domain_violations():
    with pytest.raises(InvalidParams) as exc:
        validate({**DEFAULTS, "sigma": -1.0, "beta": 1.5, "theta": -0.2})
    assert {("InvalidDomain", f) for f in ("sigma", "beta", "theta")} == kinds(exc.value)


def test_all_violations_collected():
    bad = {**DEFAULTS, "rho_g": 2.0, "sd_xi": -1.0, "beta": 0.0}
    with pytest.raises(InvalidParams) as exc:
        validate(bad)
    assert kinds(exc.value) == {
        ("NonStationary", "rho_g"), ("NegativeScale", "sd_xi"),
        ("InvalidDomain", "beta"),
    }


@pytest.mark.parametrize("field, value", [("rho_chi", "inf"), ("sigma", "-inf"),
                                          ("theta", "-inf")])
def test_infinite_value_is_only_not_finite(field, value):
    # an infinity is reported once, as not finite: the range rules (a
    # persistence of modulus >= 1, sigma <= 0, theta < 0) read finite values
    with pytest.raises(InvalidParams) as exc:
        validate({**DEFAULTS, field: float(value)})
    assert [repr(v) for v in exc.value.violations] == [f"InvalidDomain({field}: not finite)"]


def test_denominator_of_exactly_eps_sing_is_singular():
    # at c1 = gamma2 = 0 the shared denominator is s1 itself, here EPS_SING
    # exactly, so both rules on s1 fire.  The Taylor rule's edge cannot be
    # built: where alpha_pi*beta is near 1, 1 - alpha_pi*beta is a multiple
    # of 2**-53, and EPS_SING is not
    with pytest.raises(InvalidParams) as exc:
        validate({**DEFAULTS, "s1": EPS_SING, "c1": 0.0, "gamma2": 0.0})
    assert [repr(v) for v in exc.value.violations] == [
        "SingularDenominator(s1: s1 - sigma*[c1*(gamma2+s2) + gamma2*s1] ~ 0)",
        "SingularDenominator(s1: s1 ~ 0)"]
    # 2e-10 is not: the threshold is 1e-10, not 1e-9
    validate({**DEFAULTS, "s1": 2e-10, "c1": 0.0, "gamma2": 0.0})


@pytest.mark.parametrize("value", [None, [1.0], 10**400], ids=["none", "list", "huge-int"])
def test_value_that_is_not_a_number(value):
    # reported once, as such, and not again by the domain rules of the field
    with pytest.raises(InvalidParams) as exc:
        validate({**DEFAULTS, "sigma": value})
    assert [repr(v) for v in exc.value.violations] == ["InvalidDomain(sigma: not a number)"]


def test_unknown_key_rejected():
    with pytest.raises(InvalidParams) as exc:
        validate({**DEFAULTS, "c2": 0.1})
    assert {v.field for v in exc.value.violations} == {"c2"}


def test_missing_keys_filled_with_notice(caplog):
    with caplog.at_level(logging.DEBUG, logger="nkji.params"):
        p = validate({"sigma": 2.0})
    assert p.sigma == 2.0
    assert p.beta == DEFAULTS["beta"]
    assert any("missing parameter" in rec.message for rec in caplog.records)
    # only a partial mapping gets the notice, not a complete or empty one
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="nkji.params"):
        validate(DEFAULTS)
        validate({})
    assert caplog.records == []


def test_idempotent_on_defaults():
    p = validate(DEFAULTS)
    assert validate(p).as_dict() == p.as_dict()
    assert validate(p.as_dict()).as_dict() == p.as_dict()


@settings(max_examples=40, deadline=None)
@given(
    sigma=st.floats(0.1, 5.0),
    beta=st.floats(0.5, 0.99),
    rho=st.floats(-0.99, 0.99),
    sd=st.floats(0.0, 1.0),
)
def test_idempotent_on_sampled_domains(sigma, beta, rho, sd):
    raw = {**DEFAULTS, "sigma": sigma, "beta": beta, "rho_g": rho, "sd_v": sd}
    try:
        p = validate(raw)
    except InvalidParams:
        return  # sampled a singular-denominator combination; nothing to check
    assert validate(p).as_dict() == p.as_dict()


def test_replace_revalidates(default_params):
    q = default_params.replace(theta=0.75)
    assert q.theta == 0.75
    with pytest.raises(InvalidParams):
        default_params.replace(rho_u=1.5)


def test_field_inventory():
    assert len(FIELD_NAMES) == 38
    assert set(DEFAULTS) == set(FIELD_NAMES)
    assert RHO_FIELDS == RHOS
    assert SD_FIELDS == SDS


def test_load_calibration_roundtrip(tmp_path):
    path = tmp_path / "calib.json"
    path.write_text(json.dumps({"sigma": 1.7, "theta": 0.3}))
    p = validate(load_calibration(str(path)))
    assert p.sigma == 1.7 and p.theta == 0.3


def test_load_calibration_unknown_key(tmp_path):
    path = tmp_path / "calib.json"
    path.write_text(json.dumps({"sigma_typo": 1.7}))
    with pytest.raises(InvalidParams):
        validate(load_calibration(str(path)))
