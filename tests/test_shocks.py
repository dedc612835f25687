import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nkji import draw, from_innovations, signal, slots, zero_path
from nkji.params import DEFAULTS, validate
from nkji.shocks import AR_STATES, KINDS, LagState, UnknownShockKind, impulse_path
from nkji.sim import regressor_matrix


def test_same_seed_bitwise_identical(default_params):
    a = draw(default_params, 42, 500)
    b = draw(default_params, 42, 500)
    for k in KINDS:
        assert np.array_equal(a.innovation(k), b.innovation(k))
    for s in AR_STATES:
        assert np.array_equal(a.state(s), b.state(s))
    assert np.array_equal(a.ybar, b.ybar)


def test_ar_states_keep_the_slot_order():
    # irf's CSV lists the AR states in this order, after the series
    assert tuple(AR_STATES) == ("mu", "g", "tax", "chi", "eps", "ubar")
    assert AR_STATES["mu"] == ("rho_ybar", "omega")
    assert AR_STATES["chi"] == ("rho_chi", "lambda")


def test_different_seeds_differ(default_params):
    a = draw(default_params, 1, 100)
    b = draw(default_params, 2, 100)
    assert not np.array_equal(a.innovation("omega"), b.innovation("omega"))


def test_zero_scales_give_zero_paths():
    p = validate({**DEFAULTS, **{f: 0.0 for f in (
        "sd_omega", "sd_eta_g", "sd_taxshock", "sd_lambda", "sd_xi", "sd_v",
        "sd_costpush", "sd_natu", "sd_noise")}})
    path = draw(p, 7, 200)
    for k in KINDS:
        assert not path.innovation(k).any()
    for s in AR_STATES:
        assert not path.state(s).any()


def test_ar_recursions_exact(default_params):
    path = draw(default_params, 11, 300)
    for name, (rho_field, kind) in AR_STATES.items():
        rho = getattr(default_params, rho_field)
        x = path.state(name)
        innov = path.innovation(kind)
        assert x[0] == rho * 0.0 + innov[0]
        for t in range(1, 300):
            assert x[t] == rho * x[t - 1] + innov[t]


def test_initial_lags_enter_recursions(default_params):
    init = LagState(chi=2.0, mu=(1.0, 0.5), g=0.3,
                    tax=-0.4, eps=0.1, ubar=0.2, ybar_level=5.0)
    path = zero_path(default_params, 3, initial=init)
    p = default_params
    assert path.state("chi")[0] == p.rho_chi * 2.0
    assert path.state("mu")[0] == p.rho_ybar * 1.0
    assert path.state("g")[0] == p.rho_g * 0.3
    assert path.state("tax")[0] == p.rho_tax * -0.4
    assert path.ybar[0] == 5.0 + path.state("mu")[0]
    assert regressor_matrix(path)[0, slots.OMEGA_LAG1] == 1.0 - p.rho_ybar * 0.5


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(-0.95, 0.95), seed=st.integers(0, 2**32 - 1))
def test_recursion_property(rho, seed):
    p = validate({**DEFAULTS, "rho_chi": rho})
    path = draw(p, seed, 50)
    chi, lam = path.state("chi"), path.innovation("lambda")
    for t in range(1, 50):
        assert chi[t] == rho * chi[t - 1] + lam[t]


def test_unconditional_variance():
    p = validate({**DEFAULTS, "sd_lambda": 0.01, "rho_chi": 0.5})
    path = draw(p, 20260809, 100_000)
    target = 0.01**2 / (1.0 - 0.25)
    assert np.var(path.state("chi")) == pytest.approx(target, rel=0.03)


def test_lag1_autocorrelation_tracks_persistence(default_params):
    path = draw(default_params, 3, 100_000)
    for name, (rho_field, _) in AR_STATES.items():
        x = path.state(name)
        d = x - x.mean()
        r1 = float(d[1:] @ d[:-1] / (d @ d))
        assert abs(r1 - getattr(default_params, rho_field)) < 0.02, name


def test_streams_uncorrelated(default_params):
    T = 100_000
    path = draw(default_params, 5, T)
    bound = 4.0 / np.sqrt(T)
    arrs = [path.innovation(k) for k in KINDS]
    for i in range(len(arrs)):
        for j in range(i + 1, len(arrs)):
            r = float(np.corrcoef(arrs[i], arrs[j])[0, 1])
            assert abs(r) < bound, (KINDS[i], KINDS[j], r)


def test_zeroing_one_scale_leaves_other_streams(default_params):
    p0 = validate({**default_params.as_dict(), "sd_xi": 0.0})
    a = draw(default_params, 99, 400)
    b = draw(p0, 99, 400)
    assert not b.innovation("xi").any()
    for k in KINDS:
        if k != "xi":
            assert np.array_equal(a.innovation(k), b.innovation(k)), k


def test_signal_transparent_is_chi_bitwise(default_params):
    path = draw(default_params, 8, 1000)
    assert np.array_equal(signal(path, transparent=True), path.state("chi"))


def test_signal_zero_noise_equals_chi():
    p = validate({**DEFAULTS, "sd_noise": 0.0})
    path = draw(p, 8, 1000)
    assert np.array_equal(signal(path, transparent=False), path.state("chi"))


def test_signal_variance_adds_noise_variance():
    p = validate({**DEFAULTS, "sd_noise": 0.02})
    path = draw(p, 20260809, 100_000)
    target = np.var(path.state("chi")) + 0.02**2
    assert np.var(signal(path, transparent=False)) == pytest.approx(target, rel=0.03)


def test_impulse_path():
    p = validate(DEFAULTS)
    path = impulse_path(p, "lambda", 10)
    lam = path.innovation("lambda")
    assert lam[0] == 1.0 and not lam[1:].any()
    chi = path.state("chi")
    for h in range(10):
        assert abs(chi[h] - p.rho_chi**h) < 1e-15
    with pytest.raises(UnknownShockKind):
        impulse_path(p, "nope", 10)


def test_from_innovations_validation(default_params):
    bad = {k: np.zeros(5) for k in KINDS}
    bad["xi"] = np.zeros(6)
    with pytest.raises(ValueError):
        from_innovations(default_params, bad)
    with pytest.raises(ValueError):
        from_innovations(default_params, {k: np.zeros(0) for k in KINDS})


def test_paths_are_immutable(default_params):
    path = draw(default_params, 4, 50)
    with pytest.raises(ValueError):
        path.state("chi")[0] = 1.0


def test_accumulate_holds_no_path_long_list():
    # the recursion as one list over the whole path, bitwise; the traced peak
    # of the chunked loop stays near the array it returns
    import tracemalloc

    from nkji.shocks import _accumulate

    innov = np.random.default_rng(3).standard_normal(200_000)
    want, prev = [], 0.25
    for x in innov[:5000].tolist():
        prev = 0.9 * prev + x
        want.append(prev)
    assert np.array_equal(_accumulate(0.9, innov[:5000], 0.25), want)
    tracemalloc.start()
    try:
        out = _accumulate(0.9, innov, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == innov.shape
    assert peak <= out.nbytes + 0.5 * 2**20, peak
