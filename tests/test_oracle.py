import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nkji import compute_all, draw, simulate, solve_undetermined
from nkji.coeffs import ReducedForm, _chain_expectation
from nkji import oracle
from nkji.oracle import (AUDIT_SLICE, SUSPECT_ENTRIES, Erratum, SingularSystem,
                         _condition_number, _matching_blocks, _residual,
                         _stability_slice, compare, random_params, residuals,
                         stability_run)
from nkji.params import (DEFAULTS, EPS_SING, FIELD_NAMES, InvalidParams,
                         SingularDenominator, StructuralParams, _domain_rules, validate)
from nkji.shocks import impulse_path
from nkji.sim import regressor_matrix
from nkji.statespace import fan_out
from nkji import slots
from conftest import _valid_range
from test_acceptance import EXPECTED_DIVERGENCES


def test_solution_is_well_conditioned(oracle_rf):
    assert oracle_rf.source == "undetermined-coefficients"
    assert 0 < oracle_rf.condition_number < 1e6


def test_structural_residuals_vanish_on_solved_path(oracle_rf, default_params):
    ep = simulate(oracle_rf, draw(default_params, 42, 2000))
    rep = residuals(ep)
    for eq, value in rep.max_abs.items():
        assert value <= 1e-9, (eq, value)
    assert rep.all_passed()


def test_residuals_on_closed_form_path(default_rf, default_params):
    ep = simulate(default_rf, draw(default_params, 42, 2000))
    rep = residuals(ep)
    assert rep.max_abs["okun"] <= 1e-12
    assert rep.max_abs["taylor"] <= 1e-12
    assert rep.max_abs["saving_investment"] <= 1e-12
    # the closed forms do not satisfy the remaining equations
    assert rep.max_abs["resource"] > 1e-6
    assert rep.max_abs["is_curve"] > 1e-6


def test_unemployment_link_imposed(rng):
    for _ in range(5):
        p = random_params(rng)
        orf = solve_undetermined(p)
        u, yh = orf.block("u"), orf.block("yhat")
        assert np.allclose(u[:11], -p.theta * yh[:11], rtol=1e-10, atol=1e-12)
        assert u[slots.UBAR_LAG1] == pytest.approx(p.rho_u, rel=1e-12)


def test_perceived_output_excludes_current_potential_innovation(rng):
    # decisions cannot react to the one unobserved innovation: the solved
    # output, rate, consumption and investment blocks carry no loading on it
    for _ in range(5):
        orf = solve_undetermined(random_params(rng))
        for var in ("r", "y", "c", "I"):
            assert orf.block(var)[slots.OMEGA] == 0.0, var


def test_drift_survives_without_investment_expectations():
    # gamma1 = 0 removes the long-run term from investment only; consumption
    # and saving still respond to expected drift, so the solved output keeps
    # its drift loadings (unlike the closed forms, whose drift entries are
    # proportional to gamma1)
    p = validate({**DEFAULTS, "gamma1": 0.0})
    orf = solve_undetermined(p)
    trf = compute_all(p)
    assert trf.block("y")[1] == 0.0
    assert abs(orf.block("y")[1]) > 1e-6
    keys = compare(trf, orf).keys()
    assert ("y", 1) in keys and ("y", 2) in keys


def test_coefficients_independent_of_shock_scales(default_params, oracle_rf):
    doubled = validate({**default_params.as_dict(),
                        **{f: 2 * getattr(default_params, f) for f in (
                            "sd_omega", "sd_eta_g", "sd_taxshock", "sd_lambda",
                            "sd_xi", "sd_v", "sd_costpush", "sd_natu", "sd_noise")}})
    orf2 = solve_undetermined(doubled)
    for var in slots.VARIABLES:
        assert np.array_equal(orf2.block(var), oracle_rf.block(var)), var


def test_compare_oracle_with_itself_is_empty(oracle_rf):
    assert compare(oracle_rf, oracle_rf).entries == []


def test_stability_run_without_draws():
    assert stability_run(0, seed=5) == (set(), True)


def test_compare_flags_stable_set(rng):
    seed = rng.integers(2**31)
    first, identical = stability_run(10, seed=seed)
    rows = _stability_slice(seed, 1e-6, range(10))
    assert identical
    assert len(first) == 124
    assert ("pi", 4) in first and ("Eyhat", 0) in first
    assert rows.shape == (10, len(slots.ENTRIES))
    ref = _per_draw(10, seed)
    assert [_keys(row) for row in rows] == [keys for keys, _, _ in ref]
    for keys, confirmed, cond in ref:
        assert keys == first
        assert confirmed == {"pi[4]": True, "Eyhat[0]": True}
        assert cond <= oracle.COND_WARN


def _keys(row):
    """The flagged entries of a flag row."""
    return {key for key, flag in zip(slots.ENTRIES, row) if flag}


def test_suspect_report_states_both_values(default_rf, oracle_rf, default_params):
    rep = compare(default_rf, oracle_rf)
    p = default_params
    pi4 = rep.suspects["pi[4]"]
    assert pi4["printed_value"] == default_rf.block("pi")[4]
    expected_variant = p.beta * default_rf.block("Epi")[4] + p.k * default_rf.block("y")[4]
    assert pi4["variant_value"] == expected_variant
    # forcing the variant on the closed-form side does not close the gap to
    # the numerical solution: the parent entries already diverge
    assert abs(pi4["variant_value"] - oracle_rf.block("pi")[4]) > 1e-6


def test_perturbed_output_coefficient_breaks_resource_constraint(oracle_rf, default_params):
    blocks = {v: oracle_rf.block(v).copy() for v in slots.VARIABLES}
    blocks["y"][slots.G_LAG1] += 1e-3
    broken = ReducedForm(params=default_params, slot_blocks=blocks, source="perturbed")
    ep = simulate(broken, impulse_path(default_params, "eta", 5))
    rep = residuals(ep)
    assert rep.max_abs["resource"] > 1e-4
    assert not rep.passed("resource")


def test_budget_residual_in_balanced_mode(oracle_rf, default_params):
    ep = simulate(oracle_rf, draw(default_params, 9, 500), budget_mode="balanced")
    rep = residuals(ep)
    assert rep.max_abs["budget"] == 0.0


def test_behavioral_equations_hold_on_solved_path(oracle_rf, default_params):
    # consumption, saving and investment recomputed here from scratch out of
    # parameters and path states; these equations are imposed by the solver
    # but never appear in the residual report
    p = default_params
    path = draw(p, 31, 1500)
    ep = simulate(oracle_rf, path)
    R = regressor_matrix(path)
    mu_l1 = p.rho_ybar * R[:, slots.YBAR_LAG2] + R[:, slots.OMEGA_LAG1]
    drift_sum = (p.rho_ybar / (1 - p.rho_ybar)) * (p.rho_ybar * mu_l1)
    L = ep["y"] + drift_sum     # solved output is observable (no omega loading)
    g, tax, chi = path.state("g"), path.state("tax"), path.state("chi")
    eta_comp = (p.phi1 * path.innovation("xi") + p.phi2 * chi
                + p.phi3 * path.innovation("v"))

    consumption = p.c0 + p.c1 * L + p.c3 * g - p.c4 * tax + eta_comp
    saving = p.s0 + p.s1 * L + p.s2 * ep["r"] - p.s3 * g - p.s4 * tax + eta_comp
    investment = (p.gamma1 * drift_sum - p.gamma2 * ep["r"]
                  - p.gamma3 * g - p.gamma4 * tax + p.gamma5 * chi)
    assert np.max(np.abs(ep["c"] - consumption)) <= 1e-10
    assert np.max(np.abs(ep["I"] - saving)) <= 1e-10
    assert np.max(np.abs(ep["I"] - investment)) <= 1e-10


def test_singular_matching_system_reported():
    # (1 - c1)*(s2 + gamma2) - gamma2*s1 = 0 collapses the market-clearing
    # block of the matching system while the closed-form denominator stays
    # regular
    p = validate({**DEFAULTS, "c1": 0.5, "s2": 0.1, "gamma2": 0.4, "s1": 0.625})
    assert abs(p.denominator()) > 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystem):
            solve_undetermined(p)


def test_ar_links_are_the_oracles_ar_laws():
    # the audit states its AR laws on its own (oracle._exogenous); each row
    # of slots.AR_LINKS must be one of them: the state's vector holds rho at
    # the lag slot, 1.0 at the innovation slot and 0 elsewhere.  The drift's
    # mu_t is rho_ybar * mu_{t-1} + omega_t, with mu_{t-1} the row's vector
    rng = np.random.default_rng(11)
    for p in [validate(DEFAULTS)] + [random_params(rng) for _ in range(5)]:
        states = dict(zip(("mu", "g", "tax", "chi", "eps", "ubar"), oracle._exogenous(p)))
        assert [link.state for link in slots.AR_LINKS] == list(states)
        for link in slots.AR_LINKS:
            rho = getattr(p, link.rho)
            law = rho * slots.unit(link.lag) + slots.unit(link.innovation)
            if link.state == "mu":
                law = rho * law + slots.unit(slots.OMEGA)
            assert np.array_equal(states[link.state], law), link.state


def test_slot_groups_partition_the_basis():
    # every slot is the constant, a lone innovation or one end of one AR link
    groups = oracle._LONE_SLOTS + oracle._LINKED_SLOTS
    assert sorted(s for group in groups for s in group) == list(range(slots.NSLOT))


def test_matching_matrix_equals_column_probes():
    # the vectorised assembly against the per-column reference: every
    # element goes through the same IEEE operations, so equality is exact
    rng = np.random.default_rng(7)
    eye = np.eye(144)
    for p in [validate(DEFAULTS)] + [random_params(rng) for _ in range(20)]:
        probes = np.column_stack([_residual(e, p) for e in eye])
        assert np.array_equal(_residual(eye, p), probes)
        cols = rng.normal(size=(16, 5))
        assert np.array_equal(
            _chain_expectation(cols, p),
            np.column_stack([_chain_expectation(c, p) for c in cols.T]))


#: the ROADMAP's boundary points of the valid domain, where parameters the
#: random draws keep away from zero are zero
_BOUNDARY_POINTS = ({"c0": 0.0, "s0": 0.0}, {"theta": 0.0}, {"phi1": 0.0, "phi3": 0.0},
                    {"rho_chi": 0.0}, {"rho_eps": 0.0}, {"c0": 0.2, "s0": -0.1})


def test_block_condition_number_is_exact():
    # M is a permuted direct sum of its 10 slot blocks, so their singular
    # values are all of M's: nothing lies outside them, and the condition
    # number is that of the full SVD up to rounding
    block = np.zeros(144 * 144, dtype=bool)
    block[oracle._BLOCK_TAKE] = True
    assert block.sum() == 4 * 9 * 9 + 6 * 18 * 18
    rng = np.random.default_rng(11)
    points = ([validate(DEFAULTS)]
              + [validate({**DEFAULTS, **point}) for point in _BOUNDARY_POINTS]
              + [random_params(rng) for _ in range(300)])
    for p in points:
        lone, linked, _ = _matching_blocks(p)
        M = _identity_evaluation(p)[0]
        assert np.all(M.ravel()[~block] == 0.0)
        cond = _condition_number(lone, linked)
        assert cond == pytest.approx(np.linalg.cond(M), rel=1e-10)
        assert solve_undetermined(p).condition_number == cond


def test_non_finite_blocks_have_an_infinite_condition_number(monkeypatch):
    # no SVD sees a non-finite entry, which LAPACK would report on stdout;
    # the finite cells of a stack keep their condition numbers
    lone, linked, _ = _matching_blocks(_stacked([validate(DEFAULTS)] * 3))
    want = _condition_number(lone, linked)
    lone, linked = lone.copy(), linked.copy()
    lone[0, 2, 4, 4] = np.inf
    linked[1, 5, 0, 17] = np.nan
    svd = np.linalg.svd

    def finite_svd(a, **kwargs):
        assert np.isfinite(a).all()
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", finite_svd)
    got = _condition_number(lone, linked)
    assert got[0] == got[1] == np.inf and got[2] == want[2]
    assert _condition_number(lone[0], linked[0]) == np.inf


def test_singular_block_is_a_singular_system(monkeypatch):
    # an exactly singular block gives an infinite condition number, without
    # a division warning, and the report's solve and the block solve of a
    # slice report it
    lone, linked, b = _matching_blocks(validate(DEFAULTS))
    lone[oracle._LONE_SLOTS.index((slots.XI,))] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _condition_number(lone, linked) == np.inf
        monkeypatch.setattr(oracle, "_matching_blocks", lambda p: (lone, linked, b))
        with pytest.raises(SingularSystem, match="cond ~ inf"):
            solve_undetermined(validate(DEFAULTS))
        with pytest.raises(SingularSystem, match="cond ~ inf"):
            oracle._block_solve(validate(DEFAULTS), lone, linked, b)


def _screened_blocks():
    """The blocks of 2000 draws in stacked slices of 100, then those of the
    boundary points and of s2 = gamma2 = 0, where the system is singular."""
    rng = np.random.default_rng(41)
    for _ in range(20):
        yield _matching_blocks(_stacked([random_params(rng) for _ in range(100)]))[:2]
    for point in _BOUNDARY_POINTS + ({"s2": 0.0, "gamma2": 0.0},):
        yield _matching_blocks(validate({**DEFAULTS, **point}))[:2]


def test_linked_blocks_are_block_lower_triangular():
    # a lag slot's equations read no unknown of its innovation slot, so the
    # upper-right 9x9 of every linked block is exactly 0; a slice whose
    # linked block breaks this is not certified by the screen
    for lone, linked in _screened_blocks():
        assert np.all(linked[..., :9, 9:] == 0.0)
    lone, linked, _ = _matching_blocks(_stacked(_points(43)[:AUDIT_SLICE]))
    linked[3, 2, 0, 9] = 1e-3
    bound = oracle._condition_bound(lone, linked)[0]
    assert bound[3] == np.inf and np.all(np.delete(bound, 3) <= oracle.COND_WARN)


def test_condition_bound_bounds_the_condition_number():
    # the screen's bound from the inverses of the diagonal 9x9 blocks is
    # never below the exact condition number: over 2000 draws in stacked
    # slices and at the boundary points; where s2 = gamma2 = 0 leaves the
    # system singular, the inverse raises, which sends the solve to the
    # exact path
    for lone, linked in _screened_blocks():
        try:
            bound = oracle._condition_bound(lone, linked)[0]
        except np.linalg.LinAlgError:
            assert _condition_number(lone, linked) == np.inf
            continue
        assert np.all(bound >= _condition_number(lone, linked))


def _counting(monkeypatch, name):
    """Count the calls of the oracle function ``name``."""
    calls = []
    unpatched = getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args: calls.append(1) or unpatched(*args))
    return calls


def test_slice_above_the_screen_takes_the_exact_path(monkeypatch):
    # one block of one draw scaled by a power of two, with its right-hand
    # side: the draw's condition number rises past COND_WARN, yet stays
    # below the singular threshold, and the LU arithmetic scales exactly,
    # so the slice takes the exact path and solves to the same bits
    p = _stacked(_points(43)[:AUDIT_SLICE])
    lone, linked, b = _matching_blocks(p)
    exact = _counting(monkeypatch, "_nonsingular")
    want = oracle._block_solve(p, lone, linked, b)
    assert exact == []
    for scale in (2.0 ** k for k in range(30, 60)):
        scaled = lone.copy(), linked.copy(), b.copy()
        scaled[0][3, 1] *= scale
        scaled[2][3, oracle._LONE_INDEX[1]] *= scale
        if 1e12 < _condition_number(*scaled[:2])[3] <= 1e15:
            break
    else:
        pytest.fail("no scale puts the condition number between 1e12 and 1e15")
    got = oracle._block_solve(p, *scaled)
    assert exact == [1]
    for v in slots.VARIABLES:
        assert np.array_equal(got[v], want[v]), v


def test_block_solve_reports_the_singular_rate_block():
    # at s2 = gamma2 = 0 the rate drops out of saving and investment: the
    # block solve of the draws raises the message of the report's solve
    p = validate({**DEFAULTS, "s2": 0.0, "gamma2": 0.0})
    with pytest.raises(SingularSystem) as want:
        solve_undetermined(p)
    with pytest.raises(SingularSystem) as got:
        oracle._block_solve(p, *_matching_blocks(p))
    assert str(got.value) == str(want.value) == "matching system is singular (cond ~ inf)"


def test_rate_free_surfaces_are_singular():
    # the rate enters only saving and investment: where s2 + gamma2 = 0 the
    # current potential-output slot, whose perceived output is projected
    # out, leaves it undetermined, and where (s2 + gamma2)(1 - c1) =
    # s1 gamma2 every other slot does; validate accepts both surfaces, and
    # the report's solve and the block solve of a slice raise the same
    # message on each
    rng = np.random.default_rng(47)
    for _ in range(40):
        p = random_params(rng).as_dict()
        for point in ({"gamma2": -p["s2"]},
                      {"s1": (p["s2"] + p["gamma2"]) * (1.0 - p["c1"]) / p["gamma2"]}):
            try:
                q = validate({**p, **point})
            except InvalidParams:
                continue
            with pytest.raises(SingularSystem) as want:
                solve_undetermined(q)
            with pytest.raises(SingularSystem) as got:
                oracle._block_solve(q, *_matching_blocks(q))
            assert str(got.value) == str(want.value)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({name: _valid_range(name) for name in FIELD_NAMES}))
@example({**dict.fromkeys(FIELD_NAMES, 0.0), "sigma": 1.0, "beta": 0.251953125,
          "alpha_pi": 4.0, "alpha_y": -2.0, "s1": 2.0, "s2": -2.0, "gamma2": -1.0})
def test_audit_claim_holds_over_the_valid_domain(raw):
    # the report's route over the valid domain.  An entry it flags outside
    # the frozen divergences differs by no more than the solve's rounding,
    # eps cond times the largest coefficient: compare's absolute floor of
    # 1e-12 lets such dust through where the coefficients are large, as at
    # the example (cond 9.4e3, Epi up to 512: Epi[12] is 3.6e-12 against
    # -0.0).  Where the route fails, it raises one of its numerical
    # failures, and only where the matching system is ill-conditioned (on
    # or near the rate-free surfaces, or at a sigma near 0, by which the
    # demand equation divides): a backward-stable solve leaves a gap of
    # about eps cond |b|, which reaches the gap check's 1e-8 |b| only past a
    # condition number of about 4.5e7
    try:
        p = validate(raw)
    except InvalidParams:
        return
    with np.errstate(all="ignore"):
        try:
            tables, solved = compute_all(p), solve_undetermined(p)
            report = compare(tables, solved)
        except (SingularSystem, oracle.AnsatzInconsistent, slots.StrayLoadings) as err:
            assert _condition_number(*_matching_blocks(p)[:2]) > 1e7, err
            return
    scale = np.abs(np.concatenate([tables.exported(), solved.exported()])).max()
    for e in report.entries:
        if e.key() not in EXPECTED_DIVERGENCES:
            assert abs(e.table_value - e.oracle_value) <= 1e-15 * report.condition_number * scale, e


def test_unsatisfied_solve_is_ansatz_inconsistent(monkeypatch):
    # a solve whose result misses the equations is caught by the gap check
    # of the block solve, for one and for stacked cells, and of the
    # report's solve: both go through the inverses of np.linalg.inv
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inv(a) + 1e-3)
    for p in (validate(DEFAULTS), _stacked([validate(DEFAULTS), random_params(
            np.random.default_rng(5))])):
        with pytest.raises(oracle.AnsatzInconsistent, match="gap"):
            oracle._block_solve(p, *_matching_blocks(p))
    with pytest.raises(oracle.AnsatzInconsistent, match="gap"):
        solve_undetermined(validate(DEFAULTS))


def _compare_reference(tables, oracle_rf, tol, abs_floor):
    """The per-entry loop ``compare`` replaces."""
    out = []
    for var in slots.VARIABLES:
        for idx, slot in enumerate(slots.INDEX_SETS[var]):
            tv, ov = float(tables.block(var)[slot]), float(oracle_rf.block(var)[slot])
            diff = abs(tv - ov)
            scale = max(abs(tv), abs(ov))
            rel = diff / scale if scale > 0 else 0.0
            if diff > max(tol * scale, abs_floor):
                note = ("pattern-breaking entry; see suspects"
                        if (var, idx) in SUSPECT_ENTRIES else "")
                out.append(Erratum(var, idx, tv, ov, rel, note))
    return out


def _bits(entries):
    return [(e.variable, e.index, e.table_value.hex(), e.oracle_value.hex(),
             e.rel_diff.hex(), e.note) for e in entries]


def test_compare_equals_entrywise_reference():
    rng = np.random.default_rng(13)
    points = ([validate(DEFAULTS)]
              + [validate({**DEFAULTS, **point}) for point in _BOUNDARY_POINTS]
              + [random_params(rng) for _ in range(100)])
    for p in points:
        trf, orf = compute_all(p), solve_undetermined(p)
        for tol, abs_floor in ((1e-6, 1e-12), (1e-3, 1e-6), (1e-12, 0.0)):
            with warnings.catch_warnings():
                # entries zero on both sides are not divided by zero
                warnings.simplefilter("error")
                got = compare(trf, orf, tol=tol, abs_floor=abs_floor).entries
            assert all(type(x) is float for e in got
                       for x in (e.table_value, e.oracle_value, e.rel_diff))
            assert _bits(got) == _bits(_compare_reference(trf, orf, tol, abs_floor))


def test_compare_rejects_stray_loadings(default_rf, oracle_rf, default_params):
    def with_loading(var, slot, value):
        blocks = {v: default_rf.block(v).copy() for v in slots.VARIABLES}
        blocks[var][slot] = value
        return ReducedForm(params=default_params, slot_blocks=blocks)

    with pytest.raises(AssertionError, match="'r' has loadings outside"):
        compare(with_loading("r", slots.EPS_LAG1, 2e-9), oracle_rf)
    with pytest.raises(AssertionError, match="'Eu' has loadings outside"):
        compare(oracle_rf, with_loading("Eu", slots.XI, -1.0))
    # at the bound, and on the two structural but unexported loadings
    compare(with_loading("r", slots.EPS_LAG1, 1e-9), oracle_rf)
    compare(with_loading("yhat", slots.OMEGA, 5.0), oracle_rf)
    compare(with_loading("u", slots.T_NATU, 5.0), oracle_rf)


def _stacked(points):
    """One parameterization whose fields hold one value per point."""
    return StructuralParams(**{name: np.array([getattr(p, name) for p in points])
                               for name in FIELD_NAMES})


def _points(seed):
    """The defaults, the boundary points and 300 random draws."""
    rng = np.random.default_rng(seed)
    return ([validate(DEFAULTS)]
            + [validate({**DEFAULTS, **point}) for point in _BOUNDARY_POINTS]
            + [random_params(rng) for _ in range(300)])


def _identity_evaluation(p):
    """``M`` (144, 144) and ``b`` (144,) of ``M z = b`` by the dense
    evaluation of the affine residual on the identity and a zero vector."""
    b = -_residual(np.zeros(144), p)
    return _residual(np.eye(144), p) + b[:, None], b


def _gathered(M):
    """The lone and linked blocks of ``M`` at ``oracle._BLOCK_TAKE``."""
    flat = M.ravel()
    return (flat[oracle._BLOCK_TAKE[:oracle._LONE_SIZE]].reshape(4, 9, 9),
            flat[oracle._BLOCK_TAKE[oracle._LONE_SIZE:]].reshape(6, 18, 18))


def test_probe_assembly_equals_identity_evaluation():
    # the blocks gathered from the 19-column probe against those gathered
    # from the dense evaluation on the identity, one parameterization at a
    # time and as stacked slices; the stacked condition numbers against
    # the SVDs of the blocks read off the dense matrix
    points = _points(17)
    dense = []
    for p in points:
        dense.append(_identity_evaluation(p))
        lone, linked, b = _matching_blocks(p)
        want_lone, want_linked = _gathered(dense[-1][0])
        assert np.array_equal(lone, want_lone) and np.array_equal(linked, want_linked)
        assert np.array_equal(b, dense[-1][1])
    for start in range(0, len(points), 50):
        lone, linked, b = _matching_blocks(_stacked(points[start:start + 50]))
        cond = _condition_number(lone, linked)
        assert lone.shape == (len(points[start:start + 50]), 4, 9, 9)
        for j, (M_ref, b_ref) in enumerate(dense[start:start + 50]):
            blocks = _gathered(M_ref)
            assert np.array_equal(lone[j], blocks[0]) and np.array_equal(linked[j], blocks[1])
            assert np.array_equal(b[j], b_ref)
            assert cond[j].hex() == float(_condition_number(*blocks)).hex()


def test_block_solve_equals_dense_solve():
    # the report's solve and the stacked solve of the ten blocks against
    # the dense solve of the identity evaluation, point by point: every
    # coefficient within 1e-12 (1 + |z|); and the report's coefficients
    # are bitwise those of its column in the stacked solve
    points = _points(31)
    for start in range(0, len(points), 50):
        part = _stacked(points[start:start + 50])
        stacked = oracle._block_solve(part, *_matching_blocks(part))
        for j, p in enumerate(points[start:start + 50]):
            ref = solve_undetermined(p)
            for v in slots.VARIABLES:
                assert np.array_equal(ref.block(v), stacked[v][:, j]), v
            want = np.linalg.solve(*_identity_evaluation(p))
            z = np.concatenate([ref.block(v) for v in oracle.FREE_BLOCKS])
            assert np.all(np.abs(z - want) <= 1e-12 * (1 + np.abs(want)))


def _reference_random_params(rng, screen=0.05, rejected=None):
    """``random_params`` with one generator call per field; appends each
    candidate the denominator screen rejects to ``rejected``."""
    while True:
        cand = {
            "sigma": rng.uniform(0.5, 3.0), "theta": rng.uniform(0.1, 1.0),
            "beta": rng.uniform(0.9, 0.999), "k": rng.uniform(0.05, 0.6),
            "alpha_pi": rng.uniform(0.2, 2.5), "alpha_y": rng.uniform(0.0, 1.0),
            "c0": rng.uniform(0.05, 0.5) * rng.choice((-1.0, 1.0)),
            "s0": rng.uniform(0.05, 0.5) * rng.choice((-1.0, 1.0)),
            "c1": rng.uniform(0.1, 0.9), "c3": rng.uniform(0.05, 0.5),
            "c4": rng.uniform(0.05, 0.5), "s1": rng.uniform(0.1, 0.9),
            "s2": rng.uniform(0.05, 0.5), "s3": rng.uniform(0.05, 0.5),
            "s4": rng.uniform(0.05, 0.5),
            **{f"gamma{j}": rng.uniform(0.05, 1.2) for j in range(1, 6)},
            **{f"phi{j}": rng.uniform(0.1, 1.5) for j in range(1, 4)},
            **{f: rng.uniform(0.05, 0.95) for f in (
                "rho_chi", "rho_ybar", "rho_g", "rho_tax", "rho_eps", "rho_u")},
            **{f: rng.uniform(0.005, 0.05) for f in (
                "sd_omega", "sd_eta_g", "sd_taxshock", "sd_lambda", "sd_xi",
                "sd_v", "sd_costpush", "sd_natu", "sd_noise")},
        }
        try:
            p = validate(cand)
        except InvalidParams:
            continue
        if abs(p.denominator()) < screen or abs(p.taylor_denominator()) < screen:
            if rejected is not None:
                rejected.append(p)
            continue
        return p


def test_random_params_equals_one_call_per_field():
    ours, ref = np.random.default_rng(19), np.random.default_rng(19)
    for _ in range(1000):
        got, want = random_params(ours), _reference_random_params(ref)
        assert ([x.hex() for x in got.as_dict().values()]
                == [x.hex() for x in want.as_dict().values()])
    # both generators are left in the same state
    assert ours.random() == ref.random()


@pytest.mark.parametrize("screen", [oracle._DRAW_SCREEN, 0.5])
def test_slice_draws_equal_one_call_per_field(monkeypatch, screen):
    # a slice's draws, one substream each, against the reference sampler on
    # the same substreams: the scalar parameterizations and the stacked
    # fields bit for bit, and every generator left in the same state; a
    # screen of 0.5 rejects many candidates, each redrawn from its stream
    monkeypatch.setattr(oracle, "_DRAW_SCREEN", screen)
    substreams = lambda draws: [np.random.default_rng(np.random.SeedSequence(
        entropy=37, spawn_key=(i,))) for i in draws]
    rejected = []
    for start in range(0, 1000, AUDIT_SLICE):
        draws = range(start, start + AUDIT_SLICE)
        ours, ref = substreams(draws), substreams(draws)
        ps, stacked = oracle._draw_slice(ours)
        want = [_reference_random_params(rng, screen, rejected) for rng in ref]
        for name in FIELD_NAMES:
            column = [getattr(p, name).hex() for p in want]
            assert [getattr(p, name).hex() for p in ps] == column, name
            assert [x.hex() for x in getattr(stacked, name).tolist()] == column, name
        assert [rng.random() for rng in ours] == [rng.random() for rng in ref]
    assert len(rejected) > (400 if screen == 0.5 else 0)


def test_draw_ranges_lie_inside_the_field_domains():
    # random_params builds its parameterizations without validate: that
    # holds while every bound it draws passes validate's per-field rules
    # (c0 and s0 with either sign) and no denominator rule can fire, s1
    # and both screened denominators staying above EPS_SING
    assert sorted(oracle._DRAW_NAMES) == sorted(FIELD_NAMES)
    for name, *bounds in oracle._DRAW_RANGES:
        for bound in bounds + ([-x for x in bounds] if name in ("c0", "s0") else []):
            broken = [(kind.kind, field) for bad, kind, field, _
                      in _domain_rules({**DEFAULTS, name: bound})
                      if bad and kind is not SingularDenominator]
            assert not broken, (name, bound, broken)
    low = dict((name, lo) for name, lo, _ in oracle._DRAW_RANGES)
    assert low["s1"] > EPS_SING and oracle._DRAW_SCREEN > EPS_SING


def _per_draw(n_draws, seed, tol=1e-6):
    """The stability check one draw at a time: (flagged keys, suspect
    verdicts, condition number) per draw."""
    out = []
    for i in range(n_draws):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        p = oracle.random_params(rng)
        rep = compare(compute_all(p), solve_undetermined(p), tol=tol)
        out.append((rep.keys(),
                    {label: s["variant_confirmed"] for label, s in rep.suspects.items()},
                    rep.condition_number))
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_stability_run_equals_per_draw_reference(workers):
    for n_draws in (1, AUDIT_SLICE, AUDIT_SLICE + 1, 2 * AUDIT_SLICE + 3):
        first, identical = stability_run(n_draws, seed=23, workers=workers)
        # every draw, through the slices the run folds
        rows = fan_out(partial(_stability_slice, 23, 1e-6), n_draws, AUDIT_SLICE, workers)
        ref = _per_draw(n_draws, seed=23)
        assert [_keys(row) for row in rows] == [keys for keys, _, _ in ref]
        assert first == ref[0][0]
        assert identical == all(keys == ref[0][0] for keys, _, _ in ref)


@pytest.mark.parametrize("differing", [0, 5, AUDIT_SLICE, AUDIT_SLICE + 3])
def test_stability_run_sees_a_differing_draw_in_any_slice(monkeypatch, differing):
    # theta = 0 clears 20 of the 124 flagged entries: one such draw, first
    # in the run, inside the first slice, or first or inside a later one
    unpatched = oracle.random_params

    def patched(rng):
        p = unpatched(rng)
        i = rng.bit_generator.seed_seq.spawn_key[0]
        return validate({**p.as_dict(), "theta": 0.0}) if i == differing else p

    monkeypatch.setattr(oracle, "random_params", patched)
    first, identical = stability_run(2 * AUDIT_SLICE + 3, seed=31)
    assert not identical
    assert len(first) == (104 if differing == 0 else 124)


#: a parameterization whose matching system is singular, one whose closed
#: form is not finite
_SINGULAR = {"c1": 0.5, "s2": 0.1, "gamma2": 0.4, "s1": 0.625}
_NOT_FINITE = {"k": 1e308}


@pytest.mark.parametrize("failing", [
    {2: _SINGULAR},
    {AUDIT_SLICE + 3: _SINGULAR},
    {3: _NOT_FINITE, 4: _SINGULAR},
    {2: _SINGULAR, 4: _NOT_FINITE},
    {1: {"c1": 0.4, "s2": 0.2, "gamma2": 0.4, "s1": 0.9}, 4: _SINGULAR},
])
def test_failing_draw_raises_as_alone(monkeypatch, failing):
    # draws replaced by failing parameterizations at positions after the
    # first of a slice: the run raises what the per-draw loop raises, for
    # the first failing draw and its first failing step
    unpatched = oracle.random_params

    def patched(rng):
        p = unpatched(rng)
        i = rng.bit_generator.seed_seq.spawn_key[0]
        return validate({**p.as_dict(), **failing[i]}) if i in failing else p

    monkeypatch.setattr(oracle, "random_params", patched)
    n_draws = 2 * AUDIT_SLICE + 3
    with pytest.raises(Exception) as want:
        _per_draw(n_draws, seed=29)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(want.type) as got:
            stability_run(n_draws, seed=29)
    assert str(got.value) == str(want.value)
