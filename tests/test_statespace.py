import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import _valid_range
from test_cli import DOUBLE_ROOT
from nkji import build, char_poly, classify, classify_standard, compute_all, eigen
from nkji import slots, statespace
from nkji.cli import main
from nkji.coeffs import power
from nkji.oracle import random_params
from nkji.params import DEFAULTS, EPS_SING, InvalidParams, validate
from nkji.coeffs import _slot_blocks, finite_cells
from nkji.params import FIELD_NAMES, StructuralParams, invalid_cells
from nkji.statespace import (ORDER, SWEEP_SLICE, SWEEP_VERDICTS, ConvergenceFailure,
                             _counts, _factors, _solved, _spectra, _transition, report,
                             sweep)

#: the columns of ``SweepResult.counts``, the keys of ``report(...).counts``
COUNT_KEYS = ("stable", "unstable", "borderline")


def _names(res):
    """The verdict name of each sweep cell, in row-major order."""
    return [SWEEP_VERDICTS[code] for code in res.verdicts.tolist()]


def test_zero_persistence_zero_matrix():
    p = validate({**DEFAULTS, "rho_chi": 0.0, "rho_ybar": 0.0, "rho_g": 0.0,
                  "rho_tax": 0.0, "rho_eps": 0.0})
    A = build(compute_all(p)).A
    assert not A.any()


def test_signal_row(default_rf, default_params):
    A = build(default_rf).A
    assert A[8, 7] == default_params.rho_chi**2
    row = A[8].copy()
    row[7] = 0.0
    assert not row.any()


def test_costpush_column(default_rf):
    A = build(default_rf).A
    nonzero_rows = {j for j in range(9) if A[j, 8] != 0.0}
    assert nonzero_rows == {3, 6}   # inflation and policy-rate rows


def test_entries_against_independent_transcription(default_rf, default_params):
    # spot-checks written out directly from the displayed matrix, kept
    # deliberately separate from the build() loop
    p = default_params
    t = default_rf.as_table()
    A = build(default_rf).A
    rho, rg, rt, rx, re_ = p.rho_ybar, p.rho_g, p.rho_tax, p.rho_chi, p.rho_eps
    assert A[0, 0] == t["r"][1] * rho**3
    assert A[0, 1] == t["r"][1] * rho
    assert A[0, 2] == -t["r"][1] * rho**2
    assert A[0, 3] == t["r"][3] * rg**4
    assert A[1, 4] == t["y"][3] * rg**2
    assert A[2, 5] == -t["yhat"][3] * rg**3
    assert A[4, 6] == rt * t["c"][5]
    assert A[5, 7] == rx * t["I"][7]
    assert A[3, 8] == re_ * t["pi"][12]
    assert A[6, 8] == re_ * t["i"][12]
    assert A[7, 8] == 0.0


def test_policy_rate_row_drift_quirk(default_rf, default_params):
    # row 7 squares the drift persistence in column 2 where every other row
    # carries the first power; reproduced as displayed
    A = build(default_rf).A
    z1_i = default_rf.as_table()["i"][1]
    assert A[6, 1] == z1_i * default_params.rho_ybar**2
    assert A[1, 1] == default_rf.as_table()["y"][1] * default_params.rho_ybar


def test_unemployment_row_proportional_to_gap_row(rng):
    for _ in range(5):
        p = random_params(rng)
        rf = compute_all(p)
        A = build(rf).A
        assert np.allclose(A[7, :8], -p.theta * A[2, :8], rtol=1e-12, atol=1e-300)
        sub = np.vstack([A[2, :8], A[7, :8]])
        assert np.linalg.matrix_rank(sub, tol=1e-10 * max(1.0, np.abs(sub).max())) <= 1


def test_rate_row_proportional_to_output_row(rng):
    for _ in range(5):
        p = random_params(rng)
        A = build(compute_all(p)).A
        assert np.allclose(A[0, :8], -p.sigma * A[1, :8], rtol=1e-9, atol=1e-12)


# --- eigenvalues and the characteristic polynomial ---------------------------

def test_eigen_zero_matrix():
    assert np.array_equal(eigen(np.zeros((9, 9))), np.zeros(9, dtype=complex))


def test_eigen_diagonal():
    d = np.arange(1, 10) / 10.0
    vals = np.sort(eigen(np.diag(d)).real)
    assert np.allclose(vals, d, rtol=0, atol=1e-14)


def test_eigen_rejects_nonfinite():
    A = np.zeros((9, 9))
    A[0, 0] = np.nan
    with pytest.raises(ConvergenceFailure):
        eigen(A)


def test_trace_and_det_identities(default_rf):
    A = build(default_rf).A
    vals = eigen(A)
    assert abs(vals.sum() - np.trace(A)) <= 1e-8 * max(1.0, abs(np.trace(A)))
    det = np.linalg.det(A)
    prod = np.prod(vals)
    floor = np.finfo(float).eps * np.linalg.norm(A) ** 9
    assert abs(prod - det) <= 1e-8 * max(abs(prod), abs(det), floor)


def test_char_poly_zero_matrix():
    k = char_poly(np.zeros((9, 9)))
    assert k[9] == -1.0
    assert not k[:9].any()


def test_char_poly_diagonal_roots():
    d = np.arange(1, 10) / 10.0
    k = char_poly(np.diag(d))
    roots = np.sort(np.roots(k[::-1]).real)
    assert np.allclose(roots, d, rtol=0, atol=1e-10)


def test_char_poly_constant_term_is_determinant(rng):
    for _ in range(5):
        A = rng.normal(size=(9, 9))
        k = char_poly(A)
        det = np.linalg.det(A)
        assert k[0] == pytest.approx(det, rel=1e-9, abs=1e-9)
        assert k[9] == -1.0


def test_char_poly_vanishes_at_eigenvalues(default_rf):
    A = build(default_rf).A
    k = char_poly(A)
    vals = np.vander(eigen(A), 10, increasing=True) @ k
    assert np.max(np.abs(vals)) <= 1e-6 * np.max(np.abs(k))


def test_char_poly_overflow_raises_a_convergence_failure_not_a_warning():
    # the trace recursion overflows at sigma = 1e100, which numpy would warn
    # of (an error under this suite's filterwarnings) and return as NaN
    A = build(compute_all(validate({"sigma": 1e100}))).A
    with pytest.raises(ConvergenceFailure, match="characteristic polynomial is not finite"):
        char_poly(A)


# --- classification ----------------------------------------------------------

def test_classify_examples():
    nine_zeros = np.zeros(9, dtype=complex)
    assert classify(nine_zeros, n_pre=9) == "determinate"
    mixed = np.array([0.5, 0.6] + [1.5] * 7, dtype=complex)
    assert classify(mixed, n_pre=1) == "indeterminate"
    explosive = np.full(9, 2.0, dtype=complex)
    assert classify(explosive, n_pre=1) == "no_equilibrium"


def test_classify_borderline():
    on_circle = np.array([1.0 + 0j] + [0.0] * 8)
    near_circle = np.array([1.05 + 0j] + [0.0] * 8)
    for rule in (classify, classify_standard):
        assert rule(on_circle, n_pre=4) == "borderline"
        assert rule(near_circle, n_pre=8, tau=1e-8) == "determinate"
        assert rule(near_circle, n_pre=8, tau=0.1) == "borderline"


def test_default_band_is_1e_8_in_every_rule(default_params):
    # a complex pair leaves the unit circle as alpha_pi falls through about
    # 1.01887596: 5.5e-9 outside it the pair is borderline in the default
    # band, 2.0e-8 outside it unstable, in report, sweep and both rules
    near, off = 1.0188759626, 1.0188759614
    res = sweep(default_params, ("alpha_pi", near, off, 2),
                ("theta", default_params.theta, default_params.theta, 1))
    assert res.counts.tolist() == [[6, 1, 2], [6, 3, 0]]
    for alpha_pi, counts, verdict in ((near, [6, 1, 2], "borderline"),
                                      (off, [6, 3, 0], "determinate")):
        rep = report(compute_all(default_params.replace(alpha_pi=alpha_pi)))
        assert list(rep.counts.values()) == counts, alpha_pi
        for rule in (classify, classify_standard):
            assert rule(rep.eigenvalues, n_pre=6) == verdict, (rule, alpha_pi)


def test_modulus_at_the_band_edge_is_borderline():
    # "strictly": a modulus of exactly 1 - tau or 1 + tau is neither stable
    # nor unstable; tau = 0.25 makes both edges exact, in one spectrum and
    # in a stack, with a control row just inside the stable side
    far = [0.5] * 4 + [2.0] * 4
    spectra = np.array([[edge, *far] for edge in (0.75, 1.25, -0.75j, -1.25, 0.7)])
    stable, unstable, borderline = _counts(spectra, 0.25)
    assert (stable.tolist(), unstable.tolist(), borderline.tolist()) == (
        [4, 4, 4, 4, 5], [4] * 5, [1, 1, 1, 1, 0])
    for eigs in spectra[:4]:
        assert tuple(map(int, _counts(eigs, 0.25))) == (4, 4, 1)
        for n_pre in range(ORDER + 1):
            assert classify(eigs, n_pre, 0.25) == classify_standard(eigs, n_pre, 0.25) \
                == "borderline"


BAD_TAUS = (-2.0, -1e-300, math.inf, -math.inf, math.nan)


def test_classify_bounds(default_params):
    eigs = np.zeros(9, dtype=complex)
    with pytest.raises(ValueError):
        classify(eigs, n_pre=10)
    # a negative tau counts a root as both stable and unstable; an infinite
    # or NaN one makes every root borderline
    for tau in BAD_TAUS:
        for rule in (classify, classify_standard):
            with pytest.raises(ValueError, match="tau"):
                rule(eigs, 9, tau)
        with pytest.raises(ValueError, match="tau"):
            sweep(default_params, ("alpha_pi", 0.5, 2.5, 2), ("alpha_y", 0.0, 1.0, 2),
                  tau=tau)
    assert classify(eigs, 9, 0.0) == classify_standard(eigs, 9, 0.0) == "determinate"


def test_rules_coincide_without_borderline(rng):
    for _ in range(200):
        p = random_params(rng)
        eigs = eigen(build(compute_all(p)).A)
        _, _, borderline = _counts(eigs, 1e-8)
        if borderline:
            continue
        for n_pre in range(10):
            assert classify(eigs, n_pre) == classify_standard(eigs, n_pre)


#: moduli at and next to the borderline edges of the tolerances below
_EDGES = (0.0, 1.0, 1 - 1e-8, 1 + 1e-8, 1 - 1e-3, 1 + 1e-3, 1 - 2e-3, 1 + 2e-3)


@settings(deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_EDGES) | st.complex_numbers(max_magnitude=4.0),
                min_size=1, max_size=ORDER)
       .flatmap(lambda eigs: st.tuples(st.just(eigs), st.integers(0, len(eigs)))),
       st.sampled_from((0.0, 1e-8, 1e-3)))
def test_rules_coincide_on_any_spectrum(spectrum, tau):
    # the two rules count from opposite sides of the unit circle and agree
    # on every spectrum, borderline roots included, of any order up to 9
    eigs, n_pre = spectrum
    eigs = np.array(eigs, dtype=complex)
    assert classify(eigs, n_pre, tau) == classify_standard(eigs, n_pre, tau)


def test_eigenvalue_continuity(default_params):
    base = np.sort_complex(eigen(build(compute_all(default_params)).A))
    bumped = default_params.replace(k=default_params.k + 1e-9)
    moved = np.sort_complex(eigen(build(compute_all(bumped)).A))
    assert np.max(np.abs(base - moved)) <= 1e-5


def test_report_all_counts(default_rf):
    rep = report(default_rf)
    assert tuple(rep.counts) == COUNT_KEYS
    assert sum(rep.counts.values()) == 9
    assert set(rep.verdicts) == set(range(10))
    single = report(default_rf, n_pre=3)
    assert set(single.verdicts) == {3}
    with pytest.raises(ValueError):
        report(default_rf, n_pre=10)
    for tau in BAD_TAUS:
        with pytest.raises(ValueError, match="tau"):
            report(default_rf, tau=tau)


# --- sweeps ------------------------------------------------------------------

def test_sweep_complete_grid(default_params):
    res = sweep(default_params, ("alpha_pi", 0.5, 2.5, 51), ("alpha_y", 0.0, 1.0, 51))
    assert res.counts.shape == (51 * 51, 3) and res.verdicts.shape == (51 * 51,)
    assert "invalid" not in _names(res)


def test_sweep_singular_cell_isolated(default_params):
    # s1 = 0.6 makes the shared closed-form denominator vanish at the
    # default calibration; neighbors stay fine
    res = sweep(default_params, ("s1", 0.5, 0.7, 3), ("theta", 0.4, 0.6, 2))
    s1 = np.repeat(res.axis1[1], len(res.axis2[1])).tolist()
    verdicts = {(round(v, 6), name == "invalid") for v, name in zip(s1, _names(res))}
    assert (0.6, True) in verdicts
    assert (0.5, False) in verdicts and (0.7, False) in verdicts


def test_sweep_parallel_determinism(default_params):
    # one slice, and three slices whose edges fall inside rows
    for n1, n2 in ((9, 9), (23, 25)):
        serial = sweep(default_params, ("alpha_pi", 0.5, 2.5, n1), ("alpha_y", 0.0, 1.0, n2))
        parallel = sweep(default_params, ("alpha_pi", 0.5, 2.5, n1),
                         ("alpha_y", 0.0, 1.0, n2), workers=4)
        for got, want in ((serial.axis1, parallel.axis1), (serial.axis2, parallel.axis2)):
            assert got[0] == want[0] and np.array_equal(got[1], want[1]), (n1, n2)
        assert np.array_equal(serial.counts, parallel.counts), (n1, n2)
        assert np.array_equal(serial.verdicts, parallel.verdicts), (n1, n2)


def test_sweep_without_a_valid_cell(default_params):
    # nothing to solve in any array pass
    res = sweep(default_params, ("sigma", 0.0, 0.0, 1), ("theta", 0.0, 0.0, 1))
    assert _names(res) == ["invalid"]
    res = sweep(default_params, ("rho_chi", 1.0, 2.0, 3), ("alpha_pi", 1.2, 1.8, 100))
    assert set(_names(res)) == {"invalid"}


def test_sweep_cells_name_only_unsolved_counts_none(default_params):
    # rho_chi >= 1 is invalid: the cell records hold only the verdict names,
    # invalid ones among them
    res = sweep(default_params, ("rho_chi", 0.5, 1.5, 3), ("alpha_pi", 1.2, 1.8, 2))
    assert "invalid" in _names(res)
    assert res.cells == [{"verdict": name} for name in _names(res)]


def test_transparency_knob_moves_no_equilibrium(default_params):
    # sd_noise scales only the disclosure noise, which no coefficient block
    # loads on: the blocks keep their bits, and a sweep over it repeats the
    # first cell of each row
    quiet, noisy = (compute_all(default_params.replace(sd_noise=sd)) for sd in (0.0, 0.3))
    for var in slots.VARIABLES:
        assert quiet.block(var).tobytes() == noisy.block(var).tobytes(), var
    res = sweep(default_params, ("rho_chi", -0.99, 0.99, 3), ("sd_noise", 0, 1, 3))
    counts, verdicts = res.counts.reshape(3, 3, 3), res.verdicts.reshape(3, 3)
    assert (counts == counts[:, :1]).all() and (verdicts == verdicts[:, :1]).all()


def test_sweep_unknown_parameter(default_params):
    for names, unknown in ((("alpha_zz", "alpha_y"), ["alpha_zz"]),
                           (("alpha_y", "beta_zz"), ["beta_zz"]),
                           (("alpha_zz", "beta_zz"), ["alpha_zz", "beta_zz"]),
                           # one unknown name on both axes is named once
                           (("alpha_zz", "alpha_zz"), ["alpha_zz"])):
        with pytest.raises(InvalidParams) as err:
            sweep(default_params, (names[0], 0.0, 1.0, 3), (names[1], 0.0, 1.0, 3))
        assert [(v.field, v.detail) for v in err.value.violations] == [
            (name, "unknown parameter") for name in unknown], names


def test_sweep_grid_size_limit(default_params, monkeypatch):
    monkeypatch.setattr(statespace, "SWEEP_MAX_CELLS", 6)
    res = sweep(default_params, ("alpha_pi", 0.5, 2.5, 2), ("alpha_y", 0.0, 1.0, 3))
    assert res.counts.shape == (6, 3) and res.verdicts.shape == (6,)
    for n1, n2 in ((1, 7), (7, 1), (3, 3), (10**30, 2)):
        with pytest.raises(InvalidParams, match=f"{n1} x {n2} cells, more than 6"):
            sweep(default_params, ("alpha_pi", 0.5, 2.5, n1), ("alpha_y", 0.0, 1.0, n2))


# --- the batched sweep against the per-cell loop -----------------------------

def _reference_cells(base, axis1, axis2, n_pre=9, tau=1e-8):
    """The sweep as a per-cell loop: validate, compute_all, report and
    classify, one cell at a time.  Per cell in row-major order: the stable,
    unstable and borderline counts (n, 3), -1 where not solved, and the
    verdict name."""
    (name1, lo1, hi1, n1), (name2, lo2, hi2, n2) = axis1, axis2
    counts, verdicts = [], []
    with np.errstate(all="ignore"):
        for v1 in np.linspace(lo1, hi1, n1):
            for v2 in np.linspace(lo2, hi2, n2):
                try:
                    p = validate({**base.as_dict(), name1: float(v1), name2: float(v2)})
                    eigs = report(compute_all(p), tau).eigenvalues
                except (InvalidParams, ConvergenceFailure) as err:
                    counts.append([-1, -1, -1])
                    verdicts.append("invalid" if isinstance(err, InvalidParams)
                                    else "failed")
                    continue
                counts.append(list(map(int, _counts(eigs, tau))))
                verdicts.append(classify(eigs, n_pre, tau))
    return np.array(counts).reshape(-1, 3), verdicts


REFERENCE_GRIDS = {
    # every power of the persistences, on both signs
    "rho_ybar x rho_g": (("rho_ybar", -0.99, 0.99, 23), ("rho_g", -0.999, 0.999, 29)),
    "rho_g x beta": (("rho_g", -0.99, 0.99, 17), ("beta", 0.05, 0.999, 19)),
    # more stable roots than predetermined variables: indeterminate cells
    "alpha_pi x alpha_y, n_pre 1": (("alpha_pi", 0.0, 3.0, 13), ("alpha_y", 0.0, 2.0, 11), 1),
    # the shared denominators, through zero and through D = 0
    "s1 x gamma2": (("s1", -1.0, 1.0, 21), ("gamma2", -2.0, 2.0, 23)),
    "sigma x c1": (("sigma", 0.05, 4.0, 19), ("c1", -2.0, 2.0, 23)),
    # rho_chi >= 1 and 1 - alpha_pi*beta = 0 give invalid cells
    "invalid cells": (("alpha_pi", 0.5, 1 / 0.99, 9), ("rho_chi", 0.4, 1.2, 17)),
    "row longer than a slice": (("alpha_pi", 1.2, 1.8, 2),
                                ("rho_chi", -1.1, 1.1, SWEEP_SLICE + 45)),
    # slices that cross row ends: one cell per row, and 100-cell rows
    "one column": (("rho_chi", -1.1, 1.1, SWEEP_SLICE + 45), ("alpha_pi", 1.2, 1.2, 1)),
    "7 x 100": (("alpha_pi", 0.5, 1 / 0.99, 7), ("rho_chi", -1.1, 1.1, 100)),
    # overflow: failed cells
    "extreme sigma x k": (("sigma", 1e-300, 1e300, 5), ("k", 0.0, 1e308, 5)),
    "extreme c1 x k": (("c1", 0.5, 1e300, 3), ("k", 0.0, 1.0, 2)),
    "extreme c0 x s0": (("c0", 0.0, 1e308, 5), ("s0", -0.1, 0.1, 3)),
    # every verdict at n_pre 8 (and tau 0.3): invalid where |rho_ybar| >= 1,
    # failed at sigma = 1e300, borderline moduli within the wide tolerance of
    # 1, and stable counts 6 to 9.  No valid rho_ybar is within 0.1 of +-1,
    # where the sweep's and report's routes may count apart
    "every verdict": (("rho_ybar", -1.1, 1.1, 11), ("sigma", 0.5, 1e300, 2), 8, 0.3),
}


@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
def test_sweep_equals_per_cell_loop(default_params, grid):
    axis1, axis2, *n_pre = REFERENCE_GRIDS[grid]
    res = sweep(default_params, axis1, axis2, *n_pre)
    counts, verdicts = _reference_cells(default_params, axis1, axis2, *n_pre)
    assert [(name, values.tolist()) for name, values in (res.axis1, res.axis2)] == \
        [(name, np.linspace(lo, hi, n).tolist()) for name, lo, hi, n in (axis1, axis2)]
    assert np.array_equal(res.counts, counts)
    assert _names(res) == verdicts


def test_sweep_verdict_codes_are_classify(default_params):
    # the sweep's verdict codes and classify are one rule, at every
    # predetermined count
    axis1, axis2, _, tau = REFERENCE_GRIDS["every verdict"]
    seen = set()
    for n_pre in range(ORDER + 1):
        want = _reference_cells(default_params, axis1, axis2, n_pre, tau)[1]
        assert _names(sweep(default_params, axis1, axis2, n_pre, tau)) == want, n_pre
        seen.update(want)
    assert seen == set(SWEEP_VERDICTS)


def test_batched_layers_are_bitwise_the_scalar_layers(rng):
    # counts hide last-bit differences, so compare what they are made of:
    # blocks, transition matrices and eigenvalues of 300 parameterizations
    # with every persistence on both signs
    draws = []
    while len(draws) < 300:
        raw = {**random_params(rng).as_dict(),
               **{name: rng.uniform(-0.99, 0.99)
                  for name in ("rho_ybar", "rho_g", "rho_chi", "rho_tax", "rho_eps")},
               "c1": rng.uniform(-2.0, 2.0), "s1": rng.uniform(-2.0, 2.0)}
        try:
            draws.append(validate(raw))
        except InvalidParams:
            continue
    batch = StructuralParams(**{name: np.array([getattr(p, name) for p in draws])
                                for name in FIELD_NAMES})
    blocks = _slot_blocks(batch)
    A = _stacks(blocks, batch)[0]
    vals, failure = _spectra(A)
    for j, p in enumerate(draws):
        rf = compute_all(p)
        for var, blk in rf.slot_blocks.items():
            assert np.array_equal(blocks[var][:, j], blk), (j, var)
        A_j = build(rf).A
        assert np.array_equal(A[j].view(np.uint64), A_j.view(np.uint64)), j
        assert failure[j] == 0 and np.array_equal(vals[j], eigen(A_j)), j


def _signed_batch(rng, n):
    """``n`` valid parameterizations with every persistence, c1 and s1 drawn
    on both signs, as one StructuralParams of arrays."""
    draws = []
    while len(draws) < n:
        raw = {**random_params(rng).as_dict(),
               **{name: rng.uniform(-0.99, 0.99)
                  for name in ("rho_ybar", "rho_g", "rho_chi", "rho_tax", "rho_eps")},
               "c1": rng.uniform(-2.0, 2.0), "s1": rng.uniform(-2.0, 2.0)}
        try:
            draws.append(validate(raw))
        except InvalidParams:
            continue
    return StructuralParams(**{name: np.array([getattr(p, name) for p in draws])
                               for name in FIELD_NAMES})


def _stacks(blocks, p):
    """A, U and V of every cell, each with the cell axis first."""
    U, V = (np.moveaxis(x, -1, 0) for x in _factors(blocks, p))
    return _transition(U, V), U, V


def _reference_transition(blocks, p):
    """A (n, 9, 9) written out entry by entry from the derivation, from slot
    blocks (16, n): the layout the factors must reproduce."""
    rho, rg, rt, rx, re_ = p.rho_ybar, p.rho_g, p.rho_tax, p.rho_chi, p.rho_eps
    rho2, rho3 = power(rho, 2), power(rho, 3)
    rg2, rg3, rg4 = power(rg, 2), power(rg, 3), power(rg, 4)
    f, h, m, n, e = statespace._loadings(blocks)
    policy, cost_push = statespace._POLICY, statespace._COST_PUSH
    A = np.zeros((9, 9, *f.shape[1:]))
    A[:8, 0] = f * rho3
    A[:8, 1] = f * rho
    A[policy, 1] = f[policy] * rho2
    A[:8, 2] = -f * rho2
    A[:8, 3] = h * rg4
    A[:8, 4] = h * rg2
    A[:8, 5] = -h * rg3
    A[:8, 6] = rt * m
    A[:8, 7] = rx * n
    A[cost_push, 8] = re_ * e[cost_push]
    A[8, 7] = power(rx, 2)
    return np.moveaxis(A, -1, 0)


def _with(batch, **fields):
    return StructuralParams(**{**batch.as_dict(), **fields})


def test_transition_gathers_the_reference_matrix_bitwise(rng):
    # mixed signs, and theta = 0 and c0 = 0, whose loadings hold signed
    # zeros that a sum of products would turn into +0.0
    batch = _signed_batch(rng, 2000)
    zeros = np.zeros(2000)
    for p in (batch, _with(batch, theta=zeros), _with(batch, c0=zeros),
              _with(batch, theta=zeros, c0=zeros)):
        blocks = _slot_blocks(p)
        A = _stacks(blocks, p)[0]
        assert np.array_equal(A.view(np.uint64),
                              _reference_transition(blocks, p).view(np.uint64))
    theta0 = _with(batch, theta=zeros)
    A = _stacks(_slot_blocks(theta0), theta0)[0]
    assert (np.signbit(A) & (A == 0.0)).any()


def test_each_transition_entry_has_at_most_one_term(rng):
    # at random nonzero loadings and persistences, every entry of A has at
    # most one nonzero term U[i, k] V[j, k], and those terms are the table
    # the gather reads
    blocks = {var: rng.uniform(0.5, 2.0, 16) for var in slots.ENDOGENOUS}
    p = StructuralParams(**{name: rng.uniform(0.1, 0.9) for name in FIELD_NAMES})
    U, V = _factors(blocks, p)
    terms = U[:, None, :] * V[None, :, :] != 0.0
    assert terms.sum(axis=2).max() == 1
    assert np.array_equal(np.nonzero(terms), (statespace._TERM_ROW, statespace._TERM_COL,
                                              statespace._TERM_K))


def _assert_same_counts(got, want, tau):
    for g, w in zip(_counts(got, tau), _counts(want, tau)):
        assert np.array_equal(g, w), tau


def test_rank6_factors_reproduce_the_transition_matrix(rng, default_rf, default_params):
    batch = _signed_batch(rng, 2000)
    A, U, V = _stacks(_slot_blocks(batch), batch)
    assert np.array_equal(U @ np.swapaxes(V, 1, 2), A)
    U, V = _factors(default_rf.slot_blocks, default_params)
    assert U.shape == V.shape == (9, 6)
    assert np.array_equal(U @ V.T, build(default_rf).A)


def test_rank6_route_gives_the_9x9_counts_and_failures(rng):
    # 2000 parameterizations with persistences of both signs: the rank-6
    # route passes and fails the checks the 9 x 9 one does, with the same
    # counts at several tolerances
    batch = _signed_batch(rng, 2000)
    A, U, V = _stacks(_slot_blocks(batch), batch)
    vals6, failure6 = _spectra(A, (U, V))
    vals9, failure9 = _spectra(A)
    assert np.array_equal(failure6, failure9)
    assert np.array_equal(vals6[:, 6:], np.zeros((2000, 3)))
    for tau in (1e-8, 1e-6, 1e-3):
        _assert_same_counts(vals6, vals9, tau)
    # the moduli part most near zero, where A has a cluster of four zero
    # eigenvalues, and not near the unit circle: on the draws where they
    # part most, both routes are within 1e-4 of a 60-digit solve of A, within
    # 1e-9 of it for moduli in (0.5, 1.5), and give its counts
    mpmath = pytest.importorskip("mpmath")
    mod6, mod9 = np.sort(abs(vals6), axis=1), np.sort(abs(vals9), axis=1)
    gap = np.abs(mod6 - mod9).max(axis=1)
    assert gap.max() > 1e-7
    with mpmath.workdps(60):
        for j in np.argsort(gap)[-3:]:
            ref = np.array([complex(a) for a in mpmath.eig(mpmath.matrix(A[j].tolist()))[0]])
            mod = np.sort(abs(ref))
            near = np.abs(mod - 1.0) < 0.5
            for vals, mods in ((vals6, mod6), (vals9, mod9)):
                assert np.abs(mods[j] - mod).max() < 1e-4, j
                assert np.abs(mods[j] - mod)[near].max(initial=0.0) < 1e-9, j
                for tau in (1e-8, 1e-6):
                    _assert_same_counts(vals[j], ref, tau)


@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
def test_sweep_route_gives_the_9x9_counts_and_failures(default_params, grid):
    # every solved cell of the reference grids: wherever the 9 x 9 route
    # passes, the one route order (rank-6, then 9 x 9) passes with its
    # counts, and fails a cell only where both routes fail
    (name1, lo1, hi1, n1), (name2, lo2, hi2, n2), *_ = REFERENCE_GRIDS[grid]
    g1, g2 = np.meshgrid(np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2),
                         indexing="ij")
    values = {**default_params.as_dict(), name1: g1.ravel(), name2: g2.ravel()}
    p = StructuralParams(**values)
    with np.errstate(all="ignore"):
        blocks = _slot_blocks(p)
        solved = ~invalid_cells(values) & finite_cells(blocks)
        U, V = (x[solved] for x in _stacks(blocks, p)[1:])
        A, vals, failure = _solved(U, V)
        vals9, failure9 = _spectra(A)
        failure6 = _spectra(A, (U, V))[1]
    assert np.array_equal(failure != 0, (failure9 != 0) & (failure6 != 0))
    keep = failure9 == 0
    for tau in (1e-8, 1e-6):
        _assert_same_counts(vals[keep], vals9[keep], tau)


def test_wide_matrices_take_the_rank6_route(default_params):
    # at sigma = 1e-300 the interest-rate row is 1e-300 times the output
    # row: the 9 x 9 solve returns a false eigenpair there and fails its
    # residual check, which the rank-6 route passes.  The sweep and report
    # both take the rank-6 route's eigenvalues; eigen, the 9 x 9 route alone,
    # still fails
    p = default_params.replace(sigma=1e-300, k=0.0)
    rf = compute_all(p)
    A = build(rf).A
    U, V = _factors(rf.slot_blocks, p)
    assert _spectra(A[None])[1][0] == 4
    vals6, failure6 = _spectra(A[None], (U[None], V[None]))
    assert failure6[0] == 0
    with pytest.raises(ConvergenceFailure, match="eigenpair residual check failed"):
        eigen(A)
    rep = report(rf)
    assert np.array_equal(rep.eigenvalues, vals6[0])
    assert rep.counts == {"stable": 8, "unstable": 1, "borderline": 0}
    counts, = sweep(default_params, ("sigma", 1e-300, 1e-300, 1), ("k", 0.0, 0.0, 1)).counts
    assert dict(zip(COUNT_KEYS, counts.tolist())) == rep.counts


def test_eigenpair_residual_bound_is_1e_8_of_the_scale(monkeypatch):
    # eig patched to give diag(1..9)'s exact eigenvalues with the first
    # eigenvector tilted towards the second: the pair's residual is the
    # tilt, which passes the check at 5e-9 of ||A|| ||v|| and fails at 2e-8
    A = np.diag(np.arange(1.0, 10.0))
    for share, fails in ((5e-9, False), (2e-8, True)):
        vecs = np.eye(9)
        vecs[1, 0] = share * np.linalg.norm(A)
        monkeypatch.setattr(np.linalg, "eig",
                            lambda S, vecs=vecs: (np.diag(A)[None], vecs[None]))
        if fails:
            with pytest.raises(ConvergenceFailure, match="eigenpair residual check failed"):
                eigen(A)
        else:
            assert np.array_equal(eigen(A), np.diag(A))


_NEAR_ZERO_PERSISTENCE = pytest.mark.xfail(strict=True, raises=ConvergenceFailure, reason=(
    "ROADMAP item 11: the eigenpair residual check rejects an accurate "
    "spectrum at a near-zero persistence"))


def _eigenvalues_40_digits(A):
    """The eigenvalues of a 40-digit solve of A."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.eig(mpmath.matrix(A.tolist()), left=False, right=False)
    return np.array([complex(a) for a in ref])


@_NEAR_ZERO_PERSISTENCE
def test_report_at_a_near_zero_drift_persistence():
    # determinacy --param rho_ybar=1e-5 exits 3, where the 40-digit counts
    # are 8 / 1
    rf = compute_all(validate({"rho_ybar": 1e-5}))
    want = tuple(map(int, _counts(_eigenvalues_40_digits(build(rf).A), 1e-8)))
    assert want == (8, 1, 0)
    assert tuple(report(rf).counts.values()) == want


@_NEAR_ZERO_PERSISTENCE
def test_eigen_at_a_near_zero_spending_persistence():
    # the 9 x 9 route alone at rho_g = 1e-5, where report passes: its
    # moduli lie within 6.9e-14 of a 40-digit solve's, yet its residual
    # check fails
    A = build(compute_all(validate({"rho_g": 1e-5}))).A
    ref = _eigenvalues_40_digits(A)
    vals = eigen(A)
    assert np.abs(np.sort(np.abs(vals)) - np.sort(np.abs(ref))).max() <= 1e-12
    assert tuple(map(int, _counts(vals, 1e-8))) == tuple(map(int, _counts(ref, 1e-8))) \
        == (8, 1, 0)


def test_solved_keeps_the_9x9_routes_complex_values(monkeypatch):
    # np.linalg.eig returns real values when every eigenvalue of the stack
    # is real: the rank-6 route fails its one matrix that way, and the 9 x 9
    # route's complex pair must keep its imaginary parts
    pair = np.array([[0.5 + 0.25j, 0.5 - 0.25j] + [0.0] * (ORDER - 2)])
    routes = iter([(np.zeros((1, ORDER)), np.array([4])), (pair, np.array([0]))])
    monkeypatch.setattr(statespace, "_spectra", lambda A, factors=None: next(routes))
    _, vals, failure = _solved(np.zeros((1, ORDER, 6)), np.zeros((1, ORDER, 6)))
    assert failure[0] == 0
    assert np.array_equal(vals, pair)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({name: _valid_range(name) for name in FIELD_NAMES}))
@example({**dict.fromkeys(FIELD_NAMES, 0.0), "sigma": 5e-324, "beta": 0.5, "s1": 0.5,
          "gamma1": -1.0, "rho_ybar": 0.999999, "rho_g": 0.999999})
def test_routes_over_the_valid_domain(raw):
    # the 9 x 9 and rank-6 routes over the audit property's domain.  Neither
    # route's checks imply the other's: at extreme scales (a tiny sigma, beta
    # or persistence beside loadings near 1e-300) each route fails matrices
    # the other solves, so report and the sweep solve the rank-6 route first
    # and retry a matrix it fails by the 9 x 9 route, and give one cell the
    # same counts, also where counts are not well posed.  Up to |A| = 1e8,
    # and away from the unit circle by more than 2 sqrt(eps |A|), wherever
    # the routes disagree, that order gives the counts of a 30-digit solve
    # of A.  Closer, counts are not well posed: where two persistences are
    # equal, A has a double root, which rounding A's entries moves by
    # sqrt(eps |A|); at the example, a root at 1 - 1e-6 and |A| = 3e6, where
    # the 9 x 9 route alone counts 8 stable roots and the rank-6 route 9.
    # Beyond |A| = 1e12 both routes can pass with wrong counts, next to an
    # eigenvalue of 1e11 or more.  Both take their counts from the census;
    # where report raises but the census certifies a count, the sweep's
    # count is a 30-digit solve's
    try:
        p = validate(raw)
    except InvalidParams:
        return
    with np.errstate(all="ignore"):
        try:
            rf = compute_all(p)
        except ConvergenceFailure:
            return
        cell, = sweep(p, ("alpha_pi", p.alpha_pi, p.alpha_pi, 1), ("k", p.k, p.k, 1)).counts
        U, V = (x[None] for x in _factors(rf.slot_blocks, p))
        try:
            counts = report(rf).counts
        except ConvergenceFailure:
            counts = dict.fromkeys(COUNT_KEYS, -1)
            if cell[0] != -1:
                # the census certified a count that the eigen-solve cannot give
                counts = dict(zip(COUNT_KEYS, _referee_counts(U[0], V[0], 1e-8)))
        assert dict(zip(COUNT_KEYS, cell.tolist())) == counts
        A = _transition(U, V)
        vals9, failure9 = _spectra(A)
        vals6, failure6 = _spectra(A, (U, V))
        norm = np.linalg.norm(A)
    passed = [vals for vals, failure in ((vals9, failure9), (vals6, failure6))
              if not failure[0]]
    radius = 2.0 * math.sqrt(np.finfo(float).eps * norm)
    if not passed or not norm <= 1e8 or \
            any(np.abs(np.abs(vals) - 1.0).min() <= radius for vals in passed):
        return
    counts6, counts9 = (tuple(map(int, _counts(v[0], 1e-8))) for v in (vals6, vals9))
    if len(passed) == 2 and counts6 == counts9:
        return
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = mpmath.eig(mpmath.matrix(A[0].tolist()), left=False, right=False)
    assert (counts9 if failure6[0] else counts6) == \
        tuple(map(int, _counts(np.array([complex(a) for a in ref]), 1e-8)))


def _referee_counts(U, V, tau):
    """Stable, unstable and borderline counts of a 30-digit solve of V'U
    (U, V: 9 x 6) and rank 6's three exact zeros, against the float radii
    1 - tau and 1 + tau, as :func:`_counts` reads them."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        S = mpmath.matrix(V.T.tolist()) * mpmath.matrix(U.tolist())
        mods = [abs(z) for z in mpmath.eig(S, left=False, right=False)] + [0] * (ORDER - 6)
        stable = sum(m < 1.0 - tau for m in mods)
        unstable = sum(m > 1.0 + tau for m in mods)
    return stable, unstable, ORDER - stable - unstable


def _census_certified(U, V, tau):
    """``_census`` of a stack, and whether it certified every count itself,
    without its fallback to ``_solved``."""
    with mock.patch.object(statespace, "_solved", wraps=statespace._solved) as solved:
        counts, failure = statespace._census(U, V, tau)
    return counts, failure, not solved.called


def _census_domain(name):
    """The valid-domain property's values of ``name``, and for a persistence
    also point masses at +-1e-5 and +-1e-12, where the eigenpair residual
    check rejects accurate spectra (ROADMAP item 11)."""
    if name.startswith("rho_"):
        return _valid_range(name) | st.sampled_from((1e-5, -1e-5, 1e-12, -1e-12))
    return _valid_range(name)


def _taylor_band_edge(side):
    """The alpha_pi nearest 1/beta, at the default beta, on the ``side``
    (-1 or 1) of the band |1 - alpha_pi beta| <= EPS_SING that validate
    refuses."""
    beta = DEFAULTS["beta"]
    alpha = (1.0 + side * EPS_SING) / beta
    while abs(1.0 - alpha * beta) > EPS_SING:
        alpha = math.nextafter(alpha, 1.0 / beta)
    while abs(1.0 - alpha * beta) <= EPS_SING:
        alpha = math.nextafter(alpha, side * math.inf)
    return alpha


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({name: _census_domain(name) for name in FIELD_NAMES}),
       st.sampled_from((0.0, 1e-8, 0.3, 1.0, 2.0)) | st.floats(0.0, 3.0))
@example({**DEFAULTS, "k": 1e12}, 1e-8)
@example({**DEFAULTS, "alpha_pi": _taylor_band_edge(-1)}, 1e-8)
@example({**DEFAULTS, "alpha_pi": _taylor_band_edge(1)}, 1e-8)
@example({**DEFAULTS, **{pair.split("=")[0]: float(pair.split("=")[1])
                         for pair in DOUBLE_ROOT[1::2]}}, 1e-8)
@example(DEFAULTS, 0.0)
@example(DEFAULTS, 1e-8)
@example(DEFAULTS, 0.3)
@example(DEFAULTS, 1.0)
@example(DEFAULTS, 2.0)
def test_census_counts_equal_a_30_digit_referee(raw, tau):
    # wherever the census certifies a count, it is the count of a 30-digit
    # solve of V'U plus three zeros
    try:
        p = validate(raw)
    except InvalidParams:
        return
    with np.errstate(all="ignore"):
        try:
            rf = compute_all(p)
        except ConvergenceFailure:
            return
        U, V = _factors(rf.slot_blocks, p)
        counts, _, certified = _census_certified(U[None], V[None], tau)
    if certified:
        assert tuple(counts[0].tolist()) == _referee_counts(U, V, tau)


def _diagonal_factors(roots):
    """Factors U, V (1, 9, 6) whose V'U is exactly diag(roots).  They do not
    follow A's layout, so only the census reads them right."""
    U, V = np.zeros((1, ORDER, 6)), np.zeros((1, ORDER, 6))
    U[0, :6], V[0, :6] = np.diag(roots), np.eye(6)
    return U, V


@pytest.mark.parametrize("tau", [0.0, 1e-8, 0.3])
def test_census_radii_are_one_minus_and_one_plus_tau(tau):
    # roots a millionth inside or outside the radii 1 - tau and 1 + tau are
    # counted by the census alone, as _counts reads them; a root on a radius
    # leaves the count to the eigen-solve.  No two roots are reciprocal,
    # a pair no Schur-Cohn step could certify
    others = [0.3, -0.6, 3.0, -5.0, 0.1]
    for radius in (1.0 - tau, 1.0 + tau):
        for near in (radius * (1 - 1e-6), -radius * (1 + 1e-6)):
            roots = np.array([near] + others)
            counts, _, alone = _census_certified(*_diagonal_factors(roots), tau)
            want = _counts(np.concatenate([roots, np.zeros(3)]), tau)
            assert tuple(counts[0].tolist()) == tuple(map(int, want)) and alone, roots
        roots = np.array([radius] + others)
        assert not _census_certified(*_diagonal_factors(roots), tau)[2], roots


@pytest.mark.parametrize("tau", [1.0, 2.0])
def test_census_counts_no_root_stable_from_tau_1(tau):
    # no modulus lies below 1 - tau <= 0: the three zeros are borderline,
    # and the census needs no eigen-solve for it
    roots = np.array([0.5, -0.25, 1.5, 2.5, -3.5, 9.0])
    counts, failure, alone = _census_certified(*_diagonal_factors(roots), tau)
    want = _counts(np.concatenate([roots, np.zeros(3)]), tau)
    assert tuple(counts[0].tolist()) == tuple(map(int, want)) and want[0] == 0
    assert failure[0] == 0 and alone


def test_a_vanishing_polynomial_has_no_certified_count():
    # every delta of q = 0 is 0 and so is its bound: exact coefficients do
    # not certify a count of roots that all lie on the circle
    assert not statespace._schur_cohn(np.zeros((3, 1)), np.zeros(1))[1][0]


def test_non_finite_factors_fail_in_the_census():
    # a non-finite matrix is never certified: it fails as the eigen-solve
    # fails it
    U, V = _diagonal_factors(np.full(6, 0.5))
    for bad in (math.inf, math.nan):
        U[0, 0, 0] = bad
        counts, failure, alone = _census_certified(U, V, 1e-8)
        assert statespace._EIGEN_FAILURES[failure[0]] == \
            "transition matrix has non-finite entries" and not alone


def test_a_non_finite_matrix_in_a_stack_fails_on_its_own(default_params):
    # the defaults, k = 1e12 (which the rank-6 check fails) and the defaults
    # with one infinite loading, stacked as the census stacks the cells it
    # leaves: the non-finite matrix fails with code 1 and moves neither the
    # values nor the code of its neighbours, on each route and in _solved
    sets = [_factors(compute_all(p).slot_blocks, p)
            for p in (default_params, default_params.replace(k=1e12), default_params)]
    U, V = (np.stack(x) for x in zip(*sets))
    U[2, 0, 0] = math.inf
    A = _transition(U, V)
    routes = {"rank-6": (lambda U, V, A: _spectra(A, (U, V)), [0, 4, 1]),
              "9 x 9": (lambda U, V, A: _spectra(A), [0, 0, 1]),
              "solved": (lambda U, V, A: _solved(U, V)[1:], [0, 0, 1])}
    bits = lambda x: np.asarray(x, dtype=complex).tobytes()
    with np.errstate(all="ignore"):
        for name, (route, codes) in routes.items():
            vals, failure = route(U, V, A)
            assert failure.tolist() == codes, name
            for j in range(3):
                alone, code = route(U[j:j + 1], V[j:j + 1], A[j:j + 1])
                assert bits(vals[j]) == bits(alone[0]) and failure[j] == code[0], (name, j)


def test_power_is_scalar_pow_per_element():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 5000),
                        rng.standard_normal(2000) * 10.0 ** rng.integers(-200, 200, 2000),
                        [0.0, -0.0, 1e154, -1e154, 1e200, -1e200, 1e300, math.inf]])
    for n in (2, 3, 4):
        got = power(x, n)
        for v, g in zip(x.tolist(), got.tolist()):
            try:
                want = v ** n
            except OverflowError:
                want = math.copysign(math.inf, v) if n % 2 else math.inf
            assert g == want and math.copysign(1.0, g) == math.copysign(1.0, want), (v, n)
        assert power(float(x[0]), n) == float(x[0]) ** n
    assert power(-1e200, 3) == -math.inf and power(-1e200, 2) == math.inf


#: a grid whose counts the census certifies nowhere (k from 1e12, where
#: the characteristic coefficients' bounds swamp them), so that every solved
#: cell reaches the eigen-solve
_UNCERTIFIED_GRID = (("alpha_pi", 0.5, 2.5, 3), ("k", 1e12, 1e13, 6))


def test_stacked_eig_failure_fails_only_its_cell(default_params, monkeypatch):
    axis1, axis2 = _UNCERTIFIED_GRID
    reference = _reference_cells(default_params, axis1, axis2)
    bad_cell = (float(np.linspace(*axis1[1:])[1]), float(np.linspace(*axis2[1:])[1]))
    bad = validate({**default_params.as_dict(), "alpha_pi": bad_cell[0], "k": bad_cell[1]})
    rf = compute_all(bad)
    U, V = _factors(rf.slot_blocks, bad)
    # the bad cell's matrix as either route solves it: the rank-6 route's
    # V'U and, for a matrix that route fails, the 9 x 9 A.  The stack is
    # rejected, so its matrices go straight to the 9 x 9 retry: the bad
    # cell's V'U is never solved alone, and its A fails the retry
    bad_forms = (V.T @ U, build(rf).A)
    eig, calls = np.linalg.eig, []

    def refuse(a):
        # reject every stack, and the one matrix of the bad cell
        calls.append(len(a))
        if len(a) > 1 or any(np.array_equal(a[0], form) for form in bad_forms):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", refuse)
    res = sweep(default_params, axis1, axis2)
    assert calls[0] == len(res.counts)
    names = _names(res)
    failed = [i for i, name in enumerate(names) if name == "failed"]
    grid1, grid2 = res.axis1[1].tolist(), res.axis2[1].tolist()
    assert [(grid1[i // len(grid2)], grid2[i % len(grid2)]) for i in failed] == [bad_cell]
    assert (grid1, grid2) == tuple(np.linspace(*axis[1:]).tolist() for axis in (axis1, axis2))
    kept = [i for i in range(len(names)) if i not in failed]
    assert np.array_equal(res.counts[kept], reference[0][kept])
    assert [names[i] for i in kept] == [reference[1][i] for i in kept]


def test_a_rejected_stack_falls_back_once_to_the_9x9_route(default_params, monkeypatch):
    # eig rejects every stack of more than one matrix: the sweep's one slice
    # makes one stacked 6 x 6 call for the cells the census leaves, then
    # retries each alone by the 9 x 9 route, never by the rank-6 route,
    # with the unpatched counts
    want = sweep(default_params, *_UNCERTIFIED_GRID)
    solved = sum(name not in ("invalid", "failed") for name in _names(want))
    assert solved == 18
    eig, calls = np.linalg.eig, {}

    def refuse_stacks(a):
        key = ("stack" if len(a) > 1 else "single", a.shape[-1])
        calls[key] = calls.get(key, 0) + 1
        if len(a) > 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", refuse_stacks)
    res = sweep(default_params, *_UNCERTIFIED_GRID)
    assert calls == {("stack", 6): 1, ("single", 9): solved}
    assert np.array_equal(res.counts, want.counts)
    assert np.array_equal(res.verdicts, want.verdicts)


def test_eig_failure_is_a_convergence_failure(default_params, monkeypatch, tmp_path,
                                             capsys):
    # a matrix the solver rejects fails with numpy's own message, in eigen
    # and through the CLI's numerical-failure exit
    def refuse(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    A = build(compute_all(default_params)).A
    monkeypatch.setattr(np.linalg, "eig", refuse)
    with pytest.raises(ConvergenceFailure) as exc:
        eigen(A)
    assert str(exc.value) == "Eigenvalues did not converge"
    out = tmp_path / "out.txt"
    assert main(["determinacy", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "nkji: numerical failure: Eigenvalues did not converge\n"
    assert not out.exists()


def test_non_finite_coefficients_raise(default_params):
    with pytest.raises(ConvergenceFailure):
        compute_all(default_params.replace(k=1e308))


def test_fan_out_bounds_the_pool(monkeypatch):
    # the pool starts at most one process per slice and per CPU; a fake
    # pool records what it is asked for and maps in this process
    import concurrent.futures
    import os

    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    def negated(items):
        return -items[0]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert statespace.fan_out(negated, 10, 1, 100_000) == list(range(0, -10, -1))
    assert statespace.fan_out(negated, 2, 1, 100_000) == [0, -1]
    assert statespace.fan_out(negated, 5, 1, 2) == [0, -1, -2, -3, -4]
    assert started == [3, 2, 2]
    # the slices cover the items in order, the last one short
    assert statespace.fan_out(lambda items: items, 10, 4, 2) == \
        [range(0, 4), range(4, 8), range(8, 10)]
    assert started == [3, 2, 2, 2]
    # one slice, one worker, or an unknown CPU count: no pool at all
    assert statespace.fan_out(negated, 1, 1, 100_000) == [0]
    assert statespace.fan_out(negated, 5, 8, 100_000) == [0]
    assert statespace.fan_out(negated, 3, 1, 1) == [0, -1, -2]
    assert statespace.fan_out(negated, 0, 1, 4) == []
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert statespace.fan_out(negated, 3, 1, 8) == [0, -1, -2]
    assert started == [3, 2, 2, 2]


class _CountingPartial(partial):
    """A partial that counts how often it is pickled, and unpickles as a
    plain :func:`functools.partial`."""

    pickled = 0

    def __reduce__(self):
        type(self).pickled += 1
        return partial, (self.func, *self.args)


def test_fan_out_pickles_the_work_once_per_process(monkeypatch):
    # a pooled run ships its work function (and the grids it binds) to each
    # process once, however many slices there are
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    base = validate(DEFAULTS).as_dict()
    for n2 in (3, 30):
        fn = _CountingPartial(statespace._sweep_slice, base, "alpha_pi",
                              np.linspace(0.5, 2.5, 1), "alpha_y",
                              np.linspace(0.0, 1.0, n2), 9, 1e-8)
        _CountingPartial.pickled = 0
        pooled = statespace.fan_out(fn, n2, 1, 2)
        assert _CountingPartial.pickled == 2, n2
        serial = statespace.fan_out(fn, n2, 1, 1)
        assert len(pooled) == len(serial) == n2
        for got, want in zip(pooled, serial):
            assert all(map(np.array_equal, got, want)), n2
