import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import _valid_range
from nkji import build, char_poly, classify, classify_standard, compute_all, eigen
from nkji import statespace
from nkji.cli import main
from nkji.coeffs import power
from nkji.oracle import random_params
from nkji.params import DEFAULTS, InvalidParams, validate
from nkji.coeffs import _slot_blocks, finite_cells
from nkji.params import FIELD_NAMES, StructuralParams, invalid_cells
from nkji.statespace import (ORDER, SWEEP_SLICE, SWEEP_VERDICTS, ConvergenceFailure,
                             UnknownParameter, _counts, _factors, _retried, _spectra,
                             _transition, report, sweep)


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
    assert classify(on_circle, n_pre=4) == "borderline"
    near_circle = np.array([1.05 + 0j] + [0.0] * 8)
    assert classify(near_circle, n_pre=8, tau=1e-8) == "determinate"
    assert classify(near_circle, n_pre=8, tau=0.1) == "borderline"


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


def test_eigenvalue_continuity(default_params):
    base = np.sort_complex(eigen(build(compute_all(default_params)).A))
    bumped = default_params.replace(k=default_params.k + 1e-9)
    moved = np.sort_complex(eigen(build(compute_all(bumped)).A))
    assert np.max(np.abs(base - moved)) <= 1e-5


def test_report_all_counts(default_rf):
    rep = report(default_rf)
    assert rep.stable + rep.unstable + rep.borderline == 9
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
    assert len(res.cells) == 51 * 51
    assert sum(1 for c in res.cells if c["verdict"] == "invalid") == 0


def test_sweep_singular_cell_isolated(default_params):
    # s1 = 0.6 makes the shared closed-form denominator vanish at the
    # default calibration; neighbors stay fine
    res = sweep(default_params, ("s1", 0.5, 0.7, 3), ("theta", 0.4, 0.6, 2))
    verdicts = {(round(c["s1"], 6), c["verdict"] == "invalid") for c in res.cells}
    assert (0.6, True) in verdicts
    assert (0.5, False) in verdicts and (0.7, False) in verdicts


def test_sweep_parallel_determinism(default_params):
    # one slice, and three slices whose edges fall inside rows
    for n1, n2 in ((9, 9), (23, 25)):
        serial = sweep(default_params, ("alpha_pi", 0.5, 2.5, n1), ("alpha_y", 0.0, 1.0, n2))
        parallel = sweep(default_params, ("alpha_pi", 0.5, 2.5, n1),
                         ("alpha_y", 0.0, 1.0, n2), workers=4)
        assert serial.cells == parallel.cells, (n1, n2)


def test_sweep_without_a_valid_cell(default_params):
    # nothing to solve in any array pass
    res = sweep(default_params, ("sigma", 0.0, 0.0, 1), ("theta", 0.0, 0.0, 1))
    assert [c["verdict"] for c in res.cells] == ["invalid"]
    res = sweep(default_params, ("rho_chi", 1.0, 2.0, 3), ("alpha_pi", 1.2, 1.8, 100))
    assert {c["verdict"] for c in res.cells} == {"invalid"}


def test_sweep_unknown_parameter(default_params):
    with pytest.raises(UnknownParameter):
        sweep(default_params, ("alpha_zz", 0.0, 1.0, 3), ("alpha_y", 0.0, 1.0, 3))


def test_sweep_grid_size_limit(default_params, monkeypatch):
    monkeypatch.setattr(statespace, "SWEEP_MAX_CELLS", 6)
    assert len(sweep(default_params, ("alpha_pi", 0.5, 2.5, 2),
                     ("alpha_y", 0.0, 1.0, 3)).cells) == 6
    for n1, n2 in ((1, 7), (7, 1), (3, 3), (10**30, 2)):
        with pytest.raises(InvalidParams, match=f"{n1} x {n2} cells, more than 6"):
            sweep(default_params, ("alpha_pi", 0.5, 2.5, n1), ("alpha_y", 0.0, 1.0, n2))


# --- the batched sweep against the per-cell loop -----------------------------

def _reference_cells(base, axis1, axis2, n_pre=9, tau=1e-8):
    """The sweep as a per-cell loop: validate, compute_all, report and
    classify, one cell at a time."""
    (name1, lo1, hi1, n1), (name2, lo2, hi2, n2) = axis1, axis2
    cells = []
    with np.errstate(all="ignore"):
        for v1 in np.linspace(lo1, hi1, n1):
            for v2 in np.linspace(lo2, hi2, n2):
                cell = {name1: float(v1), name2: float(v2)}
                try:
                    p = validate({**base.as_dict(), **cell})
                    eigs = report(compute_all(p), tau).eigenvalues
                except (InvalidParams, ConvergenceFailure) as err:
                    cells.append({**cell, "stable": None, "unstable": None,
                                  "borderline": None,
                                  "verdict": "invalid" if isinstance(err, InvalidParams)
                                  else "failed"})
                    continue
                stable, unstable, borderline = map(int, _counts(eigs, tau))
                cells.append({**cell, "stable": stable, "unstable": unstable,
                              "borderline": borderline,
                              "verdict": classify(eigs, n_pre, tau)})
    return cells


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
    assert sweep(default_params, axis1, axis2, *n_pre).cells == \
        _reference_cells(default_params, axis1, axis2, *n_pre)


def test_sweep_verdict_codes_are_classify(default_params):
    # the sweep's verdict codes and classify are one rule, at every
    # predetermined count
    axis1, axis2, _, tau = REFERENCE_GRIDS["every verdict"]
    seen = set()
    for n_pre in range(ORDER + 1):
        codes = sweep(default_params, axis1, axis2, n_pre, tau).verdicts.tolist()
        want = [c["verdict"] for c in _reference_cells(default_params, axis1, axis2, n_pre, tau)]
        assert [SWEEP_VERDICTS[code] for code in codes] == want, n_pre
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
    blocks = {var: rng.uniform(0.5, 2.0, 16) for var in statespace.ROW_VARS}
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
    # passes, the sweep's route (rank-6, then 9 x 9) passes with its counts,
    # and the sweep fails a cell only where both routes fail, as report does
    (name1, lo1, hi1, n1), (name2, lo2, hi2, n2), *_ = REFERENCE_GRIDS[grid]
    g1, g2 = np.meshgrid(np.linspace(lo1, hi1, n1), np.linspace(lo2, hi2, n2),
                         indexing="ij")
    values = {**default_params.as_dict(), name1: g1.ravel(), name2: g2.ravel()}
    p = StructuralParams(**values)
    with np.errstate(all="ignore"):
        blocks = _slot_blocks(p)
        solved = ~invalid_cells(values) & finite_cells(blocks)
        A, U, V = (x[solved] for x in _stacks(blocks, p))
        vals, failure = _retried(A, (U, V), None)
        vals9, failure9 = _spectra(A)
        failure6 = _spectra(A, (U, V))[1]
        failure_report = _retried(A, None, (U, V))[1]
    assert np.array_equal(failure != 0, (failure9 != 0) & (failure6 != 0))
    assert np.array_equal(failure != 0, failure_report != 0)
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
    assert rep.counts() == {"stable": 8, "unstable": 1, "borderline": 0}
    cell, = sweep(default_params, ("sigma", 1e-300, 1e-300, 1), ("k", 0.0, 0.0, 1)).cells
    assert {key: cell[key] for key in rep.counts()} == rep.counts()


def test_retried_keeps_the_second_routes_complex_values(monkeypatch):
    # np.linalg.eig returns real values when every eigenvalue of the stack
    # is real: the first route fails its one matrix that way, and the second
    # route's complex pair must keep its imaginary parts
    pair = np.array([[0.5 + 0.25j, 0.5 - 0.25j] + [0.0] * (ORDER - 2)])
    routes = iter([(np.zeros((1, ORDER)), np.array([4])), (pair, np.array([0]))])
    monkeypatch.setattr(statespace, "_spectra", lambda A, factors=None: next(routes))
    vals, failure = _retried(np.zeros((1, ORDER, ORDER)), None, None)
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
    # the other solves, so the sweep and report each retry a failed matrix by
    # the other route.  Up to |A| = 1e8, and away from the unit circle by
    # more than 2 sqrt(eps |A|), wherever the routes disagree, the sweep's
    # choice (the rank-6 route where it passes) gives the counts of a
    # 30-digit solve of A.  Closer, counts are not well posed: where two
    # persistences are equal, A has a double root, which rounding A's
    # entries moves by sqrt(eps |A|); at the example, a root at 1 - 1e-6 and
    # |A| = 3e6.  Beyond |A| = 1e12 both routes can pass with wrong counts,
    # next to an eigenvalue of 1e11 or more
    try:
        p = validate(raw)
    except InvalidParams:
        return
    with np.errstate(all="ignore"):
        try:
            rf = compute_all(p)
        except ConvergenceFailure:
            return
        U, V = (x[None] for x in _factors(rf.slot_blocks, p))
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


def test_stacked_eig_failure_fails_only_its_cell(default_params, monkeypatch):
    axis1, axis2 = ("alpha_pi", 0.5, 2.5, 3), ("rho_chi", 0.1, 1.1, 6)
    reference = _reference_cells(default_params, axis1, axis2)
    bad_cell = (float(np.linspace(*axis1[1:])[1]), float(np.linspace(*axis2[1:])[1]))
    bad = validate({**default_params.as_dict(), "alpha_pi": bad_cell[0],
                    "rho_chi": bad_cell[1]})
    rf = compute_all(bad)
    U, V = _factors(rf.slot_blocks, bad)
    # the bad cell's matrix as either route solves it: the rank-6 route's
    # V'U and, for a matrix that route fails, the 9 x 9 A
    bad_forms = (V.T @ U, build(rf).A)
    eig = np.linalg.eig

    def refuse(a):
        # reject every stack, and the one matrix of the bad cell
        if len(a) > 1 or any(np.array_equal(a[0], form) for form in bad_forms):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", refuse)
    cells = sweep(default_params, axis1, axis2).cells
    failed = [i for i, cell in enumerate(cells) if cell["verdict"] == "failed"]
    assert [(cells[i]["alpha_pi"], cells[i]["rho_chi"]) for i in failed] == [bad_cell]
    assert [c for i, c in enumerate(cells) if i not in failed] == \
        [c for i, c in enumerate(reference) if i not in failed]


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
        return [-i for i in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert statespace.fan_out(negated, 10, 1, 100_000) == list(range(0, -10, -1))
    assert statespace.fan_out(negated, 2, 1, 100_000) == [0, -1]
    assert statespace.fan_out(negated, 5, 1, 2) == [0, -1, -2, -3, -4]
    assert started == [3, 2, 2]
    # the slices cover the items in order, the last one short
    assert statespace.fan_out(lambda items: [items], 10, 4, 2) == \
        [range(0, 4), range(4, 8), range(8, 10)]
    assert started == [3, 2, 2, 2]
    # one slice, one worker, or an unknown CPU count: no pool at all
    assert statespace.fan_out(negated, 1, 1, 100_000) == [0]
    assert statespace.fan_out(negated, 5, 8, 100_000) == [0, -1, -2, -3, -4]
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
