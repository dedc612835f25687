"""Order-nine state-transition matrix, its spectrum, and determinacy verdicts.

The first-order form stacks the one-step-ahead expectation equations of the
eight endogenous variables (``slots.ENDOGENOUS``) plus the
disclosed-information signal.  Row j
carries the coefficient block of variable j; the columns are the lag
carriers

    [ybar_{t-4}, ybar_{t-2}, ybar_{t-3}, g_{t-4}, g_{t-2}, g_{t-3},
     tax_{t-1}, chi_{t-1}, eps_{t-1}]

so row ordering (variables) and column meaning (lags) deliberately differ;
the matrix is reproduced cell-for-cell from the derivation, including the
row-7 column-2 entry that squares the drift persistence where every other
row carries the first power.

Every column of the matrix is a loading block of the eight variables times
a power of one persistence, so A = U V' with factors U, V of shape 9 x 6
(:func:`_factors`, the one place that writes out A's layout).  A itself is
gathered from the factors, one product per entry (:func:`_transition`).
Its nonzero eigenvalues are those of the 6 x 6 V' U, and its other three
are exactly zero.  ``report`` and the sweep both take their stable,
unstable and borderline counts from :func:`_census`, which needs no
eigenvalues: the trace recursion gives det(z I - V' U) with a bound on each
coefficient's error, and the Schur-Cohn recursion counts its roots inside
|z| < 1 - tau and |z| < 1 + tau.  Only a count those bounds do not certify
is read from eigenvalues, by :func:`_solved`: it solves V' U, checks each
eigenpair lifted back to A, and solves A itself only where that route
fails.  ``report`` prints :func:`_solved`'s eigenvalues.  Determinacy
depends on A alone, so the innovation loadings are not assembled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import slots
from .coeffs import ReducedForm, _slot_blocks, finite_cells, power
from .params import FIELD_NAMES, InvalidParams, StructuralParams, Violation, invalid_cells
from .slots import ConvergenceFailure, Vec

ORDER = 9
#: rank of the transition matrix: the columns of its factors U, V
RANK = 6

VERDICTS = ("determinate", "indeterminate", "no_equilibrium", "borderline")
#: indexed by ``SweepResult.verdicts``
SWEEP_VERDICTS = VERDICTS + ("invalid", "failed")

#: most grid cells a sweep evaluates in one array pass; bounds its memory
SWEEP_SLICE = 256
#: largest grid (cells) a sweep accepts; its count and verdict arrays, and the
#: CSV columns formatted from them, are held in memory
SWEEP_MAX_CELLS = 1_000_000

#: why an eigen-solve is rejected, indexed by the codes of :func:`_spectra`;
#: the last is numpy's own message for a matrix the solver rejects
_EIGEN_FAILURES = (None, "transition matrix has non-finite entries",
                   "eigensolver returned non-finite values",
                   "transition matrix norm overflows",
                   "eigenpair residual check failed",
                   "Eigenvalues did not converge")


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    A: Vec = field(repr=False)          # (9, 9)


@dataclass(frozen=True, eq=False)
class DeterminacyReport:
    eigenvalues: Vec = field(repr=False)   # 9 complex numbers
    k: Vec = field(repr=False)             # characteristic coefficients k0..k9
    counts: dict[str, int]                 # stable, unstable, borderline
    verdicts: dict[int, str]


def build(rf: ReducedForm) -> TransitionSystem:
    """Assemble the transition matrix A from a coefficient set."""
    A = _transition(*_factors(rf.slot_blocks, rf.params))
    A.flags.writeable = False
    return TransitionSystem(A=A)


def _loadings(blocks: dict[str, Vec]) -> tuple[Vec, ...]:
    """The lag-carrier loadings f, h, m, n, e of the eight variable rows,
    each (8,), or (8, n) for blocks (16, n)."""
    rows = np.stack([blocks[var] for var in slots.ENDOGENOUS])
    return tuple(rows[:, s] for s in (slots.YBAR_LAG2, slots.G_LAG1,
                                      slots.TAX_LAG1, slots.CHI_LAG1,
                                      slots.EPS_LAG1))


_POLICY = slots.ENDOGENOUS.index("i")
_COST_PUSH = [slots.ENDOGENOUS.index("pi"), _POLICY]   # rows loading on eps_{t-1}


def _factors(blocks: dict[str, Vec], p: StructuralParams) -> tuple[Vec, Vec]:
    """Factors U, V (9, 6) of A = U V' from slot blocks (16,); (9, 6, n)
    each for blocks (16, n).  The one place that knows A's layout.

    Each entry of A is one product ``U[i, k] * V[j, k]`` and the other five
    terms of its row-column sum vanish (:func:`_transition`).  The columns
    of U: f off the policy row and f on it (the policy row carries rho^2 in
    column 1 where the others carry rho), h, m, the chi loadings with the
    signal row's rho_chi^2, and the cost-push rows' eps loadings."""
    rho, rg, rt, rx, re_ = p.rho_ybar, p.rho_g, p.rho_tax, p.rho_chi, p.rho_eps
    rho2 = power(rho, 2)
    f, h, m, n, e = _loadings(blocks)
    cells = f.shape[1:]

    U = np.zeros((ORDER, RANK, *cells))
    U[:8, 0] = f
    U[_POLICY, 0] = 0.0
    U[_POLICY, 1] = f[_POLICY]
    U[:8, 2] = h
    U[:8, 3] = m
    U[:8, 4] = rx * n
    U[8, 4] = power(rx, 2)
    U[_COST_PUSH, 5] = e[_COST_PUSH]

    V = np.zeros((ORDER, RANK, *cells))
    V[0, :2] = power(rho, 3)
    V[1, 0] = rho
    V[1, 1] = rho2
    V[2, :2] = -rho2
    V[3, 2] = power(rg, 4)
    V[4, 2] = power(rg, 2)
    V[5, 2] = -power(rg, 3)
    V[6, 3] = rt
    V[7, 4] = 1.0
    V[8, 5] = re_
    return U, V


#: the one structurally nonzero term of each entry of A: its row i, column j
#: and factor column k, read off :func:`_factors` where every loading and
#: persistence is nonzero
_TERM_ROW, _TERM_COL, _TERM_K = np.nonzero(np.einsum("ik,jk->ijk", *_factors(
    dict.fromkeys(slots.ENDOGENOUS, np.ones(slots.NSLOT)),
    StructuralParams(**dict.fromkeys(FIELD_NAMES, 0.5)))))


def _transition(U: Vec, V: Vec) -> Vec:
    """A (..., 9, 9) from its factors U, V (..., 9, 6): each entry is its one
    structurally nonzero term ``U[..., i, k] * V[..., j, k]``, or 0.0 where
    it has none.  Unlike ``U @ V.T`` this keeps signed zeros and non-finite
    entries as the single products give them."""
    A = np.zeros((*U.shape[:-2], ORDER, ORDER))
    A[..., _TERM_ROW, _TERM_COL] = U[..., _TERM_ROW, _TERM_K] * V[..., _TERM_COL, _TERM_K]
    return A


def eigen(A: Vec) -> Vec:
    """Eigenvalues of A, with a residual check ||A v - a v|| <= 1e-8 ||A|| ||v||
    per pair.  Raises :class:`ConvergenceFailure` instead of returning NaN."""
    vals, failure = _spectra(np.asarray(A)[None])
    if failure[0]:
        raise ConvergenceFailure(_EIGEN_FAILURES[failure[0]])
    return vals[0]


def _spectra(A: Vec, factors: tuple[Vec, Vec] | None = None) -> tuple[Vec, Vec]:
    """Eigenvalues of a stack of matrices (n, 9, 9), and per matrix the
    index into ``_EIGEN_FAILURES`` of the first check it fails (0: none).

    With ``factors`` U, V (n, 9, 6) of A = U V', the solver sees the 6 x 6
    V' U instead: each of its eigenpairs (a, w) lifts to the pair (a, U w)
    of A, and the three eigenvalues rank 6 leaves are exact zeros, appended
    last.  Every check is made on A and the lifted pairs, in the dtype the
    solver returns.  A matrix with non-finite entries is solved as zeros and
    fails with code 1, whatever its check gives.  When the solver rejects
    the stack, each of its matrices fails with the last code of
    ``_EIGEN_FAILURES``.  At extreme scales each route fails matrices the
    other solves (:func:`_solved`)."""
    finite = np.isfinite(A).all(axis=(1, 2))
    if factors is None:
        S = A
    else:
        U, V = factors
        S = np.swapaxes(V, 1, 2) @ U
    try:
        vals, vecs = np.linalg.eig(np.where(finite[:, None, None], S, 0.0))
    except np.linalg.LinAlgError:
        return np.zeros((len(A), ORDER), dtype=complex), np.full(len(A), len(_EIGEN_FAILURES) - 1)
    if factors is not None:
        vecs = U @ vecs
    with np.errstate(all="ignore"):
        # entries beyond ~1e154 overflow the Frobenius norm, and an infinite
        # norm would pass every residual check
        norm = np.linalg.norm(A, axis=(1, 2))
        resid = np.linalg.norm(A @ vecs - vecs * vals[:, None, :], axis=1)
        bound = 1e-8 * norm[:, None] * np.linalg.norm(vecs, axis=1)
        bad_pair = (norm[:, None] > 0) & (resid > bound)
    failure = np.select([~finite, ~np.isfinite(vals).all(axis=1),
                         ~np.isfinite(norm), bad_pair.any(axis=1)],
                        [1, 2, 3, 4], 0)
    if factors is not None:
        vals = np.concatenate([vals, np.zeros((len(vals), ORDER - RANK))], axis=1)
    return vals, failure


def _solved(U: Vec, V: Vec) -> tuple[Vec, Vec, Vec]:
    """Transition matrices A (n, 9, 9) from factors U, V (n, 9, 6), and
    :func:`_spectra` of A by the rank-6 route, then of each matrix it fails
    (each of a stack the solver rejects, too) by the 9 x 9 route on its own,
    which keeps the rank-6 code if it fails again: the one fallback.  The
    9 x 9 solve can return a false pair where A's entries span more than
    about 1/eps^2 (``sigma = 1e-40``); V' U's noise floor can be far above A's.
    ``report`` takes its eigenvalues from here, and :func:`_census` the
    counts it cannot certify, with their failure codes."""
    A = _transition(U, V)
    vals, failure = _spectra(A, (U, V))
    for k in np.flatnonzero(failure):
        again, still = _spectra(A[k:k + 1])
        if not still[0]:
            vals = vals.astype(complex, copy=False)   # real if all of V' U's are
            vals[k], failure[k] = again[0], 0
    return A, vals, failure


# overflow in an extreme matrix leaves its count uncertified, not a warning
@np.errstate(all="ignore")
def _census(U: Vec, V: Vec, tau: float) -> tuple[Vec, Vec]:
    """Stable, unstable and borderline counts (n, 3) of the transition
    matrices A = U V' from factors U, V (n, 9, 6), as :func:`_counts` gives
    them from A's eigenvalues, and per matrix the index into
    ``_EIGEN_FAILURES`` of the check it fails (0: none).

    The counts come from the characteristic polynomial of V' U
    (:func:`_leverrier`), without eigenvalues: the roots inside
    |z| < 1 - tau are stable, those outside |z| <= 1 + tau unstable, each
    number read by :func:`_schur_cohn` from det(r w I - V'U) / r^6, and
    rank 6's three exact zeros are stable where tau < 1 and borderline
    otherwise.  A matrix whose count this cannot certify goes to
    :func:`_solved`, whose failure codes it keeps."""
    Vt = np.swapaxes(V, 1, 2)
    c, err = _leverrier(Vt @ U, np.abs(Vt) @ np.abs(U))
    inner = tau < 1.0
    radii = np.array([1.0 + tau, 1.0 - tau] if inner else [1.0 + tau])
    # coefficient k of det(r w I - S) / r^RANK is c[RANK - k] / r^(RANK - k)
    b, e = (np.repeat(x.T[::-1, :, None], len(radii), axis=2) for x in (c, err))
    for k in range(RANK, 0, -1):
        b[:k] /= radii
        e[:k] /= radii
    # on the circle the exact polynomial is within the sum of the coefficient
    # bounds, the divisions' rounding included, of the computed one
    inside, certified = _schur_cohn(b, (e + 16 * np.finfo(float).eps * np.abs(b)).sum(axis=0))
    stable = inside[:, 1:].sum(axis=1) + inner * (ORDER - RANK)
    unstable = RANK - inside[:, 0]
    counts = np.stack([stable, unstable, ORDER - stable - unstable], axis=1).astype(np.int8)
    failure = np.zeros(len(U), dtype=int)
    todo = np.flatnonzero(~certified.all(axis=1))
    if todo.size:
        _, vals, failure[todo] = _solved(U[todo], V[todo])
        counts[todo] = np.stack(_counts(vals, tau), axis=1)
    return counts, failure


def char_poly(A: Vec) -> Vec:
    """Coefficients k0..k9 of det(A - a I) as a polynomial in a.

    Uses the trace recursion (Faddeev-LeVerrier), a route independent of the
    eigensolver, so the two can cross-validate.  Convention: the leading
    term is (-a)^9, hence k9 = -1 and k0 = det(A).  Raises
    :class:`ConvergenceFailure` where a coefficient is not finite.
    """
    with np.errstate(all="ignore"):
        k = -_leverrier(A, np.abs(A))[0][::-1]
    if not np.isfinite(k).all():
        raise ConvergenceFailure("characteristic polynomial is not finite")
    return k


def _leverrier(S: Vec, P: Vec) -> tuple[Vec, Vec]:
    """Coefficients c (..., m + 1) of det(z I - S) = z^m + c[1] z^(m-1) + ...
    + c[m] for a matrix or a stack S (..., m, m), by the trace recursion
    (Faddeev-LeVerrier), and beside them a running bound on each one's error
    (Higham 2002, ch. 3).  The bound takes each entry of S to be within 32
    unit roundoffs of P >= |S| of its exact value, which covers the rounding
    of forming S = V' U with P = |V|' |U|, and adds the smallest normal float
    per entry and step for products that fall below it."""
    m = S.shape[-1]
    gamma, tiny = 16 * np.finfo(float).eps, np.finfo(float).tiny
    eye = np.eye(m)
    c, err = np.ones((*S.shape[:-2], m + 1)), np.zeros((*S.shape[:-2], m + 1))
    M, E = eye, 0.0
    for j in range(1, m + 1):
        SM = S @ M
        F = P @ (E + gamma * np.abs(M)) + tiny
        c[..., j] = -np.trace(SM, axis1=-2, axis2=-1) / j
        err[..., j] = (np.trace(F, axis1=-2, axis2=-1)
                       + gamma * np.trace(np.abs(SM), axis1=-2, axis2=-1)) / j
        M = SM + c[..., j, None, None] * eye
        E = F + err[..., j, None, None] * eye
    return c, err


def _schur_cohn(b: Vec, slack: Vec) -> tuple[Vec, Vec]:
    """The number of roots inside the unit circle of each polynomial
    q(w) = b[0] + b[1] w + ... + b[m] w^m, one per trailing index of b
    (m + 1, ...), and whether that number is certified for every polynomial
    that differs from q by at most ``slack`` anywhere on the circle (Schur
    1917; Cohn 1922; Marden 1966, ch. X).

    Each step maps q to its Schur transform b[0] q - b[m] q*, one degree
    lower, whose constant term is delta = b[0]^2 - b[m]^2: q has as many
    roots inside as the transform where delta > 0, and m minus as many
    where delta < 0.  Beside the coefficients runs a bound on their
    rounding errors.  On the circle |q| is at least |transform| / (|b[0]| +
    |b[m]|), so the last delta, a constant, bounds |q| from below there,
    and by Rouche's theorem every polynomial within that bound has q's
    count.  The count is certified where every delta is farther from 0 than
    twice its bound, the last also than twice ``slack`` carried down the
    steps; that leaves no root on the circle.  Each step first scales by a
    power of two, exactly, so that the largest coefficient lies in
    [0.5, 1); a result that falls below the smallest normal float is then
    covered by that float times the largest coefficient.  A non-finite
    value leaves a margin that is not positive."""
    gamma, tiny = 16 * np.finfo(float).eps, np.finfo(float).tiny
    e = np.zeros_like(b)
    margins, flips = [], []
    for m in range(len(b) - 1, 0, -1):
        top, shift = np.frexp(np.abs(b).max(axis=0))
        b, e = np.ldexp(b, -shift), np.ldexp(e, -shift)
        a = np.abs(b)
        # bounds on |b[0]| and |b[m]| of the exact steps
        first, last = a[0] + e[0], a[m] + e[m]
        slack = np.ldexp(slack, -shift) * (first + last)
        rev = slice(m, 0, -1)
        b, e = (b[0] * b[:m] - b[m] * b[rev],
                first * e[:m] + (e[0] + gamma * a[0]) * a[:m]
                + last * e[rev] + (e[m] + gamma * a[m]) * a[rev] + tiny * top)
        margins.append(np.abs(b[0]) - 2.0 * e[0])
        flips.append(np.signbit(b[0]))
    margins[-1] = margins[-1] - 2.0 * slack
    inside = np.zeros(b.shape[1:], dtype=int)
    for m, flip in enumerate(reversed(flips), start=1):
        inside = np.where(flip, m - inside, inside)
    return inside, (np.stack(margins) > 0).all(axis=0)


def classify(eigs: Vec, n_pre: int, tau: float = 1e-8) -> str:
    """Determinacy verdict for a given count of predetermined variables.

    Stable means modulus strictly below 1 (within tau); any eigenvalue
    within tau of the unit circle makes the verdict "borderline".
    Equality of the stable count with the predetermined count gives a
    unique stable solution; more stable roots than predetermined variables
    gives indeterminacy; fewer, no stable solution.
    """
    _check_rule(n_pre, tau, len(eigs))
    stable, _, borderline = _counts(eigs, tau)
    return VERDICTS[_verdict_codes(stable, borderline, n_pre)]


def _check_rule(n_pre: int | None, tau: float, order: int = ORDER) -> None:
    """Refuse an ``n_pre`` outside 0..order and a negative or non-finite ``tau``."""
    if n_pre is not None and not 0 <= n_pre <= order:
        raise ValueError(f"n_pre must be in 0..{order}")
    _check_tolerances(tau=tau)


def _check_tolerances(**tolerances: float) -> None:
    """Refuse a negative or non-finite value of each named tolerance."""
    for name, value in tolerances.items():
        if not 0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= 0")


def _verdict_codes(stable: Vec, borderline: Vec, n_pre: int) -> Vec:
    """Index into ``VERDICTS`` per stable and borderline count; 0-d for integers."""
    return np.select([borderline > 0, stable == n_pre, stable > n_pre], [3, 0, 1], 2)


def classify_standard(eigs: Vec, n_pre: int, tau: float = 1e-8) -> str:
    """Equivalent rule counted from the explosive side (#unstable versus
    #forward-looking); used to cross-check :func:`classify`."""
    _check_rule(n_pre, tau, len(eigs))
    stable, unstable, borderline = _counts(eigs, tau)
    if borderline > 0:
        return "borderline"
    n_fwd = len(eigs) - n_pre
    if unstable == n_fwd:
        return "determinate"
    if unstable < n_fwd:
        return "indeterminate"
    return "no_equilibrium"


def _counts(eigs: Vec, tau: float) -> tuple[Vec, Vec, Vec]:
    """Stable, unstable and borderline counts over the last axis of
    ``eigs``: integers for one spectrum (9,), arrays for a stack (n, 9)."""
    mod = np.abs(eigs)
    stable = np.sum(mod < 1.0 - tau, axis=-1)
    unstable = np.sum(mod > 1.0 + tau, axis=-1)
    return stable, unstable, eigs.shape[-1] - stable - unstable


def report(rf: ReducedForm, tau: float = 1e-8,
           n_pre: int | None = None) -> DeterminacyReport:
    """Eigenvalues, characteristic coefficients and verdicts for every
    possible predetermined count (or a single one if ``n_pre`` is given).
    Raises :class:`ConvergenceFailure` where the eigen-solve fails or a
    coefficient is not finite."""
    _check_rule(n_pre, tau)
    U, V = (x[None] for x in _factors(rf.slot_blocks, rf.params))
    A, vals, failure = _solved(U, V)
    if failure[0]:
        raise ConvergenceFailure(_EIGEN_FAILURES[failure[0]])
    k = char_poly(A[0])
    stable, unstable, borderline = map(int, _census(U, V, tau)[0][0])
    pres = range(ORDER + 1) if n_pre is None else (n_pre,)
    verdicts = {n: VERDICTS[_verdict_codes(stable, borderline, n)] for n in pres}
    counts = {"stable": stable, "unstable": unstable, "borderline": borderline}
    return DeterminacyReport(eigenvalues=vals[0], k=k, counts=counts, verdicts=verdicts)


@dataclass(frozen=True, eq=False)
class SweepResult:
    axis1: tuple[str, Vec]
    axis2: tuple[str, Vec]
    # per cell in row-major (axis1, axis2) order: stable, unstable and borderline
    # counts (n, 3), -1 where not solved, and an index into SWEEP_VERDICTS (n,)
    counts: Vec = field(repr=False)
    verdicts: Vec = field(repr=False)

    @property
    def cells(self) -> list[dict]:
        """A ``{"verdict": name}`` record per cell in row-major order, built
        on each call.  Only perfbench's traced ``_sweep_attrs`` reads them;
        spans inside nkji (ROADMAP item 1) delete both."""
        return [{"verdict": SWEEP_VERDICTS[code]} for code in self.verdicts.tolist()]


# overflow in an extreme cell is reported by its "failed" verdict, not by
# numpy warnings
@np.errstate(all="ignore")
def _sweep_slice(base: dict[str, float], name1: str, grid1: Vec, name2: str,
                 grid2: Vec, n_pre: int, tau: float, cells: range) -> tuple[Vec, Vec]:
    """The counts and verdict codes of ``SweepResult`` for the grid cells
    numbered ``cells`` in row-major order, evaluated in one array pass."""
    i1, i2 = np.divmod(np.arange(cells.start, cells.stop), len(grid2))
    # both swept fields are arrays, so no cell divides a Python float by zero
    values = {**base, name1: grid1[i1], name2: grid2[i2]}
    p = StructuralParams(**values)
    blocks = _slot_blocks(p)
    invalid = invalid_cells(values)
    solved = ~invalid & finite_cells(blocks)
    # only the cells that pass both checks are counted
    idx = np.flatnonzero(solved)
    U, V = (np.moveaxis(x, -1, 0)[idx] for x in _factors(blocks, p))
    counts = np.zeros((len(cells), 3), dtype=np.int8)
    counts[idx], failure = _census(U, V, tau)
    solved[idx] = failure == 0
    verdicts = np.select([solved, invalid], [_verdict_codes(counts[:, 0], counts[:, 2], n_pre),
                                             len(VERDICTS)], len(VERDICTS) + 1).astype(np.int8)
    counts[~solved] = -1
    return counts, verdicts


def fan_out(fn: Callable[[range], object], n_items: int, size: int,
            workers: int = 1) -> list:
    """``fn`` called on the slices of at most ``size`` items of
    ``range(n_items)``: one result per slice, in item order.  With
    ``workers > 1`` the calls run in a process pool, so ``fn`` must pickle
    (a module-level function or a :func:`functools.partial` of one).  The
    pool starts at most one process per slice and per CPU, whatever
    ``workers`` asks, and hands each process one run of consecutive slices,
    so ``fn`` and what it binds are pickled once per process, not once per
    slice."""
    slices = [range(start, min(start + size, n_items))
              for start in range(0, n_items, size)]
    workers = min(workers, len(slices), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(fn, slices))
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, slices, chunksize=-(-len(slices) // workers)))


def sweep(base: StructuralParams,
          axis1: tuple[str, float, float, int],
          axis2: tuple[str, float, float, int],
          n_pre: int = ORDER, tau: float = 1e-8, workers: int = 1) -> SweepResult:
    """Determinacy verdicts over a 2-D parameter grid.

    Grid cells that fail parameter validation are marked invalid, cells
    whose coefficients overflow or whose count is not certified and whose
    eigen-solve fails are marked failed; neither aborts the sweep.  The two
    axes must name two different parameters, and the grid may have at most
    ``SWEEP_MAX_CELLS`` cells; otherwise :class:`InvalidParams` names each
    offender.
    Results are assembled in fixed grid order regardless of worker count,
    so output is reproducible across parallelism levels.
    """
    unknown = [Violation("InvalidDomain", name, "unknown parameter")
               for name in dict.fromkeys((axis1[0], axis2[0])) if name not in FIELD_NAMES]
    if unknown:
        raise InvalidParams(unknown)
    if axis1[0] == axis2[0]:
        raise InvalidParams([Violation("InvalidDomain", axis1[0], "varied by both sweep axes")])
    _check_rule(n_pre, tau)
    name1, lo1, hi1, n1 = axis1
    name2, lo2, hi2, n2 = axis2
    if n1 * n2 > SWEEP_MAX_CELLS:
        raise InvalidParams([Violation(
            "InvalidDomain", "<grid>", f"{n1} x {n2} cells, more than {SWEEP_MAX_CELLS}")])
    grid1 = np.linspace(lo1, hi1, n1)
    grid2 = np.linspace(lo2, hi2, n2)
    parts = fan_out(partial(_sweep_slice, base.as_dict(), name1, grid1, name2, grid2,
                            n_pre, tau), n1 * n2, SWEEP_SLICE, workers)
    empty = (np.empty((0, 3), np.int8), np.empty(0, np.int8))   # for a grid of no cells
    counts, verdicts = map(np.concatenate, zip(*parts, empty))
    return SweepResult(axis1=(name1, grid1), axis2=(name2, grid2), counts=counts,
                       verdicts=verdicts)
