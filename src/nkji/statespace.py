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
are exactly zero.  The sweep solves that 6 x 6 matrix for the cells that
pass validation, and checks each eigenpair lifted back to A; ``report``
solves A itself, whose eigenvalues ``determinacy`` prints.  Each takes the
other route where its own fails.  Determinacy depends on A alone, so the
innovation loadings are not assembled.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import slots
from .coeffs import ReducedForm, _slot_blocks, finite_cells, power
from .params import (FIELD_NAMES, ConvergenceFailure, InvalidDomain, InvalidParams,
                     StructuralParams, invalid_cells, printable)
from .slots import Vec

ORDER = 9
#: rank of the transition matrix: the columns of its factors U, V
RANK = 6

ROW_VARS = slots.ENDOGENOUS   # row 8 is the signal

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


class UnknownParameter(ValueError):
    """A sweep axis names no parameter; the message is the name, escaped."""

    def __str__(self):
        return printable(super().__str__())


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    A: Vec = field(repr=False)          # (9, 9)


@dataclass(frozen=True, eq=False)
class DeterminacyReport:
    eigenvalues: Vec = field(repr=False)   # 9 complex numbers
    k: Vec = field(repr=False)             # characteristic coefficients k0..k9
    tau: float
    stable: int
    unstable: int
    borderline: int
    verdicts: dict[int, str]
    rule: str = "stable-count-vs-predetermined"

    def counts(self) -> dict[str, int]:
        return {"stable": self.stable, "unstable": self.unstable,
                "borderline": self.borderline}


def build(rf: ReducedForm) -> TransitionSystem:
    """Assemble the transition matrix A from a coefficient set."""
    A = _transition(*_factors(rf.slot_blocks, rf.params))
    A.flags.writeable = False
    return TransitionSystem(A=A)


def _loadings(blocks: dict[str, Vec]) -> tuple[Vec, ...]:
    """The lag-carrier loadings f, h, m, n, e of the eight variable rows,
    each (8,), or (8, n) for blocks (16, n)."""
    rows = np.stack([blocks[var] for var in ROW_VARS])
    return tuple(rows[:, s] for s in (slots.YBAR_LAG2, slots.G_LAG1,
                                      slots.TAX_LAG1, slots.CHI_LAG1,
                                      slots.EPS_LAG1))


_POLICY = ROW_VARS.index("i")
_COST_PUSH = [ROW_VARS.index("pi"), _POLICY]   # rows loading on eps_{t-1}


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
    dict.fromkeys(ROW_VARS, np.ones(slots.NSLOT)),
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
    last.  Every check is made on A and the lifted pairs.  A matrix with
    non-finite entries is solved as zeros.  When the solver rejects the
    stack, its matrices are solved one at a time, so that a rejected matrix
    fails alone, with the last code of ``_EIGEN_FAILURES``.  At extreme
    scales each route fails matrices the other solves (:func:`_retried`)."""
    finite = np.isfinite(A).all(axis=(1, 2))
    if factors is None:
        S = A
    else:
        U, V = factors
        S = np.swapaxes(V, 1, 2) @ U
    try:
        vals, vecs = np.linalg.eig(np.where(finite[:, None, None], S, 0.0))
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.zeros((1, ORDER), dtype=complex), np.array([len(_EIGEN_FAILURES) - 1])
        return tuple(map(np.concatenate, zip(*(
            _spectra(A[k:k + 1], factors and (U[k:k + 1], V[k:k + 1]))
            for k in range(len(A))))))
    A = np.where(finite[:, None, None], A, 0.0)
    # real when every eigenvalue of the stack is
    vecs = vecs.astype(complex, copy=False)
    if factors is not None:
        vecs = _real_times(U, vecs)
    with np.errstate(all="ignore"):
        # entries beyond ~1e154 overflow the Frobenius norm, and an infinite
        # norm would pass every residual check
        norm = np.linalg.norm(A, axis=(1, 2))
        resid = np.linalg.norm(_real_times(A, vecs) - vecs * vals[:, None, :], axis=1)
        bound = 1e-8 * norm[:, None] * np.linalg.norm(vecs, axis=1)
        bad_pair = (norm[:, None] > 0) & (resid > bound)
    failure = np.select([~finite, ~np.isfinite(vals).all(axis=1),
                         ~np.isfinite(norm), bad_pair.any(axis=1)],
                        [1, 2, 3, 4], 0)
    if factors is not None:
        vals = np.concatenate([vals, np.zeros((len(vals), ORDER - RANK))], axis=1)
    return vals, failure


def _real_times(M: Vec, Z: Vec) -> Vec:
    """``M @ Z`` for a real stack M and a complex stack Z, as one real
    product on the interleaved real and imaginary parts of Z."""
    return (M @ Z.view(np.float64)).view(complex)


def _retried(A: Vec, first: tuple[Vec, Vec] | None,
             second: tuple[Vec, Vec] | None) -> tuple[Vec, Vec]:
    """:func:`_spectra` of a stack A by the route ``first`` (factors U, V,
    or None for the 9 x 9 route), and of each matrix it fails by ``second``,
    which keeps ``first``'s failure code if it fails too.  The 9 x 9 solve
    can return a false pair where A's entries span more than about 1/eps^2
    (``sigma = 1e-40``), and V' U's noise floor can be far above A's."""
    vals, failure = _spectra(A, first)
    bad = np.flatnonzero(failure)
    if not len(bad):
        return vals, failure
    again, still = _spectra(A[bad], second and tuple(x[bad] for x in second))
    vals = vals.astype(complex, copy=False)   # real if all of the first route's are
    vals[bad[still == 0]], failure[bad[still == 0]] = again[still == 0], 0
    return vals, failure


def char_poly(A: Vec) -> Vec:
    """Coefficients k0..k9 of det(A - a I) as a polynomial in a.

    Uses the trace recursion (Faddeev-LeVerrier), a route independent of the
    eigensolver, so the two can cross-validate.  Convention: the leading
    term is (-a)^9, hence k9 = -1 and k0 = det(A).
    """
    n = A.shape[0]
    # det(aI - A) = a^n + c[1] a^(n-1) + ... + c[n]
    c = np.zeros(n + 1)
    c[0] = 1.0
    M = np.zeros_like(A)
    for j in range(1, n + 1):
        M = A @ M + c[j - 1] * np.eye(n)
        c[j] = -np.trace(A @ M) / j
    k = np.empty(n + 1)
    for j in range(n + 1):
        k[j] = -c[n - j]
    return k


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
    if not 0 <= tau < np.inf:
        raise ValueError("tau must be finite and >= 0")


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
    possible predetermined count (or a single one if ``n_pre`` is given)."""
    _check_rule(n_pre, tau)
    U, V = _factors(rf.slot_blocks, rf.params)
    A = _transition(U, V)
    vals, failure = _retried(A[None], None, (U[None], V[None]))
    if failure[0]:
        raise ConvergenceFailure(_EIGEN_FAILURES[failure[0]])
    eigs = vals[0]
    k = char_poly(A)
    stable, unstable, borderline = map(int, _counts(eigs, tau))
    pres = range(ORDER + 1) if n_pre is None else (n_pre,)
    verdicts = {n: VERDICTS[_verdict_codes(stable, borderline, n)] for n in pres}
    return DeterminacyReport(eigenvalues=eigs, k=k, tau=tau, stable=stable,
                             unstable=unstable, borderline=borderline,
                             verdicts=verdicts)


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
        """Records of the axis values, counts (None: not solved) and verdict
        name, built on each call for the tests and perfbench's traced
        ``_sweep_attrs``; spans inside nkji (ROADMAP item 1) delete both."""
        (name1, grid1), (name2, grid2) = self.axis1, self.axis2
        columns = (np.repeat(grid1, len(grid2)), np.tile(grid2, len(grid1)),
                   *np.where(self.counts < 0, None, self.counts).T,
                   np.array(SWEEP_VERDICTS)[self.verdicts])
        keys = (name1, name2, "stable", "unstable", "borderline", "verdict")
        return [dict(zip(keys, row)) for row in zip(*(col.tolist() for col in columns))]


# overflow in an extreme cell is reported by its "failed" verdict, not by
# numpy warnings
@np.errstate(all="ignore")
def _sweep_slice(base: dict[str, float], name1: str, grid1: Vec, name2: str,
                 grid2: Vec, n_pre: int, tau: float, cells: range) -> list[tuple[Vec, Vec]]:
    """The counts and verdict codes of ``SweepResult`` for the grid cells
    numbered ``cells`` in row-major order, evaluated in one array pass."""
    i1, i2 = np.divmod(np.arange(cells.start, cells.stop), len(grid2))
    # both swept fields are arrays, so no cell divides a Python float by zero
    values = {**base, name1: grid1[i1], name2: grid2[i2]}
    p = StructuralParams(**values)
    blocks = _slot_blocks(p)
    invalid = invalid_cells(values)
    solved = ~invalid & finite_cells(blocks)
    # only the cells that pass both checks are solved
    idx = np.flatnonzero(solved)
    U, V = (np.moveaxis(x, -1, 0)[idx] for x in _factors(blocks, p))
    vals = np.zeros((len(cells), ORDER), dtype=complex)
    vals[idx], failure = _retried(_transition(U, V), (U, V), None)
    solved[idx] = failure == 0
    counts = np.stack(_counts(vals, tau), axis=1, dtype=np.int8)
    verdicts = np.select([solved, invalid], [_verdict_codes(counts[:, 0], counts[:, 2], n_pre),
                                             len(VERDICTS)], len(VERDICTS) + 1).astype(np.int8)
    counts[~solved] = -1
    return [(counts, verdicts)]


def fan_out(fn: Callable[[range], list], n_items: int, size: int,
            workers: int = 1) -> list:
    """``fn`` called on the slices of at most ``size`` items of
    ``range(n_items)``, its lists concatenated in item order.  With
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
        return [x for part in map(fn, slices) for x in part]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(fn, slices, chunksize=-(-len(slices) // workers))
        return [x for part in parts for x in part]


def sweep(base: StructuralParams,
          axis1: tuple[str, float, float, int],
          axis2: tuple[str, float, float, int],
          n_pre: int = 9, tau: float = 1e-8, workers: int = 1) -> SweepResult:
    """Determinacy verdicts over a 2-D parameter grid.

    Grid cells that fail parameter validation are marked invalid, cells
    whose coefficients overflow or whose eigen-solve fails are marked
    failed; neither aborts the sweep.  The two axes must vary different
    parameters, and the grid may have at most ``SWEEP_MAX_CELLS`` cells.
    Results are assembled in fixed grid order regardless of worker count,
    so output is reproducible across parallelism levels.
    """
    for name in (axis1[0], axis2[0]):
        if name not in FIELD_NAMES:
            raise UnknownParameter(name)
    if axis1[0] == axis2[0]:
        raise InvalidParams([InvalidDomain(axis1[0], "varied by both sweep axes")])
    _check_rule(n_pre, tau)
    name1, lo1, hi1, n1 = axis1
    name2, lo2, hi2, n2 = axis2
    if n1 * n2 > SWEEP_MAX_CELLS:
        raise InvalidParams([InvalidDomain(
            "<grid>", f"{n1} x {n2} cells, more than {SWEEP_MAX_CELLS}")])
    grid1 = np.linspace(lo1, hi1, n1)
    grid2 = np.linspace(lo2, hi2, n2)
    parts = fan_out(partial(_sweep_slice, base.as_dict(), name1, grid1, name2, grid2,
                            n_pre, tau), n1 * n2, SWEEP_SLICE, workers)
    empty = (np.empty((0, 3), np.int8), np.empty(0, np.int8))   # for a grid of no cells
    counts, verdicts = map(np.concatenate, zip(*parts, empty))
    return SweepResult(axis1=(name1, grid1), axis2=(name2, grid2), counts=counts,
                       verdicts=verdicts)
