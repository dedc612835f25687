"""Order-nine state-transition matrix, its spectrum, and determinacy verdicts.

The first-order form stacks the one-step-ahead expectation equations of the
eight endogenous variables plus the disclosed-information signal.  Row j
carries the coefficient block of variable j; the columns are the lag
carriers

    [ybar_{t-4}, ybar_{t-2}, ybar_{t-3}, g_{t-4}, g_{t-2}, g_{t-3},
     tax_{t-1}, chi_{t-1}, eps_{t-1}]

so row ordering (variables) and column meaning (lags) deliberately differ;
the matrix is reproduced cell-for-cell from the derivation, including the
row-7 column-2 entry that squares the drift persistence where every other
row carries the first power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

import numpy as np

from . import slots
from .coeffs import ReducedForm, compute_all
from .params import (FIELD_NAMES, InvalidDomain, InvalidParams, StructuralParams,
                     validate)
from .slots import Vec

ORDER = 9

ROW_VARS = ("r", "y", "yhat", "pi", "c", "I", "i", "u")   # row 8 is the signal

COLUMNS = ("ybar_lag4", "ybar_lag2", "ybar_lag3", "g_lag4", "g_lag2",
           "g_lag3", "tax_lag1", "chi_lag1", "eps_lag1")

B_COLUMNS = ("omega_lag1", "omega_lag3", "eta", "eta_lag1", "eta_lag3",
             "L", "lambda", "sigma_cp")

VERDICTS = ("determinate", "indeterminate", "no_equilibrium", "borderline")


class ConvergenceFailure(RuntimeError):
    pass


class UnknownParameter(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    A: Vec = field(repr=False)          # (9, 9)
    B: Vec = field(repr=False)          # (9, 8) innovation loadings
    columns: tuple[str, ...] = COLUMNS
    b_columns: tuple[str, ...] = B_COLUMNS


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
    """Assemble the transition matrix A and innovation loadings B from a
    coefficient set."""
    p = rf.params
    rho, rg, rt, rx, re_ = p.rho_ybar, p.rho_g, p.rho_tax, p.rho_chi, p.rho_eps

    A = np.zeros((ORDER, ORDER))
    B = np.zeros((ORDER, len(B_COLUMNS)))
    for j, var in enumerate(ROW_VARS):
        blk = rf.block(var)
        f = blk[slots.YBAR_LAG2]
        h = blk[slots.G_LAG1]
        m = blk[slots.TAX_LAG1]
        n = blk[slots.CHI_LAG1]
        A[j, 0] = f * rho**3
        A[j, 1] = f * rho**2 if var == "i" else f * rho
        A[j, 2] = -f * rho**2
        A[j, 3] = h * rg**4
        A[j, 4] = h * rg**2
        A[j, 5] = -h * rg**3
        A[j, 6] = rt * m
        A[j, 7] = rx * n
        if var in ("pi", "i"):
            A[j, 8] = re_ * blk[slots.EPS_LAG1]
        B[j, 0] = f
        B[j, 1] = f * rho**2
        B[j, 2] = h
        B[j, 3] = rg * h
        B[j, 4] = h * rg**3
        B[j, 5] = m
        B[j, 6] = n
        if var in ("pi", "i"):
            B[j, 7] = blk[slots.EPS_LAG1]
    A[8, 7] = rx**2
    B[8, 6] = 1.0
    A.flags.writeable = False
    B.flags.writeable = False
    return TransitionSystem(A=A, B=B)


def eigen(A: Vec) -> Vec:
    """Eigenvalues of A, with a residual check ||A v - a v|| <= 1e-8 ||A|| ||v||
    per pair.  Raises :class:`ConvergenceFailure` instead of returning NaN."""
    if not np.all(np.isfinite(A)):
        raise ConvergenceFailure("transition matrix has non-finite entries")
    try:
        vals, vecs = np.linalg.eig(A)
    except np.linalg.LinAlgError as err:
        raise ConvergenceFailure(str(err)) from err
    if not np.all(np.isfinite(vals.view(float))):
        raise ConvergenceFailure("eigensolver returned non-finite values")
    # entries beyond ~1e154 overflow the Frobenius norm, and an infinite
    # norm would pass every residual check
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(A)
    if not np.isfinite(norm):
        raise ConvergenceFailure("transition matrix norm overflows")
    resid = np.linalg.norm(A @ vecs - vecs * vals, axis=0)
    if norm > 0 and np.any(resid > 1e-8 * norm * np.linalg.norm(vecs, axis=0)):
        raise ConvergenceFailure("eigenpair residual check failed")
    return vals


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
    for power in range(n + 1):
        k[power] = -c[n - power]
    return k


def classify(eigs: Vec, n_pre: int, tau: float = 1e-8) -> str:
    """Determinacy verdict for a given count of predetermined variables.

    Stable means modulus strictly below 1 (within tau); any eigenvalue
    within tau of the unit circle makes the verdict "borderline".
    Equality of the stable count with the predetermined count gives a
    unique stable solution; more stable roots than predetermined variables
    gives indeterminacy; fewer, no stable solution.
    """
    if not 0 <= n_pre <= len(eigs):
        raise ValueError(f"n_pre must be in 0..{len(eigs)}")
    stable, unstable, borderline = _counts(eigs, tau)
    if borderline > 0:
        return "borderline"
    if stable == n_pre:
        return "determinate"
    if stable > n_pre:
        return "indeterminate"
    return "no_equilibrium"


def classify_standard(eigs: Vec, n_pre: int, tau: float = 1e-8) -> str:
    """Equivalent rule counted from the explosive side (#unstable versus
    #forward-looking); used to cross-check :func:`classify`."""
    stable, unstable, borderline = _counts(eigs, tau)
    if borderline > 0:
        return "borderline"
    n_fwd = len(eigs) - n_pre
    if unstable == n_fwd:
        return "determinate"
    if unstable < n_fwd:
        return "indeterminate"
    return "no_equilibrium"


def _counts(eigs: Vec, tau: float) -> tuple[int, int, int]:
    mod = np.abs(eigs)
    stable = int(np.sum(mod < 1.0 - tau))
    unstable = int(np.sum(mod > 1.0 + tau))
    return stable, unstable, len(eigs) - stable - unstable


def report(rf: ReducedForm, tau: float = 1e-8,
           n_pre: int | None = None) -> DeterminacyReport:
    """Eigenvalues, characteristic coefficients and verdicts for every
    possible predetermined count (or a single one if ``n_pre`` is given)."""
    system = build(rf)
    eigs = eigen(system.A)
    k = char_poly(system.A)
    stable, unstable, borderline = _counts(eigs, tau)
    pres = range(ORDER + 1) if n_pre is None else (n_pre,)
    verdicts = {n: classify(eigs, n, tau) for n in pres}
    return DeterminacyReport(eigenvalues=eigs, k=k, tau=tau, stable=stable,
                             unstable=unstable, borderline=borderline,
                             verdicts=verdicts)


@dataclass(frozen=True, eq=False)
class SweepResult:
    axis1: tuple[str, Vec]
    axis2: tuple[str, Vec]
    n_pre: int
    tau: float
    # per-cell records in row-major (axis1, axis2) order; counts are None
    # for cells whose parameterization fails validation ("invalid") or
    # whose coefficients overflow or eigen-solve fails ("failed")
    cells: list[dict]


def _sweep_row(base: dict[str, float], name1: str, name2: str, grid2: Vec,
               n_pre: int, tau: float, v1: float) -> list[dict]:
    row = []
    # overflow in an extreme cell is reported by its "failed" verdict,
    # not by numpy warnings
    with np.errstate(all="ignore"):
        for v2 in grid2:
            try:
                p = validate({**base, name1: float(v1), name2: float(v2)})
                eigs = eigen(build(compute_all(p)).A)
            except (InvalidParams, ConvergenceFailure, OverflowError) as err:
                row.append({name1: float(v1), name2: float(v2), "stable": None,
                            "unstable": None, "borderline": None,
                            "verdict": "invalid" if isinstance(err, InvalidParams)
                            else "failed"})
                continue
            stable, unstable, borderline = _counts(eigs, tau)
            row.append({name1: float(v1), name2: float(v2), "stable": stable,
                        "unstable": unstable, "borderline": borderline,
                        "verdict": classify(eigs, n_pre, tau)})
    return row


def fan_out(fn: Callable, items: Iterable, workers: int = 1) -> list:
    """``[fn(x) for x in items]`` in item order; with ``workers > 1`` the
    calls run in a process pool, so ``fn`` must pickle (a module-level
    function or a :func:`functools.partial` of one)."""
    if workers <= 1:
        return [fn(x) for x in items]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def sweep(base: StructuralParams,
          axis1: tuple[str, float, float, int],
          axis2: tuple[str, float, float, int],
          n_pre: int = 9, tau: float = 1e-8, workers: int = 1) -> SweepResult:
    """Determinacy verdicts over a 2-D parameter grid.

    Grid cells that fail parameter validation are marked invalid, cells
    whose coefficients overflow or whose eigen-solve fails are marked
    failed; neither aborts the sweep.  The two axes must vary different
    parameters.
    Results are assembled in fixed grid order regardless of worker count,
    so output is reproducible across parallelism levels.
    """
    for name in (axis1[0], axis2[0]):
        if name not in FIELD_NAMES:
            raise UnknownParameter(name)
    if axis1[0] == axis2[0]:
        raise InvalidParams([InvalidDomain(axis1[0], "varied by both sweep axes")])
    if not 0 <= n_pre <= ORDER:
        raise ValueError("n_pre must be in 0..9")
    name1, lo1, hi1, n1 = axis1
    name2, lo2, hi2, n2 = axis2
    grid1 = np.linspace(lo1, hi1, n1)
    grid2 = np.linspace(lo2, hi2, n2)
    rows = fan_out(partial(_sweep_row, base.as_dict(), name1, name2, grid2,
                           n_pre, tau), grid1, workers)
    cells = [cell for row in rows for cell in row]
    return SweepResult(axis1=(name1, grid1), axis2=(name2, grid2),
                       n_pre=n_pre, tau=tau, cells=cells)
