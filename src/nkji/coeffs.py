"""Closed-form reduced-form coefficients of the common-knowledge solution.

Eleven coefficient blocks (one per endogenous variable or expectation), all
nonlinear combinations of the structural parameters.  The interest-rate and
output blocks are primitive; the remaining blocks chain off them (gap from
output, expectations via the AR laws, inflation from expected inflation and
the gap, the policy rate via the rule, unemployment via the
output-unemployment link).

The formulas are transcribed exactly as derived, *including* two entries
that break the otherwise uniform construction pattern: the inflation
block's index-4 entry (which references the index-5 output coefficient) and
the expected-gap block's index-0 entry (which repeats the index-1 formula).
They are kept verbatim here; :mod:`nkji.oracle` audits every entry against
an independent numerical solution and reports which variant the structural
system actually supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import slots
from .params import ConvergenceFailure, StructuralParams
from .slots import NSLOT, Vec


@dataclass(frozen=True, eq=False)
class ReducedForm:
    """Complete coefficient set.  ``source`` records how the set was
    produced ("closed-form" or "undetermined-coefficients")."""

    params: StructuralParams
    slot_blocks: dict[str, Vec] = field(repr=False)
    source: str = "closed-form"
    condition_number: float | None = None   # set by the numerical solver

    def block(self, var: str) -> Vec:
        """Internal length-16 slot vector for ``var`` (read-only)."""
        return self.slot_blocks[var]

    def exported(self) -> Vec:
        """The exported entries of all eleven blocks, in ``slots.ENTRIES``
        order (see :func:`slots.exported`)."""
        return slots.exported(np.stack([self.slot_blocks[v] for v in slots.VARIABLES]))

    def as_table(self) -> dict[str, dict[int, float]]:
        """{variable: {exported index: value}} over all eleven blocks."""
        table: dict[str, dict[int, float]] = {v: {} for v in slots.VARIABLES}
        for (var, idx), value in zip(slots.ENTRIES, self.exported().tolist()):
            table[var][idx] = value
        return table


def _chain_expectation(vec: Vec, p: StructuralParams) -> Vec:
    """One-step-ahead expectation of slot vector ``vec``: (16,) or (16, K).

    Conditioning convention: at time t agents know every current innovation
    except the potential-output one (slot ``OMEGA``), all time-t AR states
    built from those innovations, and the full history.  Next period's
    regressors therefore map to: each lag slot of ``slots.AR_LINKS`` via
    its AR law (rho times the lag slot plus the innovation slot),
    next-period innovations (and the current potential-output innovation)
    to zero.
    """
    out = np.zeros(vec.shape)
    out[slots.CONST] = vec[slots.CONST]
    for link in slots.AR_LINKS:
        out[link.lag] += getattr(p, link.rho) * vec[link.lag]
        out[link.innovation] += vec[link.lag]
    return out


def power(x, n: int):
    """``x**n`` by Python's scalar ``pow``, for a float or for each element
    of an array (numpy's array power can differ from it in the last bit);
    an overflow gives an infinity instead of an ``OverflowError``."""
    if isinstance(x, np.ndarray):
        return np.array([_pow(v, n) for v in x.tolist()])
    return _pow(x, n)


def _pow(x: float, n: int) -> float:
    try:
        return x**n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def _primitive_blocks(p: StructuralParams) -> tuple[Vec, Vec, Vec, Vec]:
    """Interest-rate, output, consumption and investment blocks over the
    shared denominators ``D`` (and ``sD == s1*D``); each (16,), or
    (16, n) when fields hold one value per cell."""
    sg = p.sigma
    c0, c1, c3, c4 = p.c0, p.c1, p.c3, p.c4
    s0, s1, s2, s3, s4 = p.s0, p.s1, p.s2, p.s3, p.s4
    g1, g2, g3, g4, g5 = p.gamma1, p.gamma2, p.gamma3, p.gamma4, p.gamma5
    f1, f2, f3 = p.phi1, p.phi2, p.phi3
    rho, rg, rt, rx = p.rho_ybar, p.rho_g, p.rho_tax, p.rho_chi
    rho2, rho3, c1_2, s1_2 = power(rho, 2), power(rho, 3), power(c1, 2), power(s1, 2)

    M = c1 * (g2 + s2) + g2 * s1
    D = s1 - sg * M
    G = c1 * (g3 - s3) - c3 * s1 + g3 * s1 - s1
    H = c1 * (g4 - s4) + s1 * c4 + s1 * g4
    P = (c1 - s1) * (g5 - f2)
    sD = s1_2 - sg * s1 * M   # == s1 * D

    shape = (NSLOT, *p.cells)

    r = np.zeros(shape)
    r[0] = sg * (s0 * c1 - c0 * s1) / D
    r[1] = -sg * g1 * rho3 * (c1 + s1) / ((1 - rho) * D)
    r[2] = -sg * g1 * rho2 * (c1 + s1) / ((1 - rho) * D)
    r[3] = sg * rg * G / D
    r[4] = sg * G / D
    r[5] = sg * rt * H / D
    r[6] = sg * H / D
    r[7] = -sg * rx * P / D
    r[8] = -sg * P / D
    r[9] = sg * f1 * (c1 - s1) / D
    r[10] = sg * f3 * (c1 - s1) / D

    y = np.zeros(shape)
    y[0] = -(s0 * c1 - c0 * s1) / D
    y[1] = g1 * rho3 * (c1 + s1) / ((1 - rho) * D)
    y[2] = g1 * rho2 * (c1 + s1) / ((1 - rho) * D)
    y[3] = -rg * G / D
    y[4] = -G / D
    y[5] = -rt * H / D
    y[6] = -H / D
    # the two information-channel entries are derived over the scaled
    # denominator s1*D; evaluated verbatim, not simplified
    y[7] = (sg * rx * P * M + g5 * rx * (c1 - s1) * D - f2 * rx * (c1 - s1) * D) \
        / (s1_2 - s1 * sg * M)
    y[8] = (sg * P * M + g5 * (c1 - s1) * D - f2 * (c1 - s1) * D) \
        / (s1_2 - s1 * sg * M)
    y[9] = -f1 * (c1 - s1) / D
    y[10] = -f3 * (c1 - s1) / D

    c = np.zeros(shape)
    c[0] = (s0 * s1 * c1 - s0 * c1_2 * sg * s2 - s0 * sg * g2 * s1
            - c0 * s1_2 + c0 * s1 * c1 * sg * s2 + c0 * sg * g2 * s1_2) / sD
    c[1] = (sg * c1 * g1 * rho3 * (c1 + s1) * (g2 + s2)
            + g1 * c1 * rho3 * D) / (s1 * (1 - rho) * D)
    c[2] = (sg * c1 * g1 * rho2 * (c1 + s1) * (g2 + s2)
            + g1 * c1 * rho2 * D) / (s1 * (1 - rho) * D)
    c[3] = (sg * c1 * rg * (g2 + s2) * G
            + rg * (c1 * (g3 - s3) - c3 * s1) * D) / sD
    c[4] = (sg * c1 * (g2 + s2) * G
            + D * (c1 * (g3 - s3) - c3 * s1)) / sD
    c[5] = (sg * c1 * rt * (g2 + s2) * H
            + rt * (c1 * (g4 - s4) + s1 * c4) * D) / sD
    c[6] = (sg * c1 * (g2 + s2) * H
            + (c1 * (g4 - s4) + s1 * c4) * D) / sD
    c[7] = (sg * rx * c1 * (g2 + s2) * P
            - rx * (f2 * (c1 - s1) - c1 * g5) * D) / sD
    c[8] = (sg * c1 * (g2 + s2) * P
            + (c1 * g5 - f2 * (c1 - s1)) * D) / sD
    c[9] = (sg * f1 * c1 * (g2 + s2) * (c1 - s1) + f1 * (c1 - s1) * D) / sD
    c[10] = (sg * f3 * c1 * (g2 + s2) * (c1 - s1) + f3 * (c1 - s1) * D) / sD

    I = np.zeros(shape)
    I[0] = sg * g2 * (s0 * c1 - c0 * s1) / D
    I[1] = (g1 * rho3 * D + sg * g1 * g2 * rho3 * (c1 + s1)) / ((1 - rho) * D)
    I[2] = (g1 * rho2 * D + sg * g1 * g2 * rho2 * (c1 + s1)) / ((1 - rho) * D)
    I[3] = (g2 * sg * rg * G + g3 * rg * D) / D
    I[4] = (sg * g2 * G + g3 * D) / D
    I[5] = (sg * g2 * rt * H + g4 * rt * D) / D
    I[6] = (sg * g2 * H + g4 * D) / D
    I[7] = (sg * g2 * rx * P + g5 * rx * D) / D
    I[8] = (sg * g2 * P + g5 * D) / D
    I[9] = sg * g2 * f1 * (c1 - s1) / D
    I[10] = sg * g2 * f3 * (c1 - s1) / D
    return r, y, c, I


def compute_all(p: StructuralParams) -> ReducedForm:
    """Evaluate all eleven closed-form coefficient blocks at ``p``.

    Chained blocks are computed *through* their parents, so the chain
    identities (gap from output, expectations from the AR laws, inflation
    from expected inflation, the policy rule, the output-unemployment link)
    hold to machine precision by construction.  Raises
    :class:`ConvergenceFailure` when a coefficient is not finite.
    """
    blocks = _checked_blocks(p)
    for v in blocks.values():
        v.flags.writeable = False
    return ReducedForm(params=p, slot_blocks=blocks)


def _checked_blocks(p: StructuralParams) -> dict[str, Vec]:
    """The blocks of :func:`_slot_blocks`; raises :class:`ConvergenceFailure`
    when a coefficient of any cell is not finite."""
    # overflow is reported by the finiteness check, not by numpy warnings
    with np.errstate(all="ignore"):
        blocks = _slot_blocks(p)
    if not finite_cells(blocks).all():
        raise ConvergenceFailure("closed-form coefficients are not finite")
    return blocks


def finite_cells(blocks: dict[str, Vec]) -> np.ndarray:
    """Whether every coefficient of the eleven blocks is finite, per cell."""
    return np.isfinite(np.stack(list(blocks.values()))).all(axis=(0, 1))


def _slot_blocks(p: StructuralParams) -> dict[str, Vec]:
    """The eleven blocks of :func:`compute_all`, each (16,), or (16, n) when
    fields hold one value per cell; unchecked."""
    r, y, c, inv = _primitive_blocks(p)

    yhat = y.copy()
    yhat[1] = y[1] - power(p.rho_ybar, 2)
    yhat[2] = y[2] - p.rho_ybar
    yhat[slots.OMEGA] = -1.0   # structural term, not an indexed entry

    # expected gap: AR-law expectation of the gap block, except that the
    # index-0 entry repeats the index-1 formula (kept verbatim; see module
    # docstring)
    Eyhat = _chain_expectation(yhat, p)
    Eyhat[0] = p.rho_ybar * yhat[1]

    # expected inflation: every gap-indexed entry scaled by
    # (alpha_pi*k + alpha_y + sigma)/(1 - alpha_pi*beta); the current
    # potential-output entry drops sigma from the scale
    ap, ay, bt, kk = p.alpha_pi, p.alpha_y, p.beta, p.k
    den5 = 1.0 - ap * bt
    scale5 = (ap * kk + ay + p.sigma) / den5
    Epi = np.zeros(y.shape)
    Epi[:11] = yhat[:11] * scale5
    Epi[slots.OMEGA] = -(ap * kk + ay) / den5
    Epi[slots.EPS_LAG1] = p.rho_eps * ap / den5
    Epi[slots.VARSIGMA] = ap / den5

    # actual inflation chains off expected inflation and output; index 4
    # references the index-5 output entry (kept verbatim, see module
    # docstring); indices 12 and 13 carry no direct cost-push loading
    pi = np.zeros(y.shape)
    pi[:11] = bt * Epi[:11] + kk * y[:11]
    pi[4] = bt * Epi[4] + kk * y[5]
    pi[slots.OMEGA] = bt * Epi[slots.OMEGA] - kk
    pi[slots.EPS_LAG1] = bt * Epi[slots.EPS_LAG1]
    pi[slots.VARSIGMA] = bt * Epi[slots.VARSIGMA]

    # policy rate: i = alpha_pi*pi + alpha_y*yhat, with the gap's structural
    # -1 on the current potential-output innovation included so the rule
    # holds path-wise
    i = ap * pi + ay * yhat

    # unemployment: u = -theta*yhat + natural-unemployment terms
    u = -p.theta * yhat
    u[slots.UBAR_LAG1] = p.rho_u
    u[slots.T_NATU] = 1.0

    # expected unemployment: AR-law expectation of the unemployment block
    Eu = _chain_expectation(u, p)

    return dict(zip(slots.VARIABLES, (r, y, yhat, Eyhat, Epi, pi, c, inv, i, u, Eu)))


def steady_state(rf: ReducedForm) -> dict[str, float]:
    """Intercepts of the eight endogenous blocks: the steady-state values."""
    return {v: float(rf.block(v)[slots.CONST]) for v in slots.ENDOGENOUS}
