"""Ground truth: an independent re-solve of the model and the audits built
on it.

:func:`solve_undetermined` posits, for each endogenous variable, the same
linear combination of the 16 canonical regressors used by the closed forms,
imposes the structural equations, and solves the resulting square linear
system numerically.  Nothing here reuses the closed-form formulas, so the
two routes can cross-validate.

Equation set and conventions (the audit contract):

* consumption, saving and investment respond to the long-run income limit
  ``L_t = E_t[y_t] + rho*mu_t_hat/(1-rho)`` where the drift estimate uses
  only time-t information (the current potential-output innovation is the
  one innovation agents never observe contemporaneously);
* the financial-market clearing condition is imposed by giving saving and
  investment a single shared block;
* the dynamic demand equation (output gap versus expected gap, the policy
  rate, expected inflation and the natural rate) *defines* the
  expected-inflation block: expected inflation is solved as the block that
  makes that equation hold, mirroring how the closed forms present it.
  Its expectational consistency with actual inflation is deliberately not
  imposed; on the current-potential-innovation margin the demand equation,
  the pricing equation and the policy rule cannot all hold under a chained
  expectation, for any parameterization;
* the pricing equation and the policy rule use the true output gap
  (including the unobserved current potential-output innovation), the
  resource constraint and the unemployment link close the system;
* expected gap, expected unemployment and expected output are derived from
  the solved blocks through the AR laws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from operator import attrgetter

import numpy as np

from . import slots
from .coeffs import ReducedForm, _chain_expectation, _checked_blocks
from .params import (FIELD_NAMES, RHO_FIELDS, SD_FIELDS, ConvergenceFailure,
                     StructuralParams)
from .sim import EquilibriumPath
from .slots import NSLOT, Vec
from .statespace import fan_out

#: blocks carrying free coefficients in the matching system, in column order
FREE_BLOCKS = (*slots.ENDOGENOUS, "Epi")

#: the two closed-form entries that break their block's construction
#: pattern; key -> (printed form, pattern form, evaluator of each on the
#: slot blocks of a coefficient set and its parameters).  The inflation
#: pattern reads the gap's index-4 entry, which the gap identity leaves
#: equal to output's.
SUSPECT_ENTRIES = {
    ("pi", 4): ("beta*Epi[4] + k*y[5]", "beta*Epi[4] + k*y[4]",
                lambda b, p: p.beta * b["Epi"][4] + p.k * b["y"][5],
                lambda b, p: p.beta * b["Epi"][4] + p.k * b["yhat"][4]),
    ("Eyhat", 0): ("rho_ybar*yhat[1]", "yhat[0]",
                   lambda b, p: p.rho_ybar * b["yhat"][slots.YBAR_LAG2],
                   lambda b, p: b["yhat"][slots.CONST]),
}

COND_WARN = 1e12
#: absolute difference below which :func:`compare` never flags an entry
ABS_FLOOR = 1e-12


class SingularSystem(RuntimeError):
    pass


class AnsatzInconsistent(RuntimeError):
    pass


def _exogenous(p: StructuralParams):
    # slot vectors (16,), or (16, n) when fields hold one value per cell
    col = (slice(None),) + (None,) * len(p.cells)
    e = lambda slot: slots.unit(slot)[col]
    mu_l1 = p.rho_ybar * e(slots.YBAR_LAG2) + e(slots.OMEGA_LAG1)
    mu_t = p.rho_ybar * mu_l1 + e(slots.OMEGA)
    g_t = p.rho_g * e(slots.G_LAG1) + e(slots.ETA)
    tax_t = p.rho_tax * e(slots.TAX_LAG1) + e(slots.L_FISC)
    chi_t = p.rho_chi * e(slots.CHI_LAG1) + e(slots.LAM)
    eps_t = p.rho_eps * e(slots.EPS_LAG1) + e(slots.VARSIGMA)
    ubar_t = p.rho_u * e(slots.UBAR_LAG1) + e(slots.T_NATU)
    eta_comp = p.phi1 * e(slots.XI) + p.phi2 * chi_t + p.phi3 * e(slots.V)
    # agents' drift estimate and the discounted drift sum behind the
    # long-run income limit
    mu_hat = p.rho_ybar * mu_l1
    drift_sum = (p.rho_ybar / (1.0 - p.rho_ybar)) * mu_hat
    # natural rate: expected drift change, all on time-t information
    rbar = p.sigma * (p.rho_ybar * mu_hat - mu_hat)
    return mu_t, g_t, tax_t, chi_t, eps_t, ubar_t, eta_comp, drift_sum, rbar


def _project(vec: Vec) -> Vec:
    """Time-t information projection: zero the unobserved current
    potential-output innovation."""
    out = vec.copy()
    out[slots.OMEGA] = 0.0
    return out


def _residual(zflat: Vec, p: StructuralParams) -> Vec:
    """The structural residual at the unknowns ``zflat``: (144,), or
    (144, K) for K columns of unknowns at once; with fields of one value
    per cell, a trailing cell axis on both, (144, n) or (144, K, n)."""
    z = {v: zflat[j * NSLOT:(j + 1) * NSLOT] for j, v in enumerate(FREE_BLOCKS)}
    # the exogenous slot vectors broadcast over the columns
    col = (slice(None),) + (None,) * (zflat.ndim - 1 - len(p.cells))
    mu_t, g_t, tax_t, chi_t, eps_t, ubar_t, eta_comp, drift_sum, rbar = (
        x[col] for x in _exogenous(p))
    e0 = slots.unit(slots.CONST)[(slice(None),) + (None,) * (zflat.ndim - 1)]
    y_perceived = _project(z["y"])
    L = y_perceived + drift_sum

    res = [
        # output gap identity
        z["yhat"] - (z["y"] - mu_t),
        # consumption
        z["c"] - (p.c0 * e0 + p.c1 * L + p.c3 * g_t - p.c4 * tax_t + eta_comp),
        # saving (shared block with investment imposes market clearing)
        z["I"] - (p.s0 * e0 + p.s1 * L + p.s2 * z["r"] - p.s3 * g_t
                  - p.s4 * tax_t + eta_comp),
        # investment
        z["I"] - (p.gamma1 * (L - y_perceived) - p.gamma2 * z["r"]
                  - p.gamma3 * g_t - p.gamma4 * tax_t + p.gamma5 * chi_t),
        # dynamic demand; pins the expected-inflation block
        z["yhat"] - (_chain_expectation(z["yhat"], p)
                     - (z["i"] - z["Epi"] - rbar) / p.sigma),
        # unemployment link
        (z["u"] - ubar_t) + p.theta * (z["y"] - mu_t),
        # pricing
        z["pi"] - (p.beta * z["Epi"] + p.k * z["yhat"] + eps_t),
        # policy rule
        z["i"] - (p.alpha_pi * z["pi"] + p.alpha_y * z["yhat"]),
        # resource constraint
        z["y"] - (z["I"] + z["c"] + g_t),
    ]
    return np.concatenate(res)


#: slot groups of the matching system's direct-sum blocks.  Unknowns and
#: equations share the layout ``block * NSLOT + slot``, and every equation
#: is slot by slot except ``slots.AR_LINKS`` (lag state -> its innovation,
#: in ``_chain_expectation``), so after a permutation ``M`` is the direct sum
#: of one 9x9 block per unlinked slot and one 18x18 block per linked pair,
#: block lower-triangular: a lag slot's equations read no innovation unknown
_LONE_SLOTS = ((slots.CONST,), *((slot,) for _, slot in slots.LONE_INNOVATIONS))
_LINKED_SLOTS = tuple((link.lag, link.innovation) for link in slots.AR_LINKS)
_NFREE = len(FREE_BLOCKS)
_N = _NFREE * NSLOT


def _group_index(groups: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Unknown (and equation) indices of each group's block, (len(groups), m)."""
    return np.array([[j * NSLOT + s for s in group for j in range(_NFREE)]
                     for group in groups])


_LONE_INDEX = _group_index(_LONE_SLOTS)       # (4, 9)
_LINKED_INDEX = _group_index(_LINKED_SLOTS)   # (6, 18)

#: the probe of the matching system: per free block, one column with 1 in
#: the first slot of every group and one with 1 in every linked innovation
#: slot (18 columns), then a column of zeros, whose response is ``-b``.  A
#: probe column sets at most one unknown of each group, and an equation
#: reads only the unknowns of its own group, so each response entry inside
#: the blocks goes through the same operations as the identity column of
#: the one unknown it reads
_POSITION = {s: k for group in _LONE_SLOTS + _LINKED_SLOTS for k, s in enumerate(group)}
_PROBE_COLUMN = np.array([_POSITION[u % NSLOT] * _NFREE + u // NSLOT for u in range(_N)])
_PROBE = np.zeros((_N, 2 * _NFREE + 1))
_PROBE[np.arange(_N), _PROBE_COLUMN] = 1.0
#: every entry of the ten blocks, lone blocks first, each block row-major:
#: its flat index into ``M``, and the row and probe column of the response
#: it is read from
_BLOCK_TAKE = np.concatenate([(idx[:, :, None] * _N + idx[:, None, :]).ravel()
                              for idx in (_LONE_INDEX, _LINKED_INDEX)])
_BLOCK_ROWS = _BLOCK_TAKE // _N
_BLOCK_PROBES = _PROBE_COLUMN[_BLOCK_TAKE % _N]
_LONE_SIZE = len(_LONE_SLOTS) * _NFREE ** 2   # entries of the four 9x9 blocks


def _matching_blocks(p: StructuralParams) -> tuple[np.ndarray, np.ndarray, Vec]:
    """The direct-sum blocks of ``M`` and ``b`` of ``M z = b``: lone blocks
    (4, 9, 9) and linked blocks (6, 18, 18) over the unknowns
    ``_LONE_INDEX`` and ``_LINKED_INDEX``, and ``b`` (144,); or with a
    leading cell axis on each when fields hold one value per cell.

    The affine residual is evaluated once, on the 19 columns of ``_PROBE``
    instead of the 144 of the identity and a zero vector, and the blocks
    are gathered from that response, bitwise equal to the blocks of the
    identity evaluation ``_residual(eye, p) + b[:, None]``."""
    cells = p.cells
    probe = np.broadcast_to(_PROBE.reshape(*_PROBE.shape, *(1,) * len(cells)),
                            (*_PROBE.shape, *cells))
    response = _residual(probe, p)
    b = -response[:, -1]
    entries = np.moveaxis(response[_BLOCK_ROWS, _BLOCK_PROBES] + b[_BLOCK_ROWS], 0, -1)
    lone = entries[..., :_LONE_SIZE].reshape(*cells, *_LONE_INDEX.shape, -1)
    linked = entries[..., _LONE_SIZE:].reshape(*cells, *_LINKED_INDEX.shape, -1)
    return lone, linked, np.moveaxis(b, 0, -1)


def _condition_number(lone: np.ndarray, linked: np.ndarray) -> Vec:
    """Exact 2-norm condition number of the matching matrix whose blocks are
    ``lone`` and ``linked``, or of each of a stack: the singular values of a
    direct sum are those of its blocks, so two stacked SVDs of the small
    blocks replace one of all of ``M``.  Infinite for a singular block, and
    for non-finite ones, solved as zeros: LAPACK reports those on stdout."""
    finite = np.logical_and(*(np.isfinite(b).all(axis=(-3, -2, -1)) for b in (lone, linked)))
    sv = [np.linalg.svd(np.where(finite[..., None, None, None], blocks, 0.0), compute_uv=False)
          for blocks in (lone, linked)]
    smax = np.maximum(*(s.max(axis=(-2, -1)) for s in sv))
    smin = np.minimum(*(s.min(axis=(-2, -1)) for s in sv))
    cond = np.divide(smax, smin, out=np.full(smax.shape, np.inf), where=smin > 0)
    return cond[()]


def _condition_bound(lone: np.ndarray, linked: np.ndarray) -> tuple[Vec, list[np.ndarray]]:
    """An upper bound on :func:`_condition_number`, and the inverses of the
    16 diagonal 9x9 blocks per cell it comes from, in one stacked
    ``np.linalg.inv`` that raises for a singular one: of the lone blocks
    (..., 4, 9, 9), then of ``D1`` and of ``D2`` (..., 6, 9, 9) of each
    linked block ``[[D1, 0], [C, D2]]``, whose inverse has the squared
    Frobenius norm ``|D1⁻¹|² + |D2⁻¹|² + |D2⁻¹ C D1⁻¹|²``.  The largest norm
    of a block times the largest of an inverse bounds ``cond``; inf where a
    linked block's upper-right 9x9 is not 0, inf or NaN where not finite."""
    inverses = np.split(np.linalg.inv(np.concatenate(
        [lone, linked[..., :_NFREE, :_NFREE], linked[..., _NFREE:, _NFREE:]], axis=-3)),
        [len(_LONE_SLOTS), -len(_LINKED_SLOTS)], axis=-3)
    lone_inv, d1_inv, d2_inv = inverses
    squares = lambda x: (x * x).sum(axis=(-2, -1))
    largest = lambda a, b: np.sqrt(np.maximum(a.max(axis=-1), b.max(axis=-1)))
    with np.errstate(all="ignore"):
        linked_inv = (squares(d1_inv) + squares(d2_inv)
                      + squares(d2_inv @ linked[..., _NFREE:, :_NFREE] @ d1_inv))
        bound = (largest(squares(lone), squares(linked))
                 * largest(squares(lone_inv), linked_inv))
    triangular = np.all(linked[..., :_NFREE, _NFREE:] == 0, axis=(-3, -2, -1))
    return np.where(triangular, bound, np.inf), inverses


def _nonsingular(lone: np.ndarray, linked: np.ndarray) -> Vec:
    """The condition number(s) of :func:`_condition_number`; raises
    :class:`SingularSystem` for the first numerically singular cell."""
    cond = _condition_number(lone, linked)
    singular = np.flatnonzero(~(cond <= 1e15))
    if singular.size:
        raise SingularSystem("matching system is singular "
                             f"(cond ~ {np.ravel(cond)[singular[0]]:.3e})")
    return cond


def _coefficient_blocks(zflat: Vec, p: StructuralParams) -> dict[str, Vec]:
    """The slot blocks of every variable from the solved unknowns ``zflat``
    (144,), or (n, 144) for blocks (16, n)."""
    zflat = np.moveaxis(zflat, -1, 0)
    blocks = {v: zflat[j * NSLOT:(j + 1) * NSLOT].copy()
              for j, v in enumerate(FREE_BLOCKS)}
    blocks["Eyhat"] = _chain_expectation(blocks["yhat"], p)
    blocks["Eu"] = _chain_expectation(blocks["u"], p)
    # scrub numerical dust so structural zeros are exact in the output
    for vec in blocks.values():
        vec[np.abs(vec) < 1e-13] = 0.0
    return {v: blocks[v] for v in slots.VARIABLES}


def _block_solve(p: StructuralParams, lone: np.ndarray, linked: np.ndarray,
                 b: Vec) -> dict[str, Vec]:
    """The solved coefficient blocks (16, n) of the cells of ``p``, or (16,)
    for float fields, from their :func:`_matching_blocks`: the inverses of
    :func:`_condition_bound` serve its screen and the solve, ``D⁻¹ b`` for a
    lone block and ``z1 = D1⁻¹ b1``, ``z2 = D2⁻¹ (b2 - C z1)`` for a linked
    one.  Only 9x9 kernels, each cell on its own, so a cell solves to the
    same bits alone and in a stack, at any BLAS thread count; the gap is
    checked on the full blocks.  Raises for the first failing cell.

    A cell whose bound is at most ``COND_WARN`` is nonsingular, 1000 times
    below the ``1e15`` threshold, a margin the inverses' rounding (a
    relative error of about 18 eps cond, under 0.5%) cannot close.  Only a
    slice with a cell above it, or NaN, or whose inverse fails, pays for the
    exact :func:`_nonsingular`, which raises the report's message."""
    try:
        bound, (lone_inv, d1_inv, d2_inv) = _condition_bound(lone, linked)
    except np.linalg.LinAlgError as err:
        _nonsingular(lone, linked)
        raise SingularSystem(str(err)) from err
    if not np.all(bound <= COND_WARN):
        _nonsingular(lone, linked)
    lone_rhs, linked_rhs = b[..., _LONE_INDEX, None], b[..., _LINKED_INDEX, None]
    z1 = d1_inv @ linked_rhs[..., :_NFREE, :]
    z2 = d2_inv @ (linked_rhs[..., _NFREE:, :] - linked[..., _NFREE:, :_NFREE] @ z1)
    zflat = np.empty(b.shape)
    gap = np.zeros(b.shape[:-1])
    for blocks, index, rhs, z in ((lone, _LONE_INDEX, lone_rhs, lone_inv @ lone_rhs),
                                  (linked, _LINKED_INDEX, linked_rhs, np.concatenate(
                                      [z1, z2], axis=-2))):
        gap = np.maximum(gap, np.abs(blocks @ z - rhs).max(axis=(-3, -2, -1)))
        zflat[..., index] = z[..., 0]
    unsatisfied = np.flatnonzero(gap > 1e-8 * (1.0 + np.abs(b).max(axis=-1)))
    if unsatisfied.size:
        raise AnsatzInconsistent("matching equations unsatisfied after solve "
                                 f"(gap {np.ravel(gap)[unsatisfied[0]]:.3e})")
    return _coefficient_blocks(zflat, p)


def solve_undetermined(p: StructuralParams) -> ReducedForm:
    """Solve the matching system ``M z = b`` for all coefficient blocks.

    The ten direct-sum blocks of ``M`` and ``b`` come from one vectorised
    evaluation of the affine residual on 18 probe columns and a zero column
    (see :func:`_matching_blocks`).  The condition number is exact and comes
    from those blocks (see :func:`_condition_number`); the solve is the one
    the stability draws use, by the inverses of the 9x9 diagonal blocks
    (see :func:`_block_solve`), so the report's coefficients are bitwise
    those of its column in a stacked solve.  Returns a :class:`ReducedForm`
    interchangeable with the closed-form one (same block keys and index
    sets) with that condition number attached.  Raises
    :class:`SingularSystem` for a numerically singular matching matrix and
    :class:`AnsatzInconsistent` if the solved coefficients fail to satisfy
    the matching equations.
    """
    lone, linked, b = _matching_blocks(p)
    cond = _nonsingular(lone, linked)
    blocks = _block_solve(p, lone, linked, b)
    for vec in blocks.values():
        vec.flags.writeable = False
    return ReducedForm(params=p, slot_blocks=blocks, source="undetermined-coefficients",
                       condition_number=float(cond))


# ---------------------------------------------------------------------------
# structural residual audit on simulated paths

@dataclass(frozen=True, eq=False)
class ResidualReport:
    max_abs: dict[str, float]
    threshold: float = field(default=1e-9, init=False)
    series: dict[str, Vec] = field(repr=False)

    def passed(self, eq: str) -> bool:
        return self.max_abs[eq] <= self.threshold

    def all_passed(self) -> bool:
        return all(self.passed(eq) for eq in self.max_abs)


def residuals(ep: EquilibriumPath) -> ResidualReport:
    """Per-period residuals of the structural equations, recomputed from the
    emitted series (expectation terms evaluated from the emitted expectation
    series, not from next-period realizations) and the path's AR states, at
    the coefficient set's parameters; each passes at most 1e-9 off zero."""
    p = ep.rf.params
    path = ep.path
    mu_l1 = np.concatenate(([path.initial.mu[0]], path.state("mu")[:-1]))
    rbar = p.sigma * p.rho_ybar * (p.rho_ybar - 1.0) * mu_l1
    series = {
        "is_curve": ep["yhat"] - ep["Eyhat"]
                    + (ep["i"] - ep["Epi"] - rbar) / p.sigma,
        "okun": (ep["u"] - path.state("ubar"))
                + p.theta * (ep["y"] - path.state("mu")),
        "phillips": ep["pi"] - p.beta * ep["Epi"] - p.k * ep["yhat"]
                    - path.state("eps"),
        "taylor": ep["i"] - p.alpha_pi * ep["pi"] - p.alpha_y * ep["yhat"],
        "saving_investment": np.zeros(ep.T),   # single shared series
        "resource": ep["y"] - ep["I"] - ep["c"] - path.state("g"),
    }
    if ep.budget_mode == "balanced":
        series["budget"] = path.state("g") - path.state("tax")
    max_abs = {eq: float(np.max(np.abs(s))) for eq, s in series.items()}
    return ResidualReport(max_abs=max_abs, series=series)


# ---------------------------------------------------------------------------
# closed-form vs numerical comparison

@dataclass(frozen=True)
class Erratum:
    variable: str
    index: int
    table_value: float
    oracle_value: float
    rel_diff: float
    note: str = ""

    def key(self) -> tuple[str, int]:
        return (self.variable, self.index)


@dataclass(frozen=True, eq=False)
class ErrataReport:
    entries: list[Erratum]
    condition_number: float
    condition_warning: bool
    suspects: dict[str, dict]

    def keys(self) -> set[tuple[str, int]]:
        return {e.key() for e in self.entries}


def compare(tables: ReducedForm, oracle: ReducedForm,
            tol: float = 1e-6, abs_floor: float = ABS_FLOOR) -> ErrataReport:
    """Entry-wise comparison of two coefficient sets over the exported
    index sets, with a resolution of the two pattern-breaking entries.

    An entry differs when ``|table - oracle| > max(tol * scale, abs_floor)``
    with ``scale = max(|table|, |oracle|)``; its relative difference is
    ``|table - oracle| / scale`` (0 where both are 0).  For each suspect
    entry the report states the value as printed, the pattern-consistent
    variant evaluated on the closed-form parent entries, and whether the
    numerical solution supports the variant (its own blocks satisfy the
    pattern exactly and fail the printed form).
    """
    p = tables.params
    tv, ov, rel, flagged, confirmed = _compared(
        tables.slot_blocks, oracle.slot_blocks, p, tol, abs_floor)
    bad = np.flatnonzero(flagged)
    entries: list[Erratum] = []
    for k, t, o, r in zip(bad.tolist(), tv[bad].tolist(), ov[bad].tolist(),
                          rel[bad].tolist()):
        var, idx = slots.ENTRIES[k]
        note = "pattern-breaking entry; see suspects" if (var, idx) in SUSPECT_ENTRIES else ""
        entries.append(Erratum(var, idx, t, o, r, note))

    suspects: dict[str, dict] = {}
    for label, (printed, variant, printed_of, variant_of) in zip(
            confirmed, SUSPECT_ENTRIES.values()):
        suspects[label] = {
            "printed": printed,
            "variant": variant,
            "printed_value": float(printed_of(tables.slot_blocks, p)),
            "variant_value": float(variant_of(tables.slot_blocks, p)),
            "variant_confirmed": bool(confirmed[label]),
        }

    cond = oracle.condition_number or 0.0
    return ErrataReport(entries=entries, condition_number=cond,
                        condition_warning=cond > COND_WARN, suspects=suspects)


def _compared(tables: dict[str, Vec], solved: dict[str, Vec], p: StructuralParams,
              tol: float, abs_floor: float) -> tuple[Vec, Vec, Vec, Vec, dict[str, Vec]]:
    """The array pass behind :func:`compare`: the exported entries of both
    sets, their relative differences, which of them differ, and per suspect
    label whether the numerical solution confirms the variant.  With slot
    blocks (16, n) and fields of one value per cell, each is per cell."""
    tv = slots.exported(np.stack([tables[v] for v in slots.VARIABLES]))
    ov = slots.exported(np.stack([solved[v] for v in slots.VARIABLES]))
    diff = np.abs(tv - ov)
    scale = np.maximum(np.abs(tv), np.abs(ov))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    flagged = diff > np.maximum(tol * scale, abs_floor)
    confirmed = {}
    for (var, idx), (_, _, printed_of, variant_of) in SUSPECT_ENTRIES.items():
        value = solved[var][idx]
        bound = tol * np.maximum(np.abs(value), 1.0)
        confirmed[f"{var}[{idx}]"] = ((np.abs(value - variant_of(solved, p)) <= bound)
                                      & (np.abs(value - printed_of(solved, p)) > bound))
    return tv, ov, rel, flagged, confirmed


#: the range of each field :func:`random_params` draws, in draw order
_DRAW_RANGES = (
    ("sigma", 0.5, 3.0), ("theta", 0.1, 1.0), ("beta", 0.9, 0.999), ("k", 0.05, 0.6),
    ("alpha_pi", 0.2, 2.5), ("alpha_y", 0.0, 1.0), ("c0", 0.05, 0.5), ("s0", 0.05, 0.5),
    ("c1", 0.1, 0.9), ("c3", 0.05, 0.5), ("c4", 0.05, 0.5), ("s1", 0.1, 0.9),
    ("s2", 0.05, 0.5), ("s3", 0.05, 0.5), ("s4", 0.05, 0.5),
    *((f"gamma{j}", 0.05, 1.2) for j in range(1, 6)),
    *((f"phi{j}", 0.1, 1.5) for j in range(1, 4)),
    *((name, 0.05, 0.95) for name in RHO_FIELDS),
    *((name, 0.005, 0.05) for name in SD_FIELDS),
)
_DRAW_NAMES = tuple(name for name, _, _ in _DRAW_RANGES)
_DRAW_LOW, _DRAW_HIGH = np.array([bounds for _, *bounds in _DRAW_RANGES]).T
_DRAW_SPAN = _DRAW_HIGH - _DRAW_LOW
_C0, _S0 = _DRAW_NAMES.index("c0"), _DRAW_NAMES.index("s0")
#: where each field of ``FIELD_NAMES`` sits in ``_DRAW_RANGES``
_DRAW_ORDER = np.array([_DRAW_NAMES.index(name) for name in FIELD_NAMES])
_SIGNS = np.array([-1.0, 1.0])
#: smallest magnitude of either denominator :func:`random_params` accepts
_DRAW_SCREEN = 0.05


def random_params(rng: np.random.Generator) -> StructuralParams:
    """A generic valid parameterization, kept away from the closed-form and
    matching-system singular surfaces.

    Built without :func:`~nkji.params.validate`: every range of
    ``_DRAW_RANGES`` lies inside its field's domain, ``s1`` is at least
    0.1, and ``_DRAW_SCREEN`` on both denominators is stricter than their
    ``EPS_SING`` rules, so no candidate the screen passes is invalid."""
    u = np.empty(len(_DRAW_RANGES))
    while True:
        # the stream of one ``uniform`` per field, each sign drawn by the
        # cheaper ``integers(0, 2)`` right after its field (the same stream
        # as ``choice``): ``low + (high - low) * u`` is ``uniform``'s own
        # arithmetic, so the values are bitwise the same
        rng.random(out=u[:_C0 + 1])
        c0_sign = rng.integers(0, 2)
        u[_S0] = rng.random()
        s0_sign = rng.integers(0, 2)
        rng.random(out=u[_S0 + 1:])
        values = _DRAW_LOW + _DRAW_SPAN * u
        values[_C0] *= _SIGNS[c0_sign]
        values[_S0] *= _SIGNS[s0_sign]
        p = StructuralParams(*values[_DRAW_ORDER].tolist())
        if min(abs(p.denominator()), abs(p.taylor_denominator())) >= _DRAW_SCREEN:
            return p


#: most stability draws evaluated in one array pass, which bounds the pass's
#: memory: a draw holds its blocks and the 19-column probe response (about
#: 63 KB of allocations at the peak), so a pass of 20 peaks at about 1.25 MB
AUDIT_SLICE = 20

#: a parameterization's fields as a tuple, in field order
_FIELD_VALUES = attrgetter(*FIELD_NAMES)

#: what a draw's comparison raises when one of its steps fails
_DRAW_FAILURES = (ConvergenceFailure, SingularSystem, AnsatzInconsistent,
                  slots.StrayLoadings, np.linalg.LinAlgError)


def _flag_rows(p: StructuralParams, tol: float) -> np.ndarray:
    """Closed form, numerical solution and comparison at ``p``: which
    entries of ``slots.ENTRIES`` differ, one row per cell (one row for
    float fields), (draws, 130); raises for the first failing cell."""
    tables = _checked_blocks(p)
    solved = _block_solve(p, *_matching_blocks(p))
    flagged = _compared(tables, solved, p, tol, ABS_FLOOR)[3]
    return flagged.reshape(len(slots.ENTRIES), -1).T


def _draw_slice(rngs: list[np.random.Generator]
                ) -> tuple[list[StructuralParams], StructuralParams]:
    """One :func:`random_params` draw from each generator, and the same draws
    as one parameterization whose fields hold one value per draw."""
    ps = [random_params(rng) for rng in rngs]
    columns = np.array([_FIELD_VALUES(p) for p in ps]).T.copy()
    return ps, StructuralParams(*columns)


def _stability_slice(seed: int, tol: float, draws: range) -> np.ndarray:
    """The flag rows of ``draws``, evaluated in one array pass."""
    ps, stacked = _draw_slice([np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(i,))) for i in draws])
    try:
        return _flag_rows(stacked, tol)
    except _DRAW_FAILURES:
        # some draw fails: take the draws one at a time, so that the first
        # failing draw raises just as it does alone
        return np.concatenate([_flag_rows(p, tol) for p in ps])


def _folded_slice(seed: int, tol: float, draws: range) -> list[tuple[np.ndarray, bool]]:
    """The flag row of the first of ``draws``, and whether every draw of the
    slice flags the same entries."""
    rows = _stability_slice(seed, tol, draws)
    return [(rows[0], bool((rows == rows[0]).all()))]


def stability_run(n_draws: int, seed: int, tol: float = 1e-6, workers: int = 1
                  ) -> tuple[set[tuple[str, int]], bool]:
    """Compare closed forms against the numerical solution across random
    parameterizations; a genuine formula divergence flags the same entries
    on every draw, a numerical accident moves around.  Returns the entries
    the first draw flags, and whether every draw flags the same.

    Each draw gets its own counter-derived substream.  The draws are
    evaluated in slices of at most ``AUDIT_SLICE``, each in one array pass
    that keeps only the draws' flag rows (no per-draw verdicts or condition
    numbers) and folds them to the slice's first row and its all-equal
    flag, so memory does not grow with the draws.  ``workers`` processes
    share the slices, so results are independent of the worker count.  A
    failing draw raises what it raises alone: the first failing draw, at
    its first failing step.
    """
    folds = fan_out(partial(_folded_slice, seed, tol), n_draws, AUDIT_SLICE, workers)
    if not folds:
        return set(), True
    first = folds[0][0]
    return (set(compress(slots.ENTRIES, first.tolist())),
            all(same and np.array_equal(row, first) for row, same in folds))
