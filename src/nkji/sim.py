"""Equilibrium trajectories, expectations, impulse responses, job insecurity,
and the disclosure (transparency) audit.

Everything here is a linear evaluation of a :class:`~nkji.coeffs.ReducedForm`
along a :class:`~nkji.shocks.ShockPath`; the same entry points work for the
closed-form coefficient set and for the numerically solved one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from . import shocks, slots
from .coeffs import ReducedForm, _chain_expectation, compute_all, steady_state
from .params import InvalidParams, StructuralParams, Violation, validate
from .shocks import ShockPath
from .slots import Vec

SERIES = (*slots.ENDOGENOUS, "Ey", "Eyhat", "Epi", "Eu", "JI")

#: symbols the expectation evaluators require: the slots of the AR links, the
#: only ones the AR-law expectations Ey, Eyhat and Eu load on
_EXPECTATION_SLOTS = tuple(sorted(s for link in slots.AR_LINKS
                                  for s in (link.lag, link.innovation)))

#: the sign of a news coefficient that makes disclosure adverse: it raises
#: unemployment or expected unemployment, or lowers output or consumption
_ADVERSE = {"u": 1, "Eu": 1, "y": -1, "c": -1}


@dataclass(frozen=True, eq=False)
class EquilibriumPath:
    """Per-period equilibrium values, one-step-ahead expectations, the
    job-insecurity series and the output forecast error."""

    rf: ReducedForm
    path: ShockPath
    budget_mode: str
    series: dict[str, Vec] = field(repr=False)
    forecast_error: Vec = field(repr=False)   # length T-1

    @property
    def T(self) -> int:
        return self.path.T

    def __getitem__(self, name: str) -> Vec:
        return self.series[name]


def regressor_matrix(path: ShockPath) -> Vec:
    """(T, 16) matrix of the reduced-form regressors along a shock path."""
    p = path.params
    T = path.T
    init = path.initial
    R = np.zeros((T, slots.NSLOT))
    R[:, slots.CONST] = 1.0

    def lagged(arr: Vec, *presample: float) -> Vec:
        # presample[i] is the value at t = -(i+1)
        return np.concatenate((presample[::-1], arr))[:T]

    mu, *lag1 = slots.AR_LINKS
    R[:, mu.lag] = lagged(path.state(mu.state), *init.mu)
    R[:, mu.innovation] = lagged(path.innovation(mu.kind),
                                 init.mu[0] - getattr(p, mu.rho) * init.mu[1])
    for link in lag1:
        R[:, link.lag] = lagged(path.state(link.state), getattr(init, link.state))
        R[:, link.innovation] = path.innovation(link.kind)
    for kind, slot in slots.LONE_INNOVATIONS:
        R[:, slot] = path.innovation(kind)
    return R


def _series_blocks(rf: ReducedForm) -> dict[str, Vec]:
    """Slot vector of every series in ``SERIES`` except ``JI``.  Expected
    output is the one the reduced form does not store: it is the AR-law
    expectation of the output block."""
    ey = _chain_expectation(rf.block("y"), rf.params)
    return {v: ey if v == "Ey" else rf.block(v) for v in SERIES[:-1]}


def check_budget_mode(p: StructuralParams, budget_mode: str) -> None:
    """Raise ``ValueError`` for an unknown ``budget_mode``, and
    ``InvalidParams`` for ``"balanced"`` without equal fiscal persistences."""
    if budget_mode not in ("independent", "balanced"):
        raise ValueError(f"unknown budget mode {budget_mode!r}")
    if budget_mode == "balanced" and p.rho_g != p.rho_tax:
        detail = f"balanced budget needs rho_g == rho_tax, got {p.rho_g} != {p.rho_tax}"
        raise InvalidParams([Violation("InvalidDomain", "rho_tax", detail)])


def simulate(rf: ReducedForm, path: ShockPath,
             budget_mode: str = "independent") -> EquilibriumPath:
    """Evaluate the reduced form along ``path``.

    ``budget_mode="balanced"`` overwrites the tax innovations with the
    spending innovations (and aligns the lagged tax state with the lagged
    spending state) so that spending and taxes coincide path-wise; it
    requires equal fiscal persistences (see :func:`check_budget_mode`).
    """
    p = rf.params
    check_budget_mode(p, budget_mode)
    if budget_mode == "balanced":
        innov = dict(path.innovations)
        innov["L"] = path.innovation("eta").copy()
        path = shocks.from_innovations(
            p, innov, replace(path.initial, tax=path.initial.g))

    R = regressor_matrix(path)
    series = {v: R @ blk for v, blk in _series_blocks(rf).items()}
    series["JI"] = series["Eu"] - steady_state(rf)["u"]

    fe = series["y"][1:] - series["Ey"][:-1]
    for arr in (*series.values(), fe):
        arr.flags.writeable = False
    return EquilibriumPath(rf=rf, path=path, budget_mode=budget_mode,
                           series=series, forecast_error=fe)


def _state_vector(state: Mapping[str, float], required: tuple[int, ...]) -> Vec:
    x = np.zeros(slots.NSLOT)
    x[slots.CONST] = 1.0
    unknown = sorted(set(state) - set(slots.STATE_NAMES))
    if unknown:
        raise ValueError(f"unknown state symbol(s): {', '.join(unknown)}")
    for slot in required:
        name = slots.SLOT_NAMES[slot]
        if name not in state:
            raise KeyError(name)
    for name, value in state.items():
        x[slots.SLOT_NAMES.index(name)] = float(value)
    return x


def expectations(rf: ReducedForm, state: Mapping[str, float]) -> dict[str, float]:
    """One-step-ahead expectations of output, the gap, inflation and
    unemployment at a single state point.

    ``state`` maps regressor names (see ``slots.STATE_NAMES``) to values.
    Every lag and innovation of the AR laws must be present.  The current
    preference, idiosyncratic and potential-output innovations (``xi``,
    ``v``, ``omega``) are optional: only ``Epi`` loads on them, and an
    omitted one counts as 0.
    """
    x = _state_vector(state, _EXPECTATION_SLOTS)
    blocks = _series_blocks(rf)
    return {v: float(x @ blocks[v]) for v in ("Ey", "Eyhat", "Epi", "Eu")}


def job_insecurity(rf: ReducedForm, state: Mapping[str, float]) -> float:
    """Expected deviation of next period's unemployment rate from its
    steady-state value: the job-insecurity measure.  Equals the expected
    unemployment rate minus the steady-state unemployment rate."""
    return expectations(rf, state)["Eu"] - steady_state(rf)["u"]


@dataclass(frozen=True)
class ForecastErrorStats:
    mean: float
    se: float
    lag1_autocorr: float


def forecast_error(ep: EquilibriumPath) -> ForecastErrorStats:
    """Realized one-step output forecast errors with summary statistics."""
    fe = ep.forecast_error
    if len(fe) < 1:
        raise ValueError("forecast errors need a horizon of at least 2")
    n = len(fe)
    mean = float(np.mean(fe))
    sd = float(np.std(fe, ddof=1)) if n > 1 else 0.0
    se = sd / np.sqrt(n)
    if sd > 0:
        d = fe - mean
        lag1 = float(np.dot(d[1:], d[:-1]) / np.dot(d, d))
    else:
        lag1 = 0.0
    return ForecastErrorStats(mean=mean, se=se, lag1_autocorr=lag1)


def irf(rf: ReducedForm, kind: str, H: int, size: float = 1.0) -> dict[str, Vec]:
    """Response to a one-off innovation of ``kind`` at t = 0, relative to the
    steady state, over horizons 0..H-1, by series name: every series of
    ``SERIES`` and each exogenous AR state of ``shocks.AR_STATES``.

    Responses are evaluated in deviation form (the constant regressor is
    dropped), so they are exactly zero where the path carries no loading and
    exactly proportional under power-of-two shock scalings.
    """
    path = shocks.impulse_path(rf.params, kind, H, size=size)
    R = regressor_matrix(path)
    R[:, slots.CONST] = 0.0
    responses = {v: R @ blk for v, blk in _series_blocks(rf).items()}
    responses["JI"] = responses["Eu"]   # insecurity is the Eu deviation
    for name in shocks.AR_STATES:
        responses[name] = path.state(name)
    return responses


def transparency_audit(rf: ReducedForm) -> dict[str, dict[str, float | int | bool]]:
    """Per variable, the information-channel coefficients z7 (lagged state)
    and z8 (current news innovation), their signs, and a ``paradox`` flag set
    when full disclosure moves a welfare-relevant variable adversely
    (unemployment or expected unemployment up, output or consumption down)."""
    entries: dict[str, dict[str, float | int | bool]] = {}
    for var in slots.VARIABLES:
        z7 = float(rf.block(var)[slots.CHI_LAG1])
        z8 = float(rf.block(var)[slots.LAM])
        entries[var] = {
            "z7": z7, "z8": z8,
            "sign7": int(np.sign(z7)), "sign8": int(np.sign(z8)),
            "paradox": _ADVERSE.get(var, 0) * z8 > 0,
        }
    return entries


def search_paradox(seed: int = 0, max_draws: int = 10000) -> StructuralParams | None:
    """Scan random valid parameterizations until one makes the news
    coefficient of expected unemployment positive (disclosure raises
    expected unemployment).  Returns the first hit, or None."""
    rng = np.random.default_rng(seed)
    for _ in range(max_draws):
        cand = {
            "c1": rng.uniform(0.1, 0.9), "s1": rng.uniform(0.1, 0.9),
            "gamma5": rng.uniform(0.0, 1.5), "phi2": rng.uniform(0.0, 1.5),
            "theta": rng.uniform(0.1, 1.0), "rho_chi": rng.uniform(0.1, 0.9),
        }
        try:
            p = validate(cand)
        except InvalidParams:
            continue
        rf = compute_all(p)
        if _ADVERSE["Eu"] * rf.block("Eu")[slots.LAM] > 0:
            return p
    return None
