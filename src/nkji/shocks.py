"""Reproducible innovation draws and AR(1) state accumulation.

One root seed; every innovation kind gets its own counter-derived substream,
so adding a kind (or zeroing another kind's scale) never perturbs the draws
of existing kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import slots
from .params import StructuralParams
from .slots import Vec

#: Innovation kinds in substream order.  The numeric position is the
#: substream key; append-only.
KINDS = ("omega", "eta", "L", "lambda", "xi", "v", "sigma_cp", "T_natu", "Xi")

_KIND_SD = {
    "omega": "sd_omega", "eta": "sd_eta_g", "L": "sd_taxshock",
    "lambda": "sd_lambda", "xi": "sd_xi", "v": "sd_v",
    "sigma_cp": "sd_costpush", "T_natu": "sd_natu", "Xi": "sd_noise",
}

#: AR(1) state -> (persistence field, driving innovation kind), in the slot
#: order of ``slots.AR_LINKS``
AR_STATES = {link.state: (link.rho, link.kind) for link in slots.AR_LINKS}


class UnknownShockKind(ValueError):
    pass


@dataclass(frozen=True)
class LagState:
    """Pre-sample values: each AR state at t = -1, and ``mu`` also at
    t = -2 (``mu = (mu_{-1}, mu_{-2})``).  The simulator reads both ``mu``
    lags, for the two-period drift lag and for the lag-1 drift innovation
    ``mu_{-1} - rho_ybar*mu_{-2}``; the state-space form reads none."""

    chi: float = 0.0
    mu: tuple[float, float] = (0.0, 0.0)
    g: float = 0.0
    tax: float = 0.0
    eps: float = 0.0
    ubar: float = 0.0
    ybar_level: float = 0.0


@dataclass(frozen=True, eq=False)
class ShockPath:
    """Innovation realizations plus the AR states they drive, over t = 0..T-1.

    Immutable; all arrays are read-only views of length T.
    """

    params: StructuralParams
    T: int
    innovations: dict[str, Vec] = field(repr=False)
    states: dict[str, Vec] = field(repr=False)
    ybar: Vec = field(repr=False)   # random-walk level: ybar_t = ybar_{t-1} + mu_t
    initial: LagState = field(default_factory=LagState)

    def innovation(self, kind: str) -> Vec:
        if kind not in KINDS:
            raise UnknownShockKind(kind)
        return self.innovations[kind]

    def state(self, name: str) -> Vec:
        return self.states[name]


def _accumulate(rho: float, innov: Vec, init: float) -> Vec:
    # the same multiply-add in the same order over Python floats, which loop
    # faster than numpy scalars, 1024 at a time: no list as long as the path
    def states():
        prev = init
        for start in range(0, len(innov), 1024):
            for x in innov[start:start + 1024].tolist():
                prev = rho * prev + x
                yield prev
    return np.fromiter(states(), float, len(innov))


def from_innovations(p: StructuralParams,
                     innovations: dict[str, Vec],
                     initial: LagState | None = None) -> ShockPath:
    """Accumulate the AR states for externally supplied innovation arrays.

    All nine kinds must be present with a common length >= 1.
    """
    initial = initial or LagState()
    lengths = {len(innovations[k]) for k in KINDS}
    if len(lengths) != 1:
        raise ValueError("innovation arrays must share one length")
    T = lengths.pop()
    if T < 1:
        raise ValueError("horizon must be >= 1")
    innov = {k: np.asarray(innovations[k], dtype=float) for k in KINDS}

    init_map = {**vars(initial), "mu": initial.mu[0]}   # each state at t = -1
    states = {name: _accumulate(getattr(p, rho_field), innov[kind], init_map[name])
              for name, (rho_field, kind) in AR_STATES.items()}
    ybar = initial.ybar_level + np.cumsum(states["mu"])

    for arr in (*innov.values(), *states.values(), ybar):
        arr.flags.writeable = False
    return ShockPath(params=p, T=T, innovations=innov, states=states,
                     ybar=ybar, initial=initial)


def draw(p: StructuralParams, seed: int, T: int,
         initial: LagState | None = None) -> ShockPath:
    """Draw all innovation streams, normal with the configured standard
    deviations, and accumulate the AR states.

    Identical ``(p, seed, T, initial)`` reproduce bit-identical output.
    """
    if T < 1:
        raise ValueError("horizon must be >= 1")
    innovations: dict[str, Vec] = {}
    for idx, kind in enumerate(KINDS):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        sd = getattr(p, _KIND_SD[kind])
        innovations[kind] = np.zeros(T) if sd == 0.0 else sd * rng.standard_normal(T)
    return from_innovations(p, innovations, initial)


def zero_path(p: StructuralParams, T: int,
              initial: LagState | None = None) -> ShockPath:
    """All-zero innovations (deterministic baseline)."""
    return from_innovations(p, {k: np.zeros(T) for k in KINDS}, initial)


def impulse_path(p: StructuralParams, kind: str, T: int,
                 size: float = 1.0) -> ShockPath:
    """A single innovation of ``kind`` at t = 0, everything else zero."""
    if kind not in KINDS:
        raise UnknownShockKind(kind)
    innovations = {k: np.zeros(T) for k in KINDS}
    arr = innovations[kind]
    arr[0] = size
    return from_innovations(p, innovations)


def combine(a: ShockPath, b: ShockPath) -> ShockPath:
    """Sum two paths drawn under the same parameters (linearity checks)."""
    if a.T != b.T:
        raise ValueError("paths must share a horizon")
    initial = LagState(
        chi=a.initial.chi + b.initial.chi,
        mu=tuple(x + y for x, y in zip(a.initial.mu, b.initial.mu)),
        g=a.initial.g + b.initial.g,
        tax=a.initial.tax + b.initial.tax,
        eps=a.initial.eps + b.initial.eps,
        ubar=a.initial.ubar + b.initial.ubar,
        ybar_level=a.initial.ybar_level + b.initial.ybar_level,
    )
    return from_innovations(
        a.params, {k: a.innovations[k] + b.innovations[k] for k in KINDS}, initial)


def signal(path: ShockPath, transparent: bool) -> Vec:
    """Disclosed-information series received by private agents.

    Fully transparent disclosure returns the information state exactly;
    otherwise the communication noise is added.
    """
    chi = path.state("chi")
    if transparent:
        return chi
    return chi + path.innovation("Xi")
