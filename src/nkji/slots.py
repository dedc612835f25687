"""Canonical regressor layout shared by the coefficient, simulation and audit code.

Every endogenous variable of the common-knowledge solution is a linear
combination of the same 16 regressors (constant, lagged states, current
innovations).  Internally each variable is stored as a dense length-16
"slot vector" over this layout; the exported per-variable index sets are
a projection of it (see ``INDEX_SETS``).

``AR_LINKS`` states the six exogenous AR(1) laws once; the expectations,
the regressor matrix, the shock states and the audit's slot groups read them.
``ENDOGENOUS`` and ``INNOVATION_SCALES`` name the eight endogenous variables
and the nine innovation kinds' scales; every other list of them derives.
``ConvergenceFailure``, the one exception for a numerical result that cannot
be trusted, lives here because every module that raises it imports this one.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
from numpy.typing import NDArray

# Slot order.  Fixed; append-only.
CONST = 0
YBAR_LAG2 = 1      # potential-output (drift) state, lag 2
OMEGA_LAG1 = 2     # potential-output innovation, lag 1
G_LAG1 = 3         # government spending, lag 1
ETA = 4            # spending innovation, current
TAX_LAG1 = 5       # tax revenue, lag 1
L_FISC = 6         # tax innovation, current
CHI_LAG1 = 7       # disclosed-information state, lag 1
LAM = 8            # news innovation, current
XI = 9             # preference shock, current
V = 10             # idiosyncratic shock, current
OMEGA = 11         # potential-output innovation, current (unobserved at t)
EPS_LAG1 = 12      # cost-push state, lag 1
VARSIGMA = 13      # cost-push innovation, current
UBAR_LAG1 = 14     # natural unemployment, lag 1
T_NATU = 15        # natural-unemployment innovation, current

NSLOT = 16

#: The six exogenous AR(1) states in slot order: each one's name, persistence
#: field, innovation kind, lag slot and innovation slot, under the AR law
#: E_t[lag'] = rho * lag + innovation (next period's lag regressor is known
#: at t).  The drift ``mu`` lags two periods: its pair is (mu_{t-2}, omega_{t-1}).
ARLink = namedtuple("ARLink", "state rho kind lag innovation")
AR_LINKS = (
    ARLink("mu", "rho_ybar", "omega", YBAR_LAG2, OMEGA_LAG1),
    ARLink("g", "rho_g", "eta", G_LAG1, ETA),
    ARLink("tax", "rho_tax", "L", TAX_LAG1, L_FISC),
    ARLink("chi", "rho_chi", "lambda", CHI_LAG1, LAM),
    ARLink("eps", "rho_eps", "sigma_cp", EPS_LAG1, VARSIGMA),
    ARLink("ubar", "rho_u", "T_natu", UBAR_LAG1, T_NATU),
)
#: (innovation kind, slot) of the current innovations no AR state carries
LONE_INNOVATIONS = (("xi", XI), ("v", V), ("omega", OMEGA))

#: (innovation kind, scale field) in substream order: a kind's position is its
#: substream key, so the table is append-only.  ``Xi``, the communication
#: noise on the public signal, has no slot.
INNOVATION_SCALES = (
    ("omega", "sd_omega"), ("eta", "sd_eta_g"), ("L", "sd_taxshock"),
    ("lambda", "sd_lambda"), ("xi", "sd_xi"), ("v", "sd_v"),
    ("sigma_cp", "sd_costpush"), ("T_natu", "sd_natu"), ("Xi", "sd_noise"),
)

#: the eight endogenous variables, in the row order of the transition matrix
ENDOGENOUS = ("r", "y", "yhat", "pi", "c", "I", "i", "u")

SLOT_NAMES = (
    "const", "ybar_lag2", "omega_lag1", "g_lag1", "eta", "tax_lag1", "L",
    "chi_lag1", "lambda", "xi", "v", "omega", "eps_lag1", "sigma_cp",
    "ubar_lag1", "T_natu",
)

# State symbols accepted by the point-wise expectation evaluators (everything
# except the constant, which is implicit).
STATE_NAMES = SLOT_NAMES[1:]

VARIABLES = ("r", "y", "yhat", "Eyhat", "Epi", "pi", "c", "I", "i", "u", "Eu")

# Exported index -> internal slot, per variable.  The index sets differ per
# variable; e.g. the unemployment block's index 12 multiplies the lagged
# natural unemployment rate, which lives in slot 14 internally.
_LOW = tuple(range(11))                      # indices 0..10 <-> slots 0..10
INDEX_SETS: dict[str, tuple[int, ...]] = {
    "r": _LOW,
    "y": _LOW,
    "yhat": _LOW,
    "Eyhat": tuple(range(9)),
    "Epi": tuple(range(14)),
    "pi": tuple(range(14)),
    "c": _LOW,
    "I": _LOW,
    "i": tuple(range(14)),
    "u": _LOW + (OMEGA, UBAR_LAG1),          # indices 11, 12
    "Eu": tuple(range(9)) + (UBAR_LAG1, T_NATU),   # indices 9, 10
}

Vec = NDArray[np.float64]

#: (variable, exported index) of every exported entry: variables in
#: ``VARIABLES`` order, each variable's indices ascending
ENTRIES = tuple((var, idx) for var in VARIABLES for idx in range(len(INDEX_SETS[var])))
#: row in ``VARIABLES`` and slot of each entry of ``ENTRIES``
ENTRY_ROWS = np.array([VARIABLES.index(var) for var, _ in ENTRIES])
ENTRY_SLOTS = np.array([INDEX_SETS[var][idx] for var, idx in ENTRIES])

#: ``STRAY[row, slot]``: a loading of ``VARIABLES[row]`` outside its index
#: set, which must be structurally zero.  Two such loadings are structural
#: but not exported: the output gap's -1 on the current potential-output
#: innovation and unemployment's unit loading on its current innovation.
STRAY = np.ones((len(VARIABLES), NSLOT), dtype=bool)
STRAY[ENTRY_ROWS, ENTRY_SLOTS] = False
STRAY[VARIABLES.index("yhat"), OMEGA] = False
STRAY[VARIABLES.index("u"), T_NATU] = False


def unit(slot: int) -> Vec:
    v = np.zeros(NSLOT)
    v[slot] = 1.0
    return v


class ConvergenceFailure(RuntimeError):
    """A numerical result that cannot be trusted: not finite, a failed
    eigen-solve, a singular or unsatisfied matching system, or a loading
    outside an index set."""


def exported(blocks: NDArray[np.float64]) -> Vec:
    """The exported entries of the ``(11, 16)`` stack of slot vectors
    ``blocks`` (rows in ``VARIABLES`` order), in ``ENTRIES`` order: (130,),
    or (130, n) for a stack ``(11, 16, n)`` with one column per cell.

    Loadings outside a variable's index set must be structurally zero (they
    are for both the closed forms and the numerical solution); a nonzero
    one, in any cell, signals an assembly defect.
    """
    mask = STRAY.reshape(STRAY.shape + (1,) * (blocks.ndim - 2))
    stray = np.where(mask, np.abs(blocks), 0.0).reshape(len(VARIABLES), -1).max(axis=1)
    over = np.flatnonzero(stray > 1e-9)
    if over.size:
        row = over[0]
        raise ConvergenceFailure(f"variable {VARIABLES[row]!r} has loadings outside "
                                 f"its index set (max {stray[row]:.3e})")
    return blocks[ENTRY_ROWS, ENTRY_SLOTS]
