"""nkji: a rational-expectations New Keynesian model with an
information-disclosure channel, job-insecurity dynamics, and determinacy
analysis of its order-nine state-space form."""

from .coeffs import ReducedForm, compute_all, steady_state
from .oracle import compare, residuals, solve_undetermined
from .params import (DEFAULTS, EPS_SING, InvalidParams, StructuralParams,
                     load_calibration, validate)
from .shocks import (KINDS, LagState, ShockPath, draw, from_innovations,
                     impulse_path, signal, zero_path)
from .sim import (EquilibriumPath, expectations, forecast_error, irf,
                  job_insecurity, search_paradox, simulate, transparency_audit)
from .statespace import (ConvergenceFailure, DeterminacyReport, TransitionSystem,
                         build, char_poly, classify, classify_standard, eigen,
                         report, sweep)

__version__ = "1.0.0"
