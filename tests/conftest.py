import numpy as np
import pytest
from hypothesis import strategies as st

from nkji import compute_all, solve_undetermined
from nkji.params import DEFAULTS, EPS_SING, validate


@pytest.fixture(scope="session")
def default_params():
    return validate(DEFAULTS)


@pytest.fixture(scope="session")
def default_rf(default_params):
    return compute_all(default_params)


@pytest.fixture(scope="session")
def oracle_rf(default_params):
    return solve_undetermined(default_params)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)


def _errata_keys(report):
    """The ``(variable, index)`` of each erratum of a ``compare`` report."""
    return {(e["variable"], e["index"]) for e in report["errata"]}


#: magnitude at which the valid-domain properties cut the fields whose valid
#: range is unbounded: from about 1e6 on, the fields' scales alone can spread
#: the matching system's singular values past the singular threshold, and
#: near 1e300 the closed forms overflow
_BOX = 10.0
_RHO_EDGE = 1.0 - 1e-6


def _valid_range(name):
    """Values of the field ``name`` over the whole range that ``validate``
    accepts, unbounded ends cut at ``_BOX``, with point masses at 0 where 0
    is valid and, for a persistence, at a distance of 1e-6 from a unit
    root."""
    if name.startswith("rho_"):
        return (st.sampled_from((0.0, _RHO_EDGE, -_RHO_EDGE))
                | st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    if name == "beta":
        return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    if name == "sigma":
        return st.floats(0.0, _BOX, exclude_min=True)
    if name == "s1":
        return (st.floats(EPS_SING, _BOX, exclude_min=True)
                | st.floats(-_BOX, -EPS_SING, exclude_max=True))
    low = 0.0 if name in ("theta", "k") or name.startswith("sd_") else -_BOX
    return st.just(0.0) | st.floats(low, _BOX)
