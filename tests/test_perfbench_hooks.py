"""What the benchmark's traced run reads of nkji still exists.

``perfbench/child.py`` wraps every (module, function) pair of its ``TRACED``
list, and its attribute hooks read the results of three of them.  A rename
or deletion in nkji fails here instead of in the traced run, where it would
raise ``AttributeError``.  The file is loaded as it is, without running it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from nkji import draw, sweep

_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
_spec = importlib.util.spec_from_file_location("perfbench_child", _CHILD)
child = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(child)


@pytest.mark.parametrize("module, function",
                         [(module, function) for module, function, _ in child.TRACED])
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"nkji.{module}"), function, None))


def test_span_attributes_read_their_results(default_params, oracle_rf):
    # rho_chi = 1.2 is nonstationary, so one column of the 2 x 2 grid is invalid
    result = sweep(default_params, ("alpha_pi", 0.5, 2.0, 2), ("rho_chi", 0.2, 1.2, 2))
    assert child._sweep_attrs(result) == {"invalid": 2, "borderline": 0}
    assert child._draw_attrs(draw(default_params, 1, 3)) == {"periods": 3}
    assert child._solve_attrs(oracle_rf) == {"cond": oracle_rf.condition_number}
