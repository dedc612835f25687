"""Structural parameterization: field definitions, domains, validation, loading.

All downstream modules consume a validated, immutable ``StructuralParams``.
Validation is total: every violated constraint is collected and reported,
not just the first one found.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from . import slots


#: Absolute tolerance below which a structural denominator counts as singular.
EPS_SING = 1e-10


def printable(text: str) -> str:
    """``text`` with each non-printable character (control characters, line
    separators, lone surrogates) escaped as in ``repr``, so that a name
    echoed in a one-line message stays one line; printable text is
    returned unchanged."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


class Violation:
    """One violated parameter constraint: its ``kind`` (``"NonStationary"``,
    ``"SingularDenominator"``, ``"NegativeScale"`` or ``"InvalidDomain"``),
    the offending ``field`` and an optional ``detail``."""

    def __init__(self, kind: str, field: str, detail: str = ""):
        self.kind = kind
        self.field = field
        self.detail = detail

    def __repr__(self):
        detail = f": {self.detail}" if self.detail else ""
        return printable(f"{self.kind}({self.field}{detail})")


class InvalidParams(ValueError):
    """Raised by :func:`validate`; carries every violated constraint."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(repr(v) for v in violations))


@dataclass(frozen=True)
class StructuralParams:
    """Validated structural-form parameter set.

    Immutable after construction and safe to share across workers.  Use
    :func:`validate` to build one; the raw constructor performs no checks.
    The batched sweep builds one whose fields are floats or 1-D arrays with
    one entry per grid cell (see :attr:`cells`).
    """

    sigma: float      # inverse intertemporal elasticity, > 0
    theta: float      # output-unemployment slope, >= 0
    beta: float       # discount factor, in (0, 1)
    k: float          # Phillips-curve slope, >= 0
    alpha_pi: float   # policy response to inflation
    alpha_y: float    # policy response to the output gap
    c0: float
    c1: float
    c3: float
    c4: float
    s0: float
    s1: float
    s2: float
    s3: float
    s4: float
    gamma1: float
    gamma2: float
    gamma3: float
    gamma4: float
    gamma5: float
    phi1: float
    phi2: float
    phi3: float
    rho_chi: float
    rho_ybar: float
    rho_g: float
    rho_tax: float
    rho_eps: float
    rho_u: float
    sd_omega: float
    sd_eta_g: float
    sd_taxshock: float
    sd_lambda: float
    sd_xi: float
    sd_v: float
    sd_costpush: float
    sd_natu: float
    sd_noise: float

    @property
    def cells(self) -> tuple[int, ...]:
        """Shape of the cell axis: ``()``, or the shape the array fields share."""
        return next((x.shape for x in vars(self).values() if isinstance(x, np.ndarray)), ())

    def denominator(self) -> float:
        """Shared denominator of the closed-form interest/output/consumption/
        investment blocks."""
        return self.s1 - self.sigma * (
            self.c1 * (self.gamma2 + self.s2) + self.gamma2 * self.s1
        )

    def taylor_denominator(self) -> float:
        """Denominator of the expected-inflation block."""
        return 1.0 - self.alpha_pi * self.beta

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)

    def replace(self, **overrides: float) -> "StructuralParams":
        """Validated copy with the given fields overridden."""
        return validate({**self.as_dict(), **overrides})


FIELD_NAMES = tuple(f.name for f in dataclasses.fields(StructuralParams))
#: the persistences of ``slots.AR_LINKS`` and the scales of
#: ``slots.INNOVATION_SCALES``, each in ``FIELD_NAMES`` order
RHO_FIELDS = tuple(f for f in FIELD_NAMES if f in {link.rho for link in slots.AR_LINKS})
SD_FIELDS = tuple(f for f in FIELD_NAMES if f in {sd for _, sd in slots.INNOVATION_SCALES})

#: Conventional small-scale New Keynesian calibration.  These are stock
#: textbook values chosen to sit inside every validity domain; nothing in
#: the test suite depends on the specific numbers.
DEFAULTS: dict[str, float] = {
    "sigma": 1.0, "theta": 0.5, "beta": 0.99, "k": 0.3,
    "alpha_pi": 1.5, "alpha_y": 0.125,
    "c0": 0.0, "c1": 0.6, "c3": 0.2, "c4": 0.2,
    "s0": 0.0, "s1": 0.3, "s2": 0.2, "s3": 0.1, "s4": 0.1,
    "gamma1": 0.5, "gamma2": 0.4, "gamma3": 0.1, "gamma4": 0.1, "gamma5": 0.2,
    "phi1": 1.0, "phi2": 1.0, "phi3": 1.0,
    **dict(zip(RHO_FIELDS, (0.5, 0.9, 0.8, 0.8, 0.7, 0.9))),
    **dict.fromkeys(SD_FIELDS, 0.01),
}


def _domain_rules(v: Mapping[str, Any]) -> list[tuple[Any, str, str, str]]:
    """Every domain rule of :func:`validate` as ``(broken, violation kind,
    field, detail)``, in report order.  Each value of ``v`` is a float or a
    1-D array with one entry per cell; ``broken`` is then a bool or a bool
    array."""
    # comparisons only, so that a float field costs no numpy call: NaN
    # compares false, and abs(x) < inf holds exactly for finite x
    finite = {name: abs(v[name]) < math.inf for name in FIELD_NAMES}
    beta = v["beta"]
    rules = [((v[name] != v[name]) | (abs(v[name]) == math.inf),
              "InvalidDomain", name, "not finite") for name in FIELD_NAMES]
    rules += [
        (finite["sigma"] & (v["sigma"] <= 0), "InvalidDomain", "sigma", "must be > 0"),
        (finite["theta"] & (v["theta"] < 0), "InvalidDomain", "theta", "must be >= 0"),
        (finite["beta"] & ((beta <= 0.0) | (beta >= 1.0)),
         "InvalidDomain", "beta", "must be in (0, 1)"),
        (finite["k"] & (v["k"] < 0), "InvalidDomain", "k", "must be >= 0"),
        *((finite[name] & (abs(v[name]) >= 1.0), "NonStationary", name, "")
          for name in RHO_FIELDS),
        *((finite[name] & (v[name] < 0), "NegativeScale", name, "") for name in SD_FIELDS),
    ]
    # the denominators are checked only where every other rule holds
    clean = np.logical_not(_broken(rules))
    p = StructuralParams(**v)
    rules += [
        (clean & (abs(p.denominator()) <= EPS_SING), "SingularDenominator", "s1",
         "s1 - sigma*[c1*(gamma2+s2) + gamma2*s1] ~ 0"),
        # the consumption blocks divide by s1*D
        (clean & (abs(p.s1) <= EPS_SING), "SingularDenominator", "s1", "s1 ~ 0"),
        (clean & (abs(p.taylor_denominator()) <= EPS_SING), "SingularDenominator",
         "alpha_pi", "1 - alpha_pi*beta ~ 0"),
    ]
    return rules


def _broken(rules: list[tuple]) -> Any:
    return functools.reduce(operator.or_, (rule[0] for rule in rules))


def invalid_cells(values: Mapping[str, Any]) -> np.ndarray:
    """Mask of the cells :func:`validate` rejects.  ``values`` holds every
    field, each a float or a 1-D array with one entry per cell."""
    return np.asarray(_broken(_domain_rules(values)))


def validate(raw: Mapping[str, Any] | StructuralParams) -> StructuralParams:
    """Validate a raw parameter mapping into a :class:`StructuralParams`.

    Missing fields are filled from :data:`DEFAULTS` (with a DEBUG notice);
    unknown keys are rejected.  Raises :class:`InvalidParams` carrying one
    :class:`Violation` per broken constraint.  Idempotent: feeding a
    validated set back in reproduces it exactly.
    """
    if isinstance(raw, StructuralParams):
        raw = raw.as_dict()

    unknown = sorted(set(raw) - set(FIELD_NAMES))
    if unknown:
        raise InvalidParams([Violation("InvalidDomain", name, "unknown parameter")
                             for name in unknown])

    missing = [name for name in FIELD_NAMES if name not in raw]
    if raw and missing:
        # a partial specification: say which fields fell back to defaults.
        # logging is imported here, as no other run needs it
        import logging

        logging.getLogger(__name__).debug("filling %d missing parameter(s) from defaults: %s",
                                          len(missing), ", ".join(missing))

    values: dict[str, float] = {}
    bad_value: list[Violation] = []
    for name in FIELD_NAMES:
        try:
            values[name] = float(raw.get(name, DEFAULTS[name]))
        except (TypeError, ValueError, OverflowError):
            bad_value.append(Violation("InvalidDomain", name, "not a number"))
            values[name] = math.nan
    # a value that is not a number is reported once, as such
    bad_names = {v.field for v in bad_value}
    violations = bad_value + [Violation(kind, name, detail)
                              for broken, kind, name, detail in _domain_rules(values)
                              if broken and name not in bad_names]

    if violations:
        raise InvalidParams(violations)
    return StructuralParams(**values)


def load_calibration(path: str) -> dict[str, float]:
    """Read a flat name -> number JSON calibration file.  Booleans and
    strings, which ``float`` would accept, are rejected as not numbers.
    Integers are read as floats, so one too long for ``int`` reads as not
    finite; a value nested too deeply for the parser is rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=float)
        except RecursionError:
            raise InvalidParams([Violation("InvalidDomain", "<file>",
                                           "JSON nested too deeply")]) from None
    if not isinstance(data, dict):
        raise InvalidParams([Violation("InvalidDomain", "<file>",
                                       "calibration must be a JSON object")])
    bad = [Violation("InvalidDomain", name, "not a number") for name, value in data.items()
           if isinstance(value, (bool, str))]
    if bad:
        raise InvalidParams(bad)
    return data
