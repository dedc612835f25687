"""The benchmark's workloads: seeded inputs and output checks.

Each workload turns the benchmark seed into one ``nkji`` command line and a
``--calib`` file, so the program sees only generated inputs.  The base
calibration is written out here rather than read from the program, so a
change to the program's defaults does not change the benchmark's inputs.

``check`` functions get the output text and the generated spec and return a
list of failure messages (empty when the output is correct).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: a complete calibration (every field present, so no defaults are filled)
BASE_CALIB = {
    "sigma": 1.0, "theta": 0.5, "beta": 0.99, "k": 0.3,
    "alpha_pi": 1.5, "alpha_y": 0.125,
    "c0": 0.0, "c1": 0.6, "c3": 0.2, "c4": 0.2,
    "s0": 0.0, "s1": 0.3, "s2": 0.2, "s3": 0.1, "s4": 0.1,
    "gamma1": 0.5, "gamma2": 0.4, "gamma3": 0.1, "gamma4": 0.1, "gamma5": 0.2,
    "phi1": 1.0, "phi2": 1.0, "phi3": 1.0,
    "rho_chi": 0.5, "rho_ybar": 0.9, "rho_g": 0.8, "rho_tax": 0.8,
    "rho_eps": 0.7, "rho_u": 0.9,
    "sd_omega": 0.01, "sd_eta_g": 0.01, "sd_taxshock": 0.01,
    "sd_lambda": 0.01, "sd_xi": 0.01, "sd_v": 0.01, "sd_costpush": 0.01,
    "sd_natu": 0.01, "sd_noise": 0.01,
}

#: seeded perturbation ranges; all stay well inside every validity domain
#: and away from the closed-form singular surfaces
PERTURB = {
    "sigma": (0.8, 1.5), "theta": (0.3, 0.7), "beta": (0.96, 0.995),
    "k": (0.1, 0.4), "alpha_pi": (1.2, 2.0), "alpha_y": (0.0, 0.5),
    "rho_chi": (0.3, 0.8), "rho_ybar": (0.5, 0.9), "rho_g": (0.5, 0.9),
    "rho_tax": (0.5, 0.9), "rho_eps": (0.4, 0.8), "rho_u": (0.5, 0.9),
    **{name: (0.005, 0.02) for name in BASE_CALIB if name.startswith("sd_")},
}

#: (cells alpha_pi, cells rho_chi) for sweep-grid; one rho_chi value in six
#: is at or above 1, so one cell in six is invalid
SWEEP_SIZE = {"full": (36, 60), "tiny": (6, 12)}
AUDIT_DRAWS = {"full": 40, "tiny": 3}
SIMULATE_T = {"full": 25_000, "tiny": 500}

SWEEP_N_PRE = 9
SWEEP_TAU = 1e-8
SWEEP_SAMPLE = 24          # cells re-classified independently per check
AUDIT_FLAGGED = 124        # entries the audit flags for every valid draw
AUDIT_RESIDUAL_MAX = 1e-9
SIM_COLUMNS = ["t", "r", "y", "yhat", "pi", "c", "I", "i", "u",
               "Ey", "Eyhat", "Epi", "Eu", "JI", "fe"]
TAYLOR_ULPS = 64           # Taylor residual bound, in ulps of the path's largest term


@dataclass
class Spec:
    """One workload's generated inputs."""

    workload: str
    argv: list[str]            # nkji arguments, without --calib and --out
    calib: dict[str, float]
    items: int                 # work items one invocation finishes
    expect: dict               # what the output checks compare against

    def command(self, calib_path: Path, out_path: Path) -> list[str]:
        return self.argv + ["--calib", str(calib_path), "--out", str(out_path)]


def _calibration(rng: np.random.Generator) -> dict[str, float]:
    calib = dict(BASE_CALIB)
    for name, (lo, hi) in PERTURB.items():
        calib[name] = float(rng.uniform(lo, hi))
    return calib


def _nkji_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _sweep_spec(rng, size):
    n1, n2 = SWEEP_SIZE[size]
    n_invalid = n2 // 6
    calib = _calibration(rng)
    lo1, hi1 = float(rng.uniform(0.4, 0.6)), float(rng.uniform(2.3, 2.6))
    # rho_chi grid: the last n_invalid points sit at or above 1, the rest
    # below, each at least a tenth of a step away from 1
    step = 1.6 / n2
    lo2 = 1.0 - (n2 - n_invalid) * step + float(rng.uniform(0.1, 0.9)) * step
    hi2 = lo2 + (n2 - 1) * step
    grid1 = np.linspace(lo1, hi1, n1)
    grid2 = np.linspace(lo2, hi2, n2)
    beta = calib["beta"]
    invalid = sum(1 for a in grid1 for r in grid2
                  if abs(r) >= 1.0 or abs(1.0 - a * beta) <= 1e-10)
    argv = ["sweep", "--axis1", f"alpha_pi:{lo1!r}:{hi1!r}:{n1}",
            "--axis2", f"rho_chi:{lo2!r}:{hi2!r}:{n2}",
            "--n-pre", str(SWEEP_N_PRE), "--tol", repr(SWEEP_TAU),
            "--workers", "1"]
    return Spec("sweep-grid", argv, calib, n1 * n2,
                {"grid1": grid1, "grid2": grid2, "invalid": invalid,
                 "sample_seed": _nkji_seed(rng)})


def _audit_spec(rng, size):
    draws = AUDIT_DRAWS[size]
    calib = _calibration(rng)
    argv = ["audit", "--draws", str(draws), "--seed", str(_nkji_seed(rng)),
            "--workers", "1"]
    return Spec("audit-draws", argv, calib, draws, {"draws": draws})


def _simulate_spec(rng, size):
    T = SIMULATE_T[size]
    calib = _calibration(rng)
    argv = ["simulate", "--T", str(T), "--seed", str(_nkji_seed(rng))]
    return Spec("simulate-long", argv, calib, T, {"T": T})


def _counts_sum_to_9(row: list[str]) -> bool:
    try:
        return int(row[2]) + int(row[3]) + int(row[4]) == 9
    except ValueError:   # empty counts on a row that is not invalid
        return False


def check_sweep(text: str, spec: Spec) -> list[str]:
    from nkji.coeffs import compute_all
    from nkji.params import InvalidParams, validate
    from nkji.statespace import build, classify_standard, eigen

    lines = text.splitlines()
    if lines[:2] != ["# nkji sweep csv v1",
                     "alpha_pi,rho_chi,stable,unstable,borderline,verdict"]:
        return ["sweep: unexpected schema or header"]
    rows = [line.split(",") for line in lines[2:]]
    grid1, grid2 = spec.expect["grid1"], spec.expect["grid2"]
    errors = []
    if len(rows) != len(grid1) * len(grid2):
        return [f"sweep: {len(rows)} rows, expected {len(grid1) * len(grid2)}"]
    expected_axes = [(float(a), float(r)) for a in grid1 for r in grid2]
    if [(float(row[0]), float(row[1])) for row in rows] != expected_axes:
        errors.append("sweep: axis values differ from the grid")
    invalid = sum(row[5] == "invalid" for row in rows)
    if invalid != spec.expect["invalid"]:
        errors.append(f"sweep: {invalid} invalid cells, expected "
                      f"{spec.expect['invalid']}")
    valid = [row for row in rows if row[5] != "invalid"]
    bad_sum = sum(not _counts_sum_to_9(row) for row in valid)
    if bad_sum:
        errors.append(f"sweep: {bad_sum} valid rows whose counts do not sum to 9")
    rng = np.random.default_rng(spec.expect["sample_seed"])
    picks = rng.choice(len(valid), size=min(SWEEP_SAMPLE, len(valid)),
                       replace=False)
    for i in sorted(picks):
        row = valid[i]
        try:
            p = validate({**spec.calib, "alpha_pi": float(row[0]),
                          "rho_chi": float(row[1])})
        except InvalidParams:
            errors.append(f"sweep: cell ({row[0]}, {row[1]}) says {row[5]}, "
                          f"but its parameters are invalid")
            continue
        verdict = classify_standard(eigen(build(compute_all(p)).A),
                                    SWEEP_N_PRE, SWEEP_TAU)
        if verdict != row[5]:
            errors.append(f"sweep: cell ({row[0]}, {row[1]}) says {row[5]}, "
                          f"classify_standard says {verdict}")
    return errors


def check_audit(text: str, spec: Spec) -> list[str]:
    obj = json.loads(text)
    errors = []
    stab = obj.get("stability", {})
    if stab.get("draws") != spec.expect["draws"]:
        errors.append(f"audit: {stab.get('draws')} draws reported")
    if stab.get("identical_across_draws") is not True:
        errors.append("audit: flagged entries differ across draws")
    if len(stab.get("flagged_entries", ())) != AUDIT_FLAGGED:
        errors.append(f"audit: {len(stab.get('flagged_entries', ()))} entries "
                      f"flagged, expected {AUDIT_FLAGGED}")
    for name in ("pi[4]", "Eyhat[0]"):
        if obj["suspects"][name]["variant_confirmed"] is not True:
            errors.append(f"audit: suspect {name} not confirmed")
    worst = max(obj["residuals"]["oracle"].values())
    if not worst <= AUDIT_RESIDUAL_MAX:
        errors.append(f"audit: oracle residual maximum {worst!r} > "
                      f"{AUDIT_RESIDUAL_MAX}")
    return errors


def check_simulate(text: str, spec: Spec) -> list[str]:
    lines = text.splitlines()
    if lines[:2] != ["# nkji simulate csv v1", ",".join(SIM_COLUMNS)]:
        return ["simulate: unexpected schema or header"]
    T = spec.expect["T"]
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != T:
        return [f"simulate: {len(rows)} data rows, expected {T}"]
    if rows[-1][-1] != "":
        return ["simulate: final row carries a forecast error"]
    table = np.array([[float(x) for x in row[:-1]] for row in rows])
    col = {name: table[:, j] for j, name in enumerate(SIM_COLUMNS[:-1])}
    fe = np.array([float(row[-1]) for row in rows[:-1]])
    errors = []
    if not np.array_equal(col["t"], np.arange(T)):
        errors.append("simulate: t column is not 0..T-1")
    a_pi, a_y = spec.calib["alpha_pi"], spec.calib["alpha_y"]
    terms = (col["i"], a_pi * col["pi"], a_y * col["yhat"])
    scale = max(float(np.max(np.abs(x))) for x in terms)
    taylor = float(np.max(np.abs(terms[0] - terms[1] - terms[2])))
    if not taylor <= TAYLOR_ULPS * np.finfo(float).eps * scale:
        errors.append(f"simulate: Taylor-rule residual {taylor!r} above "
                      f"{TAYLOR_ULPS} ulps of the path scale {scale!r}")
    mismatched = int(np.sum(fe != col["y"][1:] - col["Ey"][:-1]))
    if mismatched:
        errors.append(f"simulate: fe[t] != y[t+1] - Ey[t] on {mismatched} rows")
    return errors


WORKLOADS = {
    "sweep-grid": (_sweep_spec, check_sweep),
    "audit-draws": (_audit_spec, check_audit),
    "simulate-long": (_simulate_spec, check_simulate),
}


def make_spec(workload: str, seed: int, size: str = "full") -> Spec:
    """The inputs for one run: the same seed gives the same inputs."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [seed % 2**63, sorted(WORKLOADS).index(workload)]))
    return WORKLOADS[workload][0](rng, size)


def check(text: str, spec: Spec) -> list[str]:
    return WORKLOADS[spec.workload][1](text, spec)

