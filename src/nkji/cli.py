"""Single command-line entry point.

Subcommands: coeffs, shocks, simulate, irf, transparency, determinacy,
sweep, audit.  Data goes to --out (or stdout), diagnostics to stderr.
Exit codes: 0 success, 2 validation/usage failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import coeffs, oracle, shocks, sim, slots, statespace
from .params import InvalidParams, load_calibration, validate
from .shocks import KINDS
from .sim import BudgetModeConflict
from .statespace import ConvergenceFailure, UnknownParameter

SCHEMA = "v1"


def _fmt(x) -> str:
    """Full round-trip precision for floats; empty cell for None."""
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))   # builtin repr: shortest exact round-trip
    return str(x)


def _write(args, text: str) -> None:
    """Write ``text`` to stdout, or atomically to --out: a sibling
    temporary file renamed onto it, so a failed run leaves no partial file."""
    if not args.out:
        sys.stdout.write(text)
        return
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, args.out)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _csv(header: str, columns: list[str], rows) -> str:
    lines = [f"# nkji {header} csv {SCHEMA}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _add_param_opts(sp) -> None:
    sp.add_argument("--calib", metavar="PATH",
                    help="JSON calibration file (flat name -> number)")
    sp.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                    help="override one parameter (repeatable)")


def _add_out_opts(sp, formats: tuple[str, ...]) -> None:
    sp.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    sp.add_argument("--format", choices=formats, default=formats[0])


def _load_params(args, parser):
    raw = dict(load_calibration(args.calib)) if args.calib else {}
    for item in args.param:
        name, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--param expects NAME=VALUE, got {item!r}")
        try:
            raw[name] = float(value)
        except ValueError:
            parser.error(f"--param {name}: {value!r} is not a number")
    return validate(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nkji",
        description="Solve, simulate and stress-test a small rational-"
                    "expectations New Keynesian model with an information-"
                    "disclosure channel and job-insecurity dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="emit the reduced-form coefficient set")
    _add_param_opts(sp)
    _add_out_opts(sp, ("json", "csv"))

    sp = sub.add_parser("shocks", help="draw seeded innovations and AR states")
    _add_param_opts(sp)
    _add_out_opts(sp, ("csv",))
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--T", type=_positive, default=100)
    sp.add_argument("--burn", type=_nonnegative, default=0,
                    help="periods drawn and discarded before t = 0")
    sp.add_argument("--transparent", action="store_true",
                    help="emit the noiseless signal column")

    sp = sub.add_parser("simulate", help="equilibrium path along drawn shocks")
    _add_param_opts(sp)
    _add_out_opts(sp, ("csv",))
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--T", type=_positive, default=100)
    sp.add_argument("--burn", type=_nonnegative, default=0)
    sp.add_argument("--budget", choices=("independent", "balanced"),
                    default="independent")

    sp = sub.add_parser("irf", help="impulse responses to one unit innovation")
    _add_param_opts(sp)
    _add_out_opts(sp, ("csv",))
    sp.add_argument("--shock", required=True, choices=KINDS, metavar="KIND",
                    help=f"one of {', '.join(KINDS)}")
    sp.add_argument("--H", type=_positive, default=40)

    sp = sub.add_parser("transparency",
                        help="signs of the information-channel coefficients")
    _add_param_opts(sp)
    _add_out_opts(sp, ("json",))

    sp = sub.add_parser("determinacy",
                        help="eigenvalues, characteristic coefficients, verdicts")
    _add_param_opts(sp)
    _add_out_opts(sp, ("json",))
    sp.add_argument("--n-pre", type=int, choices=range(10), default=None,
                    help="predetermined-variable count; omit for all 0..9")
    sp.add_argument("--tol", type=_positive_float, default=1e-8,
                    help="borderline tolerance on |modulus - 1|")

    sp = sub.add_parser("sweep", help="determinacy verdicts over a 2-D grid")
    _add_param_opts(sp)
    _add_out_opts(sp, ("csv",))
    sp.add_argument("--axis1", required=True, metavar="NAME:LO:HI:N")
    sp.add_argument("--axis2", required=True, metavar="NAME:LO:HI:N")
    sp.add_argument("--n-pre", type=int, choices=range(10), default=9)
    sp.add_argument("--tol", type=_positive_float, default=1e-8)
    sp.add_argument("--workers", type=_positive, default=1)

    sp = sub.add_parser("audit",
                        help="numerical re-solve, coefficient comparison, "
                             "structural residuals")
    _add_param_opts(sp)
    _add_out_opts(sp, ("json",))
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--T", type=_positive, default=2000)
    sp.add_argument("--tol", type=_positive_float, default=1e-6)
    sp.add_argument("--draws", type=_nonnegative, default=0,
                    help="also run a stability check over this many random "
                         "parameterizations")
    sp.add_argument("--workers", type=_positive, default=1,
                    help="worker processes for the stability check")
    return parser


def _parse_axis(text: str, parser) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        parser.error(f"axis must be NAME:LO:HI:N, got {text!r}")
    name, lo, hi, n = parts
    try:
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        parser.error(f"axis bounds/count malformed in {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        parser.error(f"axis bounds must be finite in {text!r}")
    if n < 1:
        parser.error(f"axis count must be >= 1 in {text!r}")
    return name, lo, hi, n


def cmd_coeffs(args, parser) -> int:
    rf = coeffs.compute_all(_load_params(args, parser))
    table = rf.as_table()
    if args.format == "json":
        obj = {var: {str(i): v for i, v in idx.items()} for var, idx in table.items()}
        _write(args, _json(obj))
    else:
        rows = [(var, i, table[var][i])
                for var in slots.VARIABLES for i in sorted(table[var])]
        _write(args, _csv("coeffs", ["variable", "index", "value"], rows))
    return 0


def cmd_shocks(args, parser) -> int:
    p = _load_params(args, parser)
    burn = args.burn
    path = shocks.draw(p, args.seed, args.T + burn)
    sig = shocks.signal(path, transparent=args.transparent)
    cols = ["t", "omega", "eta", "L", "lambda", "xi", "v", "sigma_cp",
            "T_natu", "Xi", "chi", "mu", "ybar", "g", "tax", "eps", "ubar",
            "signal"]
    rows = []
    for t in range(burn, path.T):
        rows.append([t - burn]
                    + [path.innovation(k)[t] for k in KINDS]
                    + [path.state(s)[t] for s in ("chi", "mu")]
                    + [path.ybar[t]]
                    + [path.state(s)[t] for s in ("g", "tax", "eps", "ubar")]
                    + [sig[t]])
    _write(args, _csv("shocks", cols, rows))
    return 0


def cmd_simulate(args, parser) -> int:
    p = _load_params(args, parser)
    rf = coeffs.compute_all(p)
    burn = args.burn
    path = shocks.draw(p, args.seed, args.T + burn)
    ep = sim.simulate(rf, path, budget_mode=args.budget)
    cols = ["t"] + list(sim.SERIES) + ["fe"]
    rows = []
    for t in range(burn, ep.T):
        fe = ep.forecast_error[t] if t < ep.T - 1 else None
        rows.append([t - burn] + [ep[v][t] for v in sim.SERIES] + [fe])
    _write(args, _csv("simulate", cols, rows))
    return 0


def cmd_irf(args, parser) -> int:
    p = _load_params(args, parser)
    rf = coeffs.compute_all(p)
    table = sim.irf(rf, args.shock, args.H)
    names = list(sim.SERIES) + list(shocks.AR_STATES)
    rows = [(h, var, table[var][h]) for var in names for h in range(args.H)]
    _write(args, _csv("irf", ["h", "variable", "response"], rows))
    return 0


def cmd_transparency(args, parser) -> int:
    rf = coeffs.compute_all(_load_params(args, parser))
    audit = sim.transparency_audit(rf)
    _write(args, _json(audit.entries))
    return 0


def cmd_determinacy(args, parser) -> int:
    rf = coeffs.compute_all(_load_params(args, parser))
    rep = statespace.report(rf, tau=args.tol, n_pre=args.n_pre)
    obj = {
        "eigenvalues": [{"re": v.real, "im": v.imag, "modulus": abs(v)}
                        for v in rep.eigenvalues],
        "k": list(rep.k),
        "counts": rep.counts(),
        "tau": rep.tau,
        "rule": rep.rule,
        "verdicts": {str(n): v for n, v in rep.verdicts.items()},
    }
    _write(args, _json(obj))
    return 0


def cmd_sweep(args, parser) -> int:
    p = _load_params(args, parser)
    axis1 = _parse_axis(args.axis1, parser)
    axis2 = _parse_axis(args.axis2, parser)
    result = statespace.sweep(p, axis1, axis2, n_pre=args.n_pre,
                              tau=args.tol, workers=args.workers)
    name1, name2 = axis1[0], axis2[0]
    rows = [(c[name1], c[name2], c["stable"], c["unstable"], c["borderline"],
             c["verdict"]) for c in result.cells]
    _write(args, _csv("sweep", [name1, name2, "stable", "unstable",
                                "borderline", "verdict"], rows))
    return 0


def cmd_audit(args, parser) -> int:
    p = _load_params(args, parser)
    rf_tables = coeffs.compute_all(p)
    rf_oracle = oracle.solve_undetermined(p)
    report = oracle.compare(rf_tables, rf_oracle, tol=args.tol)
    path = shocks.draw(p, args.seed, args.T)
    res_tables = oracle.residuals(sim.simulate(rf_tables, path))
    res_oracle = oracle.residuals(sim.simulate(rf_oracle, path))
    obj = {
        "condition_number": report.condition_number,
        "condition_warning": report.condition_warning,
        "errata": [{"variable": e.variable, "index": e.index,
                    "table": e.table_value, "oracle": e.oracle_value,
                    "rel_diff": e.rel_diff, "note": e.note}
                   for e in report.entries],
        "suspects": report.suspects,
        "residuals": {"tables": res_tables.max_abs, "oracle": res_oracle.max_abs},
    }
    if args.draws > 0:
        first, stable, _ = oracle.stability_run(args.draws, args.seed,
                                                tol=args.tol, workers=args.workers)
        obj["stability"] = {
            "draws": args.draws,
            "identical_across_draws": stable,
            "flagged_entries": sorted(f"{v}[{i}]" for v, i in first),
        }
    _write(args, _json(obj))
    return 0


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "shocks": cmd_shocks,
    "simulate": cmd_simulate,
    "irf": cmd_irf,
    "transparency": cmd_transparency,
    "determinacy": cmd_determinacy,
    "sweep": cmd_sweep,
    "audit": cmd_audit,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="nkji: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (InvalidParams, BudgetModeConflict, UnknownParameter,
            shocks.UnknownShockKind, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as err:
        print(f"nkji: invalid input: {err}", file=sys.stderr)
        return 2
    except (oracle.SingularSystem, oracle.AnsatzInconsistent,
            ConvergenceFailure) as err:
        print(f"nkji: numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
