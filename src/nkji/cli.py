"""Single command-line entry point.

Subcommands: coeffs, shocks, simulate, irf, transparency, determinacy,
sweep, audit.  Data goes to --out (or stdout), diagnostics to stderr.
Exit codes: 0 success, 2 validation/usage failure, 3 numerical failure.
Each ``cmd_*(args, p)`` returns a JSON object (a dict) or a CSV table
``(header, columns)`` for :func:`main` to encode and write.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import coeffs, oracle, shocks, sim, slots, statespace, text
from .params import InvalidParams, Violation, load_calibration, printable, validate
from .shocks import KINDS
from .statespace import ConvergenceFailure

SCHEMA = "v1"

#: most periods a command may draw: a float64 path of more has more bytes
#: than numpy can address, while one of fewer that does not fit in memory
#: fails to allocate (exit 3)
MAX_PERIODS = np.iinfo(np.intp).max // 8
#: most stability draws `audit --draws` takes, as many as a sweep's cells
AUDIT_MAX_DRAWS = 1_000_000


def _write(args, parts: Iterable[str]) -> None:
    """Write the text ``parts`` in order, as they are made, to stdout or to
    --out, through its symlinks.  A regular or new file there is replaced
    atomically, by a sibling temporary file renamed onto it, so a failed run
    leaves no partial file; a FIFO or a device is written straight through."""
    if not args.out:
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except OSError:
            # drop what stdout still buffers, so that its flush at exit cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise
        return
    target = os.path.realpath(args.out)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


#: CSV floats formatted at a time, which bounds the texts held at once
CSV_CHUNK = 8192


def _cells(chunk: Sequence) -> np.ndarray:
    """The text of each element of a part of a column, as a matrix of ASCII
    bytes with NUL bytes among them, one row per element."""
    chunk = (np.arange(chunk.start, chunk.stop, chunk.step) if isinstance(chunk, range)
             else np.asarray(chunk))
    if chunk.dtype.kind == "f":
        return text.floats(chunk)
    if chunk.dtype.kind == "i":
        return text.integers(chunk)
    fixed = chunk.astype("S")
    return fixed.view(np.uint8).reshape(len(fixed), fixed.itemsize)


def _csv(header: str, columns: dict[str, Sequence | Callable]) -> Iterator[str]:
    """CSV text in parts: a schema line and a header of the column names,
    then one row per position of the longest array or sequence, in parts of
    at most ``CSV_CHUNK`` floats.  A column is an array, a sequence, or a
    function from an array of a part's row numbers to its cells there.
    Floats are written as ``repr`` writes them and integers as ``str`` does
    (see :mod:`nkji.text`); the float arrays of a part are formatted together.
    Every position past the end of a shorter column is an empty cell.  A
    non-finite value in a float array is a numerical failure, raised before
    the first part."""
    batched = [isinstance(col, np.ndarray) and col.dtype.kind == "f" for col in columns.values()]
    if not all(np.isfinite(col).all() for col, in_batch in zip(columns.values(), batched)
               if in_batch):
        raise ConvergenceFailure("output is not finite")
    yield f"# nkji {header} csv {SCHEMA}\n{','.join(columns)}\n"
    separators = np.array([ord(",")] * (len(columns) - 1) + [ord("\n")], np.uint8)
    n = max(len(col) for col in columns.values() if not callable(col))
    step = CSV_CHUNK // max(1, sum(batched))
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        chunks = [col(rows) if callable(col) else col[start:start + step]
                  for col in columns.values()]
        floats = _cells(np.concatenate(
            [chunk for chunk, in_batch in zip(chunks, batched) if in_batch] or [np.empty(0)]))
        cells, used = [], 0
        for chunk, in_batch in zip(chunks, batched):
            cells.append(floats[used:used + len(chunk)] if in_batch else _cells(chunk))
            used += len(chunk) * in_batch
        # each cell ends at its separator; past the end of a shorter column,
        # and after the text in each cell, the row holds NULs, which go
        ends = np.cumsum([cell.shape[1] + 1 for cell in cells])
        row = np.zeros((len(rows), ends[-1]), np.uint8)
        row[:, ends - 1] = separators
        for cell, end in zip(cells, ends):
            row[:len(cell), end - 1 - cell.shape[1]:end - 1] = cell
        yield row.tobytes().translate(None, b"\0").decode()


def _json(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:   # JSON has no token for a non-finite float
        raise ConvergenceFailure("output is not finite") from None


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
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _assignment(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expects NAME=VALUE, got {text!r}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{printable(name)}: {value!r} is not a number") from None


def _axis(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"axis must be NAME:LO:HI:N, got {text!r}")
    name, lo, hi, n = parts
    try:
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"axis bounds/count malformed in {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"axis bounds must be finite in {text!r}")
    if not math.isfinite(hi - lo):   # the grid points would not be finite
        raise argparse.ArgumentTypeError(f"axis span overflows in {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"axis count must be >= 1 in {text!r}")
    return name, lo, hi, n


def _check_sizes(args) -> None:
    """Refuse a horizon beyond ``MAX_PERIODS``, where a command draws --T
    plus --burn periods, or --H; and more than ``AUDIT_MAX_DRAWS`` stability
    draws."""
    periods = sum(getattr(args, name, 0) for name in ("T", "burn", "H"))
    if periods > MAX_PERIODS:
        raise InvalidParams([Violation(
            "InvalidDomain", "<horizon>", f"{periods} periods, more than {MAX_PERIODS}")])
    if getattr(args, "draws", 0) > AUDIT_MAX_DRAWS:
        raise InvalidParams([Violation(
            "InvalidDomain", "<draws>", f"{args.draws} draws, more than {AUDIT_MAX_DRAWS}")])


def _load_params(args):
    calib = load_calibration(args.calib) if args.calib else {}
    return validate({**calib, **dict(args.param)})


def cmd_coeffs(args, p) -> dict | tuple[str, dict]:
    rf = coeffs.compute_all(p)
    if args.format == "json":
        return {var: {str(i): v for i, v in idx.items()} for var, idx in rf.as_table().items()}
    variable, index = zip(*slots.ENTRIES)
    return "coeffs", {"variable": variable, "index": index, "value": rf.exported()}


def cmd_shocks(args, p) -> tuple[str, dict]:
    path = shocks.draw(p, args.seed, args.T + args.burn)
    columns = {
        **{kind: path.innovation(kind) for kind in KINDS},
        "chi": path.state("chi"),
        "mu": path.state("mu"),
        "ybar": path.ybar,
        **{name: path.state(name) for name in ("g", "tax", "eps", "ubar")},
        "signal": shocks.signal(path, transparent=args.transparent),
    }
    return "shocks", {"t": range(args.T),
                      **{name: col[args.burn:] for name, col in columns.items()}}


def cmd_simulate(args, p) -> tuple[str, dict]:
    sim.check_budget_mode(p, args.budget)   # before the draw, which may be long
    path = shocks.draw(p, args.seed, args.T + args.burn)
    ep = sim.simulate(coeffs.compute_all(p), path, budget_mode=args.budget)
    return "simulate", {
        "t": range(args.T), **{v: ep[v][args.burn:] for v in sim.SERIES},
        # one row short: the final period has no realized forecast error
        "fe": ep.forecast_error[args.burn:]}


def cmd_irf(args, p) -> tuple[str, dict]:
    table = sim.irf(coeffs.compute_all(p), args.shock, args.H)
    names = (*sim.SERIES, *shocks.AR_STATES)
    variables = np.array(names, dtype="S")
    return "irf", {
        "h": lambda rows: rows % args.H,
        "variable": lambda rows: variables[rows // args.H],
        "response": np.concatenate([table[var] for var in names])}


def cmd_transparency(args, p) -> dict:
    return sim.transparency_audit(coeffs.compute_all(p))


def cmd_determinacy(args, p) -> dict:
    rep = statespace.report(coeffs.compute_all(p), tau=args.tol, n_pre=args.n_pre)
    return {
        "eigenvalues": [{"re": v.real, "im": v.imag, "modulus": abs(v)}
                        for v in rep.eigenvalues],
        "k": list(rep.k),
        "counts": rep.counts,
        "tau": args.tol,
        "rule": "stable-count-vs-predetermined",
        "verdicts": {str(n): v for n, v in rep.verdicts.items()},
    }


def cmd_sweep(args, p) -> tuple[str, dict]:
    result = statespace.sweep(p, args.axis1, args.axis2,
                              n_pre=args.n_pre, tau=args.tol, workers=args.workers)
    (name1, grid1), (name2, grid2) = result.axis1, result.axis2
    # each text is made once and repeated: a cell's counts are -1 (not
    # solved: an empty cell) to the system's order
    digits, verdicts = (np.array(texts, dtype="S") for texts in (
        ["", *map(str, range(statespace.ORDER + 1))], statespace.SWEEP_VERDICTS))
    counts = digits[result.counts + 1]
    return "sweep", {
        name1: np.repeat(grid1, len(grid2)), name2: np.tile(grid2, len(grid1)),
        "stable": counts[:, 0], "unstable": counts[:, 1], "borderline": counts[:, 2],
        "verdict": verdicts[result.verdicts]}


def cmd_audit(args, p) -> dict:
    rf_tables = coeffs.compute_all(p)
    rf_oracle = oracle.solve_undetermined(p)
    obj = oracle.compare(rf_tables, rf_oracle, tol=args.tol)
    path = shocks.draw(p, args.seed, args.T)
    obj["residuals"] = {"tables": oracle.residuals(sim.simulate(rf_tables, path)),
                        "oracle": oracle.residuals(sim.simulate(rf_oracle, path))}
    if args.draws > 0:
        first, stable = oracle.stability_run(args.draws, args.seed,
                                             tol=args.tol, workers=args.workers)
        obj["stability"] = {
            "draws": args.draws,
            "identical_across_draws": stable,
            "flagged_entries": sorted(f"{v}[{i}]" for v, i in first),
        }
    return obj


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nkji",
        description="Solve, simulate and stress-test a small rational-"
                    "expectations New Keynesian model with an information-"
                    "disclosure channel and job-insecurity dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    n_pres = range(statespace.ORDER + 1)   # 0 up to every state predetermined

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--calib", type=_path, metavar="PATH",
                        help="JSON calibration file (flat name -> number)")
        sp.add_argument("--param", type=_assignment, action="append", default=[],
                        metavar="NAME=VALUE",
                        help="override one parameter (repeatable)")
        sp.add_argument("--out", type=_path, metavar="PATH",
                        help="output path (default stdout)")
        return sp

    sp = command("coeffs", cmd_coeffs, "emit the reduced-form coefficient set")
    sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = command("shocks", cmd_shocks, "draw seeded innovations and AR states")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--T", type=_positive, default=100)
    sp.add_argument("--burn", type=_nonnegative, default=0,
                    help="periods drawn and discarded before t = 0")
    sp.add_argument("--transparent", action="store_true",
                    help="emit the noiseless signal column")

    sp = command("simulate", cmd_simulate, "equilibrium path along drawn shocks")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--T", type=_positive, default=100)
    sp.add_argument("--burn", type=_nonnegative, default=0)
    sp.add_argument("--budget", choices=("independent", "balanced"),
                    default="independent")

    sp = command("irf", cmd_irf, "impulse responses to one unit innovation")
    sp.add_argument("--shock", required=True, choices=KINDS, metavar="KIND",
                    help=f"one of {', '.join(KINDS)}")
    sp.add_argument("--H", type=_positive, default=40)

    command("transparency", cmd_transparency,
            "signs of the information-channel coefficients")

    sp = command("determinacy", cmd_determinacy,
                 "eigenvalues, characteristic coefficients, verdicts")
    sp.add_argument("--n-pre", type=int, choices=n_pres, default=None,
                    help=f"predetermined-variable count; omit for all 0..{statespace.ORDER}")
    sp.add_argument("--tol", type=_positive_float, default=1e-8,
                    help="borderline tolerance on |modulus - 1|")

    sp = command("sweep", cmd_sweep, "determinacy verdicts over a 2-D grid")
    sp.add_argument("--axis1", type=_axis, required=True, metavar="NAME:LO:HI:N")
    sp.add_argument("--axis2", type=_axis, required=True, metavar="NAME:LO:HI:N")
    sp.add_argument("--n-pre", type=int, choices=n_pres, default=statespace.ORDER)
    sp.add_argument("--tol", type=_positive_float, default=1e-8)
    sp.add_argument("--workers", type=_positive, default=1)

    sp = command("audit", cmd_audit,
                 "numerical re-solve, coefficient comparison, structural residuals")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--T", type=_positive, default=2000)
    sp.add_argument("--tol", type=_positive_float, default=1e-6)
    sp.add_argument("--draws", type=_nonnegative, default=0,
                    help="also run a stability check over this many random "
                         "parameterizations")
    sp.add_argument("--workers", type=_positive, default=1,
                    help="worker processes for the stability check")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_sizes(args)
        # a non-finite result ends in exit 3 (see ``_csv``, ``_json``),
        # not in numpy warnings
        with np.errstate(all="ignore"):
            doc = args.run(args, _load_params(args))
            try:
                _write(args, [_json(doc)] if isinstance(doc, dict) else _csv(*doc))
            except OSError as err:
                print(f"nkji: cannot write output: {printable(args.out or '<stdout>')}: "
                      f"{err.strerror or err}", file=sys.stderr)
                return 2
        return 0
    except (InvalidParams, OSError, json.JSONDecodeError, UnicodeDecodeError) as err:
        print(f"nkji: invalid input: {err}", file=sys.stderr)
        return 2
    except (ConvergenceFailure, OverflowError, MemoryError) as err:
        print(f"nkji: numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
