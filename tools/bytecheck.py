"""Record the bytes of a fixed list of CLI runs, to compare two source trees.

    PYTHONPATH=<tree>/src python3 tools/bytecheck.py OUTDIR

Runs every command of ``COMMANDS`` as ``python -m nkji.cli`` in a fresh
process and writes, for command number n, its stdout to ``OUTDIR/<n>.out``,
its stderr to ``OUTDIR/<n>.err`` and its exit code to ``OUTDIR/<n>.code``;
``OUTDIR/commands.txt`` lists the commands by number.  Run it once per
source tree and compare the two directories with ``diff -r``: a change that
keeps the CLI's behaviour leaves no difference.

``OUTDIR/digests.json`` holds every command's exit code and the sha256 of
its stdout and stderr, with what :func:`versions` gives.
``tests/test_bytecheck.py`` runs the commands in-process against the copy
in ``tests/bytecheck_digests.json``; a change that means to move bytes
copies the new file there.  ``KERNEL_STREAMS`` marks the streams it
compares only on the build that recorded that copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nkji.shocks import KINDS

#: parameterizations every subcommand runs at; ``p2`` also breaks the
#: ``rho_g == rho_tax`` condition of ``--budget balanced``
PARAMS = {
    "default": [],
    "p1": ["--param", "alpha_pi=0.8", "--param", "theta=0.7",
           "--param", "rho_chi=0.5", "--param", "c1=0.4"],
    "p2": ["--param", "sigma=2", "--param", "k=0.05", "--param", "rho_g=0.6",
           "--param", "sd_noise=0.3"],
}

PER_PARAMS = (
    ["coeffs"],
    ["coeffs", "--format", "csv"],
    ["shocks", "--seed", "5", "--T", "30"],
    ["shocks", "--seed", "5", "--T", "30", "--burn", "3", "--transparent"],
    ["simulate", "--seed", "5", "--T", "30"],
    ["simulate", "--seed", "9", "--T", "30", "--burn", "4"],
    ["simulate", "--T", "20", "--budget", "balanced"],
    ["irf", "--shock", "lambda", "--H", "12"],
    ["transparency"],
    ["determinacy"],
    ["determinacy", "--n-pre", "4", "--tol", "1e-6"],
    ["sweep", "--axis1", "alpha_pi:0.5:2.5:6", "--axis2", "alpha_y:0:1:5"],
    ["audit", "--T", "200"],
)

SINGLE = (
    *(["irf", "--shock", kind, "--H", "12"] for kind in KINDS),
    *(["sweep", "--axis1", "alpha_pi:0.5:2.5:7", "--axis2", "rho_chi:0:0.99:6",
       "--workers", w] for w in ("1", "2")),
    *(["audit", "--T", "100", "--draws", "6", "--seed", "3", "--workers", w]
      for w in ("1", "2")),
    # one stability draw more than an array pass holds, over one and three
    # worker processes
    *(["audit", "--T", "100", "--draws", "7", "--seed", "3", "--workers", w]
      for w in ("1", "3")),
    ["audit", "--T", "100", "--draws", "5", "--param", "theta=0"],
    # two full array passes of 20 draws and a short one, over one and two
    # worker processes
    *(["audit", "--T", "100", "--draws", "43", "--seed", "5", "--workers", w]
      for w in ("1", "2")),
    # ten array passes of 20 draws, each certified nonsingular by the
    # screen, over one and two worker processes
    *(["audit", "--T", "100", "--draws", "200", "--seed", "11", "--workers", w]
      for w in ("1", "2")),
    # the powers of the persistences, and a row longer than one array pass
    ["sweep", "--axis1", "rho_ybar:-0.99:0.99:9", "--axis2", "rho_g:-0.99:0.99:11"],
    ["sweep", "--axis1", "alpha_pi:1.2:1.2:1", "--axis2", "rho_chi:-1.1:1.1:300"],
    # array passes across row ends: a one-column grid, and three passes
    # whose edges fall inside rows, over one and two worker processes
    *(["sweep", "--axis1", "rho_chi:-1.1:1.1:300", "--axis2", "alpha_pi:1.2:1.2:1",
       "--workers", w] for w in ("1", "2")),
    *(["sweep", "--axis1", "alpha_pi:0.5:2.5:23", "--axis2", "rho_chi:0:1.1:25",
       "--workers", w] for w in ("1", "2")),
    # hard cells for the census and its eigen fallback: rho_chi up to
    # 1 - 1e-9 on both signs, the drift and spending persistences near +-1
    # at several predetermined counts, a modulus crossing the unit circle
    # inside the borderline band (rho_ybar near 0.41578425 and 0.69246222),
    # and the Taylor denominator 1 - alpha_pi*beta through zero
    # (beta = 0.99).  The census certifies every cell of the rho_chi and
    # borderline-band grids; some cells of the persistence and Taylor grids
    # reach the eigen-solve
    ["sweep", "--axis1", "rho_chi:0.9999999:0.999999999:9", "--axis2", "alpha_pi:1.2:1.8:3"],
    ["sweep", "--axis1", "rho_chi:-0.999999999:-0.9999999:9", "--axis2", "alpha_pi:1.2:1.8:3",
     "--tol", "1e-9"],
    *(["sweep", "--axis1", "rho_ybar:-0.99999999:0.99999999:7",
       "--axis2", "rho_g:-0.99999999:0.99999999:7", "--n-pre", n] for n in ("3", "6", "8")),
    ["sweep", "--axis1", "rho_ybar:0.4157842038:0.4157843038:21", "--axis2", "theta:0.5:0.5:1"],
    ["sweep", "--axis1", "rho_ybar:0.6924617233:0.6924627233:21", "--axis2", "theta:0.5:0.5:1",
     "--tol", "1e-6"],
    ["sweep", "--axis1", "alpha_pi:1.0101:1.0102:21", "--axis2", "rho_chi:0.1:0.9:3"],
    ["sweep", "--axis1", "alpha_pi:1.01010091:1.01010111:21", "--axis2", "rho_chi:0.1:0.9:3"],
    # extreme values: failed sweep cells, overflow, non-finite spectra
    ["sweep", "--axis1", "sigma:1e-300:1e300:5", "--axis2", "k:0:1e308:5"],
    ["sweep", "--axis1", "c1:0.5:1e300:3", "--axis2", "k:0:1:2"],
    ["coeffs", "--param", "c1=1e300"],
    ["coeffs", "--param", "s1=1e300"],
    ["sweep", "--axis1", "c0:0:1e308:5", "--axis2", "s0:-0.1:0.1:3"],
    ["coeffs", "--param", "k=1e308"],
    ["transparency", "--param", "k=1e308"],
    ["simulate", "--T", "3", "--param", "k=1e308"],
    ["shocks", "--T", "3", "--param", "sd_omega=1e308"],
    # a horizon whose paths cannot be allocated
    ["shocks", "--T", "100000000000000000"],
    # horizons beyond what a float64 path can hold
    ["shocks", "--T", "99999999999999999999999"],
    ["irf", "--shock", "lambda", "--H", "99999999999999999999999"],
    ["simulate", "--T", "3", "--burn", "9999999999999999999"],
    ["audit", "--T", "99999999999999999999999"],
    ["determinacy", "--param", "k=1e40"],
    ["determinacy", "--param", "k=1e160"],
    ["audit", "--param", "c1=0.5", "--param", "s2=0.1", "--param", "gamma2=0.4",
     "--param", "s1=0.625"],
    # the documented exception: valid, finite closed forms, singular audit
    ["coeffs", "--param", "s2=0", "--param", "gamma2=0"],
    ["audit", "--T", "100", "--param", "s2=0", "--param", "gamma2=0"],
    # the audit at a domain boundary (theta = 0: 104 entries flagged) and
    # where all 124 frozen entries differ
    ["audit", "--T", "100", "--param", "theta=0"],
    ["audit", "--T", "100", "--param", "c0=0.2", "--param", "s0=-0.1"],
    # signed zeros in the transition matrix: theta = 0 prints -0.0 entries
    # and eigenvalues, here also with negative persistences
    ["determinacy", "--param", "theta=0"],
    ["determinacy", "--param", "theta=0", "--param", "rho_ybar=-0.5", "--param", "rho_g=-0.7"],
    ["sweep", "--axis1", "theta:0:0:1", "--axis2", "rho_ybar:-0.99:0.99:41"],
    # invalid input
    ["sweep", "--axis1", "k:0:1:3", "--axis2", "k:2:3:2"],
    ["sweep", "--axis1", "nosuch:0:1:3", "--axis2", "k:0:1:2"],
    ["sweep", "--axis1", "alpha_pi:0.5:2.5", "--axis2", "alpha_y:0:1:4"],
    ["sweep", "--axis1", "alpha_pi:a:2:3", "--axis2", "alpha_y:0:1:4"],
    ["sweep", "--axis1", "alpha_pi:0.5:inf:3", "--axis2", "alpha_y:0:1:4"],
    ["sweep", "--axis1", "s0:-1e308:1e308:3", "--axis2", "alpha_y:0:1:4"],
    ["sweep", "--axis1", "alpha_pi:0.5:2:0", "--axis2", "alpha_y:0:1:4"],
    ["coeffs", "--param", "sigma"],
    ["coeffs", "--param", "sigma=abc"],
    ["coeffs", "--param", "nosuch=1"],
    ["coeffs", "--param", "rho_chi=1.0"],
    ["coeffs", "--format", "xml"],
    ["simulate", "--format", "csv"],
    ["determinacy", "--format", "json"],
    ["simulate", "--T", "0"],
    ["shocks", "--seed", "-1"],
    ["irf", "--shock", "zeta"],
    ["determinacy", "--n-pre", "12"],
    ["audit", "--tol", "0"],
    ["frobnicate"],
    ["sweep", "--axis1", "k:0:1:99999999999999999999999", "--axis2", "s0:0:1:2"],
    ["coeffs", "--param", "\r=0"],
    ["sweep", "--axis1", "no\x1bsuch:0:1:3", "--axis2", "k:0:1:2"],
    # a matrix the 9 x 9 eigen route falsely fails and the rank-6 route
    # solves, through determinacy; the sweep's census certifies its count
    # without eigenvalues
    ["determinacy", "--param", "sigma=1e-40"],
    ["sweep", "--axis1", "sigma:1e-40:1e-40:1", "--axis2", "k:0.3:0.3:1"],
    # non-finite matching blocks: LAPACK must not write to stdout
    ["audit", "--T", "10", "--param", "sigma=5e-324"],
    # CSV longer than one formatting part (8192 floats: 585 rows of simulate,
    # 481 of shocks)
    ["simulate", "--seed", "5", "--T", "2500", "--burn", "7"],
    ["shocks", "--seed", "5", "--T", "2100", "--burn", "3", "--transparent"],
    ["irf", "--shock", "lambda", "--H", "60"],
    ["coeffs", "--format", "csv", "--param", "theta=0"],
    # a first non-finite cell past the first chunk: nothing is written
    ["shocks", "--seed", "0", "--T", "4000", "--param", "sd_omega=1.2e304",
     "--param", "rho_ybar=0.999"],
    # every sweep verdict, and every digit in the count columns
    ["sweep", "--axis1", "rho_ybar:-1.2:1.2:13", "--axis2", "sigma:0.5:1e300:2",
     "--n-pre", "8", "--tol", "0.3"],
    # a double root at 1 - 1e-6, closer to the unit circle than rounding
    # A's entries moves it: determinacy and the sweep give the same counts
    *([*argv, "--n-pre", "8",
       *(arg for pair in ("sigma=5e-324", "beta=0.5", "s1=0.5", "gamma1=-1",
                          "rho_ybar=0.999999", "rho_g=0.999999", "alpha_y=0", "c3=0",
                          "s3=0", "gamma3=0", "rho_chi=0", "k=0", "alpha_pi=0")
         for arg in ("--param", pair))]
      for argv in (["determinacy"],
                   ["sweep", "--axis1", "alpha_pi:0:0:1", "--axis2", "k:0:0:1"])),
    # write failures: a missing directory, and a directory as the target
    ["coeffs", "--out", "/nonexistent-nkji-dir/x.json"],
    ["coeffs", "--out", "/"],
    # an empty path is refused, and a calibration file that does not exist
    ["coeffs", "--calib", ""],
    ["coeffs", "--out", ""],
    ["coeffs", "--calib", "/nonexistent-nkji-dir/c.json"],
    # a valid parameterization the audit's matching system reads as
    # singular: phi1 enters only its right-hand side
    ["audit", "--T", "10", "--param", "phi1=1e16"],
    # both sweep axes unknown: each is named
    ["sweep", "--axis1", "nosuch:0:1:3", "--axis2", "other:0:1:2"],
    # a near-zero persistence: an accurate spectrum that the eigenpair
    # residual check rejects (ROADMAP item 11)
    ["determinacy", "--param", "rho_ybar=1e-5"],
    # a report that only the 9 x 9 retry solves: its counts 4 / 5 are not
    # a 40-digit solve's 7 / 2 (ROADMAP items 2 and 10)
    ["determinacy", "--param", "k=1e12"],
    # responses that decay through 3-digit exponents to subnormals and to
    # exact zeros
    ["irf", "--shock", "lambda", "--H", "340", "--param", "rho_chi=0.1"],
    # near-zero drift persistences: the census certifies the counts 8 / 1
    # that the eigen-solve rejects (ROADMAP item 11)
    ["sweep", "--axis1", "rho_ybar:-1e-5:1e-5:3", "--axis2", "rho_g:0.8:0.8:1"],
    # counts the census cannot certify: every cell goes to the eigen-solve.
    # From k = 1e12 on, those counts move with the CPU's BLAS kernels
    ["sweep", "--axis1", "k:1e9:1e11:3", "--axis2", "alpha_pi:1.2:1.8:2"],
    # characteristic coefficients that overflow where the eigen-solve
    # passes: a numerical failure
    ["determinacy", "--param", "sigma=1e100"],
    # help and usage texts: the top level and each subcommand's help, a
    # missing subcommand, missing required options and a missing value
    ["-h"],
    *([command, "-h"] for command in ("coeffs", "shocks", "simulate", "irf", "transparency",
                                      "determinacy", "sweep", "audit")),
    [],
    ["sweep"],
    ["audit", "--draws"],
)

# every determinacy command takes its eigenvalues from the eigen-solve
# (statespace._solved); of the sweep commands, only numbers 59, 67-69,
# 72-74, 97, 129, 131 and 143 have cells the census leaves to it, so only
# they guard its bytes in the sweep
COMMANDS = (*(argv + opts for opts in PARAMS.values() for argv in PER_PARAMS),
            *SINGLE)

#: the streams of each subcommand whose bytes can move with the CPU's BLAS
#: kernels, as found by running this tool under two ``OPENBLAS_CORETYPE``
#: values and comparing with ``diff -r``; no exit code moved, and the
#: other subcommands' streams did not either
KERNEL_STREAMS = {"audit": ("stdout",), "determinacy": ("stdout",), "simulate": ("stdout",)}


def versions() -> dict[str, str]:
    """The numpy and BLAS builds that the float digits of an output depend
    on, and the sha256 of a few BLAS and LAPACK results, which also moves
    with the CPU's kernels.  Like every output, none of these results moves
    with the BLAS thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # numpy before 1.26 prints its config only
        blas = "unknown"
    rng = np.random.default_rng(0)
    R, M, stack = (rng.standard_normal(shape) for shape in ((5000, 16), (16, 12), (64, 9, 9)))
    results = (R @ M, np.linalg.eig(stack)[0], np.linalg.svd(stack, compute_uv=False))
    kernels = hashlib.sha256(b"".join(np.ascontiguousarray(x).tobytes() for x in results))
    return {"numpy": np.__version__, "blas": blas, "kernels": kernels.hexdigest()}


def digest(argv: list[str], code: int, stdout: bytes, stderr: bytes) -> dict:
    return {"argv": list(argv), "code": code,
            "stdout": hashlib.sha256(stdout).hexdigest(),
            "stderr": hashlib.sha256(stderr).hexdigest()}


def main(outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    # argparse wraps its usage lines to the terminal width
    env = {**os.environ, "COLUMNS": "80"}
    listing, digests = [], []
    for n, argv in enumerate(COMMANDS):
        proc = subprocess.run([sys.executable, "-m", "nkji.cli", *argv],
                              capture_output=True, env=env, timeout=600)
        (out / f"{n}.out").write_bytes(proc.stdout)
        (out / f"{n}.err").write_bytes(proc.stderr)
        (out / f"{n}.code").write_text(f"{proc.returncode}\n")
        listing.append(f"{n} {' '.join(argv)}\n")
        digests.append(digest(argv, proc.returncode, proc.stdout, proc.stderr))
    (out / "commands.txt").write_text("".join(listing))
    # one command a line, so that a diff of two files names the moved ones
    lines = ",\n".join(f"  {json.dumps(d)}" for d in digests)
    (out / "digests.json").write_text(
        f'{json.dumps(versions())[:-1]}, "commands": [\n{lines}\n]}}\n')
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
