"""nkji benchmark: whole CLI runs, end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Each workload invocation is a fresh ``python3 perfbench/child.py``
process running one ``nkji`` subcommand with ``--workers 1``, one client in
a closed loop, for ``--seconds``.  BLAS and OpenMP are pinned to one thread.

``--trace 0`` reports the end-to-end metrics, measured on untraced
invocations only:

* ``setup_s``      median time to import nkji and build the CLI parser
                   (the first invocation, which compiles the bytecode
                   cache, is left out)
* ``items_per_s``  median work items per second of the ``cli.main`` call
* ``peak_rss_mb``  median peak resident memory of the invocation process

Both timings are stated at a fixed machine speed.  Shared machines change
speed for tens of seconds to minutes at a time, by up to half, which is
longer than a run.  So each process also times a fixed reference task
(``child.reference_s``), right after its setup and right after its
``cli.main`` call.  With ``ref`` the mean of the two, a setup time is
scaled by ``REF_S / ref`` and a rate by ``ref / REF_S``.  Each is then
what it would have been on a machine where the reference task takes
``REF_S``.  The raw
values are printed as the ``raw_setup_s`` and ``raw_items_per_s`` samples.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics (see ``child.TRACED``) of the median traced invocation,
with ``trace.overhead_s`` the median traced minus the median untraced
``cli.main`` time.  Where the tracing cost is below the run-to-run noise
(``simulate-long``) that difference can come out at or below 0 and says
nothing about tracing.

Every invocation is checked: exit code 0, the workload's output checks,
and an output SHA-256 equal to that of the run's first invocation, which is
untraced.  Every run has at least one traced invocation, so traced and
untraced outputs are always compared.  A failed invocation counts in
``failed``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import child
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

#: BLAS/OpenMP threads per invocation; one client on one core, never more
#: than the machine has
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_INVOCATIONS = 3        # untraced invocations per run, however short
#: reference-task time at the nominal machine speed ``items_per_s`` is
#: stated at (its typical time on a 2-core x86_64 VM with numpy 2.4)
REF_S = 0.08
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"{mod}.{fn}.self_s": "s" for mod, fn, _ in child.TRACED},
    "params.validate.calls": "count",
    "params.validate.rejected": "count",
    "coeffs.compute_all.calls": "count",
    "statespace.eigen.calls": "count",
    "statespace.eigen.failed": "count",
    "statespace.sweep.invalid_cells": "count",
    "statespace.sweep.borderline_cells": "count",
    "shocks.draw.calls": "count",
    "shocks.draw.periods": "count",
    "oracle.random_params.accept_ratio": "ratio",
    "oracle.solve_undetermined.calls": "count",
    "oracle.solve_undetermined.cond_max": "1",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times of one traced invocation.  A span's
    self time is its duration minus the durations of its child spans (the
    program is single-threaded, so children never overlap)."""
    by_id = {s["id"]: s for s in spans}
    nested = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            nested[s["parent"]] += s["t1"] - s["t0"]
    self_s = defaultdict(float)
    calls, failed = Counter(), Counter()
    for s in spans:
        self_s[s["name"]] += (s["t1"] - s["t0"]) - nested[s["id"]]
        calls[s["name"]] += 1
        failed[s["name"]] += "error" in s

    def total(name, attr):
        return sum(s.get(attr, 0) for s in spans if s["name"] == name)

    roots = [s for s in spans if s["parent"] is None]
    validate_in_draws = sum(
        1 for s in spans if s["name"] == "params.validate"
        and s["parent"] is not None
        and by_id[s["parent"]]["name"] == "oracle.random_params")
    conds = [s["cond"] for s in spans if "cond" in s]
    return {
        **{f"{mod}.{fn}.self_s": self_s[f"{mod}.{fn}"]
           for mod, fn, _ in child.TRACED},
        "params.validate.calls": calls["params.validate"],
        "params.validate.rejected": sum(
            1 for s in spans if s["name"] == "params.validate"
            and s.get("error") == "InvalidParams"),
        "coeffs.compute_all.calls": calls["coeffs.compute_all"],
        "statespace.eigen.calls": calls["statespace.eigen"],
        "statespace.eigen.failed": failed["statespace.eigen"],
        "statespace.sweep.invalid_cells": total("statespace.sweep", "invalid"),
        "statespace.sweep.borderline_cells": total("statespace.sweep", "borderline"),
        "shocks.draw.calls": calls["shocks.draw"],
        "shocks.draw.periods": total("shocks.draw", "periods"),
        "oracle.random_params.accept_ratio": (
            calls["oracle.random_params"] / validate_in_draws
            if validate_in_draws else 0.0),
        "oracle.solve_undetermined.calls": calls["oracle.solve_undetermined"],
        "oracle.solve_undetermined.cond_max": max(conds, default=0.0),
        "trace.wall_s": sum(s["t1"] - s["t0"] for s in roots),
    }


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "seed": seed,
    }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Run:
    """One benchmark run: the invocations of one workload at one seed."""

    def __init__(self, spec: workloads.Spec, workdir: Path):
        self.spec = spec
        self.workdir = workdir
        self.calib = workdir / "calib.json"
        self.calib.write_text(json.dumps(spec.calib, sort_keys=True))
        self.env = {**os.environ, "PYTHONPATH": str(SRC),
                    **{var: str(THREADS) for var in THREAD_VARS}}
        self.count = 0
        self.first_digest: str | None = None   # sha256 of the first output
        self.check_errors: list[str] = []      # content checks of that output
        self.output_bytes = 0

    def _child(self, args: list[str]) -> tuple[dict | None, str]:
        proc = subprocess.run([sys.executable, str(CHILD), *args],
                              cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        return result, proc.stderr.strip()

    def invoke(self, traced: bool) -> dict:
        """One checked invocation; ``errors`` is empty when it succeeded."""
        self.count += 1
        out = self.workdir / f"out-{self.count}"
        spans_path = self.workdir / f"spans-{self.count}.jsonl"
        args = (["--spans", str(spans_path)] if traced else []) + [
            "--", *self.spec.command(self.calib, out)]
        try:
            result, stderr = self._child(args)
        except subprocess.TimeoutExpired:
            return {"errors": [f"timed out after {CHILD_TIMEOUT_S} s"]}
        if result is None or result["exit"] != 0 or not out.is_file():
            return {"errors": [f"invocation failed: {stderr[-500:]}"]}
        digest = _sha256(out)
        if self.first_digest is None:
            self.first_digest = digest
            self.output_bytes = out.stat().st_size
            self.check_errors = _check(out, self.spec)
        if digest == self.first_digest:
            errors = list(self.check_errors)
        else:
            kind = "traced" if traced else "repeated"
            errors = [f"{kind} output sha256 {digest[:12]} differs from "
                      f"{self.first_digest[:12]}"]
        record = dict(result, errors=errors)
        out.unlink()
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
            spans_path.unlink()
            record["layers"] = dict(layer_metrics(spans),
                                    **{"cli.output_bytes": self.output_bytes})
        return record


def _check(out: Path, spec: workloads.Spec) -> list[str]:
    try:
        return workloads.check(out.read_text(encoding="utf-8"), spec)
    except Exception as err:   # a malformed output fails its check
        return [f"output check raised {type(err).__name__}: {err}"]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Run one workload for ``seconds`` and return its result: the contract
    fields plus the end-to-end and (when traced) per-layer metrics, with the
    samples behind each end-to-end median."""
    spec = workloads.make_spec(workload, seed, size)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = Run(spec, workdir)
        plain, traced = [], []
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(plain) < MIN_INVOCATIONS):
            plain.append(run.invoke(traced=False))
            if trace:
                traced.append(run.invoke(traced=True))
        if not trace:
            traced.append(run.invoke(traced=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = plain + traced
    ok_plain = [r for r in plain if not r["errors"]]
    ok_traced = [r for r in traced if not r["errors"]]
    # the first invocation compiles nkji's bytecode cache: not a setup sample
    setups = [r for r in plain[1:] if not r["errors"]]
    def ref(r):
        return (r["ref_before_s"] + r["ref_after_s"]) / 2

    samples = {
        "setup_s": [r["setup_s"] * REF_S / ref(r) for r in setups],
        "items_per_s": [spec.items / r["main_s"] * ref(r) / REF_S
                        for r in ok_plain],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in ok_plain],
    }
    metrics = {name: _median(values) for name, values in samples.items()}
    samples["raw_setup_s"] = [r["setup_s"] for r in setups]
    samples["raw_items_per_s"] = [spec.items / r["main_s"] for r in ok_plain]
    if trace and ok_traced:
        middle = sorted(ok_traced, key=lambda r: r["main_s"])[(len(ok_traced) - 1) // 2]
        metrics.update(middle["layers"])
        metrics["trace.overhead_s"] = (_median([r["main_s"] for r in ok_traced])
                                       - _median([r["main_s"] for r in ok_plain]))
        samples["traced_main_s"] = [r["main_s"] for r in ok_traced]
    failed = sum(1 for r in records if r["errors"])
    errors = sorted({e for r in records for e in r["errors"]})
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed, "metrics": metrics, "samples": samples,
            "errors": errors}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nkji" / "__init__.py").is_file():
        print(f"perfbench: no nkji sources in {SRC}; run from the root of a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))   # the output checks call into nkji

    env = dict(environment(args.seed), workload=args.workload,
               seconds=args.seconds)
    print("environment: " + json.dumps(env, sort_keys=True))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    for error in result["errors"]:
        print(f"check failed: {error}")
    for name, values in result["samples"].items():
        print(f"samples: {name} n={len(values)} "
              + " ".join(f"{v:.6g}" for v in values))
    for name, unit in wanted.items():
        print(f"{name} = {result['metrics'].get(name, 0.0)!r} {unit}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
