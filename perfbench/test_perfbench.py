"""Self-tests of the benchmark: every workload at its tiny size through the
same code path as a full run, the self-time arithmetic, and the output checks.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))   # the output checks call into nkji

from nkji import cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload):
    result = run.run_workload(workload, seed=5, seconds=0, trace=True,
                              size="tiny")
    assert result["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * run.MIN_INVOCATIONS
    metrics = result["metrics"]
    assert set(run.END_TO_END) | set(run.PER_LAYER) == set(metrics)
    assert all(metrics[name] > 0 for name in run.END_TO_END)
    self_times = [v for name, v in metrics.items() if name.endswith(".self_s")]
    assert len(self_times) == len(run.child.TRACED)
    assert all(v >= 0 for v in self_times)
    assert math.isclose(sum(self_times), metrics["trace.wall_s"],
                        rel_tol=1e-9, abs_tol=1e-12)
    assert metrics["cli.main.self_s"] > 0
    assert metrics["cli.output_bytes"] > 0


def test_untraced_run_checks_one_traced_invocation():
    result = run.run_workload("sweep-grid", seed=6, seconds=0, trace=False,
                              size="tiny")
    assert result["correct"]
    assert result["attempted"] == run.MIN_INVOCATIONS + 1
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "parent": None, "name": "cli.main", "t0": 0.0, "t1": 10.0},
        {"id": 1, "parent": 0, "name": "oracle.random_params", "t0": 1.0, "t1": 4.0},
        {"id": 2, "parent": 1, "name": "params.validate", "t0": 1.5, "t1": 2.0,
         "error": "InvalidParams"},
        {"id": 3, "parent": 1, "name": "params.validate", "t0": 2.5, "t1": 3.0},
        {"id": 4, "parent": 0, "name": "oracle.solve_undetermined", "t0": 5.0,
         "t1": 9.0, "cond": 7.0},
    ]
    m = run.layer_metrics(spans)
    assert m["cli.main.self_s"] == 3.0
    assert m["oracle.random_params.self_s"] == 2.0
    assert m["params.validate.self_s"] == 1.0
    assert m["oracle.solve_undetermined.self_s"] == 4.0
    assert m["params.validate.calls"] == 2
    assert m["params.validate.rejected"] == 1
    assert m["oracle.random_params.accept_ratio"] == 0.5
    assert m["oracle.solve_undetermined.cond_max"] == 7.0
    assert m["trace.wall_s"] == 10.0


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.make_spec(workload, 11)
        b = workloads.make_spec(workload, 11)
        c = workloads.make_spec(workload, 12)
        assert (a.argv, a.calib) == (b.argv, b.calib)
        assert (a.argv, a.calib) != (c.argv, c.calib)


def _output(workload, tmp_path):
    spec = workloads.make_spec(workload, 3, "tiny")
    calib, out = tmp_path / "calib.json", tmp_path / "out"
    calib.write_text(json.dumps(spec.calib))
    assert cli.main(spec.command(calib, out)) == 0
    return spec, out.read_text(encoding="utf-8")


def _swap_verdict(line):
    head, _, verdict = line.rpartition(",")
    swap = {"determinate": "no_equilibrium", "no_equilibrium": "determinate"}
    return f"{head},{swap[verdict]}" if verdict in swap else line


def test_sweep_check_catches_a_wrong_verdict(tmp_path):
    spec, text = _output("sweep-grid", tmp_path)
    assert workloads.check(text, spec) == []
    swapped = "\n".join(_swap_verdict(line) for line in text.splitlines()) + "\n"
    assert swapped != text
    assert any("classify_standard" in e for e in workloads.check(swapped, spec))
    errors = workloads.check(text.replace(",invalid", ",determinate", 1), spec)
    assert any("invalid cells" in e for e in errors)
    assert any("do not sum to 9" in e for e in errors)


def test_audit_check_catches_unstable_draws(tmp_path):
    spec, text = _output("audit-draws", tmp_path)
    assert workloads.check(text, spec) == []
    obj = json.loads(text)
    obj["stability"]["identical_across_draws"] = False
    assert workloads.check(json.dumps(obj), spec)
    obj = json.loads(text)
    obj["residuals"]["oracle"]["taylor"] = 1e-6
    assert workloads.check(json.dumps(obj), spec)


def test_simulate_check_catches_a_wrong_forecast_error(tmp_path):
    spec, text = _output("simulate-long", tmp_path)
    assert workloads.check(text, spec) == []
    lines = text.splitlines()
    cells = lines[5].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-15) + 1e-300)
    lines[5] = ",".join(cells)
    assert workloads.check("\n".join(lines) + "\n", spec)
    assert workloads.check("\n".join(lines[:-1]) + "\n", spec)


def test_malformed_output_fails_its_check(tmp_path):
    out = tmp_path / "out"
    for workload in workloads.WORKLOADS:
        spec = workloads.make_spec(workload, 3, "tiny")
        out.write_text("# nkji sweep csv v1\nnot,an,output\n{")
        assert run._check(out, spec)


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
