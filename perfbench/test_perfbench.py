"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The traced-run tests start run.py the way the benchmark is run, with a
one-second budget, and take about a minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import skmslab.perturbation  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402,F401  (imports every module the workloads use)

# the layer function each workload exists to exercise
DESIGNATED = {
    "verify_all": "workbench.emit_report.bytes",
    "cocycle_d10": "kernels.chain_integral.calls",
    "mc_oracle": "kernels.heat_chain_integrand.points",
    "homotopy_d8": "perturbation.PerturbedContext.calls",
}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_every_existing_binding_is_wrapped_and_restored():
    chain = skmslab.perturbation.chain_integral
    undo = tracing.install(tracing.Tracer())
    try:
        report = tracing.binding_report()
        assert skmslab.perturbation.chain_integral is not chain
    finally:
        undo()
    assert skmslab.perturbation.chain_integral is chain
    for name, entry in report.items():
        assert not [m for m in entry["absent"] if m.endswith("(unwrapped)")], name
    assert "skmslab.kernels" in report["kernels.chain_integral"]["wrapped"]


def test_removed_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(skmslab.perturbation, "tau_r_eval")
    undo = tracing.install(tracing.Tracer())
    try:
        report = tracing.binding_report()
    finally:
        undo()
    assert report["perturbation.tau_r_eval"] == {
        "wrapped": [], "absent": ["skmslab.perturbation"]}


@pytest.mark.parametrize("workload", sorted(DESIGNATED))
def test_traced_run_reaches_designated_layer(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"][DESIGNATED[workload]]["value"] > 0
    assert result["metrics"]["kernels.chain_integral.refused"]["value"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in bench["per_layer"]]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cocycle_d10", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_untraced_run_reports_every_end_to_end_metric_nonzero():
    proc = run_bench(ROOT, "--workload", "cocycle_d10", "--seed", "3",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
