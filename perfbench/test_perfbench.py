"""The benchmark's own tests, on the smoke size of every workload.

    python3 -m pytest perfbench -q

Every metric BENCHMARK.json names must be printed with its unit, and the
exact counts of two traced runs must agree bit for bit.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("solver.steps", "flux.face_evals", "quadrature.cell_rule_calls",
                "mesh.cells")


def bench(workload: str, trace: int, cwd: Path = ROOT,
          script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    result = result_of(bench(workload, 0))
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_printed_and_counts_repeat(workload):
    first, second = (result_of(bench(workload, 1)) for _ in range(2))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, second):
        assert units(result) == expected
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), (name, m)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    assert first["metrics"]["mesh.cells"]["value"] > 0


def test_fails_without_result_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path,
                 script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_wrapper_target_reads_none_not_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracer

    monkeypatch.setitem(tracer.SPAN_TARGETS, "mesh.validate",
                        ["lwfv.mesh.no_such_function"])
    t = tracer.Tracer()
    t.install()
    try:
        metrics = t.layer_metrics()
    finally:
        t.uninstall()
    assert t.missing == ["lwfv.mesh.no_such_function"]
    assert metrics["mesh.validate_s"] is None
    assert metrics["mesh.build_s"] == 0.0
