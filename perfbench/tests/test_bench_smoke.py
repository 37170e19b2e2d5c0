"""The benchmark end to end at tiny sizes, through its command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import parse_result

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def layer_values():
    return {}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, layer_values):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = parse_result(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"{workload} {m['name']} = " in proc.stdout
    assert f"{workload} fail_share = 0 ratio" in proc.stdout
    if not trace:
        assert f"{workload} op_p90_s = " in proc.stdout
    if trace:
        for name, m in result["metrics"].items():
            layer_values.setdefault(name, []).append(m["value"])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_layer_metric_is_measured_somewhere(layer_values):
    if len(layer_values.get("bench.self_s", [])) < len(WORKLOADS):
        pytest.skip("needs the traced tiny runs above")
    idle = [name for name, values in layer_values.items() if not any(values)]
    assert idle == []


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
