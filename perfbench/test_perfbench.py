"""Tests of the benchmark itself, on tiny pools and without timing bounds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench_checks import check_experiment  # noqa: E402
from bench_workloads import WORKLOADS, smoke  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    return result


def test_workloads_match_benchmark_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_end_to_end_metrics(workload):
    result = _result(_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", "0", "--smoke"))
    assert result["attempted"] == 3
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] >= 0


def test_traced_smoke_run_reports_every_layer():
    result = _result(_bench("--workload", "bams-mf", "--seed", "2", "--seconds", "1",
                            "--trace", "1", "--smoke"))
    assert result["attempted"] == 6          # one traced and one untraced round
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["acquisition.steps"]["value"] > 0
    assert metrics["gp.mll_calls"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "bams-mf", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def smoke_artifacts(tmp_path_factory):
    from rare_sampler.cli import main
    w = smoke(WORKLOADS["bams-mf"])
    base = tmp_path_factory.mktemp("smoke")
    cfg = base / "run.cfg"
    cfg.write_text(w.config_text(0))
    assert main(["run", str(cfg), "--out", str(base / "out")]) == 0
    return w, base / "out"


def _replace_field(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_clean_artifacts_pass(smoke_artifacts):
    w, out = smoke_artifacts
    assert check_experiment(out, w, 0) == []


@pytest.mark.parametrize("name, row, col, value, expected", [
    ("log.csv", 3, 2, "0.5", "log value"),
    ("selected_batch2.csv", 1, 2, "0.001", "deltaJ > 0"),
    ("scores_batch3.csv", 5, 2, "0.2", "h != p(1 - p)"),
    ("rate_report.csv", 1, 3, "0.5", "recall"),
    ("rate_report.csv", 1, 1, "0.5", "p_hat_mean"),
])
def test_corrupted_artifact_fails_check(smoke_artifacts, tmp_path, name, row, col,
                                        value, expected):
    w, out = smoke_artifacts
    corrupt = tmp_path / "out"
    shutil.copytree(out, corrupt)
    _replace_field(corrupt / name, row, col, value)
    problems = check_experiment(corrupt, w, 0)
    assert any(expected in p for p in problems), problems
