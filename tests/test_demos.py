"""The README promises that each demo runs standalone in seconds, and that its
Library quick start runs as printed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(argv, cwd):
    """Run a python script from a source checkout, every warning an error:
    ``src`` leads PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", ["01_gp_posterior", "02_failure_probability_and_variance",
                                  "03_greedy_selection", "04_clustering",
                                  "05_synthetic_benchmark", "06_splitting_bound"])
def test_demo_runs_standalone(name, tmp_path):
    assert _run([str(ROOT / "demos" / f"{name}.py")], tmp_path).strip()


def test_readme_library_quick_start_runs(tmp_path):
    # the first python block under "## Library quick start", run as printed
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    p_hat, rv_x100, recall = (float(v) for v in _run(["-c", snippet], tmp_path).split())
    assert p_hat > 0 and rv_x100 > 0 and 0 < recall <= 1
