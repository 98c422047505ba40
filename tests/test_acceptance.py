"""Paper-claim acceptance at reduced scale: BAMS against plain Monte Carlo.

The paper reports that BAMS finds many times more failures than MC and
estimates the failure rate with a much narrower variance.  These tests run
the ``bams-mf`` benchmark settings (synthetic two-diamond pool, N=3000,
2 levels, m1=20, m_b=15, 3 batches) at experiment seeds 0-5, where a seed s
sets the pool, run and level-1 noise seed to s and the IS-trial seed to
s + 1, and ask BAMS to beat MC at every seed.  Every per-seed ratio is
printed (``pytest -s`` shows them), with the exact 100*RV that each
method's scores imply (``rv_exact``) beside the sampled one; the exact
figures are printed, not asserted.  The panel runs in two child processes,
three seeds each, with one BLAS thread apiece, as the benchmark does: with
two BLAS threads on two cores its small products take more than twice as
long.

Measured when the tests were written, seeds 0-5: BAMS 100*RV 0.26, 112.3,
2.88, 0.66, 7.60, 0.16 against MC 845, 345, 232, 204, 369, 412; distinct true
failures among the level-0 evaluations, BAMS 10, 6, 9, 5, 6, 6 against MC
0, 0, 0, 1, 0, 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rare_sampler import (FidelityConfig, RunConfig, SyntheticOracle, SyntheticSpec,
                          generate_pool, ground_truth_labels, repeated_is_trials,
                          run_experiment)
from rare_sampler.evaluation import IsOptions

SEEDS = range(6)
IS_OPTS = IsOptions(alpha=2.5, k_multiple=5.0, trials=200)


def _run(method: str, seed: int):
    """100*RV of the method's IS estimate, the distinct true failures among
    its level-0 evaluations and the exact 100*RV, at one experiment seed."""
    spec = SyntheticSpec(n_points=3000, seed=seed)
    pool = generate_pool(spec)
    truth = ground_truth_labels(pool, spec)
    config = RunConfig(gamma=spec.gamma, fidelities=FidelityConfig((1.0, 0.10)),
                       method=method, m1=20, m_b=15, batches=3, S=6, S_hat=12,
                       eta=2.0, seed=seed)
    result = run_experiment(pool, config, SyntheticOracle(pool, spec, noise_seed=seed))
    report = repeated_is_trials(result.scores(IS_OPTS.alpha), truth,
                                IS_OPTS.sample_size(truth), IS_OPTS.trials,
                                seed=seed + 1)
    inputs = result.log.inputs
    found = np.unique(inputs[inputs[:, 1] == 0, 0])
    return 100.0 * report.rv, int(truth[found].sum()), 100.0 * report.rv_exact


@pytest.fixture(scope="module")
def panel():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    children = [subprocess.Popen([sys.executable, "-W", "error", __file__, *map(str, seeds)],
                                 env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
                for seeds in (SEEDS[:3], SEEDS[3:])]
    panel = {}
    for child in children:
        out, err = child.communicate()
        assert child.returncode == 0, err
        panel.update((int(seed), runs) for seed, runs in json.loads(out).items())
    return panel


def test_bams_has_lower_relative_variance_than_mc_at_every_seed(panel):
    for seed, runs in panel.items():
        (rv_bams, _, ex_bams), (rv_mc, _, ex_mc) = runs["bams"], runs["mc"]
        ratio = f"{rv_mc / rv_bams:.4g}" if rv_bams else "inf"
        print(f"seed {seed}: 100*RV bams {rv_bams:.4g}, mc {rv_mc:.4g}, "
              f"mc / bams = {ratio}; exact 100*RV bams {ex_bams:.4g}, mc {ex_mc:.4g}")
    for seed, runs in panel.items():
        rv_bams, rv_mc = runs["bams"][0], runs["mc"][0]
        # a nan RV (no IS trial drew a failure) loses the comparison
        assert not np.isnan(rv_bams), f"seed {seed}: bams RV is nan"
        assert np.isnan(rv_mc) or rv_bams < rv_mc, f"seed {seed}"


def test_bams_finds_more_level0_failures_than_mc_at_every_seed(panel):
    for seed, runs in panel.items():
        f_bams, f_mc = runs["bams"][1], runs["mc"][1]
        ratio = f"{f_bams / f_mc:.4g}" if f_mc else "inf"
        print(f"seed {seed}: level-0 failures found bams {f_bams}, mc {f_mc}, "
              f"bams / mc = {ratio}")
    for seed, runs in panel.items():
        assert runs["bams"][1] > runs["mc"][1], f"seed {seed}"


if __name__ == "__main__":
    print(json.dumps({seed: {m: _run(m, seed) for m in ("bams", "mc")}
                      for seed in map(int, sys.argv[1:])}))
