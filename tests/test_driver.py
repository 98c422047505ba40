import numpy as np
import pytest

from rare_sampler import (AugmentedInput, EmbeddingPool, EvaluationLog,
                          FidelityConfig, GpHyperparams, RunConfig, SyntheticOracle,
                          SyntheticSpec, cluster_with_merges, fit_posterior,
                          generate_pool, run_bams_batch, run_experiment,
                          run_random_batch)
from rare_sampler.driver import _merge_queues
from rare_sampler.gp import TrainOptions

from helpers import naive_select_batch


def small_synthetic(n=60, seed=0):
    spec = SyntheticSpec(n_points=n, seed=seed)
    pool = generate_pool(spec)
    oracle = SyntheticOracle(pool, spec, noise_seed=seed)
    return spec, pool, oracle


def base_config(**kw):
    args = dict(
        gamma=0.56,
        fidelities=FidelityConfig((1.0, 0.10)),
        method="bams",
        m1=6.0,
        m_b=3.0,
        batches=2,
        S=2,
        S_hat=4,
        eta=1.0,
        seed=0,
        train=TrainOptions(iters=20),
    )
    args.update(kw)
    return RunConfig(**args)


def initial_log(pool, config, oracle):
    """The initialization batch exactly as run_experiment draws it."""
    log = EvaluationLog()
    run_random_batch(pool, config.fidelities, config.m1, oracle, log, 1,
                     seed=[config.seed, 0])
    return log


class TestInitialBatch:
    def test_single_fidelity_exact_count(self):
        spec, pool, oracle = small_synthetic(n=100)
        config = base_config(fidelities=FidelityConfig((1.0,)), method="bas", m1=20.0)
        log = initial_log(pool, config, oracle)
        assert len(log) == 20
        assert all(b == 1 for b in log.batches)

    def test_multifidelity_cheap_picks_can_multiply(self):
        spec, pool, oracle = small_synthetic(n=500)
        config = base_config(m1=10.0)
        log = initial_log(pool, config, oracle)
        costs = [config.fidelities.cost(i.level) for i in log.inputs]
        assert sum(costs) >= 10.0
        assert len(log) > 10  # cheap level stretches the budget

    def test_seeded_determinism(self):
        spec, pool, oracle = small_synthetic(n=80)
        config = base_config(m1=5.0)
        a = initial_log(pool, config, oracle)
        b = initial_log(pool, config, oracle)
        assert a.inputs == b.inputs
        assert a.values == b.values


def reference_bams_batch(pool, state, config, log):
    """Straight-line simulation of the clustered batch: queues via the naive
    from-scratch selector, then the literal merge loop."""
    assign = cluster_with_merges(pool, state.hyper, config.S,
                                 config.s_hat_effective,
                                 seed=[config.seed, 2])
    evaluated = set(log.inputs)
    n = pool.n_points
    queues = []
    for cid in range(assign.n_clusters):
        members = assign.members(cid)
        targets = [AugmentedInput(int(i), 0) for i in members]
        cands = [AugmentedInput(int(i), l) for i in members
                 for l in range(config.fidelities.n_levels)
                 if AugmentedInput(int(i), l) not in evaluated]
        budget = float(np.ceil(config.eta * config.m_b * len(members) / n))
        if not cands:
            queues.append([])
            continue
        costs = [config.fidelities.cost(c.level) for c in cands]
        queue = naive_select_batch(state, pool, cands, costs, targets, budget)
        w = len(members) / n
        queues.append([(inp, dj * w, cost) for inp, dj, cost in queue])

    # literal merge: read one head per queue, keep feasible ones, take the best
    ptrs = [0] * len(queues)
    cost_g, out = 0.0, []
    while cost_g < config.m_b:
        heads = []
        for qi, q in enumerate(queues):
            if ptrs[qi] >= len(q):
                continue
            inp, dj, cost = q[ptrs[qi]]
            if cost_g + cost < config.m_b:
                heads.append(((dj / cost, inp.point_index, inp.level), qi))
        if not heads:
            break
        _, qi = min(heads)
        item = queues[qi][ptrs[qi]]
        ptrs[qi] += 1
        out.append(item)
        cost_g += item[2]
    return out


class TestBamsBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_trace(self, seed):
        spec, pool, oracle = small_synthetic(n=40, seed=seed)
        config = base_config(seed=seed, S=2, S_hat=4, m1=5.0, m_b=3.0)
        log = initial_log(pool, config, oracle)
        hyper = GpHyperparams.defaults(pool, 2)
        state = fit_posterior(pool, log, hyper, config.gamma)
        expected = reference_bams_batch(pool, state, config, log)
        got = run_bams_batch(pool, state, config, oracle, log, batch_index=2)
        assert [g[0] for g in got] == [e[0] for e in expected]
        np.testing.assert_allclose([g[1] for g in got], [e[1] for e in expected],
                                   atol=1e-8)
        np.testing.assert_allclose([g[2] for g in got], [e[2] for e in expected])

    def test_strict_budget_rule(self):
        spec, pool, oracle = small_synthetic(n=50, seed=3)
        config = base_config(seed=3, m_b=2.0)
        log = initial_log(pool, config, oracle)
        hyper = GpHyperparams.defaults(pool, 2)
        state = fit_posterior(pool, log, hyper, config.gamma)
        selected = run_bams_batch(pool, state, config, oracle, log, 2)
        assert sum(s[2] for s in selected) < config.m_b

    def test_budget_equality_does_not_fit(self):
        queues = [[(AugmentedInput(0, 0), -0.5, 1.0), (AugmentedInput(1, 0), -0.4, 1.0)]]
        strict = _merge_queues(queues, base_config(m_b=2.0,
                                                   fidelities=FidelityConfig((1.0,)),
                                                   method="bas"))
        assert len(strict) == 1

    def test_merge_is_cost_normalized(self):
        # cheap item: good per-cost, worse raw
        q1 = [(AugmentedInput(0, 1), -0.02, 0.1)]
        q2 = [(AugmentedInput(1, 0), -0.10, 1.0)]
        cn = _merge_queues([q1, q2], base_config(m_b=5.0))
        assert cn[0][0] == AugmentedInput(0, 1)

    def test_blocking_head_blocks_queue(self):
        # first queue's head never fits; its cheaper second item must not leak past it
        q1 = [(AugmentedInput(0, 0), -0.9, 5.0), (AugmentedInput(1, 1), -0.8, 0.1)]
        q2 = [(AugmentedInput(2, 1), -0.01, 0.1)]
        out = _merge_queues([q1, q2], base_config(m_b=1.0))
        assert [o[0] for o in out] == [AugmentedInput(2, 1)]

    def test_no_duplicate_evaluations(self):
        spec, pool, oracle = small_synthetic(n=50, seed=4)
        config = base_config(seed=4, batches=3)
        result = run_experiment(pool, config, oracle)
        assert len(set(result.log.inputs)) == len(result.log.inputs)


class TestExperiment:
    def test_single_batch_is_initialization_only(self):
        spec, pool, oracle = small_synthetic(n=40, seed=5)
        config = base_config(seed=5, batches=1)
        result = run_experiment(pool, config, oracle)
        assert len(result.batches) == 1
        assert all(b == 1 for b in result.log.batches)
        assert result.batches[0].field is not None

    def test_deterministic_under_seed(self):
        spec, pool, oracle = small_synthetic(n=40, seed=6)
        config = base_config(seed=6)
        r1 = run_experiment(pool, config, oracle)
        r2 = run_experiment(pool, config, oracle)
        assert r1.log.inputs == r2.log.inputs
        np.testing.assert_array_equal(r1.final_field().p, r2.final_field().p)

    def test_random_methods_share_initialization_with_adaptive(self):
        spec, pool, oracle = small_synthetic(n=60, seed=7)
        bams = run_experiment(pool, base_config(seed=7, batches=1), oracle)
        mcm = run_experiment(pool, base_config(seed=7, batches=1, method="mcm-gp"),
                             oracle)
        assert bams.log.inputs == mcm.log.inputs

    def test_single_fidelity_methods_drop_extra_levels(self):
        config = base_config(method="bas")
        assert config.fidelities.n_levels == 1

    def test_mean_f_recorded_per_batch(self):
        spec, pool, oracle = small_synthetic(n=50, seed=8)
        config = base_config(seed=8, batches=3)
        result = run_experiment(pool, config, oracle)
        assert len(result.batch_mean_f()) == 3
        assert np.isfinite(result.batch_mean_f()).all()

    def test_artifact_layout(self, tmp_path):
        spec, pool, oracle = small_synthetic(n=40, seed=9)
        config = base_config(seed=9)
        result = run_experiment(pool, config, oracle)
        result.save(tmp_path)
        for name in ("log.csv", "selected_batch1.csv", "selected_batch2.csv",
                     "scores_batch1.csv", "scores_batch2.csv",
                     "hyperparams_batch1.txt", "hyperparams_batch2.txt"):
            assert (tmp_path / name).exists(), name
        header = (tmp_path / "log.csv").read_text().splitlines()[0]
        assert header == "point_index,level,f,batch"

    def test_cluster_queue_budget_invariant(self):
        # each cluster queue reaches its proportional budget unless exhausted
        spec, pool, oracle = small_synthetic(n=60, seed=10)
        config = base_config(seed=10, eta=1.5)
        log = initial_log(pool, config, oracle)
        hyper = GpHyperparams.defaults(pool, 2)
        state = fit_posterior(pool, log, hyper, config.gamma)
        assign = cluster_with_merges(pool, state.hyper, config.S,
                                     config.s_hat_effective, seed=[config.seed, 2])
        from rare_sampler.driver import _cluster_queue
        evaluated = {(i.point_index, i.level) for i in log.inputs}
        for cid in range(assign.n_clusters):
            members = assign.members(cid)
            budget = float(np.ceil(config.eta * config.m_b * len(members) /
                                   pool.n_points))
            queue = _cluster_queue(state, pool, members, evaluated,
                                   config.fidelities.costs, budget)
            n_cands = sum(1 for i in members for l in range(2)
                          if (int(i), l) not in evaluated)
            assert sum(q[2] for q in queue) >= budget or len(queue) == n_cands
