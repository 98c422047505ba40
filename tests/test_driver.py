import csv

import numpy as np
import pytest

from rare_sampler import (EmbeddingPool, EvaluationLog,
                          FidelityConfig, GpHyperparams, InvalidInputError, RunConfig,
                          SyntheticOracle,
                          SyntheticSpec, cluster_with_merges, elite_gaussian,
                          failure_prob, fit_posterior, gaussian_pdf_scores,
                          generate_pool, mc_scores, random_acquisition, run_bams_batch,
                          run_experiment)
from rare_sampler.driver import _cluster_queue, _merge_queues

from helpers import (naive_select_batch, reference_cluster_queue, reference_merge_queues,
                     selection_arrays)


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
        train_iters=20,
    )
    args.update(kw)
    return RunConfig(**args)


def initial_log(pool, config, oracle):
    """The initialization batch exactly as run_experiment draws it."""
    log = EvaluationLog()
    log.evaluate(oracle, random_acquisition(pool, config.fidelities, config.m1,
                                            seed=[config.seed, 0]), 1)
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
        costs = [config.fidelities.costs[level] for level in log.inputs[:, 1].tolist()]
        assert sum(costs) >= 10.0
        assert len(log) > 10  # cheap level stretches the budget

    def test_seeded_determinism(self):
        spec, pool, oracle = small_synthetic(n=80)
        config = base_config(m1=5.0)
        a = initial_log(pool, config, oracle)
        b = initial_log(pool, config, oracle)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.values, b.values)


def reference_bams_batch(pool, state, config, log):
    """Straight-line simulation of the clustered batch: queues via the naive
    from-scratch selector, then the literal merge loop; returns the selection
    arrays."""
    assign = cluster_with_merges(pool, state.hyper, config.S, config.S_hat,
                                 seed=[config.seed, 2])
    evaluated = set(map(tuple, log.inputs.tolist()))
    n = pool.n_points
    queues = []
    for cid in range(assign.n_clusters):
        members = assign.members(cid)
        targets = [(int(i), 0) for i in members]
        cands = [(int(i), l) for i in members
                 for l in range(config.fidelities.n_levels)
                 if (int(i), l) not in evaluated]
        budget = float(np.ceil(config.eta * config.m_b * len(members) / n))
        if not cands:
            queues.append([])
            continue
        costs = [config.fidelities.costs[c[1]] for c in cands]
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
                heads.append(((dj / cost, inp[0], inp[1]), qi))
        if not heads:
            break
        _, qi = min(heads)
        item = queues[qi][ptrs[qi]]
        ptrs[qi] += 1
        out.append(item)
        cost_g += item[2]
    return selection_arrays(out)


class TestBamsBatch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_trace(self, seed):
        spec, pool, oracle = small_synthetic(n=40, seed=seed)
        config = base_config(seed=seed, S=2, S_hat=4, m1=5.0, m_b=3.0)
        log = initial_log(pool, config, oracle)
        hyper = GpHyperparams.defaults(pool, 2)
        state = fit_posterior(pool, log, hyper, config.gamma)
        expected = reference_bams_batch(pool, state, config, log)
        n_logged = len(log)
        inputs, delta_j = run_bams_batch(pool, state, config, log, batch_index=2)
        np.testing.assert_array_equal(inputs, expected[0])
        np.testing.assert_allclose(delta_j, expected[1], atol=1e-8)
        assert len(log) == n_logged  # the step picks; the loop evaluates

    def test_strict_budget_rule(self):
        spec, pool, oracle = small_synthetic(n=50, seed=3)
        config = base_config(seed=3, m_b=2.0)
        log = initial_log(pool, config, oracle)
        hyper = GpHyperparams.defaults(pool, 2)
        state = fit_posterior(pool, log, hyper, config.gamma)
        inputs, _ = run_bams_batch(pool, state, config, log, 2)
        assert sum(config.fidelities.costs[l] for l in inputs[:, 1].tolist()) < config.m_b

    def test_budget_equality_does_not_fit(self):
        queues = [[((0, 0), -0.5, 1.0), ((1, 0), -0.4, 1.0)]]
        strict = _merge_queues([selection_arrays(q) for q in queues], 2.0)
        assert len(strict[0]) == 1

    def test_merge_is_cost_normalized(self):
        # cheap item: good per-cost, worse raw
        q1 = [((0, 1), -0.02, 0.1)]
        q2 = [((1, 0), -0.10, 1.0)]
        cn = _merge_queues([selection_arrays(q) for q in (q1, q2)], 5.0)
        np.testing.assert_array_equal(cn[0][0], [0, 1])

    def test_blocking_head_blocks_queue(self):
        # first queue's head never fits; its cheaper second item must not leak past it
        q1 = [((0, 0), -0.9, 5.0), ((1, 1), -0.8, 0.1)]
        q2 = [((2, 1), -0.01, 0.1)]
        out = _merge_queues([selection_arrays(q) for q in (q1, q2)], 1.0)
        np.testing.assert_array_equal(out[0], [[2, 1]])

    def test_merge_ties_break_on_point_then_level(self):
        # three heads with deltaJ / cost = -0.5 exactly, in the reverse of the
        # (point, level) order
        q1 = [((4, 0), -0.5, 1.0)]
        q2 = [((3, 1), -0.125, 0.25)]
        q3 = [((3, 0), -0.5, 1.0)]
        out = _merge_queues([selection_arrays(q) for q in (q1, q2, q3)], 5.0)
        np.testing.assert_array_equal(out[0], [[3, 0], [3, 1], [4, 0]])

    @pytest.mark.parametrize("seed", range(40))
    def test_array_merge_matches_tuple_reference(self, seed):
        # queues of distinct (point, level) pairs with mixed level costs, tied
        # deltaJ / cost rates, heads too dear for the budget (they block their
        # queue) and empty queues; the merge must give the reference's rows
        # bit for bit
        rng = np.random.default_rng(2000 + seed)
        costs = (1.0, 0.1, 0.25)
        pairs = iter(rng.permutation(12 * len(costs)).tolist())
        rates = -rng.choice([0.0, 0.01, 0.02, 0.05], size=64) * rng.integers(1, 3, 64)
        queues = []
        for _ in range(int(rng.integers(1, 7))):
            queue = []
            for _ in range(int(rng.choice([0, 0, 1, 3, 6]))):
                point, level = divmod(next(pairs), len(costs))
                cost = costs[level] * (8.0 if rng.random() < 0.1 else 1.0)
                queue.append(((point, level), float(rng.choice(rates)) * cost,
                              cost))
            queues.append(queue)
        m_b = float(rng.choice([0.5, 1.5, 3.0, 6.0]))
        want = selection_arrays(reference_merge_queues(queues, m_b))
        got = _merge_queues([selection_arrays(q) for q in queues], m_b)
        assert got[0].dtype == np.intp and got[0].shape == want[0].shape
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_no_duplicate_evaluations(self):
        spec, pool, oracle = small_synthetic(n=50, seed=4)
        config = base_config(seed=4, batches=3)
        result = run_experiment(pool, config, oracle)
        assert len(set(map(tuple, result.log.inputs.tolist()))) == len(result.log.inputs)


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
        np.testing.assert_array_equal(r1.log.inputs, r2.log.inputs)
        np.testing.assert_array_equal(r1.final_field().p, r2.final_field().p)

    def test_random_methods_share_initialization_with_adaptive(self):
        spec, pool, oracle = small_synthetic(n=60, seed=7)
        bams = run_experiment(pool, base_config(seed=7, batches=1), oracle)
        mcm = run_experiment(pool, base_config(seed=7, batches=1, method="mcm-gp"),
                             oracle)
        np.testing.assert_array_equal(bams.log.inputs, mcm.log.inputs)

    def test_seed_streams(self):
        # every random method draws batch 1 from [seed, 0] and a later random
        # batch b from [seed, b]; mc still ranks from [seed, 1], a stream no
        # batch of it draws
        spec, pool, oracle = small_synthetic(n=60, seed=7)
        level0 = FidelityConfig((1.0,))
        mc = run_experiment(pool, base_config(seed=7, method="mc"), oracle)
        first = random_acquisition(pool, level0, 6.0, seed=[7, 0])
        second = random_acquisition(pool, level0, 3.0, seed=[7, 2], exclude=first)
        np.testing.assert_array_equal(mc.log.inputs, np.concatenate([first, second]))
        assert mc.scores(2.5).q.tobytes() == mc_scores(pool.n_points, seed=[7, 1]).q.tobytes()
        for method in ("mc-gp", "mcm-gp", "bams", "bas"):
            config = base_config(seed=7, batches=1, method=method)
            init = random_acquisition(pool, config.fidelities, 6.0, seed=[7, 0])
            result = run_experiment(pool, config, oracle)
            np.testing.assert_array_equal(result.log.inputs, init)

    @pytest.mark.parametrize("method", ["bams", "bas", "mc-gp", "mcm-gp", "mc", "ce"])
    def test_batch_records_hold_the_logged_rows(self, method, tmp_path):
        # a record holds one delta_j per logged row of its batch, and its
        # selected_batch<k>.csv holds those rows, each priced at its level
        spec, pool, oracle = small_synthetic(n=60, seed=11)
        result = run_experiment(pool, base_config(seed=11, batches=3, method=method), oracle)
        result.save(tmp_path)
        log, costs = result.log, result.config.fidelities.costs
        for rec in result.batches:
            rows = log.inputs[log.batches == rec.index].tolist()
            assert rec.delta_j.shape == (len(rows),)
            with open(tmp_path / f"selected_batch{rec.index}.csv", newline="") as fh:
                saved = [(int(r["point_index"]), int(r["level"]), float(r["cost"]))
                         for r in csv.DictReader(fh)]
            assert saved == [(i, level, costs[level]) for i, level in rows]
        # the result holds no final state: a GP method's posterior refits from
        # the log and the last hyperparameters, the ce Gaussian from the log
        if method == "ce":
            want = gaussian_pdf_scores(elite_gaussian(pool, log), pool).q
            assert result.scores(2.5).q.tobytes() == want.tobytes()
        elif method != "mc":
            state = fit_posterior(pool, log, result.batches[-1].hyper, result.config.gamma)
            p = failure_prob(state, pool.points).p
            assert p.tobytes() == result.final_field().p.tobytes()

    @pytest.mark.parametrize("method", ["bams", "bas", "mc-gp", "mcm-gp", "mc", "ce"])
    def test_one_evaluate_call_per_batch(self, method, monkeypatch):
        # the loop alone queries the oracle, once per batch; batch 4 finds the
        # 8-point pool exhausted and still makes its (empty) call
        spec, pool, oracle = small_synthetic(n=8, seed=12)
        calls = []
        evaluate = EvaluationLog.evaluate

        def counting(log, oracle, inputs, batch_index):
            calls.append(batch_index)
            return evaluate(log, oracle, inputs, batch_index)

        monkeypatch.setattr(EvaluationLog, "evaluate", counting)
        config = base_config(seed=12, method=method, m1=4.0, m_b=3.0, batches=4, S=1,
                             S_hat=2)
        result = run_experiment(pool, config, oracle)
        assert calls == [1, 2, 3, 4]
        logged = [bool(np.any(result.log.batches == k)) for k in calls]
        assert logged == [True, True, True, False]

    def test_single_fidelity_methods_drop_extra_levels(self):
        config = base_config(method="bas")
        assert config.fidelities.n_levels == 1

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

    @pytest.mark.parametrize("name", ["scores_batch1.csv", "hyperparams_batch1.txt"])
    def test_artifact_that_cannot_be_written_is_named(self, tmp_path, name):
        spec, pool, oracle = small_synthetic(n=40, seed=9)
        result = run_experiment(pool, base_config(seed=9), oracle)
        (tmp_path / name).mkdir()
        with pytest.raises(InvalidInputError) as exc:
            result.save(tmp_path)
        assert str(exc.value) == f"cannot write {tmp_path / name}: Is a directory"

    def test_artifact_directory_that_cannot_be_made_is_named(self, tmp_path):
        spec, pool, oracle = small_synthetic(n=40, seed=9)
        result = run_experiment(pool, base_config(seed=9), oracle)
        (tmp_path / "a_file").write_text("")
        out = tmp_path / "a_file" / "out"
        with pytest.raises(InvalidInputError) as exc:
            result.save(out)
        assert str(exc.value) == f"cannot make the artifact directory {out}: Not a directory"

    @pytest.mark.parametrize("method", ["bams", "bas"])
    def test_more_initial_clusters_than_points_rejected_before_batch_1(self, method):
        _, pool, oracle = small_synthetic(n=30)
        calls = []

        def counting(i, level):
            calls.append((i, level))
            return oracle(i, level)

        with pytest.raises(InvalidInputError, match="S_hat = 31 exceeds the pool size N = 30"):
            run_experiment(pool, base_config(method=method, S_hat=31), counting)
        assert not calls
        # S_hat = N still clusters
        run_experiment(pool, base_config(method=method, S_hat=30), counting)

    def test_cluster_queue_budget_invariant(self):
        # each cluster queue reaches its proportional budget unless exhausted
        spec, pool, oracle = small_synthetic(n=60, seed=10)
        config = base_config(seed=10, eta=1.5)
        log = initial_log(pool, config, oracle)
        hyper = GpHyperparams.defaults(pool, 2)
        state = fit_posterior(pool, log, hyper, config.gamma)
        assign = cluster_with_merges(pool, state.hyper, config.S, config.S_hat,
                                     seed=[config.seed, 2])
        from rare_sampler.driver import _cluster_queue
        evaluated = np.zeros((pool.n_points, 2), dtype=bool)
        for i, level in log.inputs.tolist():
            evaluated[i, level] = True
        for cid in range(assign.n_clusters):
            members = assign.members(cid)
            budget = float(np.ceil(config.eta * config.m_b * len(members) /
                                   pool.n_points))
            inputs, _, cost = _cluster_queue(state, pool, members, evaluated,
                                             config.fidelities.costs, budget)
            n_cands = int((~evaluated[members]).sum())
            assert sum(cost.tolist()) >= budget or len(inputs) == n_cands


class TestClusterQueueArrays:
    """Queues built from index arrays and an evaluated mask against queues
    built from (point, level) lists and an evaluated set."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("method,costs", [("bas", (1.0,)), ("bams", (1.0, 0.10))])
    def test_matches_list_built_queue(self, seed, method, costs):
        spec, pool, oracle = small_synthetic(n=80, seed=seed)
        config = base_config(seed=seed, method=method, fidelities=FidelityConfig(costs),
                             eta=2.0, m1=8.0)
        log = initial_log(pool, config, oracle)
        state = fit_posterior(pool, log, GpHyperparams.defaults(pool, len(costs)),
                              config.gamma)
        assign = cluster_with_merges(pool, state.hyper, config.S, config.S_hat,
                                     seed=[seed, 2])
        evaluated = np.zeros((pool.n_points, len(costs)), dtype=bool)
        for i, level in log.inputs.tolist():
            evaluated[i, level] = True
        cases = [(assign.members(cid), evaluated, set(map(tuple, log.inputs.tolist())))
                 for cid in range(assign.n_clusters)]
        # a cluster whose every input is evaluated gets an empty queue
        members = assign.members(0)
        cases.append((members, np.ones_like(evaluated),
                      {(int(i), l) for i in members for l in range(len(costs))}))
        for members, mask, done in cases:
            budget = float(np.ceil(config.eta * config.m_b * len(members) / pool.n_points))
            got = _cluster_queue(state, pool, members, mask, costs, budget)
            want = reference_cluster_queue(state, pool, members, done, costs, budget)
            assert got[0].dtype == np.intp and got[0].shape == want[0].shape
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        assert any(len(_cluster_queue(state, pool, assign.members(cid), evaluated, costs,
                                      5.0)[0]) > 1 for cid in range(assign.n_clusters))


class TestAdaptiveBudgetFloor:
    """An adaptive batch takes a pick only while its cost stays below m_b, so
    an m_b at or below the cheapest level's cost is a settings error."""

    @pytest.mark.parametrize("method,costs,m_b,cheapest", [
        ("bas", (1.0,), 1.0, 1), ("bas", (1.0,), 0.5, 1),
        ("bas", (1.0, 0.10), 0.5, 1),      # bas runs level 0 only
        ("bams", (1.0, 0.10), 0.1, 0.1), ("bams", (1.0, 0.25), 0.2, 0.25)])
    def test_m_b_that_fits_no_pick_is_rejected(self, method, costs, m_b, cheapest):
        with pytest.raises(InvalidInputError,
                           match=rf"m_b = {m_b:g} fits no {method} pick: the cheapest "
                                 rf"level costs {cheapest:g}"):
            base_config(method=method, fidelities=FidelityConfig(costs), m_b=m_b)

    @pytest.mark.parametrize("method,m_b", [("bas", 1.5), ("bams", 0.15), ("mc", 0.5),
                                            ("mcm-gp", 0.05), ("ce", 1.0)])
    def test_other_budgets_accepted(self, method, m_b):
        assert base_config(method=method, m_b=m_b).m_b == m_b
