import re
import tracemalloc

import numpy as np
import pytest

from helpers import reference_write_csv
from rare_sampler import (CsvOracle, EmbeddingPool, EvaluationLog, FidelityConfig,
                          InvalidInputError, OracleError, RareSamplerError,
                          random_acquisition)
from rare_sampler.pool import CSV_BLOCK_ROWS, gather_points, input_array, write_csv

# floats whose text form the writer must get right: round-trip digits, signed
# zero, infinities, NaN, subnormals and the largest and smallest magnitudes
SPECIAL = [0.1, -0.0, 0.0, float("inf"), float("-inf"), float("nan"), 1e-300, 5e-324,
           1.0, -2.5e17, 1.0 / 3.0, 1.7976931348623157e308, 123456789.0]


class TestWriteCsv:
    """The one-format writer against the csv-module row loop, byte for byte."""

    def check(self, tmp_path, header, columns, rows):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(got, header, columns)
        reference_write_csv(want, header, rows)
        assert got.read_bytes() == want.read_bytes()

    def test_special_values_and_a_string_column(self, tmp_path):
        n = len(SPECIAL)
        ints = np.arange(n, dtype=np.intp) * -(10**15) + 7
        names = ["bams", "mc-gp", "external-scores", "x"] * 3 + ["ce"]
        columns = (names, ints, np.array(SPECIAL), [float(v) for v in SPECIAL[::-1]])
        rows = zip(names, ints.tolist(), SPECIAL, SPECIAL[::-1])
        self.check(tmp_path, ("method", "i", "a", "b"), columns, rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_floats_over_every_exponent(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)
        self.check(tmp_path, ("point_index", "x"), (np.arange(x.size), x),
                   zip(range(x.size), x.tolist()))

    def test_python_lists_as_columns(self, tmp_path):
        # the selected-batch columns: ints and floats held in lists
        pts, lvls, dj, cost = [4, 0, 17], [1, 0, 1], [-0.25, float("nan"), 0.0], [0.1, 1.0, 0.1]
        self.check(tmp_path, ("point_index", "level", "deltaJ", "cost"),
                   (pts, lvls, dj, cost), zip(pts, lvls, dj, cost))

    def test_header_only_table(self, tmp_path):
        self.check(tmp_path, ("point_index", "level", "deltaJ", "cost"),
                   ([], [], [], []), [])

    @pytest.mark.parametrize("n_rows", [2 * CSV_BLOCK_ROWS + 37, 3 * CSV_BLOCK_ROWS,
                                        CSV_BLOCK_ROWS + 1])
    def test_tables_spanning_row_blocks(self, tmp_path, n_rows):
        # several blocks, an exact multiple of the block, one row past a block
        rng = np.random.default_rng(n_rows)
        x = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
        names = [("bams", "mc", "ce")[i % 3] for i in range(n_rows)]
        idx = np.arange(n_rows)
        self.check(tmp_path, ("point_index", "x", "method"), (idx, x, names),
                   zip(idx.tolist(), x.tolist(), names))

    def test_transient_memory_stays_with_the_block(self, tmp_path):
        # one % call over all 102400 rows peaks near 20 MB; one block, under 1 MB
        n = 25 * CSV_BLOCK_ROWS
        columns = (np.arange(n), np.linspace(0.0, 1.0, n), np.linspace(1.0, 2.0, n))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", ("i", "a", "b"), columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    def test_log_matches_row_loop(self, tmp_path):
        log = EvaluationLog()
        rng = np.random.default_rng(1)
        for i in range(40):
            log.append((i, i % 2), float(rng.standard_normal()), 1 + i // 15)
        log.write_csv(tmp_path / "got.csv")
        reference_write_csv(tmp_path / "want.csv", ("point_index", "level", "f", "batch"),
                            ((i, level, v, b) for (i, level), v, b
                             in zip(log.inputs.tolist(), log.values.tolist(),
                                    log.batches.tolist())))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestInputArray:
    def test_pairs_and_arrays_agree(self):
        pool = EmbeddingPool(np.arange(20.0).reshape(10, 2))
        pairs = [(3, 1), (0, 0), (9, 2)]
        arr = input_array(pool, pairs)
        assert arr.dtype == np.intp and arr.shape == (3, 2)
        np.testing.assert_array_equal(arr, [[3, 1], [0, 0], [9, 2]])
        np.testing.assert_array_equal(input_array(pool, arr), arr)
        pts, lvls = gather_points(pool, arr)
        np.testing.assert_array_equal(pts, pool.points[[3, 0, 9]])
        np.testing.assert_array_equal(lvls, [1, 0, 2])
        assert input_array(pool, []).shape == (0, 2)

    @pytest.mark.parametrize("bad", [[(1, 0, 2), (2, 0, 1)], [1, 2], [[[1, 0]]]])
    def test_non_pairs_rejected(self, bad):
        pool = EmbeddingPool(np.zeros((5, 2)))
        with pytest.raises(InvalidInputError, match="pairs"):
            input_array(pool, bad)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_point_outside_pool_rejected(self, index):
        pool = EmbeddingPool(np.zeros((5, 2)))
        with pytest.raises(InvalidInputError, match="out of pool bounds"):
            input_array(pool, [(0, 0), (index, 0)])
        # the first offending row is named, with the pool's index range
        with pytest.raises(InvalidInputError, match=(
                rf"^point index out of pool bounds: point {index} level 1; "
                r"the pool holds points 0\.\.4$")):
            input_array(pool, [(0, 0), (index, 1), (-2, 0), (7, 0)])


    @pytest.mark.parametrize("with_pool", [True, False], ids=["pool", "no-pool"])
    def test_negative_index_or_level_rejected(self, with_pool):
        pool = EmbeddingPool(np.zeros((5, 2))) if with_pool else None
        with pytest.raises(InvalidInputError, match="out of pool bounds"):
            input_array(pool, [(0, 0), (-1, 0)])
        span = "; the pool holds points 0\\.\\.4" if with_pool else ""
        with pytest.raises(InvalidInputError,
                           match=rf"^point index out of pool bounds: point -3 level 1{span}$"):
            input_array(pool, [(0, 0), (-3, 1)])
        with pytest.raises(InvalidInputError, match=r"^fidelity level must be >= 0, got -2$"):
            input_array(pool, [(0, 0), (1, -2)])


class TestEvaluationLog:
    """The log as arrays: one pair or (m, 2) rows per append, one oracle
    query per row in order, and no input logged twice."""

    @staticmethod
    def counting_oracle(fail_at=None):
        calls = []

        def oracle(i, level):
            if len(calls) == fail_at:
                raise RuntimeError("simulator crashed")
            calls.append((i, level))
            return 0.5 * i + level

        return oracle, calls

    def test_rows_and_pairs_agree(self):
        rows, pairs = EvaluationLog(), EvaluationLog()
        rows.append([(3, 1), (0, 0)], [0.5, -1.0], 1)
        rows.append(np.array([[7, 0]]), [2.0], 2)
        for inp, value, batch in (((3, 1), 0.5, 1), ((0, 0), -1.0, 1),
                                  ((7, 0), 2.0, 2)):
            pairs.append(inp, value, batch)
        for log in (rows, pairs):
            assert log.inputs.dtype == np.intp and log.batches.dtype == np.intp
            np.testing.assert_array_equal(log.inputs, [[3, 1], [0, 0], [7, 0]])
            np.testing.assert_array_equal(log.values, [0.5, -1.0, 2.0])
            np.testing.assert_array_equal(log.batches, [1, 1, 2])
        assert (0, 0) in rows and (0, 1) not in rows and len(rows) == 3

    @pytest.mark.parametrize("rows,named", [([(4, 0), (2, 1), (4, 0)], (4, 0)),
                                            ([(5, 0), (1, 1)], (1, 1))],
                             ids=["within-batch", "already-logged"])
    def test_repeated_input_raises_before_any_query(self, rows, named):
        log = EvaluationLog()
        log.append((1, 1), 0.0, 1)
        oracle, calls = self.counting_oracle()
        with pytest.raises(InvalidInputError, match=re.escape(
                "duplicate evaluation of point {} level {}".format(*named))):
            log.evaluate(oracle, rows, 2)
        assert calls == [] and len(log) == 1

    def test_oracle_failure_keeps_the_rows_before_it(self):
        log = EvaluationLog()
        oracle, calls = self.counting_oracle(fail_at=3)
        with pytest.raises(OracleError, match="point 9 level 0: simulator crashed"):
            log.evaluate(oracle, [(2, 0), (4, 1), (6, 0), (9, 0), (11, 1)], 1)
        np.testing.assert_array_equal(log.inputs, [[2, 0], [4, 1], [6, 0]])
        np.testing.assert_array_equal(log.values, [1.0, 3.0, 3.0])
        np.testing.assert_array_equal(log.batches, [1, 1, 1])

    def test_evaluate_returns_the_logged_values(self):
        log = EvaluationLog()
        oracle, calls = self.counting_oracle()
        values = log.evaluate(oracle, np.array([[4, 1], [2, 0]]), 3)
        assert calls == [(4, 1), (2, 0)]
        np.testing.assert_array_equal(values, [3.0, 1.0])
        np.testing.assert_array_equal(log.values, values)

    def test_negative_level_is_not_logged(self):
        # a negative level would index the GP's per-level tables from the end
        log = EvaluationLog()
        with pytest.raises(InvalidInputError, match=r"^fidelity level must be >= 0, got -1$"):
            log.append((0, -1), 1.0, 1)
        assert len(log) == 0 and log.inputs.shape == (0, 2)

    def test_non_finite_value_names_the_input(self):
        log = EvaluationLog()
        with pytest.raises(InvalidInputError, match=r"^non-finite observation nan at "
                           r"point 5 level 1$"):
            log.append([(2, 0), (5, 1)], np.array([1.0, np.nan]), 1)
        with pytest.raises(OracleError, match=r"^oracle returned non-finite value nan at "
                           r"point 5 level 1$"):
            log.evaluate(lambda i, level: np.float64(np.nan), (5, 1), 1)
        assert len(log) == 0

    @pytest.mark.parametrize("act,named", [
        (lambda log, table: log.evaluate(table, [(3, 0), (7, 1), (3, 0)], 2), (3, 0)),
        (lambda log, table: log.evaluate(table, [(3, 0), (1, 1)], 2), (1, 1)),
        (lambda log, table: log.append([(3, 0), (7, 1)], [0.5, np.nan], 2), (7, 1)),
        (lambda log, table: log.evaluate(lambda i, level: 1 / 0, (7, 1), 2), (7, 1)),
        (lambda log, table: log.evaluate(lambda i, level: np.inf, (7, 1), 2), (7, 1)),
        (lambda log, table: log.evaluate(table, [(3, 0), (7, 0)], 2), (7, 0))],
        ids=["within-batch", "already-logged", "non-finite-append", "oracle-exception",
             "non-finite-oracle", "csv-oracle-miss"])
    def test_every_message_names_the_input_as_point_and_level(self, tmp_path, act, named):
        path = tmp_path / "oracle.csv"
        path.write_text("point_index,level,f\n3,0,0.5\n7,1,-1.0\n")
        log = EvaluationLog()
        log.append((1, 1), 0.0, 1)
        with pytest.raises(RareSamplerError, match=r"\bpoint {} level {}\b".format(*named)):
            act(log, CsvOracle(path))


class TestRandomAcquisitionExclude:
    def test_array_matches_pairs(self):
        pool = EmbeddingPool(np.zeros((30, 2)))
        fid = FidelityConfig((1.0, 0.25))
        pairs = [(i, i % 2) for i in range(0, 30, 3)]
        from_pairs = random_acquisition(pool, fid, 6.0, seed=4, exclude=pairs)
        from_array = random_acquisition(pool, fid, 6.0, seed=4, exclude=np.array(pairs))
        np.testing.assert_array_equal(from_pairs, from_array)
        assert not set(map(tuple, from_pairs.tolist())) & set(pairs)

    @pytest.mark.parametrize("index", [-1, 30])
    def test_out_of_pool_exclude_raises(self, index):
        pool = EmbeddingPool(np.zeros((30, 2)))
        with pytest.raises(InvalidInputError, match="out of pool bounds"):
            random_acquisition(pool, FidelityConfig((1.0,)), 3.0, seed=0,
                               exclude=[(0, 0), (index, 0)])
