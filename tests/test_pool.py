import tracemalloc

import numpy as np
import pytest

from helpers import reference_write_csv
from rare_sampler import AugmentedInput, EmbeddingPool, EvaluationLog, InvalidInputError
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
            log.append(AugmentedInput(i, i % 2), float(rng.standard_normal()), 1 + i // 15)
        log.write_csv(tmp_path / "got.csv")
        reference_write_csv(tmp_path / "want.csv", ("point_index", "level", "f", "batch"),
                            ((inp.point_index, inp.level, v, b) for inp, v, b
                             in zip(log.inputs, log.values, log.batches)))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestInputArray:
    def test_pairs_and_arrays_agree(self):
        pool = EmbeddingPool(np.arange(20.0).reshape(10, 2))
        pairs = [AugmentedInput(3, 1), AugmentedInput(0, 0), (9, 2)]
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
