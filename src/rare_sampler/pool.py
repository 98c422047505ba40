"""Core data containers: candidate pools, fidelity costs, and evaluation logs,
plus the CSV format that every artifact and every input table shares.

The empirical distribution lives on a finite pool of N embedding points.
Every evaluation target is an augmented input: a (point index, fidelity
level) pair, where level 0 is the expensive ground-truth simulator and
higher levels are cheaper, noisier proxies.  The pipeline holds sets of
them as (n, 2) integer index rows (``input_array``), and a single one as a
(point index, level) pair; a message names one as ``point i level l``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInputError, OracleError


@dataclass(frozen=True)
class EmbeddingPool:
    """N points in R^d holding the empirical distribution.

    Point ids are their row indices, 0..N-1.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidInputError(
                f"pool must be a (N, d) array with N >= 1, d >= 1, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("pool contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class FidelityConfig:
    """Evaluation costs per fidelity level.

    Level 0 is the reference simulator and must cost exactly 1; every
    cheaper level must cost strictly less than 1 and more than 0.
    """

    costs: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        costs = tuple(float(c) for c in self.costs)
        if len(costs) < 1:
            raise InvalidInputError("at least one fidelity level is required")
        if costs[0] != 1.0:
            raise InvalidInputError(f"level-0 cost must be exactly 1.0, got {costs[0]}")
        for l, c in enumerate(costs[1:], start=1):
            if not (0.0 < c < 1.0):
                raise InvalidInputError(
                    f"cost of level {l} must lie in (0, 1), got {c}"
                )
        object.__setattr__(self, "costs", costs)

    @property
    def n_levels(self) -> int:
        return len(self.costs)


class EvaluationLog:
    """Observed simulator values keyed by augmented input, as arrays:
    ``inputs`` holds (n, 2) ``intp`` rows of (point index, level), and
    ``values`` and ``batches`` hold each row's value and batch index.

    Duplicate (point, level) pairs are rejected: simulators are treated as
    deterministic per augmented input, so a repeat evaluation carries no
    information and would break the selection bookkeeping.
    """

    def __init__(self):
        self.inputs = np.empty((0, 2), dtype=np.intp)
        self.values = np.empty(0)
        self.batches = np.empty(0, dtype=np.intp)

    def _new_rows(self, inputs) -> np.ndarray:
        """One pair or (m, 2) rows as an (m, 2) array; a logged or repeated row is an error."""
        rows = input_array(None, np.atleast_2d(inputs))
        both = np.concatenate([self.inputs, rows])
        repeat = np.ones(len(both), dtype=bool)
        repeat[np.unique(both, axis=0, return_index=True)[1]] = False
        if repeat.any():
            i, level = both[repeat.argmax()].tolist()
            raise InvalidInputError(f"duplicate evaluation of point {i} level {level}")
        return rows

    def append(self, inputs, values, batch_index: int) -> None:
        """Log one pair and its value, or (m, 2) rows and their m values."""
        rows = self._new_rows(inputs)
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if values.shape != (len(rows),):
            raise InvalidInputError(f"{len(rows)} inputs need as many values, "
                                    f"got shape {values.shape}")
        bad = ~np.isfinite(values)
        if bad.any():
            i, level = rows[bad][0].tolist()
            raise InvalidInputError(f"non-finite observation {float(values[bad][0])!r} at "
                                    f"point {i} level {level}")
        self.inputs = np.concatenate([self.inputs, rows])
        self.values = np.append(self.values, values)
        self.batches = np.append(self.batches, np.full(len(rows), batch_index, dtype=np.intp))

    def evaluate(self, oracle, inputs, batch_index: int) -> np.ndarray:
        """Query the oracle at one pair or (m, 2) rows in order, after the duplicate
        check, and log and return the values.  An oracle failure or non-finite
        value raises OracleError naming the point and level; earlier rows stay logged."""
        rows = self._new_rows(inputs)
        values = []
        try:
            for i, level in rows.tolist():
                where = f"point {i} level {level}"
                try:
                    value = float(oracle(i, level))
                except OracleError:
                    raise
                except Exception as exc:  # noqa: BLE001 - surface the offending input
                    raise OracleError(f"oracle failed at {where}: {exc}") from exc
                if not math.isfinite(value):
                    raise OracleError(f"oracle returned non-finite value {value!r} at {where}")
                values.append(value)
        finally:
            self.append(rows[:len(values)], values, batch_index)
        return np.array(values)

    def write_csv(self, path) -> None:
        """The log.csv artifact: one point_index,level,f,batch row per evaluation."""
        write_csv(path, ("point_index", "level", "f", "batch"),
                  (self.inputs[:, 0], self.inputs[:, 1], self.values, self.batches))

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, inp) -> bool:
        return bool((self.inputs == (int(inp[0]), int(inp[1]))).all(axis=1).any())

    def normalization(self) -> tuple[float, float]:
        """Mean and std of observed values; std falls back to 1 when degenerate."""
        if len(self) == 0:
            return 0.0, 1.0
        mean = float(self.values.mean())
        std = float(self.values.std())  # exactly 0 for one value
        return mean, std if std > 0.0 else 1.0


def input_array(pool: EmbeddingPool | None, inputs) -> np.ndarray:
    """Augmented inputs as an (n, 2) index array of (point index, level) rows,
    from such an array or a sequence of pairs; point indices and levels must
    be >= 0, and point indices must lie in the pool, when one is given."""
    arr = np.asarray(inputs, dtype=np.intp)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError(f"augmented inputs must be (point, level) pairs, "
                                f"got shape {arr.shape}")
    outside = (arr[:, 0] < 0) | (arr[:, 0] >= pool.n_points if pool is not None else False)
    if outside.any():
        i, level = arr[outside.argmax()]
        span = f"; the pool holds points 0..{pool.n_points - 1}" if pool is not None else ""
        raise InvalidInputError(f"point index out of pool bounds: point {i} level {level}{span}")
    if arr[:, 1].min() < 0:
        raise InvalidInputError(f"fidelity level must be >= 0, got {arr[:, 1].min()}")
    return arr


def check_budget(budget: float) -> None:
    """Reject a budget that is not positive and finite; NaN compares false."""
    if not 0.0 < budget < np.inf:
        raise InvalidInputError(f"budget must be positive and finite, got {budget!r}")


def gather_points(pool: EmbeddingPool, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Split augmented inputs into coordinate and level arrays."""
    arr = input_array(pool, inputs)
    return pool.points[arr[:, 0]], arr[:, 1]


# rows formatted per ``%`` call of write_csv, which bounds its transient memory
CSV_BLOCK_ROWS = 4096


def open_artifact(path):
    """Open an artifact file for writing, its lines written as given; a file
    that cannot be opened is an InvalidInputError naming the path."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc.strerror}") from None


def write_csv(path, header, columns) -> None:
    """Write a CSV artifact from one sequence per column: a header line, then
    one line per row, every line ending in \\r\\n.  Integer columns print as
    decimal ints, float columns at 17 significant digits (``%.17g``, an exact
    round trip, with ``nan``, ``inf``, ``-inf`` and ``-0``) and any other
    column as str, unquoted, so its cells must hold no comma, quote or line
    break.  Each block of CSV_BLOCK_ROWS rows is formatted by one ``%`` call."""
    cols = [np.asarray(c) for c in columns]
    kinds = [col.dtype.kind for col in cols]
    row = ",".join("%d" if k in "iu" else "%.17g" if k == "f" else "%s"
                   for k in kinds) + "\r\n"
    with open_artifact(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cols[0]), CSV_BLOCK_ROWS):
            block = [col[start:start + CSV_BLOCK_ROWS].tolist() for col in cols]
            cells = [None] * (len(block[0]) * len(cols))
            for j, values in enumerate(block):
                cells[j::len(cols)] = values
            fh.write((row * len(block[0])) % tuple(cells))


class CsvTable(NamedTuple):
    """The data rows of a headered CSV file, with the line number of each row."""

    path: str
    header: list[str]          # the first line
    lines: tuple[int, ...]     # line number of each data row
    rows: tuple[list[str], ...]

    def column(self, name: str, integer: bool = False) -> list:
        """One named column as finite floats, or as ints; else a ConfigError."""
        if self.header.count(name) != 1:
            raise ConfigError(f"{self.path} line 1: need one {name!r} column in {self.header}")
        j, out = self.header.index(name), []
        kind = "non-integer" if integer else "non-numeric or non-finite"
        for line, row in zip(self.lines, self.rows):
            try:
                out.append(int(row[j]) if integer else float(row[j]))
                if not math.isfinite(out[-1]):
                    raise ValueError
            except (ValueError, OverflowError):
                raise ConfigError(f"{self.path} line {line}: {kind} {name} cell "
                                  f"{row[j]!r}") from None
        return out


def read_csv(path) -> CsvTable:
    """Read a CSV input table: a header line, then data rows as wide as it.
    Blank rows are skipped; a fault is a ConfigError naming the file and line."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            rows = [(reader.line_num, row) for row in reader if "".join(row).strip()]
    except (OSError, UnicodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path} line 1: no data rows")
    for line, row in rows:
        if len(row) != len(header):
            raise ConfigError(f"{path} line {line}: {len(row)} cells, header has {len(header)}")
    return CsvTable(path, header, *zip(*rows))
