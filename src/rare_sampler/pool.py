"""Core data containers: candidate pools, fidelity costs, and evaluation logs,
plus the CSV format that every artifact and every input table shares.

The empirical distribution lives on a finite pool of N embedding points.
Every evaluation target is an ``AugmentedInput``: a (point index, fidelity
level) pair, where level 0 is the expensive ground-truth simulator and
higher levels are cheaper, noisier proxies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidInputError, OracleError


class AugmentedInput(NamedTuple):
    """A pool point paired with the fidelity level it is evaluated at."""

    point_index: int
    level: int


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

    def cost(self, level: int) -> float:
        if not 0 <= level < len(self.costs):
            raise InvalidInputError(f"fidelity level {level} out of range")
        return self.costs[level]


@dataclass
class EvaluationLog:
    """Observed simulator values keyed by augmented input.

    Duplicate (point, level) pairs are rejected: simulators are treated as
    deterministic per augmented input, so a repeat evaluation carries no
    information and would break the selection bookkeeping.
    """

    inputs: list[AugmentedInput] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    batches: list[int] = field(default_factory=list)
    _seen: set[AugmentedInput] = field(default_factory=set, repr=False)

    def append(self, inp: AugmentedInput, value: float, batch_index: int) -> None:
        inp = AugmentedInput(int(inp[0]), int(inp[1]))
        if inp in self._seen:
            raise InvalidInputError(f"duplicate evaluation of {inp}")
        if not np.isfinite(value):
            raise InvalidInputError(f"non-finite observation {value!r} at {inp}")
        self._seen.add(inp)
        self.inputs.append(inp)
        self.values.append(float(value))
        self.batches.append(int(batch_index))

    def evaluate(self, oracle, inp: AugmentedInput, batch_index: int) -> float:
        """Query the oracle at one input and record the value.

        Any oracle failure, including a non-finite value, raises OracleError
        naming the point and level.
        """
        inp = AugmentedInput(int(inp[0]), int(inp[1]))
        where = f"point {inp.point_index} level {inp.level}"
        try:
            value = float(oracle(inp.point_index, inp.level))
        except OracleError:
            raise
        except Exception as exc:  # noqa: BLE001 - surface the offending input
            raise OracleError(f"oracle failed at {where}: {exc}") from exc
        if not math.isfinite(value):
            raise OracleError(f"oracle returned non-finite value {value!r} at {where}")
        self.append(inp, value, batch_index)
        return value

    def write_csv(self, path) -> None:
        """The log.csv artifact: one point_index,level,f,batch row per evaluation."""
        idx = np.array(self.inputs, dtype=np.intp).reshape(-1, 2)
        write_csv(path, ("point_index", "level", "f", "batch"),
                  (idx[:, 0], idx[:, 1], self.values, self.batches))

    def __len__(self) -> int:
        return len(self.inputs)

    def __contains__(self, inp: AugmentedInput) -> bool:
        return AugmentedInput(int(inp[0]), int(inp[1])) in self._seen

    @property
    def value_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def normalization(self) -> tuple[float, float]:
        """Mean and std of observed values; std falls back to 1 when degenerate."""
        if not self.values:
            return 0.0, 1.0
        y = self.value_array
        mean = float(y.mean())
        std = float(y.std())
        if std <= 0.0 or len(y) < 2:
            std = 1.0
        return mean, std

    def batch_values(self, batch_index: int) -> np.ndarray:
        return np.array(
            [v for v, b in zip(self.values, self.batches) if b == batch_index],
            dtype=np.float64,
        )


def input_array(pool: EmbeddingPool, inputs) -> np.ndarray:
    """Augmented inputs as an (n, 2) index array of (point index, level) rows,
    from such an array or a sequence of pairs; point indices must lie in
    the pool."""
    arr = np.asarray(inputs, dtype=np.intp)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError(f"augmented inputs must be (point, level) pairs, "
                                f"got shape {arr.shape}")
    if arr[:, 0].min() < 0 or arr[:, 0].max() >= pool.n_points:
        raise InvalidInputError("point index out of pool bounds")
    return arr


def gather_points(pool: EmbeddingPool, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Split augmented inputs into coordinate and level arrays."""
    arr = input_array(pool, inputs)
    return pool.points[arr[:, 0]], arr[:, 1]


# rows formatted per ``%`` call of write_csv, which bounds its transient memory
CSV_BLOCK_ROWS = 4096


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
    with open(path, "w", newline="") as fh:
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
