"""Oracle bindings: synthetic in-process, CSV-precomputed, and an external
child process speaking a line protocol.

The external protocol is one request per line on the child's stdin,
``EVAL <point_index> <level>``, answered on stdout with ``OK <float>`` or
``ERR <message>``.  Requests are serialized per child; a configurable
timeout (default 300 s) guards each response, and a timeout kills the
child, so every later request fails instead of reading a stale reply.
"""

from __future__ import annotations

import csv
import queue
import shlex
import subprocess
import threading

from .errors import InvalidInputError, OracleError

DEFAULT_TIMEOUT = 300.0


class CsvOracle:
    """Precomputed values from CSV rows of (point_index, level, f)."""

    def __init__(self, path):
        self.values: dict[tuple[int, int], float] = {}
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or not row[0].strip() or not row[0].strip().lstrip("-").isdigit():
                    continue
                self.values[(int(row[0]), int(row[1]))] = float(row[2])
        if not self.values:
            raise InvalidInputError(f"no oracle rows found in {path}")

    def __call__(self, point_index: int, level: int) -> float:
        try:
            return self.values[(int(point_index), int(level))]
        except KeyError:
            raise OracleError(
                f"no precomputed value for point {point_index} level {level}"
            ) from None


class ExternalOracle:
    """Child-process oracle speaking the EVAL/OK/ERR line protocol."""

    def __init__(self, command: str, timeout: float = DEFAULT_TIMEOUT):
        self.command = command
        self.timeout = timeout
        self._lock = threading.Lock()
        self._proc = subprocess.Popen(
            shlex.split(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self):
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def __call__(self, point_index: int, level: int) -> float:
        request = f"EVAL {int(point_index)} {int(level)}"
        with self._lock:
            if self._proc.poll() is not None:
                raise OracleError(
                    f"oracle process exited with code {self._proc.returncode} "
                    f"before request {request!r}"
                )
            try:
                self._proc.stdin.write(request + "\n")
                self._proc.stdin.flush()
            except (BrokenPipeError, ValueError) as exc:
                raise OracleError(f"oracle pipe closed during {request!r}") from exc
            try:
                line = self._lines.get(timeout=self.timeout)
            except queue.Empty:
                # a late reply would answer the next request: end the child
                self._proc.kill()
                self._proc.wait()
                raise OracleError(
                    f"oracle timed out after {self.timeout}s on {request!r}; "
                    f"oracle process killed"
                ) from None
        if line is None:
            code = self._proc.wait()
            raise OracleError(f"oracle exited (code {code}) during {request!r}")
        line = line.strip()
        if line.startswith("OK "):
            try:
                return float(line[3:])
            except ValueError:
                raise OracleError(
                    f"malformed oracle value {line!r} for {request!r}"
                ) from None
        if line.startswith("ERR"):
            raise OracleError(f"oracle error for {request!r}: {line[3:].strip()}")
        raise OracleError(f"malformed oracle response {line!r} for {request!r}")

    def close(self):
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except Exception:
                pass
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
