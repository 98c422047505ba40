"""Oracle bindings: synthetic in-process, CSV-precomputed, and an external
child process speaking a line protocol.

The external protocol is one request per line on the child's stdin,
``EVAL <point_index> <level>``, answered on stdout with ``OK <float>`` or
``ERR <message>``.  Requests are serialized per child; a configurable
timeout (default 300 s) guards each response, and a timeout kills the
child, so every later request fails instead of reading a stale reply.
"""

from __future__ import annotations

import queue
import shlex
import subprocess
import threading

from .errors import InvalidInputError, OracleError
from .pool import read_csv

DEFAULT_TIMEOUT = 300.0


class CsvOracle:
    """Precomputed values from CSV rows of (point_index, level, f)."""

    def __init__(self, path):
        table = read_csv(path)
        self.values: dict[tuple[int, int], float] = {}
        for line, i, level, f in zip(table.lines, table.column("point_index", integer=True),
                                     table.column("level", integer=True), table.column("f")):
            if (i, level) in self.values:
                raise InvalidInputError(f"{path} line {line}: repeated point {i} level {level}")
            self.values[(i, level)] = f

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
        try:
            argv = shlex.split(command)
            if not argv:
                raise ValueError("empty command")
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
            )
        except (OSError, ValueError) as exc:
            raise OracleError(f"cannot start oracle command {command!r}: {exc}") from exc
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
        """Close stdin, reap the child (killed after 5 s) and close its stdout.

        Safe to call more than once, and after the child has exited or been
        killed on a timeout.
        """
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        # the reader thread owns stdout until EOF, which a grandchild that
        # inherited the pipe can hold back; closing under it would race
        self._reader.join(timeout=5)
        if not self._reader.is_alive():
            self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
