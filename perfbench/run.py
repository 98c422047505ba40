"""Benchmark for rare-sampler: seeded workloads, checked outputs, timings.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bams-mf --seed 0 --seconds 30 --trace 0

Each call runs one workload in a fresh single-process child (one BLAS and
OpenMP thread, cluster workers left at 1) that calls ``rare_sampler.cli.main``
once per experiment, checks every experiment's artifacts against an
independent recomputation, and repeats whole rounds of its experiment panel
until ``--seconds`` have passed.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "bench_child.py"
# one thread: the program then picks the same points on every run (thread
# count changes BLAS summation order), and neighbours on a shared host
# disturb the timings less
THREADS = "1"
# import-only children timed for setup_s, half before and half after the
# worker, so the median samples the host over the whole run
SETUP_PROBES = 10
DEADLINE_S = 170.0      # the whole command, probes included


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("RARE_SAMPLER_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def start_child(extra, env, root):
    """Start a child; return it and the seconds until it reported ready."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD)] + extra, cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.monotonic() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child did not start: exit {proc.returncode}")
    return proc, ready


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="fixes the order of the panel's experiments in each round")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny pools and one round, for the benchmark's own tests")
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rare_sampler" / "__init__.py").is_file():
        print(f"no rare_sampler sources under {root / 'src'}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env(root)
    extra = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        extra.append("--smoke")
    # the traced run reports no setup_s, so it starts no probes
    probes = 0 if args.trace else 1 if args.smoke else SETUP_PROBES
    setup = []

    def probe(count):
        for _ in range(count):
            proc, ready = start_child(["--probe"], env, root)
            finish(proc, deadline)
            setup.append(ready)

    try:
        probe(probes - probes // 2)
        proc, _ = start_child(extra, env, root)
        out = finish(proc, deadline)
        result = json.loads(out.strip().splitlines()[-1])
        probe(probes // 2)
    except (RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
