"""Benchmark child: runs one workload's experiments in a single process.

Started by run.py with the thread pinning already in its environment.  It
prints ``ready`` once ``rare_sampler`` is imported, then runs whole rounds
of the experiment panel until the time is up, checks every experiment's
artifacts, and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--probe", action="store_true",
                   help="import rare_sampler, report ready and exit")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = _parse(argv)
    import rare_sampler.cli as cli
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"rare_sampler imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    print("ready", flush=True)
    if args.probe:
        return 0

    import numpy as np
    from bench_checks import check_experiment, quality
    from bench_trace import LAYER_SPANS, ROOT, SELF_SPANS, Tracer
    from bench_workloads import PANEL, WORKLOADS, smoke

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    workdir = Path(".perfbench_work") / w.name       # cwd is the checkout root
    workdir.mkdir(parents=True, exist_ok=True)
    configs = {}
    for s in PANEL:
        configs[s] = workdir / f"seed{s}.cfg"
        configs[s].write_text(w.config_text(s))

    tracer = Tracer()
    # the seed fixes the order of the panel in each round
    order_rng = np.random.default_rng(args.seed)
    records = []          # (seed, traced, wall seconds) of successful experiments
    traced_ids = []
    problems: list[str] = []
    digests: dict[int, str] = {}
    qualities: dict[int, dict] = {}
    attempted = failed = 0
    # two rounds at least (one in an untraced smoke run): the traced run needs
    # a warm untraced one, and a seed's run_s is then never one cold experiment
    min_rounds = 1 if args.smoke and not args.trace else 2
    start = time.perf_counter()
    rnd = 0
    while True:
        # traced rounds alternate with untraced ones, starting after a warm round
        traced = bool(args.trace) and rnd % 2 == 1
        for s in order_rng.permutation(PANEL).tolist():
            out = workdir / f"seed{s}"
            shutil.rmtree(out, ignore_errors=True)
            exp_id = attempted
            attempted += 1
            argv_run = ["run", str(configs[s]), "--out", str(out)]
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(tracer.installed())
                    tracer.experiment = exp_id
                    stack.enter_context(tracer.span(ROOT))
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv_run)
                except Exception:  # noqa: BLE001 - count it, keep measuring
                    rc = traceback.format_exc()
                wall = time.perf_counter() - t0
            if rc != 0:
                failed += 1
                print(f"{w.name} seed {s}: run failed: {rc}", file=sys.stderr)
                continue
            problems += check_experiment(out, w, s)
            digest = _digest(out)
            if digests.setdefault(s, digest) != digest:
                problems.append(f"{w.name} seed {s}: artifacts differ between rounds")
            if s not in qualities:
                try:
                    qualities[s] = quality(out, w, s)
                except (OSError, ValueError, KeyError, IndexError):
                    pass        # already reported by the checks
            records.append((s, traced, wall))
            print(f"{w.name} round {rnd} seed {s}{' traced' if traced else ''}: "
                  f"{wall:.3f} s", file=sys.stderr)
            if traced:
                traced_ids.append(exp_id)
        rnd += 1
        if args.smoke and rnd >= min_rounds:
            break
        # stop before a round that would, at the mean pace so far, end past --seconds
        if rnd >= min_rounds and (time.perf_counter() - start) * (rnd + 1) / rnd > args.seconds:
            break
    if not qualities:
        print("\n".join([f"{w.name}: no experiment left readable artifacts"]
                        + problems), file=sys.stderr)
        return 1

    def mean_quality(key):
        return statistics.fmean(q[key] for q in qualities.values())

    untraced = [(s, t) for s, tr, t in records if not tr]
    if not args.trace:
        per_seed = [statistics.median(t for s2, t in untraced if s2 == s)
                    for s in {s for s, _ in untraced}]
        metrics = {
            "run_s": (statistics.fmean(per_seed), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "rv_x100": (math.exp(statistics.fmean(math.log(q["rv_x100"])
                                                  for q in qualities.values())), "%"),
            "recall_at_k": (mean_quality("recall"), "fraction"),
        }
    else:
        tracer.write(workdir / f"spans_seed{args.seed}.jsonl")
        layers = tracer.layer_metrics(traced_ids)
        untraced_run_s = statistics.fmean(t for _, t in untraced)
        blocking = sum(layers[k] for k in list(LAYER_SPANS) + list(SELF_SPANS))
        if abs(blocking - layers["trace.run_s"]) > 1e-6 * layers["trace.run_s"]:
            problems.append(f"{w.name}: layer times add up to {blocking}, "
                            f"traced run to {layers['trace.run_s']}")
        units = {"acquisition.steps": "count", "acquisition.max_pending": "count",
                 "acquisition.ns_per_cell_step": "ns", "gp.mll_calls": "count",
                 "gp.mll_ms": "ms", "gp.n_train_max": "count"}
        metrics = {k: (v, units.get(k, "s")) for k, v in layers.items()}
        metrics.update({
            "trace.overhead_s": (layers["trace.run_s"] - untraced_run_s, "s"),
            "estimator.final_J": (mean_quality("final_J"), "fraction"),
            "driver.evals": (mean_quality("evals"), "count"),
            "driver.failures_found": (mean_quality("failures_found"), "count"),
        })
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
