"""Command-line front end: run experiments from a config file, compute
splitting bounds, generate the synthetic benchmark, and score external
rankings.

The run configuration is a flat, sectioned key-value text file; see the
README for the schema.  All emitted CSVs carry headers, use a stable
column order, and are byte-identical across re-runs with the same seeds.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .baselines import scores_from_csv
from .driver import RunConfig, run_experiment
from .errors import ConfigError, InvalidInputError, RareSamplerError
from .evaluation import (ScoreVector, repeated_is_trials, retention_recall_curve,
                         splitting_bound)
from .gp import TrainOptions
from .oracles import CsvOracle, ExternalOracle
from .pool import EmbeddingPool, FidelityConfig, read_csv, write_csv
from .synthetic import (SyntheticOracle, SyntheticSpec, export_pool_csv,
                        generate_pool, ground_truth_labels, metric_level0)

METHODS = ("bams", "bas", "mc", "mc-gp", "mcm-gp", "ce", "external-scores")


@dataclass(frozen=True)
class ConfigValue:
    value: str
    line: int


# the keys each section accepts; [fidelity] also takes cost.<level>
CONFIG_KEYS = {
    "pool": {"source", "n", "seed", "center", "path"},
    "fidelity": {"levels", "synthetic_noise_std"},
    "method": {"name", "gamma", "clusters", "initial_clusters", "eta", "train_lr",
               "train_iters", "scores_path"},
    "budget": {"m1", "m_b", "batches"},
    "is": {"alpha", "k_multiple", "k", "trials"},
    "seeds": {"run", "trials"},
    "oracle": {"kind", "noise_seed", "path", "command", "timeout"},
}


def parse_config(path) -> dict[str, dict[str, ConfigValue]]:
    """Parse the sectioned key-value format, remembering line numbers.

    An unknown section or key is an error, so a typo cannot fall back to a
    default unnoticed.
    """
    sections: dict[str, dict[str, ConfigValue]] = {}
    current = None
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in CONFIG_KEYS:
                raise ConfigError(f"line {no}: unknown section [{current}]; expected "
                                  f"one of {sorted(CONFIG_KEYS)}")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {no}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {no}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS[current] and not (
                current == "fidelity" and re.fullmatch(r"cost\.(0|[1-9][0-9]*)", key)):
            raise ConfigError(f"line {no}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {no}: duplicate key {key!r} in [{current}]")
        sections[current][key] = ConfigValue(value, no)
    return sections


class _Config:
    """Typed accessors over the parsed sections with line-numbered errors."""

    def __init__(self, sections):
        self.sections = sections

    def get(self, section, key, default=None, required=False):
        sec = self.sections.get(section, {})
        if key not in sec:
            if required:
                raise ConfigError(f"missing required key {key!r} in [{section}]")
            return default
        return sec[key]

    def _convert(self, section, key, conv, default, required, kind):
        cv = self.get(section, key, required=required)
        if cv is None:
            return default
        try:
            return conv(cv.value)
        except ValueError:
            raise ConfigError(
                f"line {cv.line}: [{section}] {key} must be {kind}, got {cv.value!r}"
            ) from None

    def getfloat(self, section, key, default=None, required=False):
        return self._convert(section, key, float, default, required, "a number")

    def getint(self, section, key, default=None, required=False):
        return self._convert(section, key, int, default, required, "an integer")

    def getstr(self, section, key, default=None, required=False):
        cv = self.get(section, key, required=required)
        return default if cv is None else cv.value

    def line_of(self, section, key):
        cv = self.get(section, key)
        return cv.line if cv else 0


def _build_fidelities(cfg: _Config) -> FidelityConfig:
    levels = cfg.getint("fidelity", "levels", default=1)
    costs = [1.0]
    if cfg.getfloat("fidelity", "cost.0", default=1.0) != 1.0:
        raise ConfigError(f"line {cfg.line_of('fidelity', 'cost.0')}: "
                          f"level-0 cost must be exactly 1")
    for l in range(1, levels):
        c = cfg.getfloat("fidelity", f"cost.{l}", required=True)
        ln = cfg.line_of("fidelity", f"cost.{l}")
        if not 0.0 < c <= 1.0:
            raise ConfigError(f"line {ln}: cost.{l} must lie in (0, 1], got {c}")
        if c == 1.0:
            raise ConfigError(f"line {ln}: cost.{l} must be < 1 for levels >= 1")
        costs.append(c)
    return FidelityConfig(tuple(costs))


def _load_pool_csv(path, need_truth=False):
    """Read a pool CSV in the gen-synthetic layout: coordinates from the
    columns x0..x<d-1> and truth_f_level0 (None when absent, a ConfigError
    naming the file and header when ``need_truth``), all by name."""
    table = read_csv(path)
    dims = sorted(int(h[1:]) for h in table.header if h[:1] == "x" and h[1:].isdigit())
    if not dims or dims != list(range(len(dims))):
        raise ConfigError(f"{path} line 1: coordinate columns must be exactly "
                          f"x0..x<d-1>, got {table.header}")
    pool = EmbeddingPool(np.column_stack([table.column(f"x{j}") for j in dims]))
    has_truth = need_truth or "truth_f_level0" in table.header
    return pool, np.array(table.column("truth_f_level0")) if has_truth else None


def _build_pool(cfg: _Config):
    source = cfg.getstr("pool", "source", default="synthetic")
    if source == "synthetic":
        spec = SyntheticSpec(
            n_points=cfg.getint("pool", "n", default=20000),
            seed=cfg.getint("pool", "seed", default=0),
            gamma=cfg.getfloat("method", "gamma", default=0.56),
            center=cfg.getfloat("pool", "center", default=1.95),
            noise_std=cfg.getfloat("fidelity", "synthetic_noise_std", default=0.1),
        )
        pool = generate_pool(spec)
        truth_f = metric_level0(pool.points, spec)
        return pool, truth_f, spec
    if source == "csv":
        path = cfg.getstr("pool", "path", required=True)
        pool, truth_f = _load_pool_csv(path)
        return pool, truth_f, None
    raise ConfigError(f"line {cfg.line_of('pool', 'source')}: "
                      f"pool source must be 'synthetic' or 'csv', got {source!r}")


def _build_oracle(cfg: _Config, pool, spec):
    kind = cfg.getstr("oracle", "kind", default="synthetic")
    if kind == "synthetic":
        if spec is None:
            raise ConfigError("synthetic oracle requires a synthetic pool")
        return SyntheticOracle(pool, spec,
                               noise_seed=cfg.getint("oracle", "noise_seed", default=0))
    if kind == "csv":
        return CsvOracle(cfg.getstr("oracle", "path", required=True))
    if kind == "command":
        return ExternalOracle(cfg.getstr("oracle", "command", required=True),
                              timeout=cfg.getfloat("oracle", "timeout", default=300.0))
    raise ConfigError(f"line {cfg.line_of('oracle', 'kind')}: "
                      f"oracle kind must be synthetic, csv, or command; got {kind!r}")


def _report(out_dir, method, scores, truth, k, k_multiple, trials, seed) -> None:
    """Write rate_report.csv and retention_recall.csv and print the summary."""
    K = k if k is not None else int(round(k_multiple * int(truth.sum())))
    report = repeated_is_trials(scores, truth, K, trials, seed=seed)
    write_csv(os.path.join(out_dir, "rate_report.csv"),
              ("method", "p_hat_mean", "rv", "recall", "se_rv", "se_recall"),
              [[method], [report.p_hat_mean], [report.rv], [report.recall],
               [report.se_rv], [report.se_recall]])
    write_csv(os.path.join(out_dir, "retention_recall.csv"),
              ("retention_multiple", "recall"), retention_recall_curve(scores, truth).T)
    print(f"{method}: p_hat={report.p_hat_mean:.6g} 100rv={100 * report.rv:.4g} "
          f"recall@K={report.recall:.4g}")
    if np.isnan(report.rv):
        print(f"{method}: no IS trial drew a failure; rv and se_rv are nan",
              file=sys.stderr)


def cmd_run(args) -> int:
    cfg = _Config(parse_config(args.config))
    method = cfg.getstr("method", "name", required=True)
    if method not in METHODS:
        raise ConfigError(f"line {cfg.line_of('method', 'name')}: "
                          f"method must be one of {METHODS}, got {method!r}")
    pool, truth_f, spec = _build_pool(cfg)
    gamma = cfg.getfloat("method", "gamma",
                         default=spec.gamma if spec else None, required=spec is None)
    truth = truth_f <= gamma if truth_f is not None else None
    out_dir = args.out
    # the settings are checked and every input table is read before the
    # artifact directory is made, so neither leaves an empty --out behind
    if method == "external-scores":
        run_cfg = None
        source = scores_from_csv(cfg.getstr("method", "scores_path", required=True),
                                 pool.n_points)
    else:
        run_cfg = _run_config(cfg, method, gamma)
        source = _build_oracle(cfg, pool, spec)
    alpha = cfg.getfloat("is", "alpha", default=2.5)
    try:
        os.makedirs(out_dir, exist_ok=True)
        scores = _run_method(run_cfg, method, pool, source, alpha, out_dir)
    finally:
        if isinstance(source, ExternalOracle):
            source.close()

    if truth is not None and truth.any():
        _report(out_dir, method, scores, truth, cfg.getint("is", "k", default=None),
                cfg.getfloat("is", "k_multiple", default=5.0),
                cfg.getint("is", "trials", default=200),
                cfg.getint("seeds", "trials",
                           default=cfg.getint("seeds", "run", default=0) + 1))
    else:
        print(f"{method}: no ground truth available; skipped rate_report.csv "
              f"and retention_recall.csv", file=sys.stderr)
    return 0


def _run_config(cfg: _Config, method, gamma) -> RunConfig:
    """The run settings of a method that calls an oracle, checked by RunConfig."""
    return RunConfig(
        gamma=gamma,
        fidelities=_build_fidelities(cfg),
        method=method,
        m1=cfg.getfloat("budget", "m1", default=20.0),
        m_b=cfg.getfloat("budget", "m_b", default=15.0),
        batches=cfg.getint("budget", "batches", default=3),
        S=cfg.getint("method", "clusters", default=6),
        S_hat=cfg.getint("method", "initial_clusters", default=None),
        eta=cfg.getfloat("method", "eta", default=2.0),
        seed=cfg.getint("seeds", "run", default=0),
        train=TrainOptions(
            lr=cfg.getfloat("method", "train_lr", default=0.05),
            iters=cfg.getint("method", "train_iters", default=200),
        ),
    )


def _run_method(run_cfg: RunConfig | None, method, pool, source, alpha,
                out_dir) -> ScoreVector:
    """Run the configured method, write its artifacts, and return its final
    scores.  For external-scores (``run_cfg`` None), ``source`` is the
    ScoreVector read from scores_path; every other method runs its oracle
    ``source`` through run_experiment.  The methods whose scores come from no
    failure field (mc, ce, external-scores) also write them to
    scores_final.csv."""
    if run_cfg is None:
        scores = source
    else:
        result = run_experiment(pool, run_cfg, source)
        result.save(out_dir)
        scores = result.scores(alpha)
    if method in ("mc", "ce", "external-scores"):
        write_csv(os.path.join(out_dir, "scores_final.csv"), ("point_index", "score"),
                  (np.arange(scores.scores.size), scores.scores))
    return scores


def cmd_splitting_bound(args) -> int:
    bound = splitting_bound(args.p_gamma, args.delta,
                            target_rv=args.target_rv, budget=args.budget)
    print(f"iterations K = {bound.iterations}")
    print(f"base samples N = {bound.base_samples}")
    if bound.min_total_sims is not None:
        print(f"total simulations >= {bound.min_total_sims}")
    else:
        print(f"100RV >= {100 * bound.rv_lower_bound:.4f}")
    return 0


def cmd_gen_synthetic(args) -> int:
    spec = SyntheticSpec(n_points=args.n, seed=args.seed, gamma=args.gamma,
                         center=args.center)
    pool = generate_pool(spec)
    export_pool_csv(pool, spec, args.out)
    if args.oracle_out:
        oracle = SyntheticOracle(pool, spec, noise_seed=args.noise_seed)
        values = [oracle(i, level) for i in range(pool.n_points) for level in (0, 1)]
        write_csv(args.oracle_out, ("point_index", "level", "f"),
                  (np.repeat(np.arange(pool.n_points), 2), np.tile([0, 1], pool.n_points),
                   values))
    labels = ground_truth_labels(pool, spec)
    print(f"wrote {pool.n_points} points to {args.out}; "
          f"failure rate {labels.mean():.6g}")
    return 0


def cmd_score_report(args) -> int:
    pool, truth_f = _load_pool_csv(args.pool_csv, need_truth=True)
    truth = truth_f <= args.gamma
    if not truth.any():
        raise InvalidInputError("no failures below gamma in the pool CSV")
    scores = scores_from_csv(args.scores, pool.n_points)
    os.makedirs(args.out, exist_ok=True)
    _report(args.out, "external-scores", scores, truth, args.k, args.k_multiple,
            args.trials, args.seed)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rare-sampler",
                                description="Adaptive multifidelity rare-failure "
                                            "discovery and rate estimation")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("config", help="path to the sectioned key-value config")
    run.add_argument("--out", default="out", help="artifact directory")
    run.set_defaults(fn=cmd_run)

    sb = sub.add_parser("splitting-bound",
                        help="multilevel-splitting cost/variance bound")
    sb.add_argument("--p-gamma", type=float, required=True, dest="p_gamma")
    sb.add_argument("--delta", type=float, default=0.1)
    group = sb.add_mutually_exclusive_group(required=True)
    group.add_argument("--target-rv", type=float, dest="target_rv")
    group.add_argument("--budget", type=float)
    sb.set_defaults(fn=cmd_splitting_bound)

    gen = sub.add_parser("gen-synthetic", help="generate the synthetic benchmark pool")
    gen.add_argument("--n", type=int, default=20000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--gamma", type=float, default=0.56)
    gen.add_argument("--center", type=float, default=1.95)
    gen.add_argument("--noise-seed", type=int, default=0, dest="noise_seed")
    gen.add_argument("--out", default="pool.csv")
    gen.add_argument("--oracle-out", default=None, dest="oracle_out",
                     help="also write a precomputed (point_index, level, f) table")
    gen.set_defaults(fn=cmd_gen_synthetic)

    sr = sub.add_parser("score-report",
                        help="evaluate externally supplied per-point scores")
    sr.add_argument("--scores", required=True, help="CSV of (point_index, score)")
    sr.add_argument("--pool-csv", required=True, dest="pool_csv")
    sr.add_argument("--gamma", type=float, required=True)
    sr.add_argument("--k", type=int, default=None)
    sr.add_argument("--k-multiple", type=float, default=5.0, dest="k_multiple")
    sr.add_argument("--trials", type=int, default=200)
    sr.add_argument("--seed", type=int, default=0)
    sr.add_argument("--out", default="out")
    sr.set_defaults(fn=cmd_score_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RareSamplerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
