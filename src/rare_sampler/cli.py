"""Command-line front end: run experiments from a config file (an oracle
method, or the rate report of an external ranking's scores), compute
splitting bounds, and generate the synthetic benchmark.

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
from typing import NamedTuple

import numpy as np

from .baselines import scores_from_csv
from .driver import ORACLE_METHODS, RunConfig, run_experiment
from .errors import ConfigError, InvalidInputError, RareSamplerError
from .evaluation import (IsOptions, repeated_is_trials, retention_recall_curve,
                         splitting_bound)
from .oracles import CsvOracle, ExternalOracle
from .pool import EmbeddingPool, FidelityConfig, read_csv, write_csv
from .synthetic import (SyntheticOracle, SyntheticSpec, export_pool_csv,
                        generate_pool, ground_truth_labels, metric_level0)

METHODS = ORACLE_METHODS + ("external-scores",)


@dataclass(frozen=True)
class ConfigValue:
    value: str
    line: int


class KeySpec(NamedTuple):
    """A config key: the type of its value, the class whose parameter it
    fills (named as the key unless ``param`` says otherwise), whose default
    an absent key keeps, and the values it may take (any when None)."""

    type: type
    owner: type | None = None
    param: str | None = None
    choices: tuple | None = None


# the keys each section accepts; [fidelity] also takes cost.<level>, a number
CONFIG_KEYS = {
    "pool": {"source": KeySpec(str, choices=("synthetic", "csv")),
             "n": KeySpec(int, SyntheticSpec, "n_points"),
             "seed": KeySpec(int, SyntheticSpec), "center": KeySpec(float, SyntheticSpec),
             "path": KeySpec(str)},
    "fidelity": {"levels": KeySpec(int),
                 "synthetic_noise_std": KeySpec(float, SyntheticSpec, "noise_std")},
    "method": {"name": KeySpec(str, choices=METHODS),
               "gamma": KeySpec(float, SyntheticSpec),
               "clusters": KeySpec(int, RunConfig, "S"),
               "initial_clusters": KeySpec(int, RunConfig, "S_hat"),
               "eta": KeySpec(float, RunConfig),
               "train_iters": KeySpec(int, RunConfig),
               "scores_path": KeySpec(str)},
    "budget": {"m1": KeySpec(float, RunConfig), "m_b": KeySpec(float, RunConfig),
               "batches": KeySpec(int, RunConfig)},
    "is": {"alpha": KeySpec(float, IsOptions), "k_multiple": KeySpec(float, IsOptions),
           "trials": KeySpec(int, IsOptions)},
    "seeds": {"run": KeySpec(int, RunConfig, "seed"), "trials": KeySpec(int)},
    "oracle": {"kind": KeySpec(str, choices=("synthetic", "csv", "command")),
               "noise_seed": KeySpec(int, SyntheticOracle), "path": KeySpec(str),
               "command": KeySpec(str), "timeout": KeySpec(float, ExternalOracle)},
}
_COST_KEY = re.compile(r"cost\.(0|[1-9][0-9]*)")
_KINDS = {int: "an integer", float: "a number"}


def key_spec(section: str, key: str) -> KeySpec | None:
    """The table entry of ``key`` in [section], None for a key it does not accept."""
    if section == "fidelity" and _COST_KEY.fullmatch(key):
        return KeySpec(float)
    return CONFIG_KEYS[section].get(key)


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
        if key_spec(current, key) is None:
            raise ConfigError(f"line {no}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {no}: duplicate key {key!r} in [{current}]")
        sections[current][key] = ConfigValue(value, no)
    return sections


def _typed(section: str, key: str, cv: ConfigValue):
    """The value of one key as its CONFIG_KEYS type, checked against its choices."""
    spec = key_spec(section, key)
    try:
        value = spec.type(cv.value)
    except ValueError:
        raise ConfigError(f"line {cv.line}: [{section}] {key} must be "
                          f"{_KINDS[spec.type]}, got {cv.value!r}") from None
    if spec.choices is not None and value not in spec.choices:
        raise ConfigError(f"line {cv.line}: [{section}] {key} must be one of "
                          f"{spec.choices}, got {value!r}")
    return value


class _Config:
    """The parsed sections with every key the file sets typed and checked
    once, whether or not the method reads it; errors name the line."""

    def __init__(self, sections):
        self.sections = sections
        self.values = {section: {key: _typed(section, key, cv) for key, cv in keys.items()}
                       for section, keys in sections.items()}

    def value(self, section, key, default=None, required=False):
        """The typed value of one key, or ``default`` when the file leaves it out."""
        values = self.values.get(section, {})
        if required and key not in values:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return values.get(key, default)

    def settings(self, owner) -> dict:
        """The values of the keys the file sets that fill ``owner``'s parameters,
        by parameter name, so every absent key keeps owner's default."""
        return {spec.param or key: self.values[section][key]
                for section, keys in CONFIG_KEYS.items() for key, spec in keys.items()
                if spec.owner is owner and key in self.values.get(section, {})}


def _build_fidelities(cfg: _Config) -> FidelityConfig:
    """The [fidelity] costs, checked by FidelityConfig: levels and cost.0 take
    its default (level 0 alone, at cost 1), cost.1 .. cost.<levels-1> are
    required, and a cost of a level past them is an error.  Every error
    names the line of the key at fault."""
    default = FidelityConfig()
    levels = cfg.value("fidelity", "levels", default.n_levels)
    for key, cv in cfg.sections.get("fidelity", {}).items():
        if key.startswith("cost.") and int(key[5:]) >= levels:
            raise ConfigError(f"line {cv.line}: {key} is set, but levels = {levels} "
                              f"has no level {key[5:]}")
    costs, key = (), "levels"
    try:
        for level in range(levels):
            key = f"cost.{level}"
            costs += (cfg.value("fidelity", key, default.costs[0], required=level > 0),)
            FidelityConfig(costs)              # each level is checked as it is added
        return FidelityConfig(costs)
    except InvalidInputError as exc:
        raise ConfigError(f"line {cfg.sections['fidelity'][key].line}: {exc}") from None


def _load_pool_csv(path):
    """Read a pool CSV in the gen-synthetic layout: coordinates from the
    columns x0..x<d-1> and truth_f_level0 (None when absent), all by name.
    Row order is the point id, so an index column must read 0..N-1."""
    table = read_csv(path)
    if "index" in table.header:
        index = np.array(table.column("index", integer=True))
        r = int(np.argmax(index != np.arange(index.size)))
        if index[r] != r:
            raise ConfigError(f"{path} line {table.lines[r]}: index {index[r]}, expected "
                              f"{r}; the index column must read 0..N-1 down the rows")
    dims = sorted(int(h[1:]) for h in table.header if h[:1] == "x" and h[1:].isdigit())
    if not dims or dims != list(range(len(dims))):
        raise ConfigError(f"{path} line 1: coordinate columns must be exactly "
                          f"x0..x<d-1>, got {table.header}")
    pool = EmbeddingPool(np.column_stack([table.column(f"x{j}") for j in dims]))
    has_truth = "truth_f_level0" in table.header
    return pool, np.array(table.column("truth_f_level0")) if has_truth else None


def _build_pool(cfg: _Config):
    if cfg.value("pool", "source") == "csv":
        pool, truth_f = _load_pool_csv(cfg.value("pool", "path", required=True))
        return pool, truth_f, None
    spec = SyntheticSpec(**cfg.settings(SyntheticSpec))
    pool = generate_pool(spec)
    return pool, metric_level0(pool.points, spec), spec


def _build_oracle(cfg: _Config, pool, spec, n_levels: int):
    """The run's oracle; a synthetic one must answer every level the run
    queries, ``n_levels`` after RunConfig trims them."""
    kind = cfg.value("oracle", "kind")
    if kind == "csv":
        return CsvOracle(cfg.value("oracle", "path", required=True))
    if kind == "command":
        return ExternalOracle(cfg.value("oracle", "command", required=True),
                              **cfg.settings(ExternalOracle))
    if spec is None:
        raise ConfigError("synthetic oracle requires a synthetic pool")
    if n_levels > 2:
        cv = cfg.sections["fidelity"]["levels"]
        raise ConfigError(f"line {cv.line}: the synthetic oracle has levels 0 and 1, "
                          f"but the run queries levels up to {n_levels - 1}")
    return SyntheticOracle(pool, spec, **cfg.settings(SyntheticOracle))


def _report(out_dir, method, scores, truth, K: int, trials: int, seed) -> None:
    """Write rate_report.csv and retention_recall.csv and print the summary."""
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


def _refuse_used_out_dir(path) -> None:
    """An existing --out must be an empty directory, or old files would mix in."""
    if os.path.lexists(path) and not os.path.isdir(path):
        raise InvalidInputError(f"cannot make the artifact directory {path}: File exists")
    try:
        used = os.path.isdir(path) and os.listdir(path)
    except OSError as exc:
        raise InvalidInputError(f"cannot make the artifact directory {path}: "
                                f"{exc.strerror}") from None
    if used:
        raise InvalidInputError(f"the artifact directory {path} is not empty; "
                                f"run writes only into a new or empty one")


def _make_out_dir(path) -> None:
    """Make --out, once the run has refused a used one."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot make the artifact directory {path}: "
                                f"{exc.strerror}") from None


def cmd_run(args) -> int:
    cfg = _Config(parse_config(args.config))
    _refuse_used_out_dir(args.out)
    method = cfg.value("method", "name", required=True)
    pool, truth_f, spec = _build_pool(cfg)
    gamma = spec.gamma if spec else cfg.value("method", "gamma", required=True)
    truth = truth_f <= gamma if truth_f is not None else None
    is_opts = IsOptions(**cfg.settings(IsOptions))
    K = is_opts.sample_size(truth) if truth is not None and truth.any() else None
    fidelities = _build_fidelities(cfg)
    run_seed = cfg.value("seeds", "run", RunConfig.seed)
    trials_seed = cfg.value("seeds", "trials", run_seed + 1)
    if trials_seed < 0:
        raise InvalidInputError(f"trials seed must be >= 0, got {trials_seed}")
    # the settings, K among them, are checked and every input table is read
    # before the artifact directory is made, so none leaves an empty --out behind.
    # external-scores calls no oracle, yet its run settings are range-checked
    # too, as mc's: mc meets none of the method-dependent checks
    run_cfg = RunConfig(gamma=gamma, fidelities=fidelities,
                        method=method if method in ORACLE_METHODS else "mc",
                        **cfg.settings(RunConfig))
    if method == "external-scores":
        scores = scores_from_csv(cfg.value("method", "scores_path", required=True),
                                 pool.n_points)
        _make_out_dir(args.out)
    else:
        try:
            run_cfg.check_pool(pool.n_points)
        except InvalidInputError as exc:
            keys = cfg.sections.get("method", {})
            cv = keys.get("initial_clusters") or keys.get("clusters")
            raise ConfigError(f"line {cv.line}: {exc}" if cv else str(exc)) from None
        oracle = _build_oracle(cfg, pool, spec, run_cfg.fidelities.n_levels)
        try:
            _make_out_dir(args.out)
            result = run_experiment(pool, run_cfg, oracle)
        finally:
            if isinstance(oracle, ExternalOracle):
                oracle.close()
        result.save(args.out)
        scores = result.scores(is_opts.alpha)
    if method in ("mc", "ce", "external-scores"):
        # the final scores of the methods without a failure field
        write_csv(os.path.join(args.out, "scores_final.csv"), ("point_index", "score"),
                  (np.arange(scores.scores.size), scores.scores))

    if K is not None:
        _report(args.out, method, scores, truth, K, is_opts.trials, trials_seed)
    else:
        reason = ("no ground truth available" if truth is None
                  else f"no pool point fails at gamma = {gamma}")
        print(f"{method}: {reason}; skipped rate_report.csv and retention_recall.csv",
              file=sys.stderr)
    return 0


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


def _given(args, *names) -> dict:
    """The flags among ``names`` given on the command line; the gen-synthetic
    parser leaves out the ones not given, so each takes the default of the
    class it fills."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def cmd_gen_synthetic(args) -> int:
    spec = SyntheticSpec(**_given(args, "n_points", "seed", "gamma", "center"))
    pool = generate_pool(spec)
    # built, and both destinations checked, before any file is written, so a
    # bad --noise-seed or --oracle-out writes nothing
    oracle = SyntheticOracle(pool, spec, **_given(args, "noise_seed"))
    for path in filter(None, (args.out, args.oracle_out)):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise InvalidInputError(f"cannot write {path}: {folder} is not a directory")
    if args.oracle_out and os.path.realpath(args.oracle_out) == os.path.realpath(args.out):
        raise InvalidInputError(f"--out {args.out} and --oracle-out {args.oracle_out} "
                                f"name the same file")
    export_pool_csv(pool, spec, args.out)
    if args.oracle_out:
        values = [oracle(i, level) for i in range(pool.n_points) for level in (0, 1)]
        write_csv(args.oracle_out, ("point_index", "level", "f"),
                  (np.repeat(np.arange(pool.n_points), 2), np.tile([0, 1], pool.n_points),
                   values))
    labels = ground_truth_labels(pool, spec)
    print(f"wrote {pool.n_points} points to {args.out}; "
          f"failure rate {labels.mean():.6g}")
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

    gen = sub.add_parser("gen-synthetic", help="generate the synthetic benchmark pool",
                         argument_default=argparse.SUPPRESS)
    gen.add_argument("--n", type=int, dest="n_points")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--gamma", type=float)
    gen.add_argument("--center", type=float)
    gen.add_argument("--noise-seed", type=int, dest="noise_seed")
    gen.add_argument("--out", default="pool.csv")
    gen.add_argument("--oracle-out", default=None, dest="oracle_out",
                     help="also write a precomputed (point_index, level, f) table")
    gen.set_defaults(fn=cmd_gen_synthetic)
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
