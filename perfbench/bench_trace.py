"""Spans around the calls into each rare_sampler module, for the traced run.

Calls are wrapped where their callers look them up (a module global or a
class attribute) and only while `Tracer.installed()` is active, so the
untraced rounds run the program exactly as shipped.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

# span that the benchmark opens around one `rare-sampler run`
ROOT = "cli.run"

# spans whose durations, plus the self times of the SELF_SPANS, add up to
# the root span: the blocking steps of one experiment
LAYER_SPANS = {
    "acquisition.pending_init_s": "acquisition.pending_init",
    "acquisition.select_next_s": "acquisition.select_next",
    "clustering.cluster_s": "clustering.cluster",
    "gp.train_s": "gp.train",
    "gp.fit_s": "gp.fit",
    "estimator.field_s": "estimator.field",
    "synthetic.oracle_s": "synthetic.oracle",
    "evaluation.is_trials_s": "evaluation.is_trials",
    "cli.save_s": "cli.save",
}
SELF_SPANS = {"driver.self_s": "driver.run_experiment", "cli.self_s": ROOT}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    parent: int | None
    experiment: int
    attrs: dict = field(default_factory=dict)
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _pending_attrs(pending):
    # read before the step: k already pending, |T| x |C| cells swept
    return {"k": len(pending.selected),
            "cells": pending.n_targets * len(pending.candidates)}


def _mll_attrs(pool, log, hyper):
    return {"n_train": len(log)}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.experiment = -1

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(sid, name, 0.0, parent, self.experiment, attrs or {})
        self.spans.append(sp)
        self._stack.append(sid)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, attrs_fn(*args) if attrs_fn else None):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the module entry points for the duration of the block."""
        from rare_sampler import (acquisition, cli, clustering, driver, gp,
                                  synthetic)
        targets = [
            (cli, "run_experiment", "driver.run_experiment", None),
            (cli, "repeated_is_trials", "evaluation.is_trials", None),
            (driver.ExperimentResult, "save", "cli.save", None),
            (driver, "cluster_with_merges", "clustering.cluster", None),
            (clustering, "kmeans", "clustering.kmeans", None),
            (driver, "train_hyperparameters", "gp.train", None),
            (gp, "marginal_log_likelihood", "gp.mll", _mll_attrs),
            (driver, "fit_posterior", "gp.fit", None),
            (driver, "failure_prob", "estimator.field", None),
            (acquisition.PendingSet, "__init__", "acquisition.pending_init", None),
            (acquisition.PendingSet, "select_next", "acquisition.select_next",
             _pending_attrs),
            (synthetic.SyntheticOracle, "__call__", "synthetic.oracle", None),
        ]
        saved = []
        try:
            for owner, attr, name, attrs_fn in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, attrs_fn))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"id": sp.sid, "name": sp.name, "start": sp.start,
                                     "end": sp.end, "parent": sp.parent,
                                     "experiment": sp.experiment,
                                     **sp.attrs}) + "\n")

    def layer_metrics(self, experiments) -> dict[str, float]:
        """Per-layer figures averaged over the traced experiments."""
        chosen = set(experiments)
        spans = [sp for sp in self.spans if sp.experiment in chosen]
        n_exp = len(chosen)
        child_time: dict[int, float] = {}
        for sp in spans:
            if sp.parent is not None:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration

        def total(name):
            return sum(sp.duration for sp in spans if sp.name == name)

        out = {key: total(name) / n_exp for key, name in LAYER_SPANS.items()}
        for key, name in SELF_SPANS.items():
            out[key] = sum(sp.duration - child_time.get(sp.sid, 0.0)
                           for sp in spans if sp.name == name) / n_exp
        steps = [sp for sp in spans if sp.name == "acquisition.select_next"]
        cells = sum(sp.attrs["cells"] for sp in steps)
        mll = [sp for sp in spans if sp.name == "gp.mll"]
        out.update({
            "acquisition.steps": len(steps) / n_exp,
            "acquisition.max_pending": max((sp.attrs["k"] for sp in steps),
                                           default=0),
            "acquisition.ns_per_cell_step": (1e9 * total("acquisition.select_next")
                                             / cells if cells else 0.0),
            "clustering.kmeans_s": total("clustering.kmeans") / n_exp,
            "gp.mll_calls": len(mll) / n_exp,
            "gp.mll_ms": 1e3 * total("gp.mll") / len(mll) if mll else 0.0,
            "gp.n_train_max": max((sp.attrs["n_train"] for sp in mll), default=0),
            "trace.run_s": total(ROOT) / n_exp,
        })
        return out
