import argparse
import csv
import inspect
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import rare_sampler
from rare_sampler import (ConfigError, FidelityConfig, InvalidInputError, OracleError,
                          SyntheticOracle, scores_from_csv)
from rare_sampler.cli import (CONFIG_KEYS, METHODS, _load_pool_csv, build_parser, key_spec,
                              main, parse_config)
from rare_sampler.oracles import CsvOracle, ExternalOracle

ECHO_ORACLE = textwrap.dedent("""\
    import sys
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "EVAL":
            print("ERR bad request"); sys.stdout.flush(); continue
        idx, level = int(parts[1]), int(parts[2])
        if idx == 13:
            print("ERR boom")
        else:
            print(f"OK {idx * 0.5 + level}")
        sys.stdout.flush()
""")

# answers every request with `OK <answer>`, or a finite value when the answer
# argument is "value"; writes its pid first so a test can check it has exited
PID_ORACLE = textwrap.dedent("""\
    import os, sys
    with open(sys.argv[1], "w") as fh:
        fh.write(str(os.getpid()))
    for line in sys.stdin:
        idx, level = (int(v) for v in line.split()[1:])
        answer = f"{idx * 0.01 + level * 0.1}" if sys.argv[2] == "value" else sys.argv[2]
        print(f"OK {answer}")
        sys.stdout.flush()
""")


def synthetic_config(tmp_path, method="bams", n=300, extra=""):
    text = textwrap.dedent(f"""\
        # synthetic desk-scale run
        [pool]
        source = synthetic
        n = {n}
        seed = 0

        [fidelity]
        levels = 2
        cost.1 = 0.10

        [method]
        name = {method}
        gamma = 0.56
        clusters = 2
        initial_clusters = 4
        eta = 1.0
        train_iters = 20

        [budget]
        m1 = 6
        m_b = 3
        batches = 2

        [is]
        alpha = 2.5
        k_multiple = 2
        trials = 50

        [seeds]
        run = 0
        trials = 99

        [oracle]
        kind = synthetic
        {extra}
    """)
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_parse_sections_and_lines(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("[pool]\nn = 10\n# comment\nseed = 3\n")
        sections = parse_config(path)
        assert sections["pool"]["n"].value == "10"
        assert sections["pool"]["seed"].line == 4

    def test_key_outside_section_is_line_numbered(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("n = 10\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("[pool]\nn = 10\nn = 20\n")
        with pytest.raises(ConfigError, match="line 3"):
            parse_config(path)

    def test_unknown_key_rejected_with_line_section_and_key(self, tmp_path, capsys):
        cfg = synthetic_config(tmp_path)
        text = cfg.read_text().replace("m_b = 3", "mb = 10")
        cfg.write_text(text)
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        line = text.splitlines().index("mb = 10") + 1
        assert f"config error: line {line}: unknown key 'mb' in [budget]" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("after,setting,section", [
        ("train_iters = 20", "train_lr = 0.05", "method"),
        ("k_multiple = 2", "k = 10", "is")], ids=["train_lr", "is-k"])
    def test_removed_settings_are_unknown_keys(self, tmp_path, capsys, after, setting,
                                               section):
        # the Adam step is fixed at 0.05, and K is always k_multiple x failures
        cfg = synthetic_config(tmp_path)
        text = cfg.read_text().replace(after, f"{after}\n{setting}")
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        line = text.splitlines().index(setting) + 1
        key = setting.split(" = ")[0]
        assert capsys.readouterr().err == (
            f"config error: line {line}: unknown key '{key}' in [{section}]\n")
        assert not (tmp_path / "o").exists()

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("[pool]\nn = 10\n\n[bugdet]\nm1 = 5\n")
        with pytest.raises(ConfigError, match=r"line 4: unknown section \[bugdet\]"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["cost", "cost.", "cost.x", "cost.01", "levels.1"])
    def test_malformed_cost_key_rejected(self, tmp_path, key):
        path = tmp_path / "a.cfg"
        path.write_text(f"[fidelity]\nlevels = 2\n{key} = 0.1\n")
        with pytest.raises(ConfigError, match=f"line 3: unknown key '{re.escape(key)}'"):
            parse_config(path)

    def test_documented_and_benchmark_keys_parse(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        schema = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1]
        path = tmp_path / "readme.cfg"
        path.write_text(schema.split("```", 1)[0] + "[fidelity]\ncost.0 = 1\ncost.12 = 0.1\n")
        sections = parse_config(path)
        assert sections["budget"]["m_b"].value == "15"
        assert sections["fidelity"]["cost.12"].value == "0.1"
        sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
        try:
            from bench_workloads import WORKLOADS
        finally:
            sys.path.pop(0)
        for w in WORKLOADS.values():
            path.write_text(w.config_text(seed=3))
            assert parse_config(path)["method"]["name"].value == w.method

    def test_bad_fidelity_cost_rejected(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        text = cfg.read_text().replace("cost.1 = 0.10", "cost.1 = 1.5")
        cfg.write_text(text)
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_level0_cost_must_be_one(self, tmp_path, capsys):
        for value in ("0.9", "abc"):
            cfg = synthetic_config(tmp_path, extra="")
            text = cfg.read_text().replace("levels = 2", f"levels = 2\ncost.0 = {value}")
            cfg.write_text(text)
            rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
            assert rc == 2, value
            line = text.splitlines().index(f"cost.0 = {value}") + 1
            assert f"config error: line {line}:" in capsys.readouterr().err

    def test_unknown_method_rejected(self, tmp_path):
        cfg = synthetic_config(tmp_path, method="bogus")
        rc = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("levels, costs, stray", [
        (1, "cost.1 = 0.1\ncost.7 = 5", "cost.1"),
        (2, "cost.1 = 0.1\ncost.7 = 5", "cost.7"),
        (2, "cost.2 = 0.5\ncost.1 = 0.1", "cost.2"),
    ])
    def test_cost_of_a_level_past_levels_is_an_error(self, tmp_path, capsys, levels, costs,
                                                      stray):
        cfg = synthetic_config(tmp_path)
        text = cfg.read_text().replace("levels = 2\ncost.1 = 0.10",
                                       f"levels = {levels}\n{costs}")
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        line = next(no for no, raw in enumerate(text.splitlines(), start=1)
                    if raw.startswith(stray))
        assert capsys.readouterr().err == (
            f"config error: line {line}: {stray} is set, but levels = {levels} has no "
            f"level {stray[5:]}\n")
        assert not (tmp_path / "o").exists()

    def test_levels_below_one_names_its_line(self, tmp_path, capsys):
        cfg = synthetic_config(tmp_path)
        text = cfg.read_text().replace("levels = 2\ncost.1 = 0.10", "levels = 0")
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        line = text.splitlines().index("levels = 0") + 1
        assert capsys.readouterr().err == (
            f"config error: line {line}: at least one fidelity level is required\n")
        assert not (tmp_path / "o").exists()


class TestReadmeConfig:
    """The README's config block and the CLI's key table agree: every key is
    documented and every documented key is accepted, every default the README
    states is the default of the parameter that key fills, and the prose names
    exactly the classes whose parameters the keys fill."""

    @staticmethod
    def documented():
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1]
        keys, section = {}, None
        for raw in block.split("```", 1)[0].splitlines():
            if raw.startswith("["):
                section = raw.strip("[]")
            elif "=" in raw:
                key, _, rest = raw.partition("=")
                found = re.search(r"\((?:synthetic default )?([-+.0-9e]+)\)\s*$", rest)
                keys[(section, key.strip())] = float(found.group(1)) if found else None
        return keys

    @staticmethod
    def default_of(section, key):
        spec = CONFIG_KEYS[section][key]
        if spec.owner is None:
            # levels sizes FidelityConfig's costs; no other owner-less key has one
            assert (section, key) == ("fidelity", "levels")
            return FidelityConfig().n_levels
        return inspect.signature(spec.owner).parameters[spec.param or key].default

    def test_every_key_in_the_table_is_documented(self):
        documented = self.documented()
        table = {(section, key) for section, keys in CONFIG_KEYS.items() for key in keys}
        assert table - set(documented) == set()
        assert {(s, k) for s, k in documented if key_spec(s, k) is None} == set()
        assert any(key_spec(s, k) is not None and k.startswith("cost.")
                   for s, k in documented)

    def test_prose_names_the_owner_classes(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        prose = " ".join(readme.split("### Config format", 1)[1].split("```ini", 1)[0].split())
        listed = re.search(r"the library parameter it fills \(([^)]*)\)", prose).group(1)
        owners = {spec.owner.__name__ for keys in CONFIG_KEYS.values()
                  for spec in keys.values() if spec.owner is not None}
        assert set(re.findall(r"`(?:\w+\.)?(\w+)`", listed)) == owners

    def test_documented_defaults_are_the_parameter_defaults(self):
        documented = self.documented()
        stated = {sk: v for sk, v in documented.items() if v is not None}
        assert len(stated) >= 15
        for (section, key), value in stated.items():
            assert self.default_of(section, key) == value, (section, key)
        # and every numeric default a parameter owns is stated
        for section, keys in CONFIG_KEYS.items():
            for key, spec in keys.items():
                default = self.default_of(section, key) if spec.owner else None
                if isinstance(default, (int, float)):
                    assert documented[(section, key)] == default, (section, key)


class TestReadmeCommandLine:
    """Every `rare-sampler ...` line of the README's Command line block parses
    with the CLI's own parser (nothing is run), and the block shows every
    subcommand the parser has."""

    @staticmethod
    def documented():
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line\n", 1)[1].split("```bash\n", 1)[1]
        return [shlex.split(line)[1:] for line in block.split("```", 1)[0].splitlines()
                if line.startswith("rare-sampler ")]

    def test_every_documented_command_parses(self):
        parser = build_parser()
        commands = self.documented()
        for argv in commands:
            parser.parse_args(argv)
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert sorted(argv[0] for argv in commands) == sorted(subparsers.choices)

    def test_score_report_is_not_a_command(self, capsys):
        # an external ranking is scored by `run` with name = external-scores
        with pytest.raises(SystemExit) as exc:
            main(["score-report", "--scores", "scores.csv", "--pool-csv", "pool.csv",
                  "--gamma", "0.56"])
        assert exc.value.code == 2
        assert "invalid choice: 'score-report'" in capsys.readouterr().err


class TestReadmeArtifactLayout:
    """The README's Artifact layout lists exactly the file name patterns that
    `run` writes: every file of a bams, mc, ce and external-scores run matches
    a listed pattern, and every listed pattern is written by one of them."""

    @staticmethod
    def documented():
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Artifact layout\n", 1)[1].split("\n###", 1)[0]
        return {m.group(1) for m in re.finditer(r"^- `([^`]+)`", section, re.MULTILINE)}

    def test_listed_patterns_are_the_written_ones(self, tmp_path):
        written = set()
        for method in ("bams", "mc", "ce", "external-scores"):
            cfg = synthetic_config(tmp_path, method=method, n=200)
            if method == "external-scores":
                scores = tmp_path / "scores.csv"
                scores.write_text("point_index,score\n"
                                  + "".join(f"{i},{1.0 + i % 7}\n" for i in range(200)))
                cfg.write_text(cfg.read_text().replace(
                    "[budget]", f"scores_path = {scores}\n\n[budget]"))
            out = tmp_path / method
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            written |= {re.sub(r"\d+", "<k>", p.name) for p in out.iterdir()}
        assert "selected_batch<k>.csv" in written
        assert written == self.documented()


class TestRunCommand:
    def test_bams_smoke_emits_all_files(self, tmp_path, capsys):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        for name in ("log.csv", "rate_report.csv", "retention_recall.csv",
                     "scores_batch1.csv", "selected_batch2.csv",
                     "hyperparams_batch2.txt"):
            assert (out / name).exists(), name

    @pytest.mark.parametrize("method", METHODS)
    def test_seeded_reruns_are_byte_identical(self, tmp_path, method):
        cfg = synthetic_config(tmp_path, method=method)
        if method == "external-scores":
            scores = tmp_path / "scores.csv"
            scores.write_text("point_index,score\n"
                              + "".join(f"{i},{1.0 + i % 7}\n" for i in range(300)))
            cfg.write_text(cfg.read_text().replace(
                "[budget]", f"scores_path = {scores}\n\n[budget]"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert "rate_report.csv" in names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_mc_and_ce_paths(self, tmp_path):
        for method in ("mc", "ce"):
            cfg = synthetic_config(tmp_path, method=method)
            out = tmp_path / f"out_{method}"
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            assert (out / "rate_report.csv").exists()
            assert (out / "scores_final.csv").exists()

    @pytest.mark.parametrize("method", ["mc", "ce", "bams", "bas", "mc-gp", "mcm-gp"])
    def test_mc_and_ce_selected_batches_follow_the_log(self, tmp_path, method):
        # every oracle method's selected_batch<k>.csv holds batch k's log.csv
        # rows in order; a random or ce pick has deltaJ nan, an adaptive one
        # a finite deltaJ <= 0, and every cost is its level's cost
        cfg = synthetic_config(tmp_path, method=method)
        cfg.write_text(cfg.read_text().replace("batches = 2", "batches = 3"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        with open(out / "log.csv", newline="") as fh:
            log_rows = list(csv.DictReader(fh))
        batches = sorted({int(r["batch"]) for r in log_rows})
        assert batches == [1, 2, 3]
        written = sorted(p.name for p in out.glob("selected_batch*.csv"))
        assert written == [f"selected_batch{b}.csv" for b in batches]
        for b in batches:
            with open(out / f"selected_batch{b}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            expected = [(r["point_index"], r["level"]) for r in log_rows
                        if int(r["batch"]) == b]
            assert [(r["point_index"], r["level"]) for r in rows] == expected
            assert rows
            for r in rows:
                assert r["cost"] == ("1", "0.10000000000000001")[int(r["level"])]
                if b > 1 and method in ("bams", "bas"):
                    assert float(r["deltaJ"]) <= 0.0
                else:
                    assert r["deltaJ"] == "nan"

    @pytest.mark.parametrize("method", ["mc", "ce", "bams"])
    def test_zero_batches_is_one_error_for_every_method(self, tmp_path, capsys, method):
        cfg = synthetic_config(tmp_path, method=method)
        cfg.write_text(cfg.read_text().replace("batches = 2", "batches = 0"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: batches must be >= 1\n"

    # NaN compares false with any bound, so each setting is checked as
    # lo < x < inf: a NaN that got through would run to exit status 0
    @pytest.mark.parametrize("edit", [
        ("batches = 2", "batches = 0"), ("eta = 1.0", "eta = 0.5"),
        ("gamma = 0.56", "gamma = nan"), ("gamma = 0.56", "gamma = inf"),
        ("gamma = 0.56", "gamma = -inf"), ("m1 = 6", "m1 = nan"), ("m1 = 6", "m1 = inf"),
        ("m_b = 3", "m_b = nan"), ("m_b = 3", "m_b = inf"), ("eta = 1.0", "eta = nan"),
        ("eta = 1.0", "eta = inf")],
        ids=["batches", "eta", "gamma-nan", "gamma-inf", "gamma-neginf", "m1-nan",
             "m1-inf", "m_b-nan", "m_b-inf", "eta-nan", "eta-inf"])
    @pytest.mark.parametrize("method", ["mc", "bas", "bams"])
    def test_bad_settings_leave_no_artifact_directory(self, tmp_path, capsys, monkeypatch,
                                                      method, edit):
        calls = []

        def refuse(oracle, i, level):
            calls.append((i, level))
            raise AssertionError("oracle called")

        monkeypatch.setattr(SyntheticOracle, "__call__", refuse)
        cfg = synthetic_config(tmp_path, method=method)
        assert edit[0] in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(*edit))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not calls
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit,error", [
        (("n = 300", "n = -5"), "pool size n must be >= 1, got -5"),
        (("seed = 0\n", "seed = 0\ncenter = inf\n"), "center must be finite, got inf"),
        (("cost.1 = 0.10", "cost.1 = 0.10\nsynthetic_noise_std = nan"),
         "synthetic noise_std must be >= 0 and finite, got nan"),
    ], ids=["n", "center", "noise-std"])
    def test_synthetic_settings_fail_before_any_work(self, tmp_path, capsys,
                                                     monkeypatch, edit, error):
        monkeypatch.setattr(SyntheticOracle, "__call__", None)
        cfg = synthetic_config(tmp_path)
        assert edit[0] in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(*edit, 1))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["bams", "mcm-gp"])
    def test_synthetic_oracle_past_level_1_is_a_config_error(self, tmp_path, capsys,
                                                             method):
        cfg = synthetic_config(tmp_path, method=method)
        text = cfg.read_text().replace("levels = 2\ncost.1 = 0.10",
                                       "levels = 3\ncost.1 = 0.10\ncost.2 = 0.5")
        cfg.write_text(text)
        line = text.splitlines().index("levels = 3") + 1
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"config error: line {line}: the synthetic oracle has levels 0 and 1, but "
            f"the run queries levels up to 2\n")
        assert not (tmp_path / "out").exists()

    def test_single_level_method_keeps_running_with_three_levels(self, tmp_path):
        # bas trims its fidelities to level 0, so the synthetic oracle serves it
        cfg = synthetic_config(tmp_path, method="bas")
        cfg.write_text(cfg.read_text().replace("levels = 2\ncost.1 = 0.10",
                                               "levels = 3\ncost.1 = 0.10\ncost.2 = 0.5"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "rate_report.csv").exists()

    @pytest.mark.parametrize("method", ["bams", "external-scores"])
    def test_out_that_is_a_file_is_named(self, tmp_path, capsys, method):
        cfg = synthetic_config(tmp_path, method=method)
        if method == "external-scores":
            scores = tmp_path / "scores.csv"
            scores.write_text("point_index,score\n"
                              + "".join(f"{i},1\n" for i in range(300)))
            cfg.write_text(cfg.read_text().replace(
                "[budget]", f"scores_path = {scores}\n\n[budget]"))
        out = tmp_path / "out"
        out.write_text("keep")
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot make the artifact directory {out}: File exists\n")
        assert out.read_text() == "keep"

    def test_out_that_holds_files_is_refused(self, tmp_path, capsys):
        # an existing empty folder is taken; a rerun into a run's folder is
        # refused before any oracle call, so no stale batch file can stay
        # beside a new log.csv
        cfg = synthetic_config(tmp_path, method="mc-gp")
        cfg.write_text(cfg.read_text().replace("batches = 2", "batches = 3"))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "selected_batch3.csv" in before
        cfg.write_text(cfg.read_text().replace("batches = 3", "batches = 2"))
        capsys.readouterr()
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: the artifact directory {out} is not empty; run writes only "
            f"into a new or empty one\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_m_b_that_fits_no_pick_is_an_error(self, tmp_path, capsys):
        # bas evaluates level 0 at cost 1, so m_b = 1 would leave every
        # adaptive batch empty
        cfg = synthetic_config(tmp_path, method="bas", n=200)
        cfg.write_text(cfg.read_text().replace("m1 = 6", "m1 = 5")
                       .replace("m_b = 3", "m_b = 1"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: m_b = 1 fits no bas pick: the cheapest level costs 1, and an "
            "adaptive batch's cost must stay below m_b\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method,edit,error", [
        ("bas", ("trials = 50", "trials = 1"), "trials must be >= 2, got 1"),
        ("bas", ("k_multiple = 2", "k_multiple = -1"),
         "k_multiple must be positive and finite, got -1.0"),
        ("bas", ("k_multiple = 2", "k_multiple = 0.01"),
         "IS sample size K must be >= 1, got 0 (k_multiple 0.01 x "),
        ("bas", ("alpha = 2.5", "alpha = -1"), "alpha must be >= 0 and finite, got -1.0"),
        ("bas", ("alpha = 2.5", "alpha = 30"),
         "alpha = 30 underflows the score floor: 1e-12 ** alpha is below the smallest "
         "normal double, so a point with p_n <= 1e-12 would get q = 0; alpha must be "
         "<= 25.6"),
        ("bas", ("train_iters = 20", "train_iters = -5"), "training iters must be >= 0, got -5"),
        ("bams", ("run = 0", "run = -1"), "run seed must be >= 0, got -1"),
        ("bams", ("trials = 99", "trials = -1"), "trials seed must be >= 0, got -1"),
        ("bams", ("seed = 0\n", "seed = -3\n"), "pool seed must be >= 0, got -3"),
        ("bams", ("kind = synthetic", "kind = synthetic\nnoise_seed = -2"),
         "noise_seed must be >= 0, got -2")],
        ids=["is-trials", "is-k_multiple", "is-K-from-truth", "is-alpha",
             "is-alpha-underflow", "train_iters",
             "seeds-run", "seeds-trials", "pool-seed", "oracle-noise_seed"])
    def test_bad_settings_fail_before_the_run(self, tmp_path, capsys, monkeypatch, method,
                                              edit, error):
        # IS, training and seed settings are checked, and K computed from the
        # truth labels, before the oracle is called or --out is made
        calls = []

        def refuse(oracle, i, level):
            calls.append((i, level))
            raise AssertionError("oracle called")

        monkeypatch.setattr(SyntheticOracle, "__call__", refuse)
        cfg = synthetic_config(tmp_path, method=method, n=600)
        assert edit[0] in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(*edit))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        assert not calls
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method,edits,line", [
        ("bams", (("clusters = 2\n", "clusters = 200\n"),
                  ("initial_clusters = 4", "initial_clusters = 400")), 15),
        ("bas", (("initial_clusters = 4", "initial_clusters = 301"),), 15),
        ("bams", (("clusters = 2\n", "clusters = 200\n"),
                  ("initial_clusters = 4\n", "")), 14)],
        ids=["bams-initial_clusters", "bas-initial_clusters", "bams-2S"])
    def test_more_initial_clusters_than_points_fail_before_the_run(
            self, tmp_path, capsys, monkeypatch, method, edits, line):
        # S_hat > N is a config error naming its line before the oracle is
        # called or --out is made, not a failure of the first adaptive batch
        calls = []
        monkeypatch.setattr(SyntheticOracle, "__call__",
                            lambda oracle, i, level: calls.append((i, level)))
        cfg = synthetic_config(tmp_path, method=method, n=300)
        for old, new in edits:
            assert old in cfg.read_text()
            cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        s_hat = 301 if method == "bas" else 400
        assert capsys.readouterr().err == (
            f"config error: line {line}: initial_clusters S_hat = {s_hat} exceeds "
            f"the pool size N = 300; an adaptive batch needs S <= S_hat <= N\n")
        assert not calls
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method,batches", [("bams", 1), ("mcm-gp", 2), ("mc", 2)])
    def test_runs_that_never_cluster_take_any_initial_clusters(self, tmp_path, method,
                                                               batches):
        cfg = synthetic_config(tmp_path, method=method, n=300)
        cfg.write_text(cfg.read_text().replace("initial_clusters = 4", "initial_clusters = 400")
                       .replace("batches = 2", f"batches = {batches}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("method", ["mc", "ce"])
    def test_no_failure_drawn_reports_nan_rv(self, tmp_path, capsys, method):
        # one failure in a 600-point pool and K = 2: no IS trial draws it, but
        # its q is positive, so the exact relative variance is finite
        rv_exact = {"mc": "194.05405034471096", "ce": "687.85655804998328"}[method]
        cfg = synthetic_config(tmp_path, method=method, n=600)
        cfg.write_text(cfg.read_text().replace("seed = 0\n", "seed = 3\n", 1))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "rate_report.csv").read_text() == (
            "method,p_hat_mean,rv,recall,se_rv,se_recall,recall_drawn_mean,rv_exact\n"
            f"{method},0,nan,0,nan,0,0,{rv_exact}\n")
        captured = capsys.readouterr()
        assert f"{method}: p_hat=0 100rv=nan recall@K=0\n" in captured.out
        assert captured.err == f"{method}: no IS trial drew a failure; rv and se_rv are nan\n"

    def test_fractional_initial_budget_runs_for_ce(self, tmp_path):
        cfg = synthetic_config(tmp_path, method="ce")
        cfg.write_text(cfg.read_text().replace("m1 = 6", "m1 = 0.5"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        with open(out / "log.csv", newline="") as fh:
            batches = [int(r["batch"]) for r in csv.DictReader(fh)]
        assert batches == [1, 2, 2, 2]

    @pytest.mark.parametrize("method", ["mc", "ce", "mc-gp"])
    def test_exhausted_pool_writes_header_only_batches(self, tmp_path, method):
        cfg = synthetic_config(tmp_path, method=method, n=10)
        cfg.write_text(cfg.read_text().replace("m_b = 3", "m_b = 6")
                       .replace("batches = 2", "batches = 3"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("selected_batch*.csv")) == \
            [f"selected_batch{b}.csv" for b in (1, 2, 3)]
        counts = []
        for b in (1, 2, 3):
            with open(out / f"selected_batch{b}.csv", newline="") as fh:
                reader = csv.DictReader(fh)
                counts.append(len(list(reader)))
                assert reader.fieldnames == ["point_index", "level", "deltaJ", "cost"]
        assert counts == [6, 4, 0]

    def test_mc_rv_larger_than_bams(self, tmp_path):
        def rv_of(method):
            cfg = synthetic_config(tmp_path, method=method, n=2000)
            out = tmp_path / f"cmp_{method}"
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            with open(out / "rate_report.csv") as fh:
                row = list(csv.DictReader(fh))[0]
            return float(row["rv"])

        assert rv_of("mc") > rv_of("bams")

    @staticmethod
    def external_scores_config(tmp_path, extra=""):
        scores = tmp_path / "scores.csv"
        with open(scores, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["point_index", "score"])
            for i in range(300):
                w.writerow([i, 1.0 + (i % 7)])
        cfg = synthetic_config(tmp_path, method="external-scores", extra=extra)
        text = cfg.read_text().replace("[budget]",
                                       f"scores_path = {scores}\n\n[budget]")
        cfg.write_text(text)
        return cfg

    def test_external_scores_method(self, tmp_path):
        cfg = self.external_scores_config(tmp_path)
        out = tmp_path / "ext"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "rate_report.csv").exists()

    @pytest.mark.parametrize("faults,named", [
        (("cost.7 = 5", "batches = abc", "timeout = xyz"), "batches = abc"),
        (("timeout = xyz",), "timeout = xyz"),
        (("cost.7 = 5",), "cost.7 = 5"),
    ], ids=["all", "unread-type", "unread-cost"])
    def test_external_scores_checks_every_key(self, tmp_path, capsys, faults, named):
        # external-scores reads neither [fidelity], [budget] nor [oracle], yet
        # every key there is checked, and the first fault names its line
        cfg = self.external_scores_config(
            tmp_path, extra="timeout = xyz" if "timeout = xyz" in faults else "")
        text = cfg.read_text().replace(
            "levels = 2\ncost.1 = 0.10",
            "levels = 1\ncost.7 = 5" if "cost.7 = 5" in faults else "levels = 1")
        if "batches = abc" in faults:
            text = text.replace("batches = 2", "batches = abc")
        cfg.write_text(text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
        line = text.splitlines().index(named) + 1
        assert capsys.readouterr().err.startswith(f"config error: line {line}: ")
        assert not (tmp_path / "o").exists()


class TestCommandOracleRun:
    @staticmethod
    def config(tmp_path, method, answer):
        script = tmp_path / "pid_oracle.py"
        script.write_text(PID_ORACLE)
        pid_file = tmp_path / "oracle.pid"
        cfg = synthetic_config(tmp_path, method=method)
        cfg.write_text(cfg.read_text().replace(
            "kind = synthetic",
            f"kind = command\ncommand = {sys.executable} -u {script} {pid_file} {answer}"))
        return cfg, pid_file

    @staticmethod
    def assert_exited(pid_file):
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)

    @pytest.mark.parametrize("method", ["bams", "mc", "ce"])
    def test_oracle_child_is_closed(self, tmp_path, method):
        cfg, pid_file = self.config(tmp_path, method, "value")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        self.assert_exited(pid_file)

    def test_used_out_is_refused_before_the_oracle_starts(self, tmp_path, capsys):
        # the child writes its pid file when it starts: a refused rerun
        # starts no child and leaves the folder as it was
        cfg, pid_file = self.config(tmp_path, "mc", "value")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        pid_file.unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: the artifact directory {out} is not empty; run writes only "
            f"into a new or empty one\n")
        assert not pid_file.exists()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_out_that_is_a_file_is_refused_before_the_oracle_starts(self, tmp_path,
                                                                     capsys):
        cfg, pid_file = self.config(tmp_path, "mc", "value")
        out = tmp_path / "out"
        out.write_bytes(b"keep\n")
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot make the artifact directory {out}: File exists\n")
        assert not pid_file.exists()
        assert out.read_bytes() == b"keep\n"

    @pytest.mark.parametrize("command", ["/nonexistent/oracle-binary", ""])
    def test_unstartable_command_is_named(self, tmp_path, capsys, command):
        cfg = synthetic_config(tmp_path, method="mc")
        cfg.write_text(cfg.read_text().replace(
            "kind = synthetic", f"kind = command\ncommand = {command}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot start oracle command {command!r}"), err

    @pytest.mark.parametrize("timeout", ["-1", "0", "inf", "nan"])
    def test_timeout_that_is_not_positive_and_finite_is_named(self, tmp_path, capsys,
                                                              timeout):
        # rejected before the child starts, so no request can time out or hang
        cfg, pid_file = self.config(tmp_path, "mc", "value")
        cfg.write_text(cfg.read_text() + f"timeout = {timeout}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: oracle timeout must be positive and finite, got {float(timeout)!r}\n")
        assert not pid_file.exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["bams", "mc", "ce"])
    def test_non_finite_value_names_the_point(self, tmp_path, capsys, method):
        cfg, pid_file = self.config(tmp_path, method, "nan")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.search(r"non-finite value nan at point \d+ level [01]", err), err
        self.assert_exited(pid_file)


class TestSplittingBoundCommand:
    def test_target_rv_case(self, capsys):
        assert main(["splitting-bound", "--p-gamma", "0.01", "--delta", "0.1",
                     "--target-rv", "0.00851"]) == 0
        out = capsys.readouterr().out
        assert "iterations K = 43" in out
        assert "base samples N = 561" in out
        assert "total simulations >= 2973" in out

    def test_budget_case(self, capsys):
        assert main(["splitting-bound", "--p-gamma", "0.01", "--delta", "0.1",
                     "--budget", "2296"]) == 0
        out = capsys.readouterr().out
        assert "100RV >= 1.10" in out

    def test_invalid_range_diagnostic(self, capsys):
        rc = main(["splitting-bound", "--p-gamma", "1.5", "--delta", "0.1",
                   "--budget", "10"])
        assert rc == 1

    @pytest.mark.parametrize("flag,value,name", [("--budget", "nan", "budget"),
                                                 ("--budget", "inf", "budget"),
                                                 ("--target-rv", "nan", "target_rv")],
                             ids=["budget-nan", "budget-inf", "target-rv-nan"])
    def test_non_finite_setting_is_named(self, capsys, flag, value, name):
        assert main(["splitting-bound", "--p-gamma", "0.01", "--delta", "0.1",
                     flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {name} must be positive and finite, got {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("mode", [["--target-rv", "0.01"], ["--budget", "100"]],
                             ids=["target-rv", "budget"])
    def test_no_splitting_iteration_is_named(self, capsys, mode):
        # log 0.95 / log 0.9 < 1: every count would print as 0
        assert main(["splitting-bound", "--p-gamma", "0.95", "--delta", "0.1", *mode]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: p_gamma 0.95 and delta 0.1 give no splitting "
                                "iteration: K = floor(log p_gamma / log(1 - delta)) = 0; "
                                "the bound needs p_gamma <= 1 - delta\n")
        assert captured.out == ""

    def test_budget_below_one_base_sample_is_named(self, capsys):
        assert main(["splitting-bound", "--p-gamma", "0.01", "--delta", "0.1",
                     "--budget", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: budget 0.5 buys no base sample: one costs "
                                "1 + delta K = 5.3 (K = 43 iterations)\n")
        assert captured.out == ""


class TestGenSynthetic:
    @pytest.mark.parametrize("flag,error", [("--seed", "pool seed must be >= 0, got -1"),
                                            ("--noise-seed", "noise_seed must be >= 0, got -1")],
                             ids=["seed", "noise-seed"])
    def test_negative_seed_is_named_and_writes_nothing(self, tmp_path, capsys, flag, error):
        assert main(["gen-synthetic", "--n", "50", flag, "-1", "--out",
                     str(tmp_path / "pool.csv"), "--oracle-out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value,error", [
        ("--n", "-3", "pool size n must be >= 1, got -3"),
        ("--center", "nan", "center must be finite, got nan"),
        ("--gamma", "inf", "gamma must be finite, got inf"),
    ], ids=["n", "center", "gamma"])
    def test_settings_out_of_range_are_named_and_write_nothing(self, tmp_path, capsys,
                                                               flag, value, error):
        assert main(["gen-synthetic", flag, value, "--out", str(tmp_path / "pool.csv"),
                     "--oracle-out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("which", ["out", "oracle-out"])
    def test_destination_outside_a_directory_is_named_and_writes_nothing(
            self, tmp_path, capsys, which):
        (tmp_path / "afile").write_text("")
        paths = {"out": str(tmp_path / "pool.csv"), "oracle-out": str(tmp_path / "o.csv")}
        bad = {"out": tmp_path / "missing" / "pool.csv",
               "oracle-out": tmp_path / "afile" / "x.csv"}[which]
        paths[which] = str(bad)
        assert main(["gen-synthetic", "--n", "20", "--out", paths["out"],
                     "--oracle-out", paths["oracle-out"]]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {bad}: {bad.parent} is not a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    @pytest.mark.parametrize("oracle_out", ["p.csv", "./p.csv"])
    def test_out_and_oracle_out_on_one_file_is_named_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, oracle_out):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-synthetic", "--n", "50", "--out", "p.csv",
                     "--oracle-out", oracle_out]) == 1
        assert capsys.readouterr().err == (
            f"error: --out p.csv and --oracle-out {oracle_out} name the same file\n")
        assert not list(tmp_path.iterdir())

    def test_out_that_is_a_directory_is_named(self, tmp_path, capsys):
        assert main(["gen-synthetic", "--n", "20", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_pool_csv_and_oracle_table(self, tmp_path, capsys):
        pool_csv = tmp_path / "pool.csv"
        oracle_csv = tmp_path / "oracle.csv"
        assert main(["gen-synthetic", "--n", "500", "--seed", "1",
                     "--out", str(pool_csv), "--oracle-out", str(oracle_csv)]) == 0
        with open(pool_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 500
        oracle = CsvOracle(oracle_csv)
        assert oracle(3, 0) == float(rows[3]["truth_f_level0"])

    def test_csv_pool_with_csv_oracle_run(self, tmp_path):
        pool_csv = tmp_path / "pool.csv"
        oracle_csv = tmp_path / "oracle.csv"
        main(["gen-synthetic", "--n", "400", "--seed", "2",
              "--out", str(pool_csv), "--oracle-out", str(oracle_csv)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(textwrap.dedent(f"""\
            [pool]
            source = csv
            path = {pool_csv}

            [fidelity]
            levels = 2
            cost.1 = 0.10

            [method]
            name = bams
            gamma = 0.56
            clusters = 2
            initial_clusters = 4
            eta = 1.0
            train_iters = 10

            [budget]
            m1 = 5
            m_b = 2
            batches = 2

            [is]
            k_multiple = 2
            trials = 20

            [seeds]
            run = 0

            [oracle]
            kind = csv
            path = {oracle_csv}
        """))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "rate_report.csv").exists()


class TestPoolCsv:
    """Pool CSVs are read by column name, and malformed files are config
    errors that name the file and line (exit 2 from run)."""

    def _exit_code(self, tmp_path, pool_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[pool]\nsource = csv\npath = {pool_csv}\n"
                       "[method]\nname = mc\ngamma = 0.5\n")
        return main(["run", str(cfg), "--out", str(tmp_path / "out")])

    def test_columns_read_by_name(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("point_index,truth_f_level0,x1,x0\n0,0.25,2.0,1.0\n"
                        "1,0.75,4.0,3.0\n")
        pool, truth = _load_pool_csv(path)
        np.testing.assert_array_equal(pool.points, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(truth, [0.25, 0.75])

    def test_missing_truth_column_gives_none(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("index,x0\n0,1.5\n1,2.5\n")
        pool, truth = _load_pool_csv(path)
        np.testing.assert_array_equal(pool.points, [[1.5], [2.5]])
        assert truth is None

    def test_index_column_must_read_row_order(self, tmp_path, capsys):
        # row order is the point id of the oracle table: a pool sorted by x0
        # is refused, the pool as written runs, and so does one without index
        pool_csv, oracle_csv = tmp_path / "pool.csv", tmp_path / "oracle.csv"
        assert main(["gen-synthetic", "--n", "300", "--out", str(pool_csv),
                     "--oracle-out", str(oracle_csv)]) == 0
        with open(pool_csv, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        by_x0 = sorted(rows, key=lambda row: float(row[header.index("x0")]))
        first = next(r for r, row in enumerate(by_x0) if int(row[0]) != r)
        dropped = [[cell for name, cell in zip(header, row) if name != "index"]
                   for row in [header] + rows]
        tables = {"sorted": [header] + by_x0, "as-written": [header] + rows,
                  "no-index": dropped}
        cfg = tmp_path / "run.cfg"
        for name, table in tables.items():
            path = tmp_path / f"{name}.csv"
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(table)
            cfg.write_text(f"[pool]\nsource = csv\npath = {path}\n"
                           f"[method]\nname = mc\ngamma = 0.56\n"
                           f"[oracle]\nkind = csv\npath = {oracle_csv}\n")
            capsys.readouterr()
            code = main(["run", str(cfg), "--out", str(tmp_path / f"out-{name}")])
            if name == "sorted":
                assert code == 2
                assert capsys.readouterr().err == (
                    f"config error: {path} line {first + 2}: index {by_x0[first][0]}, "
                    f"expected {first}; the index column must read 0..N-1 down the rows\n")
                assert not (tmp_path / f"out-{name}").exists()
            else:
                assert code == 0, name
        assert ((tmp_path / "out-as-written" / "log.csv").read_bytes()
                == (tmp_path / "out-no-index" / "log.csv").read_bytes())

    @pytest.mark.parametrize("text,message", [
        ("index,x0,x1,truth_f_level0\n0,1,2,0.3\n1,1,2\n", r"line 3: 3 cells, header has 4"),
        ("index,x0,x1,truth_f_level0\n0,1,2,0.3\n1,1,abc,0.4\n", r"line 3: non-numeric"),
        ("index,x0,x1,truth_f_level0\n0,1,2,nan\n", r"line 2: non-numeric"),
        ("index,x0,x2,truth_f_level0\n0,1,2,0.3\n", r"line 1: coordinate columns"),
        ("index,truth_f_level0\n0,0.3\n", r"line 1: coordinate columns"),
        ("index,x0,truth_f_level0\n", r"line 1: no data rows"),
    ], ids=["ragged", "non-numeric", "non-finite", "non-dense", "no-coordinates", "no-rows"])
    def test_malformed_file_names_file_and_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "pool.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(str(path)) + " " + message):
            _load_pool_csv(path)
        assert self._exit_code(tmp_path, path) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# a well-formed score or oracle file for a three-point pool, line by line
INPUT_TABLES = {
    "scores": ["point_index,score", "0,1.0", "1,2.0", "2,0.5"],
    "oracle": ["point_index,level,f", "0,0,0.5", "1,0,0.7", "2,0,0.9"],
}


def _set_cell(lines, line, col, value):
    """Replace cell `col` of the 1-based `line`, or drop it when value is None."""
    cells = lines[line - 1].split(",")
    if value is None:
        del cells[col]
    else:
        cells[col] = value
    return lines[:line - 1] + [",".join(cells)] + lines[line:]


class TestInputTables:
    """Score and oracle files go through the pool's reader: columns by name,
    a malformed file is a config error naming the file and line (exit 2),
    and a repeated key is an input error naming the line (exit 1)."""

    @staticmethod
    def read(kind, path):
        return scores_from_csv(path, 3) if kind == "scores" else CsvOracle(path)

    @staticmethod
    def exit_code(tmp_path, kind, path):
        """`run` reading the file: as the scores of external-scores, or as
        the oracle table of mc."""
        pool = tmp_path / "pool.csv"
        pool.write_text("index,x0,x1,truth_f_level0\n0,0.0,0.0,0.1\n"
                        "1,1.0,0.0,0.9\n2,0.0,1.0,0.9\n")
        cfg = tmp_path / "run.cfg"
        method = (f"name = external-scores\nscores_path = {path}" if kind == "scores"
                  else f"name = mc\n[oracle]\nkind = csv\npath = {path}")
        cfg.write_text(f"[pool]\nsource = csv\npath = {pool}\n"
                       f"[method]\ngamma = 0.5\n{method}\n")
        return main(["run", str(cfg), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("kind", sorted(INPUT_TABLES))
    @pytest.mark.parametrize("edit,error,message", [
        (lambda t: _set_cell(t, 1, -1, "value"), ConfigError,
         r"line 1: need one '(score|f)' column"),
        (lambda t: _set_cell(t, 3, -1, None), ConfigError, r"line 3: \d cells, header has"),
        (lambda t: _set_cell(t, 3, -1, "abc"), ConfigError,
         r"line 3: non-numeric or non-finite (score|f) cell 'abc'"),
        (lambda t: _set_cell(t, 3, -1, "inf"), ConfigError, r"line 3: non-numeric"),
        (lambda t: _set_cell(t, 3, -1, "nan"), ConfigError, r"line 3: non-numeric"),
        (lambda t: _set_cell(t, 3, 0, "0.5"), ConfigError,
         r"line 3: non-integer point_index cell '0.5'"),
        (lambda t: _set_cell(t, 3, 0, "x1"), ConfigError, r"line 3: non-integer point_index"),
        (lambda t: t[:1], ConfigError, r"line 1: no data rows"),
        (lambda t: t + t[2:3], InvalidInputError, r"line 5: repeated point"),
    ], ids=["missing-column", "ragged", "non-numeric", "inf", "nan", "fractional-index",
            "mistyped-index", "no-rows", "repeated-key"])
    def test_bad_file_names_file_and_line(self, tmp_path, capsys, kind, edit, error,
                                          message):
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join(edit(INPUT_TABLES[kind])) + "\n")
        with pytest.raises(error, match=re.escape(str(path)) + " " + message):
            self.read(kind, path)
        assert self.exit_code(tmp_path, kind, path) == (2 if error is ConfigError else 1)
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(INPUT_TABLES))
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "absent.csv"
        with pytest.raises(ConfigError, match="cannot read " + re.escape(str(path))):
            self.read(kind, path)
        assert self.exit_code(tmp_path, kind, path) == 2

    @pytest.mark.parametrize("kind", sorted(INPUT_TABLES))
    def test_bad_table_leaves_no_artifact_directory(self, tmp_path, capsys, kind):
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join(_set_cell(INPUT_TABLES[kind], 3, -1, "abc")) + "\n")
        assert self.exit_code(tmp_path, kind, path) == 2
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_columns_read_by_name(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("note,score,point_index\na,2.0,1\n\nb,0.5,2\nc,1.0,0\n")
        np.testing.assert_allclose(scores_from_csv(scores, 3).q,
                                   np.array([1.0, 2.0, 0.5]) / 3.5)
        table = tmp_path / "oracle.csv"
        table.write_text("level,note,point_index,f\n0,a,7,1.5\n\n1,b,7,2.5\n")
        oracle = CsvOracle(table)
        assert (oracle(7, 0), oracle(7, 1)) == (1.5, 2.5)


class TestScoreReport:
    """The rate report of an external ranking: `run` with `name =
    external-scores` on a CSV pool."""

    @staticmethod
    def report(tmp_path, pool_csv, scores, is_keys):
        """Run external-scores over ``scores`` (one per pool point, in pool
        order) with the trial streams rooted at 0; the rate_report.csv row."""
        scores_csv = tmp_path / "scores.csv"
        scores_csv.write_text("point_index,score\n" + "".join(
            f"{i},{score!r}\n" for i, score in enumerate(scores)))
        cfg = tmp_path / "report.cfg"
        cfg.write_text(f"[pool]\nsource = csv\npath = {pool_csv}\n"
                       f"[method]\nname = external-scores\ngamma = 0.56\n"
                       f"scores_path = {scores_csv}\n[is]\n{is_keys}\n[seeds]\ntrials = 0\n")
        out = tmp_path / "rep"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        with open(out / "rate_report.csv") as fh:
            return list(csv.DictReader(fh))[0]

    @staticmethod
    def gen_pool(tmp_path):
        """A 600-point gen-synthetic pool CSV and its level-0 metric."""
        pool_csv = tmp_path / "pool.csv"
        assert main(["gen-synthetic", "--n", "600", "--seed", "3",
                     "--out", str(pool_csv)]) == 0
        with open(pool_csv, newline="") as fh:
            return pool_csv, [float(r["truth_f_level0"]) for r in csv.DictReader(fh)]

    def test_report_from_external_scores(self, tmp_path):
        pool_csv, f0 = self.gen_pool(tmp_path)
        # oracle-informed ranking: low metric -> high score
        row = self.report(tmp_path, pool_csv, [1.0 / (0.1 + f) for f in f0],
                          "k_multiple = 2\ntrials = 30")
        assert row["method"] == "external-scores"
        assert float(row["recall"]) == 1.0  # oracle ranking finds everything

    def test_no_failure_drawn_reports_nan_rv(self, tmp_path, capsys):
        pool_csv, f0 = self.gen_pool(tmp_path)
        # every failure scored 0: the sampler never draws one
        row = self.report(tmp_path, pool_csv, [0 if f <= 0.56 else 1 for f in f0],
                          "trials = 20")
        assert (row["p_hat_mean"], row["rv"], row["se_rv"]) == ("0", "nan", "nan")
        assert capsys.readouterr().err == (
            "external-scores: no IS trial drew a failure; rv and se_rv are nan\n")

    @pytest.mark.parametrize("edit,error", [
        (("run = 0", "run = -1"), "run seed must be >= 0, got -1"),
        (("m1 = 20", "m1 = -5"), "m1 and m_b must be positive and finite, got -5.0 and 15.0"),
        (("batches = 3", "batches = 0"), "batches must be >= 1"),
        (("eta = 2.0", "eta = 0.5"), "eta must be >= 1 and finite, got 0.5"),
        (("clusters = 6", "clusters = 0"), "need 1 <= S <= S_hat"),
        (("gamma = 0.5", "gamma = nan"), "gamma must be finite, got nan"),
        (("train_iters = 200", "train_iters = -5"), "training iters must be >= 0, got -5")],
        ids=["seeds-run", "m1", "batches", "eta", "clusters", "gamma", "train_iters"])
    def test_run_settings_are_checked_as_for_an_oracle_method(self, tmp_path, capsys,
                                                              edit, error):
        # the same message and exit status as mc, before --out is made
        pool_csv = tmp_path / "pool.csv"
        pool_csv.write_text("index,x0,truth_f_level0\n0,0.0,0.1\n1,1.0,0.9\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("point_index,score\n0,1\n1,2\n")
        for method in ("mc", "external-scores"):
            text = textwrap.dedent(f"""\
                [pool]
                source = csv
                path = {pool_csv}
                [method]
                name = {method}
                gamma = 0.5
                clusters = 6
                eta = 2.0
                train_iters = 200
                scores_path = {scores}
                [budget]
                m1 = 20
                batches = 3
                [seeds]
                run = 0
            """)
            assert text.count(edit[0]) == 1
            cfg = tmp_path / "run.cfg"
            cfg.write_text(text.replace(*edit))
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == f"error: {error}\n", method
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("truth_column,gamma,reason", [
        (False, "0.5", "no ground truth available"),
        (True, "-1", "no pool point fails at gamma = -1.0")], ids=["no-truth", "no-failure"])
    def test_skipped_report_names_the_reason(self, tmp_path, capsys, truth_column, gamma,
                                             reason):
        pool_csv = tmp_path / "pool.csv"
        pool_csv.write_text("index,x0,x1" + ",truth_f_level0" * truth_column + "\n" + "".join(
            f"{i},{i % 2},{i // 2}" + f",{0.1 * i}" * truth_column + "\n" for i in range(4)))
        scores = tmp_path / "scores.csv"
        scores.write_text("point_index,score\n0,1\n1,2\n2,3\n3,4\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[pool]\nsource = csv\npath = {pool_csv}\n[method]\n"
                       f"name = external-scores\ngamma = {gamma}\nscores_path = {scores}\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ("external-scores: " + reason + "; skipped rate_report.csv "
                                "and retention_recall.csv\n")
        assert captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["scores_final.csv"]


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(rare_sampler.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rare_sampler", "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: rare-sampler ")
        assert "gen-synthetic" in proc.stdout

    def test_import_leaves_scipy_spatial_and_optimize_unloaded(self):
        # runs that never cluster (mc, mcm-gp, ce) must not pay for them
        src = Path(rare_sampler.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        code = ("import sys, rare_sampler, rare_sampler.cli; "
                "print(sorted(m for m in ('scipy.spatial', 'scipy.optimize') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestCsvOracle:
    def test_missing_value_names_request(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_text("point_index,level,f\n0,0,1.5\n")
        oracle = CsvOracle(path)
        assert oracle(0, 0) == 1.5
        with pytest.raises(OracleError, match="point 1 level 0"):
            oracle(1, 0)


class TestExternalOracle:
    def make_oracle(self, tmp_path, timeout=10.0):
        script = tmp_path / "oracle.py"
        script.write_text(ECHO_ORACLE)
        return ExternalOracle(f"{sys.executable} -u {script}", timeout=timeout)

    def test_ok_response(self, tmp_path):
        with self.make_oracle(tmp_path) as oracle:
            assert oracle(3, 1) == 3 * 0.5 + 1

    def test_err_response_carries_message(self, tmp_path):
        with self.make_oracle(tmp_path) as oracle:
            with pytest.raises(OracleError, match="boom"):
                oracle(13, 0)

    def test_requests_serialized_on_one_child(self, tmp_path):
        with self.make_oracle(tmp_path) as oracle:
            values = [oracle(i, 0) for i in range(20) if i != 13]
            assert values == [i * 0.5 for i in range(20) if i != 13]

    def test_timeout_names_request(self, tmp_path):
        script = tmp_path / "slow.py"
        script.write_text("import sys, time\nfor line in sys.stdin:\n    time.sleep(5)\n")
        with ExternalOracle(f"{sys.executable} -u {script}", timeout=0.2) as oracle:
            with pytest.raises(OracleError, match="timed out.*EVAL 0 0"):
                oracle(0, 0)

    def test_timeout_kills_child_so_late_reply_is_never_read(self, tmp_path):
        script = tmp_path / "late.py"
        script.write_text(textwrap.dedent("""\
            import sys, time
            for line in sys.stdin:
                idx = int(line.split()[1])
                if idx == 1:
                    time.sleep(1)
                print(f"OK {float(idx)}")
                sys.stdout.flush()
        """))
        with ExternalOracle(f"{sys.executable} -u {script}", timeout=0.3) as oracle:
            assert oracle(0, 0) == 0.0
            with pytest.raises(OracleError, match="timed out.*EVAL 1 0"):
                oracle(1, 0)
            time.sleep(1.2)  # past the moment the late reply would arrive
            with pytest.raises(OracleError, match="EVAL 2 0"):
                oracle(2, 0)

    def test_child_exit_reported(self, tmp_path):
        script = tmp_path / "dead.py"
        script.write_text("import sys\nsys.exit(3)\n")
        with ExternalOracle(f"{sys.executable} -u {script}", timeout=5.0) as oracle:
            oracle._proc.wait(timeout=5)
            with pytest.raises(OracleError, match=(
                    r"^oracle process exited with code 3 before request 'EVAL 0 0'$")):
                oracle(0, 0)

    @pytest.mark.parametrize("body,message", [
        ("sys.stdin.readline()", r"oracle exited \(code 0\) during 'EVAL 0 0'"),
        ("for line in sys.stdin:\n    print('OK abc', flush=True)",
         r"malformed oracle value 'OK abc' for 'EVAL 0 0'"),
        ("for line in sys.stdin:\n    print('HELLO', flush=True)",
         r"malformed oracle response 'HELLO' for 'EVAL 0 0'"),
    ], ids=["exit-after-request", "bad-value", "bad-response"])
    def test_bad_reply_names_request(self, tmp_path, body, message):
        script = tmp_path / "bad.py"
        script.write_text(f"import sys\n{body}\n")
        with ExternalOracle(f"{sys.executable} -u {script}", timeout=5.0) as oracle:
            with pytest.raises(OracleError, match=f"^{message}$"):
                oracle(0, 0)
