import csv
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from rare_sampler import ConfigError, InvalidInputError, OracleError, scores_from_csv
from rare_sampler.cli import METHODS, _load_pool_csv, main, parse_config
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

    @pytest.mark.parametrize("method", ["mc", "ce"])
    def test_mc_and_ce_selected_batches_follow_the_log(self, tmp_path, method):
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
            assert all(r["deltaJ"] == "nan" and r["cost"] == "1" for r in rows)

    def test_mc_rv_larger_than_bams(self, tmp_path):
        def rv_of(method):
            cfg = synthetic_config(tmp_path, method=method, n=2000)
            out = tmp_path / f"cmp_{method}"
            assert main(["run", str(cfg), "--out", str(out)]) == 0
            with open(out / "rate_report.csv") as fh:
                row = list(csv.DictReader(fh))[0]
            return float(row["rv"])

        assert rv_of("mc") > rv_of("bams")

    def test_external_scores_method(self, tmp_path):
        scores = tmp_path / "scores.csv"
        with open(scores, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["point_index", "score"])
            for i in range(300):
                w.writerow([i, 1.0 + (i % 7)])
        cfg = synthetic_config(tmp_path, method="external-scores",
                               extra=f"")
        text = cfg.read_text().replace("[budget]",
                                       f"scores_path = {scores}\n\n[budget]")
        cfg.write_text(text)
        out = tmp_path / "ext"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "rate_report.csv").exists()


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

    @pytest.mark.parametrize("command", ["/nonexistent/oracle-binary", ""])
    def test_unstartable_command_is_named(self, tmp_path, capsys, command):
        cfg = synthetic_config(tmp_path, method="mc")
        cfg.write_text(cfg.read_text().replace(
            "kind = synthetic", f"kind = command\ncommand = {command}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot start oracle command {command!r}"), err

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


class TestGenSynthetic:
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
            k = 10
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
    errors that name the file and line (exit 2 from run and score-report)."""

    def _exit_codes(self, tmp_path, pool_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[pool]\nsource = csv\npath = {pool_csv}\n"
                       "[method]\nname = mc\ngamma = 0.5\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("point_index,score\n0,1.0\n1,0.5\n")
        run = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        report = main(["score-report", "--scores", str(scores), "--pool-csv",
                       str(pool_csv), "--gamma", "0.5", "--out", str(tmp_path / "rep")])
        return run, report

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
        assert self._exit_codes(tmp_path, path) == (2, 2)
        assert str(path) in capsys.readouterr().err


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
    def exit_codes(tmp_path, kind, path):
        """`run` reading the file, and `score-report` for a score file."""
        pool = tmp_path / "pool.csv"
        pool.write_text("index,x0,x1,truth_f_level0\n0,0.0,0.0,0.1\n"
                        "1,1.0,0.0,0.9\n2,0.0,1.0,0.9\n")
        cfg = tmp_path / "run.cfg"
        method = (f"name = external-scores\nscores_path = {path}" if kind == "scores"
                  else f"name = mc\n[oracle]\nkind = csv\npath = {path}")
        cfg.write_text(f"[pool]\nsource = csv\npath = {pool}\n"
                       f"[method]\ngamma = 0.5\n{method}\n")
        codes = [main(["run", str(cfg), "--out", str(tmp_path / "out")])]
        if kind == "scores":
            codes.append(main(["score-report", "--scores", str(path), "--pool-csv",
                               str(pool), "--gamma", "0.5", "--out", str(tmp_path / "rep")]))
        return codes

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
        codes = self.exit_codes(tmp_path, kind, path)
        assert set(codes) == {2 if error is ConfigError else 1}
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(INPUT_TABLES))
    def test_unreadable_file_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "absent.csv"
        with pytest.raises(ConfigError, match="cannot read " + re.escape(str(path))):
            self.read(kind, path)
        assert set(self.exit_codes(tmp_path, kind, path)) == {2}

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
    def test_report_from_external_scores(self, tmp_path):
        pool_csv = tmp_path / "pool.csv"
        main(["gen-synthetic", "--n", "600", "--seed", "3", "--out", str(pool_csv)])
        scores = tmp_path / "scores.csv"
        with open(pool_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(scores, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["point_index", "score"])
            for r in rows:
                # oracle-informed ranking: low metric -> high score
                w.writerow([r["index"], 1.0 / (0.1 + float(r["truth_f_level0"]))])
        out = tmp_path / "rep"
        assert main(["score-report", "--scores", str(scores),
                     "--pool-csv", str(pool_csv), "--gamma", "0.56",
                     "--k-multiple", "2", "--trials", "30",
                     "--out", str(out)]) == 0
        with open(out / "rate_report.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["method"] == "external-scores"
        assert float(row["recall"]) == 1.0  # oracle ranking finds everything


    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_sample_size_below_one_is_an_error(self, tmp_path, capsys, k):
        pool_csv = tmp_path / "pool.csv"
        main(["gen-synthetic", "--n", "600", "--seed", "3", "--out", str(pool_csv)])
        scores = tmp_path / "scores.csv"
        scores.write_text("point_index,score\n" + "".join(f"{i},1\n" for i in range(600)))
        assert main(["score-report", "--scores", str(scores), "--pool-csv", str(pool_csv),
                     "--gamma", "0.56", "--k", k, "--out", str(tmp_path / "rep")]) == 1
        assert f"K must be >= 1, got {k}" in capsys.readouterr().err
        cfg = synthetic_config(tmp_path, method="mc")
        cfg.write_text(cfg.read_text().replace("k_multiple = 2", f"k = {k}"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert f"K must be >= 1, got {k}" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "rate_report.csv").exists()
        assert not (tmp_path / "out" / "rate_report.csv").exists()


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
            time.sleep(0.3)
            with pytest.raises(OracleError):
                oracle(0, 0)
