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

from rare_sampler import ConfigError, OracleError
from rare_sampler.cli import METHODS, main, parse_config
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
