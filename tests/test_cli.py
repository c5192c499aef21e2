import csv
import io
import json
from contextlib import redirect_stdout

import pytest

from releff import TwoSamples, run_test
from releff import TestKind as TK
from releff.cli import main

TOY_CSV = "group,value\n1,1\n1,2\n1,3\n2,2\n2,3\n2,4\n"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in body]


class TestCmdTest:
    def test_bm_df_matches_library(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(TOY_CSV)
        code, out = run_cli(["test", str(path), "--tests", "bm", "--df", "df"])
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["statistic"]) == pytest.approx(1.33631, abs=1e-5)
        assert float(row["df"]) == pytest.approx(4.0)

    def test_round_trip_against_library(self, tmp_path):
        x1, x2 = [1, 2, 3, 7, 2], [2, 3, 4, 4, 9]
        path = tmp_path / "five.csv"
        path.write_text("group,value\n" + "".join(f"1,{v}\n" for v in x1)
                        + "".join(f"2,{v}\n" for v in x2))
        code, out = run_cli(["test", str(path)])
        assert code == 0
        data = TwoSamples(x1, x2)
        for row in parse_csv(out):
            res = run_test(data, TK.parse(row["test"]))
            assert float(row["statistic"]) == pytest.approx(res.statistic, abs=1e-9)
            assert float(row["p_value"]) == pytest.approx(res.p_value, abs=1e-9)
            if row["df"]:
                assert float(row["df"]) == pytest.approx(res.df, abs=1e-9)

    def test_identical_groups_all_p_one(self, tmp_path):
        path = tmp_path / "same.csv"
        path.write_text("group,value\n" + "".join(
            f"{g},{v}\n" for g in (1, 2) for v in (1, 2, 3, 4, 5)))
        code, out = run_cli(["test", str(path)])
        assert code == 0
        assert all(float(r["p_value"]) == 1.0 for r in parse_csv(out))

    def test_non_numeric_value_exits_2_naming_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("group,value\n1,1\n1,oops\n1,3\n2,4\n2,5\n")
        assert main(["test", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_bad_group_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("group,value\n1,1\n3,2\n2,3\n2,4\n")
        assert main(["test", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_columns_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("arm,score\n1,1\n")
        assert main(["test", str(path)]) == 2

    def test_too_small_exits_3(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("group,value\n1,1\n1,2\n2,9\n")
        assert main(["test", str(path)]) == 3

    def test_permutation_column(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(TOY_CSV)
        code, out = run_cli(["test", str(path), "--tests", "wmw,pm:df",
                             "--n-perm", "200", "--seed", "6"])
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["test"] == "wmw" and rows[0]["perm_p_value"] == ""
        assert 0.0 <= float(rows[1]["perm_p_value"]) <= 1.0
        # same seed reproduces the same permutation p-value
        _, again = run_cli(["test", str(path), "--tests", "wmw,pm:df",
                            "--n-perm", "200", "--seed", "6"])
        assert again == out

    def test_n_perm_below_one_exits_2(self, tmp_path, capsys):
        path = tmp_path / "toy.csv"
        path.write_text(TOY_CSV)
        for n_perm in ("0", "-3"):
            code, out = run_cli(["test", str(path), "--tests", "pm_logit", "--n-perm", n_perm])
            assert code == 2 and out == ""
            assert "--n-perm" in capsys.readouterr().err

    def test_markdown_format(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(TOY_CSV)
        code, out = run_cli(["test", str(path), "--tests", "wmw", "--format", "markdown"])
        assert code == 0
        assert out.splitlines()[0].startswith("| test |")


class TestCmdSimulate:
    def test_bundled_config_columns(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(json.dumps([{
            "dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 7, "n2": 7,
            "n_reps": 50, "tests": ["wmw", "pm:df2"], "seed": 12,
        }]))
        code, out = run_cli(["simulate", str(cfg)])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        assert list(rows[0]) == ["n1", "n2", "dist1", "dist2", "test", "df_kind",
                                 "rejection_rate", "mc_se", "n_reps", "seed"]
        assert rows[0]["test"] == "wmw" and rows[0]["df_kind"] == ""
        assert rows[1]["df_kind"] == "df2"
        assert 0.0 <= float(rows[1]["rejection_rate"]) <= 1.0

    def test_single_rep_rate_in_01(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(json.dumps([{
            "dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 7, "n2": 7,
            "n_reps": 1, "tests": ["wmw"], "seed": 12,
        }]))
        code, out = run_cli(["simulate", str(cfg)])
        assert code == 0
        assert float(parse_csv(out)[0]["rejection_rate"]) in (0.0, 1.0)

    def test_threads_give_identical_bytes(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(json.dumps([{
            "dist1": "N(0,1)", "dist2": "N(0,3)", "n1": 10, "n2": 15,
            "n_reps": 2500, "seed": 5,
        }]))
        outs = {}
        for t in ("1", "2"):
            out_path = tmp_path / f"out{t}.csv"
            assert main(["simulate", str(cfg), "--threads", t,
                         "--output", str(out_path)]) == 0
            outs[t] = out_path.read_bytes()
        assert outs["1"] == outs["2"]

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(json.dumps([{
            "dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 7, "n2": 7, "n_reps": 10,
        }]))
        data = tmp_path / "d.csv"
        data.write_text(TOY_CSV)
        for argv in (["simulate", str(cfg)], ["tables", "t1", "--scale", "0.0001"],
                     ["test", str(data), "--n-perm", "10"]):
            for t in ("0", "-3"):
                assert main([*argv, "--threads", t]) == 2
                assert "--threads" in capsys.readouterr().err

    def test_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(json.dumps([{
            "dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 7, "n2": 7, "n_reps": 10,
        }]))
        for alpha in ("1.5", "1", "0", "-0.1", "nan"):
            code, out = run_cli(["simulate", str(cfg), "--alpha", alpha])
            assert code == 2 and out == ""
            assert "--alpha" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("{]")
        assert main(["simulate", str(cfg)]) == 2
        assert "error" in capsys.readouterr().err

    def test_quoted_dist_labels_round_trip(self, tmp_path):
        # dist labels contain commas; CSV quoting must survive a reparse
        cfg = tmp_path / "one.cfg"
        cfg.write_text(json.dumps([{
            "dist1": "BL(1.2071,1,5)", "dist2": "BL(5,4,5)", "n1": 7, "n2": 7,
            "n_reps": 10, "tests": ["wmw"], "seed": 12,
        }]))
        code, out = run_cli(["simulate", str(cfg)])
        assert code == 0
        assert parse_csv(out)[0]["dist1"] == "BL(1.2071,1,5)"


class TestCmdTables:
    def test_unknown_table_exits_2(self, capsys):
        assert main(["tables", "nope"]) == 2
        assert "unknown table" in capsys.readouterr().err

    def test_small_t1(self):
        code, out = run_cli(["tables", "t1", "--scale", "0.0001", "--seed", "9"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 42
        assert rows[0]["n_reps"] == "10"

    def test_small_perm_table_with_override(self):
        code, out = run_cli(["tables", "perm1", "--scale", "0.0003",
                             "--n-perm", "30", "--seed", "9"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 20
        assert rows[0]["n_perm"] == "30"

    def test_n_perm_below_one_exits_2(self, capsys):
        for table in ("perm1", "t1"):
            for n_perm in ("0", "-5"):
                code, out = run_cli(["tables", table, "--scale", "0.0002", "--n-perm", n_perm])
                assert code == 2 and out == ""
                assert "--n-perm" in capsys.readouterr().err
