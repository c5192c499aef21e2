import csv
import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from releff import DEFAULT_BATTERY, TwoSamples, permutation_test, run_test
from releff import TestKind as TK
from releff import cli, permutation
from releff.cli import main
from tests_util import SORT_CASES, sort_case

TOY_CSV = "group,value\n1,1\n1,2\n1,3\n2,2\n2,3\n2,4\n"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOOD_ENTRY = {"dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 7, "n2": 7, "n_reps": 10}


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

    @pytest.mark.parametrize("label", ["foo", "pm:dfx", "wmw:df2"])
    def test_malformed_test_label_exits_2_naming_it(self, tmp_path, capsys, label):
        path = tmp_path / "toy.csv"
        path.write_text(TOY_CSV)
        assert main(["test", str(path), "--tests", f"n,{label}"]) == 2
        assert repr(label) in capsys.readouterr().err

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

    def test_df_applies_to_upper_case_families(self, tmp_path):
        """--tests labels are case-insensitive, and --df applies to a bare t family in any case."""
        assert cli._parse_test_list("pm,PM, Bm ,N_LOGIT", "df1") == (
            TK.parse("pm:df1"), TK.parse("pm:df1"), TK.parse("bm:df1"), TK.parse("n_logit"))
        path = tmp_path / "toy.csv"
        path.write_text(TOY_CSV)
        code, out = run_cli(["test", str(path), "--tests", "PM", "--df", "df1"])
        assert code == 0
        assert [row["test"] for row in parse_csv(out)] == ["pm:df1"]

    def test_spaces_around_the_df_colon(self, tmp_path):
        """A label with spaces around its colon reads like the one without them."""
        path = tmp_path / "toy.csv"
        path.write_text(TOY_CSV)
        code, out = run_cli(["test", str(path), "--tests", "wmw, pm: df1,bm :df ,n : df3"])
        assert code == 0
        assert out == run_cli(["test", str(path), "--tests", "wmw,pm:df1,bm:df,n:df3"])[1]

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

    def test_permutation_p_value_takes_the_alternative_tail(self, tmp_path):
        # 5/5 with arm 2 clearly higher: greater is p2, less is p1
        x1, x2 = [1, 2, 3, 4, 6], [5, 7, 8, 9, 10]
        path = tmp_path / "five.csv"
        path.write_text("group,value\n" + "".join(f"1,{v}\n" for v in x1)
                        + "".join(f"2,{v}\n" for v in x2))
        perm = permutation_test(TwoSamples(x1, x2), TK.parse("pm:df2"), n_perm=2000, seed=4)
        assert perm.p2 < 0.5 < perm.p1
        tails = {"two-sided": perm.p_value, "greater": perm.p2, "less": perm.p1}
        for alternative, want in tails.items():
            code, out = run_cli(["test", str(path), "--tests", "pm", "--n-perm", "2000",
                                 "--seed", "4", "--alternative", alternative])
            assert code == 0
            (row,) = parse_csv(out)
            assert float(row["perm_p_value"]) == pytest.approx(want, abs=1e-12), alternative

    @pytest.mark.parametrize("alternative", ["two-sided", "greater", "less"])
    def test_permutation_column_equals_permutation_test(self, tmp_path, alternative):
        """Under every alternative, the permutation column of the 7-test
        battery prints each non-wmw kind's own `permutation_test` tail."""
        x1, x2 = [1, 2, 3, 4, 6], [5, 7, 8, 9, 10]
        path = tmp_path / "five.csv"
        path.write_text("group,value\n" + "".join(f"1,{v}\n" for v in x1)
                        + "".join(f"2,{v}\n" for v in x2))
        argv = ["test", str(path), "--n-perm", "300", "--seed", "5", "--alternative", alternative]
        code, out = run_cli(argv)
        assert code == 0
        data = TwoSamples(x1, x2)
        tails = {"two-sided": "p_value", "greater": "p2", "less": "p1"}
        want = [
            "" if kind.family == "wmw" else format(
                getattr(permutation_test(data, kind, n_perm=300, seed=5), tails[alternative]),
                ".12g")
            for kind in DEFAULT_BATTERY
        ]
        assert [row["perm_p_value"] for row in parse_csv(out)] == want

    @pytest.mark.parametrize("tied", [False, True], ids=["tie_free", "five_levels"])
    def test_permutation_column_is_one_pass_over_the_draws(self, tmp_path, monkeypatch, tied):
        """Every kind's perm_p_value equals its own `permutation_test`, at any
        thread count, and each block of draws is tallied once for all kinds.
        The draws span several blocks: 2048 each when drawn as counts (five
        levels), fewer when relabelled."""
        n_perm = 5000 if tied else 2000
        rng = np.random.default_rng(71)
        pooled = rng.integers(1, 6, size=300) if tied else rng.normal(size=300).round(6)
        x1, x2 = pooled[:150].tolist(), pooled[150:].tolist()
        path = tmp_path / "data.csv"
        path.write_text("group,value\n" + "".join(f"1,{v}\n" for v in x1)
                        + "".join(f"2,{v}\n" for v in x2))
        data = TwoSamples(x1, x2)
        argv = ["test", str(path), "--n-perm", str(n_perm), "--seed", "8"]
        blocks = []
        tally_draws = permutation.tally_draws

        def spy(lane, kinds, observed, seed, first_draw, n_draws):
            blocks.append((first_draw, n_draws))
            return tally_draws(lane, kinds, observed, seed, first_draw, n_draws)

        for threads in (1, 2):
            want = [
                "" if kind.family == "wmw" else format(
                    permutation_test(data, kind, n_perm=n_perm, seed=8, threads=threads).p_value,
                    ".12g")
                for kind in DEFAULT_BATTERY
            ]
            with monkeypatch.context() as mp:
                mp.setattr(permutation, "tally_draws", spy)
                code, out = run_cli(argv + ["--threads", str(threads)])
            assert code == 0
            assert [row["perm_p_value"] for row in parse_csv(out)] == want, threads
            if threads == 1:
                # the blocks tile the draws once, not once per kind
                assert [a for a, _ in blocks] == [0] + list(np.cumsum([n for _, n in blocks[:-1]]))
                assert sum(n for _, n in blocks) == n_perm and len(blocks) > 1

    @pytest.mark.parametrize("case", SORT_CASES)
    def test_n_perm_sorts_the_data_once(self, tmp_path, sorts, case):
        """At 200/200 the permutation pass records the tie runs, and the rows
        read their moments off that record: one labelling, no key sort."""
        x1, x2 = sort_case(case, 200)
        path = tmp_path / "data.csv"
        path.write_text("group,value\n" + "".join(f"1,{v!r}\n" for v in x1.tolist())
                        + "".join(f"2,{v!r}\n" for v in x2.tolist()))
        code, out = run_cli(["test", str(path), "--n-perm", "200"])
        assert code == 0
        assert sorts == ["label"]
        assert [row["statistic"] for row in parse_csv(out)] == [
            format(run_test(TwoSamples(x1, x2), kind).statistic, ".12g") for kind in DEFAULT_BATTERY]

    @pytest.mark.parametrize("kind,digest", [
        ("tie_free", "9f7f7a2d303a2846658e876c18782252472757358fdc92e0f9b079c373fdc22d"),
        ("five_levels", "4bcd273f75fa97a076b1b872678628825710269ae2787560588c4424fb660577"),
        ("odd_bit_decimals", "8ffd3291e5c420943484674d6cf31aa3fb7e8a677197eaaec2deff436e83076b"),
    ])
    def test_output_digest(self, tmp_path, kind, digest):
        """`releff test --n-perm 500` on 10**4 per arm: tie-free floats, five
        integer levels, and one-decimal values that tie on floats whose last
        bit is odd (0.3 is, 0.7 is not).  A change here is a stream change."""
        rng = np.random.default_rng(20221007)
        if kind == "tie_free":
            pooled = rng.normal(size=20_000)
        elif kind == "five_levels":
            pooled = rng.integers(1, 6, size=20_000).astype(float)
        else:
            pooled = (rng.normal(3.0, 1.0, size=20_000) * 10).round() / 10
            bits = pooled.view(np.int64)
            odd = bits[bits & 1 == 1]
            assert odd.size > np.unique(odd).size
        path = tmp_path / "data.csv"
        path.write_text("group,value\n" + "".join(
            f"{1 if i < 10_000 else 2},{v!r}\n" for i, v in enumerate(pooled.tolist())))
        code, out = run_cli(["test", str(path), "--n-perm", "500"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_with_byte_order_mark(self, tmp_path):
        """A CSV saved with a UTF-8 byte-order mark, as Excel writes it, reads
        like the same file without it."""
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(TOY_CSV)
        marked.write_bytes(b"\xef\xbb\xbf" + TOY_CSV.encode())
        code, out = run_cli(["test", str(marked), "--tests", "wmw,bm:df"])
        assert code == 0
        assert out == run_cli(["test", str(plain), "--tests", "wmw,bm:df"])[1]

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

    def test_mixed_pairs_digest(self):
        # pairs with a continuous arm, and a discrete pair whose union support is
        # wider than the pooled sample, are scored through tie runs; a change
        # here is a stream change
        code, out = run_cli(["simulate", str(CONFIGS / "mixed_pairs.cfg")])
        assert code == 0
        assert len(parse_csv(out)) == 31
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "efa89afd9aa1dbc6073879eded67bafe718a61e78def11f3042d76ccaee199f0")

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

    @pytest.mark.parametrize("payload, field", [
        pytest.param([1, 2], None, id="non_object_entries"),
        pytest.param({"scenarios": [None]}, None, id="null_entry"),
        pytest.param([{**GOOD_ENTRY, "dist1": 5}], None, id="numeric_dist"),
        pytest.param([{**GOOD_ENTRY, "tests": [5]}], None, id="numeric_test"),
        pytest.param('[{"dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 7, "n2": 7, "n_reps": 1e999}]',
                     "n_reps", id="infinite_count"),
        # a fractional count or seed is refused, not truncated; so is an alpha that is no number
        *[pytest.param([{**GOOD_ENTRY, field: value}], field, id=f"{field}_{value!r}")
          for field, value in [("n1", 7.9), ("n2", 7.0), ("n_reps", 10.7), ("n_perm", 50.5),
                               ("seed", 12.9), ("n1", True), ("seed", "12"),
                               ("alpha", "0.05"), ("alpha", True), ("alpha", None)]],
        # a string of labels is not a list of them
        pytest.param([{**GOOD_ENTRY, "tests": "pm"}], "tests", id="tests_string"),
        # a misspelled field is refused, not ignored (alpha would stay 0.05)
        pytest.param([{**GOOD_ENTRY, "n_perm": 100, "alhpa": 0.01}], "alhpa",
                     id="misspelled_field"),
    ])
    def test_malformed_entry_exits_2(self, tmp_path, capsys, payload, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code, out = run_cli(["simulate", str(cfg)])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "error" in err
        if field is not None:
            assert repr(field) in err

    @pytest.mark.parametrize("n1", [3, 1])
    def test_too_small_scenario_exits_3(self, tmp_path, capsys, n1):
        """n1 = 3 is below df2's 4 per arm in the default battery, n1 = 1 below any scenario's 2."""
        cfg = tmp_path / "small.cfg"
        cfg.write_text(json.dumps([{**GOOD_ENTRY, "n1": n1}]))
        code, out = run_cli(["simulate", str(cfg)])
        assert code == 3 and out == ""
        assert "error" in capsys.readouterr().err

    def test_permutation_entry_without_tests_runs(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(json.dumps([{
            "dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 7, "n2": 7,
            "n_reps": 5, "tests": [], "n_perm": 50,
        }]))
        code, out = run_cli(["simulate", str(cfg)])
        assert code == 0 and parse_csv(out) == []

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


@pytest.mark.parametrize("command", ["test", "simulate", "tables"])
def test_missing_output_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command):
    ran = []
    for name in ("run_test", "run_scenarios", "build_table"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: ran.append(name))
    data = tmp_path / "d.csv"
    data.write_text(TOY_CSV)
    cfg = tmp_path / "one.cfg"
    cfg.write_text(json.dumps([{
        "dist1": "N(0,1)", "dist2": "N(0,1)", "n1": 7, "n2": 7, "n_reps": 10,
    }]))
    argv = {"test": ["test", str(data)], "simulate": ["simulate", str(cfg)],
            "tables": ["tables", "t1", "--scale", "0.0001"]}[command]
    out = tmp_path / "missing" / "out.csv"
    assert main([*argv, "--output", str(out)]) == 2
    assert ran == []
    assert str(out) in capsys.readouterr().err
    assert not out.parent.exists()
    # an existing directory is no output file either
    assert main([*argv, "--output", str(tmp_path)]) == 2
    assert ran == []
    assert "is a directory" in capsys.readouterr().err
