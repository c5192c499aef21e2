import hashlib
from collections import Counter

import pytest

from releff import ConfigError, build_table, distributions
from releff.tables import BASE_REPS, SIZES_MAIN, SIZES_PERM


def test_unknown_table_id():
    with pytest.raises(ConfigError):
        build_table("t9")


def test_bad_scale():
    with pytest.raises(ConfigError):
        build_table("t1", scale=0.0)
    with pytest.raises(ConfigError):
        build_table("t1", scale=1.5)


def test_t1_layout():
    header, rows = build_table("t1", scale=10 / BASE_REPS["t1"], seed=3)
    assert len(rows) == 3 * len(SIZES_MAIN) == 42
    assert header[:4] == ["n1", "n2", "sigma1", "sigma2"]
    # seven statistic columns between the parameters and the bookkeeping
    assert header[4:11] == ["wmw", "n:df2", "bm:df2", "pm:df2",
                            "n_logit", "bm_logit", "pm_logit"]
    assert all(len(r) == len(header) for r in rows)
    assert rows[0][:4] == ["7", "7", "1", "1"]
    assert rows[-1][:4] == ["75", "15", "1", "5"]


def test_t2_layout():
    header, rows = build_table("t2", scale=10 / BASE_REPS["t2"], seed=3)
    assert len(rows) == 2 * len(SIZES_MAIN) == 28
    assert header[2:4] == ["alpha1", "beta1"]
    assert rows[14][2:4] == ["1.2071", "1"]


def test_app_var_layout_and_exact_column():
    header, rows = build_table("app_var", scale=10 / BASE_REPS["app_var"], seed=3)
    assert len(rows) == 42
    i = header.index("true_var")
    assert rows[0][i] == "0.02551020"  # 7/7, sigma=(1,1): (N+1)/(12 n1 n2)
    by_key = {tuple(r[:4]): r for r in rows}
    assert by_key[("10", "10", "1", "1")][i] == "0.01750000"
    assert by_key[("7", "7", "1", "3")][i] == "0.02887661"


def test_perm_table_layout():
    header, rows = build_table("perm1", scale=4 / BASE_REPS["perm1"], seed=3, n_perm=40)
    assert len(rows) == 2 * len(SIZES_PERM) == 20
    stat_cols = header[4:10]
    assert stat_cols == ["n:df2", "bm:df2", "pm:df2", "n_logit", "bm_logit", "pm_logit"]
    assert rows[0][header.index("n_perm")] == "40"


def test_power_table_blocks():
    header, rows = build_table("power_p07", scale=2 / BASE_REPS["power_p07"], seed=3, n_perm=20)
    assert len(rows) == 6 * len(SIZES_PERM) == 60
    dist1 = [r[2] for r in rows[:: len(SIZES_PERM)]]
    assert dist1[0].startswith("N(-0.741")
    assert dist1[1].startswith("N(-1.658")
    assert dist1[2].startswith("BL(2.863")
    assert dist1[3].startswith("BL(0.576")
    assert dist1[4].startswith("E(2.333")
    assert dist1[5].startswith("B(5,0.431")


def test_rows_are_deterministic():
    a = build_table("t2", scale=5 / BASE_REPS["t2"], seed=11)
    b = build_table("t2", scale=5 / BASE_REPS["t2"], seed=11)
    assert a == b


def test_t1_integrates_each_distribution_pair_once(monkeypatch):
    calls = Counter()
    integrate = distributions._continuous_moments

    def spy(d1, d2):
        calls[d1, d2] += 1
        return integrate(d1, d2)

    monkeypatch.setattr(distributions, "_continuous_moments", spy)
    distributions.exact_moments.cache_clear()
    build_table("t1", scale=1 / BASE_REPS["t1"], seed=3)
    # the equal pair has a closed form; the two unequal pairs integrate once
    assert len(calls) == 2 and set(calls.values()) == {1}


class TestPinnedTables:
    """Fixed header and rows of every table; a change here is a stream change."""

    @pytest.mark.parametrize("table_id,digest", [
        ("t1", "88e1592703416ba7267e9ae4fc9ba9f0f2b9697c16bf1f0fcf14ad9cfbbdcd9c"),
        ("t2", "946bdd8e99198a349396b25990af9eb8444155f9999aab19cb0378c2c4dd1964"),
        ("perm1", "b931f3eba3a621997bf2aa812ab8070a56a0377557f7cd7ced86e62fda5aa34a"),
        ("perm2", "accd299c8e3207eb80b08c6c80a625e0c081cb207cacb341188a6d2ca018ebce"),
        ("app_var", "f88f9ece452f5d3a767f71165f33f4142751399c7f275e1f4f09a1397ee72dc9"),
        ("power_p07", "0256fd851366dbfa0afdfd01a26fc5784b25b2e582d69dccbd2736ee6f993725"),
    ])
    def test_table_digest(self, table_id, digest):
        header, rows = build_table(table_id, scale=2 / BASE_REPS[table_id], seed=42, n_perm=50)
        text = "\n".join(",".join(row) for row in [header, *rows])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("table_id,digest", [
        ("perm2", "c00fb416633c765059f85c9cd0944592b5379345d4b149ae0d35e458f2eacfff"),
        ("power_p07", "79842dd36ca88dc370a4a444ec9ee13b1c9071719b863998eb10835a74ea9912"),
    ])
    def test_settling_table_digest(self, table_id, digest):
        """Ten replications per row and 2000 draws each: a chunk's replications
        share blocks, and settle after one step or several."""
        header, rows = build_table(table_id, scale=0.001, n_perm=2000)
        text = "\n".join(",".join(row) for row in [header, *rows])
        assert hashlib.sha256(text.encode()).hexdigest() == digest
