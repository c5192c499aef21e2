"""The count lane: per-run arm-1 counts drawn from their exact law, checked against `Fraction`s."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import chi2

from releff import TwoSamples, permutation_test, run_test
from releff import permutation
from releff._batch import EXACT_SUMS_BELOW, moments_from_counts
from releff.permutation import _CountLane, _KeptRows, _RelabelLane, _cdf_windows
from releff.stat_tests import statistics
from releff.tables import PERM_BATTERY
from oracles import cdf_row, hypergeometric_law
from tests_util import MOMENTS, ONE, count_lane, tally_one, tally_sample

# (s, rest, m) rows: every one at s + rest <= 9, and rows a 200/200 lane reaches
SMALL_ROWS = [(s, rest, m) for s in range(1, 10) for rest in range(0, 10 - s)
              for m in range(s + rest + 1)]
WIDE_ROWS = [(154, 246, 200), (80, 166, 120), (40, 360, 200), (160, 80, 130)]
# rows up to 2 * 10**4 pooled values: runs of one value, a fifth, half and all but one
LARGE_ROWS = [(s, n - s, m) for n in (57, 300, 2049, 5000, 20_000)
              for s in (1, n // 5, n // 2, n - 1) for m in (1, n // 3, n // 2, n - 2)]
# a row entry's bound against the oracle: 64 units of 2**-53
ENTRY_ERROR = 64 * 2.0**-53


def built(s, rest, m, width=None):
    """One row built alone: its offset and window, by default at the width its run keeps."""
    kept = kept_rows(s, rest, m)
    offset, window = _cdf_windows(np.array([s]), np.array([rest]), np.array([m]), kept.h,
                                  kept.width if width is None else width)
    return int(offset[0]), window[0]


def full_row(s, rest, m):
    """A built row as P(X <= k) for k = 0..s - 1: 0 before its window and 1.0 past it."""
    offset, window = built(s, rest, m)
    row = np.ones(max(s, offset + window.size))
    row[:offset] = 0.0
    row[offset : offset + window.size] = window
    return row[:s]


def kept_rows(s, rest, most):
    """The kept rows of one run of one sample."""
    return _KeptRows(np.array([s]), np.array([rest]), most, 2**21)


def loop_lane(labels, n1, seed=0):
    """The lane the draw loop builds for one pooled sample."""
    [(_, lane)] = permutation._lanes(labels[None], np.bincount(labels)[None], n1, [seed], 2048)
    return lane


class TestConditionalRows:
    @pytest.mark.parametrize("rows", [SMALL_ROWS, WIDE_ROWS, LARGE_ROWS],
                             ids=["small", "wide", "large"])
    def test_every_entry_is_within_its_bound_of_the_oracle(self, rows):
        """Each window entry lies within 64 * 2**-53 of the exact row's
        nearest float; the entries before it are below 2**-53 and those past
        it above 1 - 2**-53, up to that bound, so no uniform of
        `rng.uniforms` reads them differently by more than it.  A window
        twice as wide holds nothing past the width its run keeps but 1.0."""
        for s, rest, m in rows:
            offset, window = built(s, rest, m)
            exact = np.ones(max(s, offset + window.size))
            exact[: min(s, m)] = cdf_row(s, rest, m)
            wide = built(s, rest, m, 2 * window.size + 1)
            assert wide[0] == offset and np.all(wide[1][window.size :] == 1.0)
            assert np.all(np.diff(window) >= 0.0) and np.all(window >= 2.0**-53)
            assert np.all(exact[:offset] < 2.0**-53 + ENTRY_ERROR), (s, rest, m)
            err = np.abs(window - exact[offset : offset + window.size])
            assert err.max(initial=0.0) <= ENTRY_ERROR, (s, rest, m, err.max() / 2.0**-53)
            assert np.all(exact[offset + window.size :] > 1.0 - 2.0**-53 - ENTRY_ERROR)

    def test_a_row_does_not_depend_on_its_pass(self):
        """A row built among others, of any width, is bit for bit the row built alone."""
        rows = np.array(WIDE_ROWS + LARGE_ROWS[::3] + SMALL_ROWS[::7])
        s, rest, m = rows.T
        kept = _KeptRows(s, rest, 1, 2**21)
        offset, windows = _cdf_windows(s, rest, m, kept.h, kept.width)
        for i, (si, ri, mi) in enumerate(rows.tolist()):
            alone_offset, alone = built(si, ri, mi)
            assert offset[i] == alone_offset
            assert np.array_equal(windows[i, : alone.size], alone), (si, ri, mi)
            assert np.all(windows[i, alone.size :] == 1.0)

    @pytest.mark.parametrize("rows", [SMALL_ROWS, WIDE_ROWS], ids=["small", "wide"])
    def test_lookup_counts_the_entries_at_or_below_u(self, rows):
        """At each entry, and just below it, the binary search gives the
        number of row entries <= u: it switches exactly at the entries."""
        for s, rest, m in rows:
            row = full_row(s, rest, m)
            inside = row[(row > 0.0) & (row < 1.0)]
            u = np.concatenate([inside, np.nextafter(inside, 0.0), [2.0**-53, 1 - 2.0**-53]])
            got = kept_rows(s, rest, m).draw(np.full(u.size, m), u)
            assert np.array_equal(got, np.searchsorted(row, u, side="right")), (s, rest, m)

    def test_rows_of_many_draws_are_each_draws_own(self):
        """A block whose draws hold different members left reads each draw's own row."""
        rng = np.random.default_rng(5)
        left = rng.integers(100, 140, size=3000)
        u = rng.random(3000)
        got = kept_rows(40, 360, 139).draw(left, u)
        want = [np.searchsorted(full_row(40, 360, int(v)), x, side="right")
                for v, x in zip(left, u)]
        assert got.tolist() == want


def compositions(n, runs):
    """Every way to cut n pooled values into `runs` nonempty runs, in order."""
    for cuts in itertools.combinations(range(1, n), runs - 1):
        bounds = (0, *cuts, n)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def test_implied_law_is_the_multivariate_hypergeometric():
    """At N <= 12 with 1-5 runs and every n1, the probability the sampler
    gives each count vector, a product of steps of its CDF rows, matches
    the exact law within 1e-13 (an entry is within 65 * 2**-53 of its
    exact value, a step within twice that, and a vector is a product of at
    most four steps), and the vectors it can give are the law's."""
    rows = {}

    def step(s, rest, m, k):
        if (s, rest, m) not in rows:
            rows[s, rest, m] = [0.0, *full_row(s, rest, m).tolist(), 1.0]
        row = rows[s, rest, m]
        return row[min(k, s) + 1] - row[k]

    checked = 0
    for n in range(2, 13):
        for runs in range(1, 6):
            for sizes in compositions(n, runs):
                later = [n - sum(sizes[: j + 1]) for j in range(runs)]
                for n1 in range(1, n):
                    law = hypergeometric_law(sizes, n1)
                    support = set()
                    for a, exact in law.items():
                        p, left = 1.0, n1
                        for s, rest, k in zip(sizes[:-1], later, a):
                            p *= step(s, rest, left, k)
                            left -= k
                        assert abs(p - float(exact)) <= 1e-13, (sizes, n1, a)
                        support.add(a)
                        checked += 1
                    assert sum(law.values()) == 1 and len(support) == len(law)
    assert checked > 250_000


@pytest.mark.parametrize("sizes,n1", [
    ([6, 12, 24, 12, 6], 15), ([6, 12, 24, 12, 6], 45),
    ([6, 12, 12, 6, 2964], 1500),   # 3000 pooled values
], ids=["15", "45", "1500"])
def test_chi_square_against_the_exact_law(sizes, n1):
    """10**5 drawn count vectors on five levels at 15/45, 45/15 and
    1500/1500 follow the multivariate hypergeometric law (bins of expected
    count below 5 pooled)."""
    sizes = np.array(sizes)
    n_draws = 100_000
    drawn = count_lane(sizes, n1, 20261019).counts(ONE, 0, n_draws)
    assert np.all(drawn.sum(axis=1) == n1) and np.all((drawn >= 0) & (drawn <= sizes))
    law = hypergeometric_law(tuple(sizes.tolist()), n1)
    vectors, counts = np.unique(drawn, axis=0, return_counts=True)
    observed = dict(zip(map(tuple, vectors.tolist()), counts.tolist()))
    assert set(observed) <= set(law)
    big = [a for a, p in law.items() if p * n_draws >= 5]
    expected = np.array([float(law[a]) * n_draws for a in big])
    got = np.array([observed.get(a, 0) for a in big])
    expected = np.append(expected, n_draws - expected.sum())
    got = np.append(got, n_draws - got.sum())
    assert ((got - expected) ** 2 / expected).sum() < chi2.ppf(0.999, df=len(big))


def test_chi_square_of_each_run_at_1500_per_arm():
    """On five levels of 600 at 1500/1500, wide rows past 2048 pooled values,
    each run's drawn count follows its exact marginal law Hyp(600, 2400,
    1500) (bins of expected count below 5 pooled)."""
    n_draws = 100_000
    drawn = count_lane(np.full(5, 600), 1500, 20261021).counts(ONE, 0, n_draws)
    law = {a[0]: p for a, p in hypergeometric_law((600, 2400), 1500).items()}
    big = [k for k, p in law.items() if p * n_draws >= 5]
    expected = np.array([float(law[k]) * n_draws for k in big])
    expected = np.append(expected, n_draws - expected.sum())
    for run in drawn.T:
        got = np.bincount(run, minlength=601)[big]
        got = np.append(got, n_draws - got.sum())
        assert ((got - expected) ** 2 / expected).sum() < chi2.ppf(1 - 0.001 / 5, df=len(big))


def levels(n1, n2, seed):
    """Arms of n1 and n2 values on five levels."""
    pooled = np.random.default_rng(seed).choice(5, size=n1 + n2, p=[0.1, 0.2, 0.4, 0.2, 0.1])
    return TwoSamples(pooled[:n1].astype(float), pooled[n1:].astype(float))


class TestCountLane:
    @pytest.mark.parametrize("n1,n2,runs,counts", [
        (9, 15, 5, True), (9, 14, 5, False),   # 3 runs <= n2, and one arm-2 value short
        (300, 48, 16, True), (300, 51, 17, False),   # at most 16 runs
        (1025, 1024, 5, True),   # past 2048 pooled values
        (40, 40, 80, False),   # tie-free
    ])
    def test_lane_kind(self, n1, n2, runs, counts):
        labels = np.arange(n1 + n2) % runs
        assert isinstance(loop_lane(labels, n1), _CountLane) == counts
        assert isinstance(loop_lane(labels, n1), _RelabelLane) != counts

    def test_counts_are_drawn_below_the_exact_sums_bound(self):
        """Counts are drawn up to 2**21 - 1 pooled values, where `RunSums`'
        int64 sums stay exact, and not at 2**21; the rule reads only the
        sizes, so it allocates no array, only the ints of its sums."""
        assert EXACT_SUMS_BELOW == 2**21
        tracemalloc.start()
        try:
            below = permutation._counts_drawn(2**20, 2**20 - 1, 5)
            at = permutation._counts_drawn(2**20, 2**20, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert below and not at
        assert peak < 1000

    def test_observed_counts_reproduce_run_test(self):
        """A draw whose counts are the observed ones scores every
        statistic to the bits `run_test` gives, and counts in both tallies."""
        d = levels(15, 45, 7)
        labels, sizes = d.run_labels()
        lane = loop_lane(labels, d.n1, seed=3)
        assert isinstance(lane, _CountLane)
        a = lane.counts(ONE, 0, 2**15)
        same = np.all(a == d.runs()[0], axis=1)
        assert same.sum() >= 10
        observed = np.array([run_test(d, kind).statistic for kind in PERM_BATTERY])
        stats = statistics(moments_from_counts(a, sizes, d.n1, d.n2), PERM_BATTERY)
        for kind, want, got in zip(PERM_BATTERY, observed, stats):
            assert np.all(got[same] == want), kind.label()
        n_le, n_ge = tally_one(lane, PERM_BATTERY, observed, 0, 2**15)
        assert np.all(n_le + n_ge - 2**15 >= same.sum())

    @pytest.mark.parametrize("n_perm", [50, 1])
    def test_all_tied_draws_no_uniforms(self, monkeypatch, n_perm):
        """One run: every draw is the observed data, read off zero uniform columns."""
        d = TwoSamples([3.0] * 8, [3.0] * 9)
        columns = []
        uniforms = permutation.uniforms

        def spy(key, first_row, n_rows, n_cols):
            columns.append(n_cols)
            return uniforms(key, first_row, n_rows, n_cols)

        monkeypatch.setattr(permutation, "uniforms", spy)
        for kind in PERM_BATTERY:
            res = permutation_test(d, kind, n_perm=n_perm, seed=4)
            assert res.p1 == res.p2 == res.p_value == 1.0
        assert set(columns) == {0}

    def test_tallies_equal_across_threads_and_block_splits(self):
        """On five levels at 40/60, the tallies are the same at --threads 1
        and 2 and however the draws are split into blocks."""
        d = levels(40, 60, 11)
        labels, sizes = d.run_labels()
        observed = np.array([run_test(d, kind).statistic for kind in PERM_BATTERY])
        assert isinstance(loop_lane(labels, d.n1), _CountLane)
        whole = tally_one(count_lane(sizes, d.n1, 9), PERM_BATTERY, observed, 0, 20_000)
        parts = np.zeros((2, len(PERM_BATTERY)), dtype=np.int64)
        for a, b in [(0, 1), (1, 2048), (2048, 2049), (2049, 8192),
                     (8192, 8193), (8193, 17_000), (17_000, 20_000)]:
            parts += tally_one(count_lane(sizes, d.n1, 9), PERM_BATTERY, observed, a, b - a)
        assert np.array_equal(parts, np.array(whole))
        results = [permutation.permutation_tests(d, PERM_BATTERY, 20_000, seed=9, threads=t)
                   for t in (1, 2)]
        assert results[0] == results[1]
        assert [(r.p1, r.p2) for r in results[0]] == [
            (le / 20_000, ge / 20_000) for le, ge in zip(*whole)]


@st.composite
def count_samples(draw):
    """Sizes of 1-16 runs (often runs of one value), N <= 2048, and n1 with >= 2 in each arm."""
    runs = draw(st.integers(1, 16))
    size = st.one_of(st.just(1), st.integers(1, 2048 // runs))
    sizes = draw(st.lists(size, min_size=runs, max_size=runs).filter(lambda v: sum(v) >= 4))
    n1 = draw(st.integers(2, sum(sizes) - 2))
    return sizes, n1


def field_bits(m):
    """n1, n2 and every moment of a summary as int64 bits."""
    return {name: np.asarray(getattr(m, name)).view(np.int64).tolist()
            for name in ("n1", "n2", *MOMENTS)}


@given(sample=count_samples(), seed=st.integers(0, 2**32 - 1), first=st.integers(0, 10**6),
       n_draws=st.integers(1, 200))
@example(sample=([30], 12), seed=1, first=0, n_draws=50)   # one run: every draw is the data
@example(sample=([1] * 16, 9), seed=2, first=7, n_draws=64)   # every run of size 1
@example(sample=([1024, 1, 1023], 1500), seed=3, first=0, n_draws=100)   # N = 2048, arm 1 larger
@example(sample=([3, 1, 500, 1, 7], 20), seed=4, first=5, n_draws=100)   # arm 2 larger
def test_run_sums_equal_the_count_kernel(sample, seed, first, n_draws):
    """A count lane's moments, summed run by run as it draws, equal the
    count kernel's vectorized reduction over its counts, bit for bit."""
    sizes, n1 = sample
    sizes = np.array(sizes)
    got = count_lane(sizes, n1, seed).moments(ONE, first, n_draws)
    a = count_lane(sizes, n1, seed).counts(ONE, first, n_draws)
    assert a.shape == (n_draws, sizes.size) and np.all(a.sum(axis=1) == n1)
    assert field_bits(got) == field_bits(moments_from_counts(a, sizes, n1, sizes.sum() - n1))


def reached_left(sizes, n1, a):
    """Per run but the last, the members left that the draws with counts `a` reach."""
    left = n1 - np.cumsum(a, axis=1) + a
    return [left[:, j] for j in range(sizes.size - 1)]


def run_rows(sizes, n1, a):
    """The (s, rest, members left) rows the draws with counts `a` reach, every run but the last."""
    later = sizes.sum() - np.cumsum(sizes)
    left = n1 - np.cumsum(a, axis=1) + a
    return {(int(s), int(rest), int(m)) for j, (s, rest) in enumerate(zip(sizes[:-1], later))
            for m in np.unique(left[:, j])}


class TestKeptRows:
    def test_later_blocks_reaching_new_rows_tally_as_fresh_lanes(self):
        """On five levels at 200/200, a lane that scores 128 draws and then
        blocks of 2048, each reaching rows no earlier block reached, tallies
        each block as a fresh lane does."""
        d = levels(200, 200, 21)
        _, sizes = d.run_labels()
        observed = np.array([run_test(d, kind).statistic for kind in PERM_BATTERY])
        lane = count_lane(sizes, d.n1, 8)
        bounds = [0, 128, 2176, 4224, 6272]
        reached = set()
        for a, b in zip(bounds[:-1], bounds[1:]):
            counts = count_lane(sizes, d.n1, 8).counts(ONE, a, b - a)
            rows = run_rows(sizes, d.n1, counts)
            if a:
                assert rows - reached, "no new row reached"
            reached |= rows
            got = tally_one(lane, PERM_BATTERY, observed, a, b - a)
            want = tally_one(count_lane(sizes, d.n1, 8), PERM_BATTERY, observed, a, b - a)
            assert np.array_equal(got, want), (a, b)
        assert sum((kept.start >= 0).sum() for kept in lane.rows) == len(reached)

    def test_grouped_blocks_tally_as_a_kept_table(self, monkeypatch):
        """A lane whose kept rows would pass their limit empties its table and
        searches the block's draws in groups of keys, each group's rows in
        place of the last's; the tallies do not change, and no table holds
        more rows than it fits."""
        d = levels(200, 200, 23)
        _, sizes = d.run_labels()
        observed = np.array([run_test(d, kind).statistic for kind in PERM_BATTERY])
        want = tally_one(count_lane(sizes, d.n1, 5), PERM_BATTERY, observed, 0, 6000)
        monkeypatch.setattr(permutation, "_KEPT_ENTRIES", 4 * 1000)
        lane = count_lane(sizes, d.n1, 5)
        built = []
        windows = permutation._cdf_windows
        monkeypatch.setattr(permutation, "_cdf_windows",
                            lambda s, *rest: built.append(s.size) or windows(s, *rest))
        got = sum(tally_one(lane, PERM_BATTERY, observed, a, 1000) for a in range(0, 6000, 1000))
        assert np.array_equal(got, want)
        reached = run_rows(sizes, d.n1, count_lane(sizes, d.n1, 5).counts(ONE, 0, 6000))
        assert sum((kept.start >= 0).sum() for kept in lane.rows) < len(reached)
        fit = max(kept.fit for kept in lane.rows)
        assert max(built) <= fit < max(len(np.unique(left)) for left in reached_left(
            sizes, d.n1, count_lane(sizes, d.n1, 5).counts(ONE, 0, 1000)))
        assert all(kept.keys.size <= kept.fit and kept.table.size <= kept.fit * kept.width
                   for kept in lane.rows)

    def test_cold_lane_builds_each_reached_row_once(self, monkeypatch):
        """A draw loop over several blocks builds each (run, members left)
        row its draws reach once, and no other row."""
        d = levels(200, 200, 22)
        labels, sizes = d.run_labels()
        n_draws = 3 * 8192 + 500
        reached = run_rows(sizes, d.n1, count_lane(sizes, d.n1, 6).counts(ONE, 0, n_draws))
        asked = []
        windows = permutation._cdf_windows

        def spy(s, rest, m, h, width):
            asked.extend(zip(s.tolist(), rest.tolist(), m.tolist()))
            return windows(s, rest, m, h, width)

        monkeypatch.setattr(permutation, "_cdf_windows", spy)
        tally_sample(labels, d.n1, PERM_BATTERY, np.zeros(len(PERM_BATTERY)), 6, 0, n_draws)
        assert len(asked) == len(set(asked)) and set(asked) == reached
