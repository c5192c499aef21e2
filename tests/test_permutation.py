import dataclasses
import itertools
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import chi2

from releff import (InvalidKind, ShirahataForm, ShirahataKind, SizeTooLarge, TwoSamples,
                    permutation_test, run_test, var_shirahata)
from releff import TestKind as TK
from releff import permutation, stat_tests
from releff._batch import EXACT_SUMS_BELOW, moments_from_counts, tie_runs
from releff.permutation import _CountLane, _RelabelLane, _batch_permutations, tally_draws
from releff.rng import perm_key, uniforms
from releff.simulate import _reject_threshold
from releff.stat_tests import stat_arrays, statistics
from releff.tables import PERM_BATTERY, build_table
from releff.variance import VarianceKind, variance_raw
from oracles import shuffle
from tests_util import (MOMENTS, ONE, SORT_CASES, count_lane, index_lane, kernel_from_perm,
                        one_lane, random_dataset, relabel, relabel_lane, sort_case, tally_one,
                        tally_sample)

KINDS = [TK.parse(s) for s in ("n", "bm", "pm", "n_logit", "bm_logit", "pm_logit")]


def run_labels(pooled):
    """The tie-run label of each pooled value."""
    pooled = np.asarray(pooled, dtype=float)
    return tie_runs(pooled[:1], pooled[1:])[0]


def observed_stats(labels, n1, kinds):
    """The kernel's statistics for the observed relabelling (arm 1 = pooled[:n1])."""
    mm = kernel_from_perm(labels[None, :n1], labels)
    return np.array([stat[0] for stat, _ in stat_arrays(mm, kinds)])


class TestShuffle:
    def test_single_element_is_identity(self):
        assert shuffle([42.0], []).tolist() == [42.0]

    def test_exact_chi_square_over_arm1_subsets(self, monkeypatch):
        """Every one of the C(6, 3) = 20 arm-1 sets is equally likely under
        the stream `tally_draws` reads."""
        drawn = []

        def spy(u, lane, samples):
            arm1 = _batch_permutations(u, lane, samples)
            drawn.append(np.sort(arm1, axis=1))
            return arm1

        monkeypatch.setattr(permutation, "_batch_permutations", spy)
        n_draws = 60_000
        labels = run_labels(np.arange(6.0))
        tally_one(relabel_lane(labels, 3, n_draws, seed=99), [TK.parse("n_logit")], np.zeros(1),
                  0, n_draws)
        arm1 = np.concatenate(drawn)
        assert arm1.shape == (n_draws, 3)
        subsets, counts = np.unique(arm1, axis=0, return_counts=True)
        assert [tuple(s) for s in subsets] == list(itertools.combinations(range(6), 3))
        expected = n_draws / 20
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.999, df=19)

    def test_batch_matches_scalar_path(self):
        # the truncated relabel leaves arm 1 holding what the full shuffle
        # puts in its first n1 positions, for every split of the same uniforms
        n = 12
        u = uniforms(perm_key(555), 0, 20, n - 1)
        values = np.arange(float(n))
        scalar = [shuffle(values, u[k]) for k in range(20)]
        for n1 in range(1, n):
            batch = relabel(u[:, : n - n1], index_lane(n, n1, 20))
            for k in range(20):
                assert set(values[batch[k]]) == set(scalar[k][:n1])

    @pytest.mark.parametrize("n1", [1, 4, 9, 13])
    def test_carried_labels_are_the_labels_of_the_carried_indices(self, n1):
        """Carrying run labels puts in arm 1 exactly the labels of the index
        sets that carrying the indices gives, in the same order."""
        n = 14
        labels = run_labels([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7]).astype(np.int32)
        u = uniforms(perm_key(8), 0, 300, n - n1)
        carried = relabel(u, relabel_lane(labels, n1, 300))
        assert carried.dtype == np.int32
        indices = relabel(u, index_lane(n, n1, 300))
        assert np.array_equal(carried, labels[indices])

    def test_draw_streams_tile_the_sequential_run(self):
        # lanes that regenerate [a, b) reproduce the same uniform rows
        full = uniforms(perm_key(31), 0, 50, 9)
        for a, b in [(0, 10), (10, 35), (35, 50)]:
            assert np.array_equal(uniforms(perm_key(31), a, b - a, 9), full[a:b])


class TestPermutationTest:
    def test_rejects_wmw(self):
        with pytest.raises(InvalidKind):
            permutation_test(TwoSamples([1, 2, 3], [4, 5, 6]), TK.parse("wmw"), 10, seed=1)

    def test_determinism(self, rng):
        x1, x2 = random_dataset(rng)
        d = TwoSamples(x1, x2)
        a = permutation_test(d, TK.parse("pm"), n_perm=500, seed=77)
        b = permutation_test(d, TK.parse("pm"), n_perm=500, seed=77)
        assert a == b

    def test_thread_count_does_not_change_tallies(self, rng):
        x1, x2 = random_dataset(rng, lo=8, hi=12)
        d = TwoSamples(x1, x2)
        seq = permutation_test(d, TK.parse("bm"), n_perm=5000, seed=5, threads=1)
        par = permutation_test(d, TK.parse("bm"), n_perm=5000, seed=5, threads=2)
        assert (seq.p1, seq.p2, seq.p_value) == (par.p1, par.p2, par.p_value)

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_one_contiguous_lane_per_worker(self, rng, monkeypatch, threads):
        x1, x2 = random_dataset(rng, lo=8, hi=12)
        d = TwoSamples(x1, x2)
        n_perm = 5000  # three 2048-draw blocks at this size
        reference = permutation_test(d, TK.parse("pm"), n_perm=n_perm, seed=5)
        lanes = []

        def spy(fn, tasks, threads):
            lanes.extend((t[-2], t[-1]) for t in tasks)
            return [fn(*t) for t in tasks]

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(permutation, "map_tasks", spy)
        got = permutation_test(d, TK.parse("pm"), n_perm=n_perm, seed=5, threads=threads)
        assert len(lanes) == min(threads, 3)
        assert [a for a, _ in lanes] == [0] + [b for _, b in lanes[:-1]]
        assert lanes[-1][1] == n_perm
        assert all(a % 2048 == 0 for a, _ in lanes)
        assert (got.p1, got.p2, got.p_value) == (reference.p1, reference.p2, reference.p_value)

    @pytest.mark.parametrize("tied", [False, True], ids=["tie_free", "five_levels"])
    def test_cache_sized_blocks_reproduce_one_tally(self, monkeypatch, tied):
        """At 300/300 a lane is scored in blocks: under 2048 draws when it
        relabels, 8192 when it draws counts (five levels).  The tallies equal
        one tally over all the draws, at any thread count."""
        rng = np.random.default_rng(300)
        if tied:
            pooled = rng.choice(5, size=600, p=[0.1, 0.2, 0.4, 0.2, 0.1]).astype(float)
        else:
            pooled = rng.normal(size=600)
        d = TwoSamples(pooled[:300], pooled[300:])
        pm = TK.parse("pm")
        labels = run_labels(d.pooled())
        block = permutation._block_draws(300, 300, int(labels.max()) + 1)
        lane = one_lane(labels, 300, 6, 20_000)
        assert isinstance(lane, _CountLane) == tied
        assert block == 8192 if tied else block < 2048
        observed = np.array([run_test(d, pm).statistic])
        n_le, n_ge = tally_one(lane, [pm], observed, 0, 20_000)
        blocks = []

        def spy(lane, kinds, observed, samples, first_draw, n_draws):
            blocks.append(n_draws)
            return tally_draws(lane, kinds, observed, samples, first_draw, n_draws)

        monkeypatch.setattr(permutation, "tally_draws", spy)
        for threads in (1, 2):
            res = permutation_test(d, pm, n_perm=20_000, seed=6, threads=threads)
            assert (res.p1, res.p2) == (n_le[0] / 20_000, n_ge[0] / 20_000)
        assert max(blocks) == block and sum(blocks) >= 20_000

    def test_threads_below_one_rejected(self):
        d = TwoSamples([1, 2, 5, 7], [3, 4, 6, 8])
        for t in (0, -2):
            with pytest.raises(ValueError, match="threads"):
                permutation_test(d, TK.parse("pm"), n_perm=10, seed=1, threads=t)

    def test_tie_counting_identity(self):
        # heavy ties: many permuted statistics equal the observed one, and
        # p1 + p2 = 1 + (fraction of exact ties) >= 1
        d = TwoSamples([1, 1, 2, 2], [1, 2, 2, 2])
        res = permutation_test(d, TK.parse("n"), n_perm=400, seed=3)
        assert res.p1 + res.p2 >= 1.0
        assert res.p_value == min(1.0, 2.0 * min(res.p1, res.p2))

    def test_clamped_at_one(self):
        d = TwoSamples([3, 3, 3, 3], [3, 3, 3, 3])
        res = permutation_test(d, TK.parse("pm"), n_perm=50, seed=11)
        assert res.p1 == res.p2 == 1.0  # every permuted statistic ties the observed 0
        assert res.p_value == 1.0

    def test_n_perm_one_is_well_defined(self):
        d = TwoSamples([1, 2, 5], [3, 4, 6])
        res = permutation_test(d, TK.parse("bm:df"), n_perm=1, seed=8)
        assert res.p1 in (0.0, 1.0) and res.p2 in (0.0, 1.0)
        assert res.p_value in (0.0, 1.0, 2.0 * min(res.p1, res.p2))

    def test_symmetric_null_has_large_p(self):
        # (3,3) needs a df variant defined at that size
        d = TwoSamples([1, 4, 9], [2, 6, 7])
        res = permutation_test(d, TK.parse("pm:df"), n_perm=2000, seed=21)
        assert res.p_value > 0.3

    def test_observed_statistic_is_the_tallied_one(self, rng, monkeypatch):
        """The reported observed statistic is the one the draws are tallied
        against, and the count kernel scores the observed arrangement to the
        same bits, so a draw with the observed arm-1 values ties it."""
        seen = []

        def spy(lane, kinds, observed, *args):
            seen.append(observed.copy())
            return tally_draws(lane, kinds, observed, *args)

        monkeypatch.setattr(permutation, "tally_draws", spy)
        for i in range(200):
            x1, x2 = random_dataset(rng, tie_free=i % 2 == 0)
            d = TwoSamples(x1, x2)
            labels, n1 = run_labels(d.pooled()), d.n1
            for kind in PERM_BATTERY:
                seen.clear()
                res = permutation_test(d, kind, n_perm=1, seed=i)
                [[observed]], = seen
                assert res.observed.statistic == observed, kind.label()
                assert observed_stats(labels, n1, [kind])[0] == observed, kind.label()

    def test_observed_result_matches_run_test(self, rng):
        x1, x2 = random_dataset(rng)
        d = TwoSamples(x1, x2)
        res = permutation_test(d, TK.parse("pm"), n_perm=10, seed=2)
        assert dataclasses.asdict(res.observed) == dataclasses.asdict(run_test(d, TK.parse("pm")))


class TestExactSumsBound:
    """Permutation draws are refused from EXACT_SUMS_BELOW pooled values on."""

    def test_refused_before_the_tie_runs(self, monkeypatch):
        """At 2**21 pooled values the test is refused before the dataset is
        labelled, and allocates next to nothing once the dataset is built."""
        data = TwoSamples(np.zeros(2**20), np.ones(2**20))

        def labelled(self):
            raise AssertionError("the dataset was labelled")

        monkeypatch.setattr(TwoSamples, "run_labels", labelled)
        tracemalloc.start()
        try:
            with pytest.raises(SizeTooLarge, match="got 2097152"):
                permutation_test(data, TK.parse("pm"), n_perm=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_one_value_below_the_bound_runs_as_before(self, monkeypatch):
        """With the bound lowered to 30, 29 pooled values give the result they
        give under the real bound, and 30 are refused."""
        pooled = np.random.default_rng(8).integers(0, 5, size=30).astype(float)
        below, at = TwoSamples(pooled[:14], pooled[14:29]), TwoSamples(pooled[:15], pooled[15:])
        want = permutation_test(below, TK.parse("pm"), n_perm=500, seed=3)
        monkeypatch.setattr(permutation, "EXACT_SUMS_BELOW", 30)
        assert permutation_test(below, TK.parse("pm"), n_perm=500, seed=3) == want
        with pytest.raises(SizeTooLarge):
            permutation_test(at, TK.parse("pm"), n_perm=500, seed=3)


class TestLaneBuffers:
    """One lane serves every block of a draw loop."""

    @pytest.mark.parametrize("tied", [False, True], ids=["tie_free", "five_levels"])
    def test_blocks_keep_what_fresh_buffers_give(self, monkeypatch, tied):
        """At 200/200, each block scores what a fresh lane gives for its
        draws: the sorted arm-1 ranks of a relabel (tie-free) or the per-run sums
        of the count kernel (five levels).  The moments a block makes stay
        unchanged while the lane's later blocks (a short last one too) are
        drawn, and the range tallies what fresh single-block calls tally."""
        rng = np.random.default_rng(400)
        if tied:
            pooled = rng.choice(5, size=400, p=[0.1, 0.2, 0.4, 0.2, 0.1]).astype(float)
        else:
            pooled = rng.normal(size=400)
        n1, seed, pm = 200, 12, TK.parse("pm")
        labels = run_labels(pooled)
        observed = observed_stats(labels, n1, [pm])
        block = permutation._block_draws(n1, 200, int(labels.max()) + 1)
        stop = 3 * block + block // 3
        scored = []

        def fresh_lane(draws):
            if tied:
                return count_lane(np.bincount(labels), n1, seed)
            return relabel_lane(labels, n1, draws, seed)

        def record(drawn, mm):
            fields = {name: np.array(getattr(mm, name)) for name in MOMENTS}
            scored.append((drawn.copy(), mm, fields))
            return mm

        if tied:
            moments = permutation.RunSums.moments
            monkeypatch.setattr(permutation.RunSums, "moments",
                                lambda self, runs, samples, n: record(
                                    np.empty((4, n)), moments(self, runs, samples, n)))
        else:
            ranks_scorer = permutation._moments_from_ranks
            monkeypatch.setattr(permutation, "_moments_from_ranks",
                                lambda ranks, n1, n2: record(ranks, ranks_scorer(ranks, n1, n2)))
        counts = tally_sample(labels, n1, [pm], observed, seed, 0, stop)
        monkeypatch.undo()
        # a block's sums are (4, draws), its relabel (draws, n1)
        sizes = [drawn.shape[-1 if tied else 0] for drawn, _, _ in scored]
        assert sizes == [block] * 3 + [block // 3]
        want = np.zeros_like(counts)
        for k, ((drawn, mm, fields), n) in enumerate(zip(scored, sizes)):
            lane = fresh_lane(n)
            if tied:
                fresh = lane.moments(ONE, k * block, n)
                for name, value in fields.items():
                    assert np.array_equal(getattr(fresh, name), value), (k, name)
            else:
                u = uniforms(perm_key(seed), k * block, n, 200)
                assert np.array_equal(drawn, np.sort(relabel(u, lane), axis=1))
            for name, value in fields.items():
                assert np.array_equal(getattr(mm, name), value), (k, name)
            want += tally_one(fresh_lane(n), [pm], observed, k * block, n)
        assert np.array_equal(counts, want)


class TestBatchStatisticPath:
    def test_permuted_statistics_match_scalar_run_test(self, rng):
        """Each permuted arrangement scored by the kernel equals the scalar test."""
        for _ in range(10):
            x1, x2 = random_dataset(rng, lo=4, hi=9)
            d = TwoSamples(x1, x2)
            pooled = d.pooled()
            u = uniforms(perm_key(17), 0, 6, d.n2)
            arm1_sets = relabel(u, index_lane(d.n, d.n1, 6))
            labels = run_labels(pooled)
            mm = kernel_from_perm(labels[arm1_sets], labels)
            for kind, (stats, _) in zip(KINDS, stat_arrays(mm, KINDS)):
                for row, arm1 in enumerate(arm1_sets):
                    in_arm1 = np.zeros(d.n, dtype=bool)
                    in_arm1[arm1] = True
                    scalar = run_test(
                        TwoSamples(pooled[in_arm1], pooled[~in_arm1]), kind
                    ).statistic
                    assert stats[row] == pytest.approx(scalar, abs=1e-12)

    def test_block_computes_each_variance_once(self, monkeypatch):
        """A block over PERM_BATTERY reads each of its 3 variance kinds once, not once per kind."""
        labels = run_labels(np.arange(30.0))
        observed = observed_stats(labels, 15, PERM_BATTERY)
        calls = []

        def spy(m, kind):
            calls.append(kind)
            return variance_raw(m, kind)

        monkeypatch.setattr(stat_tests, "variance_raw", spy)
        tally_one(relabel_lane(labels, 15, 512, seed=3), PERM_BATTERY, observed, 0, 512)
        assert sorted(calls) == sorted([VarianceKind.N, VarianceKind.BM, VarianceKind.PM])

    def test_observed_stats_match_scalar(self, rng):
        for _ in range(20):
            x1, x2 = random_dataset(rng)
            d = TwoSamples(x1, x2)
            obs = observed_stats(run_labels(d.pooled()), d.n1, KINDS)
            for kind, got in zip(KINDS, obs):
                assert got == pytest.approx(run_test(d, kind).statistic, abs=1e-12)

    @pytest.mark.parametrize("n1,n2", [(15, 15), (15, 45), (7, 10)])
    def test_exact_ties_count_in_both_tallies(self, n1, n2):
        """A draw with the observed arm-1 multiset ties the observed statistic exactly."""
        rng = np.random.default_rng(1000 * n1 + n2)
        pooled = rng.choice(5, size=n1 + n2, p=[0.1, 0.2, 0.4, 0.2, 0.1]).astype(float)
        n, n_draws, seed = n1 + n2, 2048, 9
        labels = run_labels(pooled)
        observed = observed_stats(labels, n1, KINDS)
        # the draws tally_draws makes: row k of its stream, n2 swaps each
        arm1 = relabel(uniforms(perm_key(seed), 0, n_draws, n2), index_lane(n, n1, n_draws))
        same = np.all(np.sort(pooled[arm1], axis=1) == np.sort(pooled[:n1]), axis=1)
        assert same.sum() > 0
        n_le, n_ge = tally_one(relabel_lane(labels, n1, n_draws, seed), KINDS, observed, 0, n_draws)
        assert np.all(n_le + n_ge - n_draws >= same.sum())
        mm = kernel_from_perm(labels[arm1], labels)
        for idx, (kind, (stats, _)) in enumerate(zip(KINDS, stat_arrays(mm, KINDS))):
            assert np.all(stats[same] == observed[idx]), kind.label()

    @pytest.mark.parametrize("a,sizes", [
        ([1_999_999, 1], [2_000_000, 2_000_000]),
        ([700_000, 1_000_000, 300_000], [1_000_000, 1_500_000, 1_500_000]),
        ([2_000_000, 0, 0], [2_000_001, 1_999_998, 1]),
    ], ids=["two_runs", "three_runs", "arm1_lowest"])
    def test_float_sums_past_int64_bound(self, a, sizes):
        """Arms of 2e6 each, past the int64 bound: float sums, still accurate."""
        n1 = n2 = 2_000_000
        assert n1 + n2 >= EXACT_SUMS_BELOW
        mm = moments_from_counts(np.array([a]), np.array(sizes), n1, n2)
        b = [s - x for s, x in zip(sizes, a)]
        lower1 = [sum(a[:r]) for r in range(len(a))]
        lower2 = [sum(b[:r]) for r in range(len(b))]
        # F1 at an arm-2 value of run r and S2 at an arm-1 value, tie-normalised
        f1 = [Fraction(2 * lo + x, 2 * n1) for lo, x in zip(lower1, a)]
        s2 = [1 - Fraction(2 * lo + y, 2 * n2) for lo, y in zip(lower2, b)]
        p = sum(y * f for y, f in zip(b, f1)) / n2
        tau1 = sum(x * s * s for x, s in zip(a, s2)) / n1
        tau2 = sum(y * f * f for y, f in zip(b, f1)) / n2
        beta = Fraction(sum(x * y for x, y in zip(a, b)), n1 * n2)
        got = (mm.p_hat[0], mm.tau1_hat[0], mm.tau2_hat[0], mm.beta_hat[0])
        for g, want in zip(got, (p, tau1, tau2, beta)):
            assert g == pytest.approx(float(want), rel=1e-12, abs=1e-15)

    def test_lane_split_reproduces_full_tally(self, rng):
        x1, x2 = random_dataset(rng, lo=6, hi=10)
        d = TwoSamples(x1, x2)
        labels = run_labels(d.pooled())
        obs = observed_stats(labels, d.n1, KINDS)
        full_le, full_ge = tally_one(one_lane(labels, d.n1, 4, 777), KINDS, obs, 0, 777)
        le = np.zeros_like(full_le)
        ge = np.zeros_like(full_ge)
        for a, b in [(0, 123), (123, 500), (500, 777)]:
            part_le, part_ge = tally_one(one_lane(labels, d.n1, 4, b - a), KINDS, obs, a, b - a)
            le += part_le
            ge += part_ge
        assert np.array_equal(le, full_le) and np.array_equal(ge, full_ge)


def sample_values(rng, kind, n):
    """n pooled values: tie-free, on 2, 5 or 20 levels."""
    if kind == "tie_free":
        return rng.normal(size=n)
    return rng.integers(0, {"levels2": 2, "levels5": 5, "levels20": 20}[kind], size=n) * 1.0


@st.composite
def stream_sets(draw):
    """Pooled samples of one size, each with a data kind and how its observed statistics are set."""
    n1, n2 = draw(st.integers(4, 20)), draw(st.integers(4, 24))
    kinds = draw(st.lists(st.sampled_from(["tie_free", "levels2", "levels5", "levels20"]),
                          min_size=1, max_size=6))
    # the data's own statistics, 0 (settles in its first step) or +inf (never settles)
    observe = draw(st.lists(st.sampled_from(["data", "zero", "never"]), min_size=len(kinds),
                            max_size=len(kinds)))
    return n1, n2, kinds, observe, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 2500))


class TestSharedBlocks:
    """A Monte Carlo chunk's replications share blocks, and each tallies as it would alone."""

    @given(case=stream_sets())
    @example(case=(15, 20, ["levels5", "levels2", "tie_free", "levels20"],
                   ["data", "zero", "never", "data"], 7, 2000))   # every lane kind in one chunk
    @example(case=(7, 7, ["levels5"] * 5, ["zero", "never", "data", "zero", "data"], 3, 3000))
    def test_each_sample_tallies_as_one_stream(self, case):
        """Each sample's decision equals its full tally's, and its tallies
        equal a lone tally of its stream over the draws it took, which its blocks
        tile from 0 in steps."""
        n1, n2, kinds, observe, seed, n_perm = case
        rng = np.random.default_rng(seed)
        pooled = np.stack([sample_values(rng, kind, n1 + n2) for kind in kinds])
        labels, sizes, a = tie_runs(pooled[:, :n1], pooled[:, n1:])
        observed = np.array(statistics(moments_from_counts(a, sizes, n1, n2), PERM_BATTERY))
        observed[:, [o == "zero" for o in observe]] = 0.0
        observed[:, [o == "never" for o in observe]] = np.inf
        seeds = [seed + 11 * i for i in range(len(kinds))]
        c_star = _reject_threshold(n_perm, 0.05)
        served = {}

        def spy(lane, kinds, observed, samples, first_draw, n_draws):
            assert len(samples) * n_draws <= lane.draws
            for i in samples.tolist():
                served.setdefault(lane.keys[i], []).append((first_draw, n_draws))
            return tally_draws(lane, kinds, observed, samples, first_draw, n_draws)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(permutation, "tally_draws", spy)
            got = permutation.tally_streams(labels, sizes, n1, PERM_BATTERY, observed, seeds,
                                            0, n_perm, settle_above=c_star)
        for i, seed_i in enumerate(seeds):
            steps = served[perm_key(seed_i)]
            drawn = steps[-1][0] + steps[-1][1]
            assert [first for first, _ in steps] == [0, *np.cumsum([n for _, n in steps[:-1]])]
            alone = tally_sample(labels[i], n1, PERM_BATTERY, observed[:, i], seed_i,
                                            0, drawn)
            assert np.array_equal(got[:, :, i], alone), i
            full = tally_sample(labels[i], n1, PERM_BATTERY, observed[:, i], seed_i,
                                           0, n_perm)
            assert np.array_equal(got[:, :, i].min(axis=0) <= c_star, full.min(axis=0) <= c_star), i
            if observe[i] == "never":
                assert drawn == n_perm
            if observe[i] == "zero":
                assert drawn == steps[0][1]

    def test_open_samples_share_blocks(self, monkeypatch):
        """Five-level samples at 15/20 that stay open share each block, up to its size."""
        rng = np.random.default_rng(4)
        pooled = np.stack([sample_values(rng, "levels5", 35) for _ in range(12)])
        labels, sizes, _ = tie_runs(pooled[:, :15], pooled[:, 15:])
        observed = np.full((len(PERM_BATTERY), 12), np.inf)
        blocks = []

        def spy(lane, kinds, observed, samples, first_draw, n_draws):
            blocks.append((type(lane), len(samples), n_draws))
            return tally_draws(lane, kinds, observed, samples, first_draw, n_draws)

        monkeypatch.setattr(permutation, "tally_draws", spy)
        permutation.tally_streams(labels, sizes, 15, PERM_BATTERY, observed, list(range(12)),
                                  0, 10_000, settle_above=250)
        # 12 samples of 1024-draw steps: blocks of 8 and of 4 samples, ten steps
        assert blocks[:2] == [(_CountLane, 8, 1024), (_CountLane, 4, 1024)]
        assert len(blocks) == 20 and blocks[-1] == (_CountLane, 4, 784)

    def test_short_range_is_one_step(self, monkeypatch):
        """Ten tie-free samples at 15/20 that settle over 100 draws, fewer
        than a step's 256, take one step, all in one block."""
        rng = np.random.default_rng(5)
        pooled = np.stack([sample_values(rng, "tie_free", 35) for _ in range(10)])
        labels, sizes, _ = tie_runs(pooled[:, :15], pooled[:, 15:])
        observed = np.full((len(PERM_BATTERY), 10), np.inf)
        blocks = []

        def spy(lane, kinds, observed, samples, first_draw, n_draws):
            blocks.append((type(lane), len(samples), first_draw, n_draws))
            return tally_draws(lane, kinds, observed, samples, first_draw, n_draws)

        monkeypatch.setattr(permutation, "tally_draws", spy)
        got = permutation.tally_streams(labels, sizes, 15, PERM_BATTERY, observed, list(range(10)),
                                        0, 100, settle_above=2)
        assert blocks == [(_RelabelLane, 10, 0, 100)]
        assert np.array_equal(got[0], np.full((len(PERM_BATTERY), 10), 100))

    def test_count_lanes_hold_at_most_their_keys(self, monkeypatch):
        """Count-drawn samples are split over lanes of at most
        `_COUNT_LANE_KEYS // (n1 + 1)` samples, and tally as in one lane."""
        rng = np.random.default_rng(12)
        pooled = np.stack([sample_values(rng, "levels5", 40) for _ in range(7)])
        labels, sizes, a = tie_runs(pooled[:, :20], pooled[:, 20:])
        observed = np.array(statistics(moments_from_counts(a, sizes, 20, 20), PERM_BATTERY))
        seeds = list(range(7))
        want = permutation.tally_streams(labels, sizes, 20, PERM_BATTERY, observed, seeds, 0, 3000,
                                         settle_above=60)
        monkeypatch.setattr(permutation, "_COUNT_LANE_KEYS", 3 * 21)
        lanes = permutation._lanes(labels, sizes, 20, seeds, 3000)
        assert [members.tolist() for members, _ in lanes] == [[0, 1, 2], [3, 4, 5], [6]]
        got = permutation.tally_streams(labels, sizes, 20, PERM_BATTERY, observed, seeds, 0, 3000,
                                        settle_above=60)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["levels5", "levels20"])
    def test_samples_of_fewer_runs_are_padded(self, kind):
        """A lane whose samples hold different run counts scores each sample's
        draws to the bits a lane of that sample alone gives."""
        rng = np.random.default_rng(9)
        n1, n2 = 10, 40
        pooled = np.stack([sample_values(rng, k, n1 + n2) for k in (kind, "levels2", kind)])
        labels, sizes, _ = tie_runs(pooled[:, :n1], pooled[:, n1:])
        lanes = permutation._lanes(labels, sizes, n1, [1, 2, 3], 500)
        for members, lane in lanes:
            together = lane.moments(np.arange(members.size), 100, 500)
            for column, i in enumerate(members.tolist()):
                alone = one_lane(labels[i], n1, i + 1, 500).moments(ONE, 100, 500)
                for name in MOMENTS:
                    got = np.asarray(getattr(together, name)).reshape(members.size, -1)
                    assert np.array_equal(got[column], getattr(alone, name)), (i, name)
        assert {type(lane) for _, lane in lanes} == ({_CountLane} if kind == "levels5"
                                                     else {_CountLane, _RelabelLane})


# recorded from an earlier version of the engine:
# build_table("perm2", scale=0.001, seed=42, n_perm=100), each row joined by spaces;
# the rows at n2 >= 15 draw per-run counts wherever a replication has at most n2 / 3 runs
PERM2_ROWS = [
    '7 7 5 4 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 4170492980373218430',
    '7 10 5 4 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 3659287829122110447',
    '10 7 5 4 0.10000 0.10000 0.10000 0.10000 0.10000 0.10000 10 100 925007801726648711',
    '10 10 5 4 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 14847713579027254973',
    '15 15 5 4 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 14168315109966962438',
    '15 30 5 4 0.10000 0.10000 0.10000 0.10000 0.10000 0.10000 10 100 17232142080131057128',
    '30 15 5 4 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 8903724595555609521',
    '30 30 5 4 0.10000 0.10000 0.10000 0.10000 0.10000 0.10000 10 100 15182869409068974200',
    '15 45 5 4 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 4725083638187773119',
    '45 15 5 4 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 2130498498001839760',
    '7 7 1.2071 1 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 13608195884056899081',
    '7 10 1.2071 1 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 13271371182978825299',
    '10 7 1.2071 1 0.10000 0.10000 0.10000 0.20000 0.20000 0.20000 10 100 3206657139904091225',
    '10 10 1.2071 1 0.10000 0.10000 0.10000 0.10000 0.10000 0.10000 10 100 11922736549646822116',
    '15 15 1.2071 1 0.10000 0.10000 0.10000 0.10000 0.10000 0.10000 10 100 5673012778058664362',
    '15 30 1.2071 1 0.10000 0.10000 0.10000 0.10000 0.10000 0.10000 10 100 5149924088625639415',
    '30 15 1.2071 1 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 15755023830699409647',
    '30 30 1.2071 1 0.10000 0.10000 0.10000 0.10000 0.10000 0.10000 10 100 17476412796576152081',
    '15 45 1.2071 1 0.00000 0.00000 0.00000 0.00000 0.00000 0.00000 10 100 15110903158140782303',
    '45 15 1.2071 1 0.10000 0.10000 0.10000 0.10000 0.10000 0.10000 10 100 4453391775978098889',
]

TIE_FREE = TwoSamples([0.31, 1.72, -0.45, 2.24, 0.93, 1.18, -1.36, 0.05],
                      [1.41, 2.87, 0.62, 3.35, 1.96, -0.27, 2.51, 4.08, 1.33, 0.79])
TIED = TwoSamples([1, 2, 2, 3, 3, 3, 4, 2, 1, 3], [2, 3, 3, 4, 4, 5, 3, 4, 2, 5, 3, 4])
# five runs and 20 arm-2 values: drawn as per-run counts; TIED (12 arm-2 values) is relabelled
TIED_COUNTS = TwoSamples([1, 2, 2, 3, 3, 3, 4, 2, 1, 3],
                         [2, 3, 3, 4, 4, 5, 3, 4, 2, 5, 3, 4, 1, 3, 5, 2, 4, 3, 3, 4])


class TestPinnedStream:
    """Fixed outputs of the permutation stream; a change here is a stream change."""

    def test_perm2_rows(self):
        _, rows = build_table("perm2", scale=0.001, seed=42, n_perm=100, threads=1)
        assert [" ".join(row) for row in rows] == PERM2_ROWS

    @pytest.mark.parametrize("data,label,n_le,n_ge", [
        (TIE_FREE, "pm", 2917, 84),
        (TIE_FREE, "n_logit", 2931, 70),
        (TIED, "pm", 2986, 33),
        (TIED, "n_logit", 2986, 33),
        (TIED_COUNTS, "pm", 2981, 29),
        (TIED_COUNTS, "n_logit", 2984, 26),
    ], ids=["tie_free_pm", "tie_free_n_logit", "tied_pm", "tied_n_logit", "tied_counts_pm",
            "tied_counts_n_logit"])
    def test_permutation_test_tallies(self, data, label, n_le, n_ge):
        # 3000 draws: a relabel lane's whole 2048-draw block and a partial one, one count block
        res = permutation_test(data, TK.parse(label), n_perm=3000, seed=2024)
        assert (res.p1, res.p2) == (n_le / 3000, n_ge / 3000)


@pytest.mark.parametrize("case", SORT_CASES)
class TestOneSort:
    """At 200/200, a dataset is labelled by tie run once and never key-sorted on its way
    through permutation tests and Shirahata's general form: its moments are read off the
    tie-run record it keeps."""

    def test_fresh_dataset(self, sorts, case):
        res = permutation_test(TwoSamples(*sort_case(case, 200)), TK.parse("pm"), n_perm=200)
        assert sorts == ["label"]
        assert res.observed == run_test(TwoSamples(*sort_case(case, 200)), TK.parse("pm"))

    def test_general_form_then_permutation_test(self, sorts, case):
        data = TwoSamples(*sort_case(case, 200))
        var_shirahata(data, ShirahataKind.U, ShirahataForm.GENERAL)
        permutation_test(data, TK.parse("bm_logit"), n_perm=200)
        assert sorts == ["label"]

    def test_reused_dataset(self, sorts, case):
        data = TwoSamples(*sort_case(case, 200))
        kept = [permutation_test(data, TK.parse(kind), n_perm=200, seed=3)
                for kind in ("pm", "n", "pm")]
        assert sorts == ["label"]
        assert kept == [permutation_test(TwoSamples(*sort_case(case, 200)), TK.parse(kind),
                                         n_perm=200, seed=3) for kind in ("pm", "n", "pm")]

    def test_kept_record_is_read_only(self, case):
        data = TwoSamples(*sort_case(case, 20))
        for array in (*data.run_labels(), *data.runs()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7


def test_exchangeability_calibration():
    """Under F1=F2 continuous at sizes (10,10) the permutation test holds level."""
    from releff import Normal, Scenario, run_scenario

    sc = Scenario(
        Normal(0, 1), Normal(0, 1), 10, 10, n_reps=2000,
        tests=(TK.parse("pm"),), n_perm=999, master_seed=314159,
    )
    rate = run_scenario(sc).rejection_rate["pm:df2"]
    assert abs(rate - 0.05) < 0.015
