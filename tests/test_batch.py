"""The batch scorers against the count kernel: equal in every field, bit for bit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from releff import _batch
from releff._batch import (
    arm1_counts,
    moments_from_codes,
    moments_from_counts,
    moments_from_perm,
    moments_from_values,
    tie_runs,
)
from releff.distributions import Exponential, Normal, sample
from releff.ranks import TwoSamples
from releff.rng import perm_key, uniforms
from tests_util import MOMENTS, assert_same, relabel, relabel_lane

arm_size = st.integers(min_value=2, max_value=60)
ROW_KINDS = ("tie_free", "levels", "all_tied", "signed_zeros", "cross_arm_duplicate")


def batches_of(row_kinds):
    """A batch of one row kind (an all-tie-free batch takes the rank scorer) or of mixed kinds."""
    return st.one_of(
        st.tuples(st.sampled_from(row_kinds), st.integers(1, 40)).map(lambda k: [k[0]] * k[1]),
        st.lists(st.sampled_from(row_kinds), min_size=1, max_size=40),
    )


def pooled_values(rng, size, levels):
    """Values on `levels` levels (tie-free when None), as (..., N) floats."""
    if levels is None:
        return rng.random(size).argsort(axis=-1) * 0.25 - 3.0
    return rng.integers(0, levels, size=size).astype(float)


def perm_block(pooled, n1, seed, first, draws):
    """The run labels of the pooled sample and of the arm-1 values of a block of draws."""
    labels = tie_runs(pooled[:n1], pooled[n1:])[0]
    u = uniforms(perm_key(seed), first, draws, pooled.size - n1)
    return labels, relabel(u, relabel_lane(labels, n1, draws))


def kernel_from_perm(arm1_labels, labels):
    sizes = np.bincount(labels)
    n1 = arm1_labels.shape[1]
    return moments_from_counts(arm1_counts(arm1_labels, sizes.size), sizes, n1, labels.size - n1)


def kernel_from_values(x1, x2):
    labels, sizes, _ = tie_runs(x1, x2)
    n1 = x1.shape[1]
    return moments_from_counts(arm1_counts(labels[:, :n1], sizes.shape[1]), sizes, n1, x2.shape[1])


def mixed_row(rng, kind, n1, n2):
    """One pooled row of the given kind, arm 1 first."""
    n = n1 + n2
    if kind == "tie_free":
        return pooled_values(rng, n, None)
    if kind == "levels":
        return pooled_values(rng, n, int(rng.integers(2, 9)))
    if kind == "all_tied":
        return np.full(n, rng.normal())
    if kind == "signed_zeros":
        return rng.choice([-0.0, 0.0, -1.5, 2.0], size=n)
    row = pooled_values(rng, n, None)
    row[n1 + rng.integers(n2)] = row[rng.integers(n1)]
    return row


@pytest.fixture
def rank_calls(monkeypatch):
    """Every call the entry points make to the tie-free rank scorer."""
    calls = []
    scorer = _batch._moments_from_ranks

    def spy(ranks, n1, n2):
        calls.append(ranks.shape)
        return scorer(ranks, n1, n2)

    monkeypatch.setattr(_batch, "_moments_from_ranks", spy)
    return calls


@given(n1=arm_size, n2=arm_size, levels=st.sampled_from([None, 1, 2, 5, 8]),
       seed=st.integers(0, 2**32 - 1), first=st.integers(0, 10**6), draws=st.integers(1, 64))
def test_perm_scorer_equals_count_kernel(n1, n2, levels, seed, first, draws):
    pooled = pooled_values(np.random.default_rng(seed), n1 + n2, levels)
    labels, arm1 = perm_block(pooled, n1, seed, first, draws)
    assert_same(moments_from_perm(arm1, np.bincount(labels)), kernel_from_perm(arm1, labels))


@given(n1=arm_size, n2=arm_size, seed=st.integers(0, 2**32 - 1), kinds=batches_of(ROW_KINDS))
def test_values_scorer_equals_count_kernel(n1, n2, kinds, seed):
    """Batches of tie-free, tied, all-tied, signed-zero and cross-arm-duplicate rows."""
    rng = np.random.default_rng(seed)
    pooled = np.array([mixed_row(rng, kind, n1, n2) for kind in kinds])
    x1, x2 = pooled[:, :n1], pooled[:, n1:]
    batch = moments_from_values(x1, x2)
    assert_same(batch, kernel_from_values(x1, x2))
    # each row labelled alone, with no padding runs, gives the same bits
    for r in range(len(pooled)):
        assert moment_bits(batch, r) == moment_bits(kernel_from_values(x1[r : r + 1],
                                                                       x2[r : r + 1]), 0)


def moment_bits(m, r=None):
    """Every moment of one dataset's summary, or of row r of a batch's, as int64 bits."""
    bits = []
    for name in MOMENTS:
        value = np.asarray(getattr(m, name))
        assert value.ndim == (r is not None), name
        bits.append(int((value if r is None else value[r]).view(np.int64)))
    return [m.n1, m.n2] + bits


DATASET_KINDS = ("tie_free", "levels", "all_tied", "separated", "signed_zeros", "next_after",
                 "odd_bits", "sparse_int", "late_odd_tie")


def dataset_row(rng, kind, n1, n2):
    """One dataset's pooled values, arm 1 first: ties on integers, zeros and
    decimals such as 0.3, last-place neighbours, and ties that only values
    past the first 32 of an arm make (on integers, or on normal values)."""
    n = n1 + n2
    low = int(rng.integers(-10, 3))
    if kind == "tie_free":
        return rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    if kind == "levels":
        return rng.integers(low, low + rng.integers(1, 9), n).astype(float)
    if kind == "all_tied":
        return np.full(n, float(low))
    if kind == "separated":
        return np.concatenate([rng.integers(low, low + 3, n1), rng.integers(low + 5, low + 8, n2)])
    if kind == "signed_zeros":
        return rng.choice([-0.0, 0.0, 1.0, -2.0], size=n)
    if kind == "next_after":
        row = rng.normal(size=n)
        pick = rng.integers(n1, size=n2)
        row[n1:] = np.nextafter(row[pick], np.where(rng.random(n2) < 0.5, -np.inf, np.inf))
        return row
    if kind == "sparse_int":
        row = rng.permutation(n) * 3.0 + low
        # each value past an arm's first 32, and the last one, may repeat an earlier value
        late = np.r_[32:n1, n1 + 32:n]
        for k in late[rng.random(late.size) < 0.2].tolist() + [n - 1]:
            row[k] = row[rng.integers(k)]
        return row
    if kind == "late_odd_tie":
        row = rng.normal(size=n)
        row[-1] = row[-2]
        return row
    return rng.choice([0.3, 0.7, 1.1, 2.5], size=n)


@given(n1=arm_size, n2=arm_size, kind=st.sampled_from(DATASET_KINDS), swap=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_dataset_moments_equal_count_kernel(n1, n2, kind, swap, seed):
    """`TwoSamples.moments`, from the key sort or the sorted values, is the
    count kernel's row of the same dataset in every field, bit for bit, and
    `moments_from_values` leaves both arms as they were."""
    row = dataset_row(np.random.default_rng(seed), kind, n1, n2)
    x1, x2 = row[:n1], row[n1:]
    if swap:
        x1, x2 = x2, x1
    assert moment_bits(TwoSamples(x1, x2).moments) == moment_bits(
        kernel_from_values(x1[None], x2[None]), 0)
    before = row.copy()
    moments_from_values(x1, x2)
    assert np.array_equal(row.view(np.int64), before.view(np.int64))


@pytest.fixture
def scorer_calls(monkeypatch):
    """The tie_runs, key-sort and sorted-value calls of `_batch`, by name."""
    calls = []
    for name in ("tie_runs", "_moments_from_keys", "_moments_from_sorted"):
        def spy(*args, _name=name, _f=getattr(_batch, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(_batch, name, spy)
    return calls


@pytest.mark.parametrize("kind,want", [
    ("tie_free", ["_moments_from_keys"]),
    ("levels", ["_moments_from_sorted"]),
    ("signed_zeros", ["_moments_from_sorted"]),
    ("odd_bits", ["_moments_from_sorted"]),
    # a tie that the first 32 values of each arm do not show pays for the failed sort
    ("late_odd_tie", ["_moments_from_keys", "_moments_from_sorted"]),
    ("sparse_int", ["_moments_from_keys", "_moments_from_sorted"]),
])
def test_dataset_routing(scorer_calls, kind, want):
    """One dataset never calls tie_runs: ties among each arm's first 32
    values are counted off the sorted values with no key sort first, and a
    later tie after one failed key sort."""
    row = dataset_row(np.random.default_rng(4), kind, 100, 120)
    data = TwoSamples(row[:100], row[100:])
    m = data.moments
    assert scorer_calls == want
    assert moment_bits(m) == moment_bits(kernel_from_values(row[None, :100], row[None, 100:]), 0)


# values the route's peek judges: ±0.0, integers, decimals and each one's one-ulp
# neighbours, whose keys may share a pair with its key
_PEEK_BASE = np.array([0.0, -0.0, 1.0, -2.0, 4.0, 0.3, 0.7, 1.1, -2.5])
PEEK_VALUES = np.concatenate([_PEEK_BASE, np.nextafter(_PEEK_BASE, np.inf),
                              np.nextafter(_PEEK_BASE, -np.inf)]).tolist()


@given(shape=st.sampled_from(["batch", "one_row", "dataset"]), rows=st.integers(2, 4),
       n1=arm_size, n2=arm_size, tie_free=st.booleans(), ulps=st.integers(1, 3),
       palette=st.lists(st.one_of(st.sampled_from(PEEK_VALUES),
                                  st.floats(allow_nan=False, allow_infinity=False)),
                        min_size=1, max_size=200),
       seed=st.integers(0, 2**32 - 1))
def test_peek_skips_only_a_key_sort_that_fails(shape, rows, n1, n2, tie_free, ulps, palette,
                                                seed):
    """Whenever the peek sends values straight to the run path, the key sort
    on the same arms returns None: in a batch, a (1, n) batch and one dataset,
    on draws from a palette of values (tied) or on floats 1, 2 or 3 ulps
    apart from its first value (tie-free; one ulp apart, the sort fails)."""
    rng = np.random.default_rng(seed)
    rows = rows if shape == "batch" else 1
    size = (rows, n1 + n2)
    if tie_free:
        start = np.float64(np.clip(palette[0], -1e300, 1e300)).view(np.int64)
        ladder = start + ulps * np.arange(rows * (n1 + n2))
        pooled = rng.permuted(ladder.view(np.float64).reshape(size), axis=1)
    else:
        pooled = rng.choice(np.array(palette), size=size)
    x1, x2 = pooled[:, :n1], pooled[:, n1:]
    if shape == "dataset":
        x1, x2 = x1[0], x2[0]
    if _batch._keys_cannot_count(x1, x2):
        assert _batch._moments_from_keys(x1, x2) is None


@pytest.mark.parametrize("case,want", [
    ("tied_batch", ["tie_runs"]),
    ("continuous_batch", ["_moments_from_keys"]),
    # arm 1's values alone would not show the ties: the peek reads both arms
    ("normal_beside_five_levels", ["_moments_from_sorted"]),
])
def test_values_route_key_sorts(scorer_calls, case, want):
    """A batch of tied integer rows goes to the run path and one dataset of
    100 normal values beside 100 five-level values to its sorted values,
    with no key sort; a continuous batch is scored by one."""
    rng = np.random.default_rng(12)
    if case == "tied_batch":
        x1, x2 = pooled_values(rng, (40, 9), 5), pooled_values(rng, (40, 12), 5)
    elif case == "continuous_batch":
        x1, x2 = rng.normal(size=(40, 9)), rng.normal(size=(40, 12))
    else:
        x1, x2 = rng.normal(size=100), rng.integers(1, 6, size=100).astype(float)
    m = moments_from_values(x1, x2)
    assert scorer_calls == want
    if x1.ndim == 1:
        assert moment_bits(m) == moment_bits(kernel_from_values(x1[None], x2[None]), 0)
    else:
        assert_same(m, kernel_from_values(x1, x2))


def test_dataset_float_sums_past_the_int64_bound(scorer_calls, monkeypatch):
    """Past EXACT_SUMS_BELOW a dataset is counted by tie run off its sorted
    values and summed in floats, bit for bit as the count kernel sums its
    one row of runs."""
    rng = np.random.default_rng(9)
    monkeypatch.setattr(_batch, "EXACT_SUMS_BELOW", 50)
    for row in (rng.normal(size=300), rng.integers(0, 5, 300).astype(float)):
        data = TwoSamples(row[:140], row[140:])
        scorer_calls.clear()
        m = data.moments
        assert scorer_calls == ["_moments_from_sorted"]
        assert moment_bits(m) == moment_bits(moments_from_counts(*data.runs(), 140, 160))


CODE_ROW_KINDS = ("random", "sparse", "all_tied", "separated", "tie_free")


def code_row(rng, kind, n1, n2, n_values):
    """One pooled row of indices on an n_values-point support, arm 1 first."""
    n = n1 + n2
    if kind == "all_tied":
        return np.full(n, rng.integers(n_values))
    if kind == "separated" and n_values >= 2:
        cut = int(rng.integers(1, n_values))
        return np.concatenate([rng.integers(0, cut, n1), rng.integers(cut, n_values, n2)])
    if kind == "tie_free" and n_values >= n:
        return rng.permutation(n_values)[:n]
    if kind == "sparse":
        # the row leaves most support values empty
        return rng.choice(rng.integers(0, n_values, 3), n)
    return rng.integers(0, n_values, n)


@given(n1=arm_size, n2=arm_size, n_values=st.integers(1, 130), seed=st.integers(0, 2**32 - 1),
       kinds=batches_of(CODE_ROW_KINDS))
def test_codes_scorer_equals_values_scorer(n1, n2, n_values, seed, kinds):
    """Counting members per support value gives `moments_from_values` on the values, bit for bit."""
    rng = np.random.default_rng(seed)
    support = np.sort(rng.choice(1000, n_values, replace=False)) * 0.5 - 7.0
    codes = np.array([code_row(rng, kind, n1, n2, n_values) for kind in kinds])
    c1, c2 = codes[:, :n1], codes[:, n1:]
    assert_same(moments_from_codes(c1, c2, n_values), moments_from_values(support[c1], support[c2]))


def test_values_scorer_labels_a_tied_batch_once(monkeypatch):
    """A batch that ties is labelled by one tie_runs call, a tie-free one by
    none; one dataset is never labelled."""
    calls = []
    labeller = _batch.tie_runs

    def spy(x1, x2):
        calls.append((x1.size // x1.shape[-1], x1.shape[-1] + x2.shape[-1]))
        return labeller(x1, x2)

    rng = np.random.default_rng(11)
    batches = [pooled_values(rng, (6, 20), levels) for levels in (None, 1, 3)]
    batches.append(rng.choice([0.3, 0.7, 1.1], size=(6, 20)))
    want = [kernel_from_values(b[:, :8], b[:, 8:]) for b in batches]
    monkeypatch.setattr(_batch, "tie_runs", spy)
    for b, w, labelled in zip(batches, want, (0, 1, 1, 1)):
        calls.clear()
        assert_same(moments_from_values(b[:, :8], b[:, 8:]), w)
        assert calls == [(6, 20)] * labelled
        calls.clear()
        m = moments_from_values(b[0, :8], b[0, 8:])
        assert moment_bits(m) == moment_bits(w, 0)
        assert calls == []


@pytest.mark.parametrize("n1,n2", [(2, 2), (7, 10), (15, 45), (45, 15), (60, 3)])
def test_tie_free_inputs_take_the_rank_scorer(rank_calls, n1, n2):
    rng = np.random.default_rng(n1 * 100 + n2)
    labels, arm1 = perm_block(pooled_values(rng, n1 + n2, None), n1, 5, 0, 30)
    moments_from_perm(arm1, np.bincount(labels))
    pooled = pooled_values(rng, (12, n1 + n2), None)
    moments_from_values(pooled[:, :n1], pooled[:, n1:])
    assert rank_calls == [(30, n1), (12, n1)]


@pytest.mark.parametrize("tied_row", [0, 7, 19])
def test_one_tied_row_sends_the_batch_to_the_kernel(rank_calls, tied_row):
    """A tied row among tie-free rows: the whole batch takes the kernel, equal row by row."""
    n1, n2 = 9, 14
    rng = np.random.default_rng(tied_row)
    pooled = pooled_values(rng, (20, n1 + n2), None)
    pooled[tied_row, n1] = pooled[tied_row, 0]
    x1, x2 = pooled[:, :n1], pooled[:, n1:]
    batch = moments_from_values(x1, x2)
    assert rank_calls == []
    assert_same(batch, kernel_from_values(x1, x2))
    for r in range(len(pooled)):
        alone = moments_from_values(x1[r : r + 1], x2[r : r + 1])
        for name in MOMENTS:
            assert getattr(batch, name)[r] == getattr(alone, name)[0], name
    # every row but the tied one scored alone through the rank scorer
    assert len(rank_calls) == len(pooled) - 1


def test_rank_scorer_stays_below_the_int64_bound(rank_calls, monkeypatch):
    """Past EXACT_SUMS_BELOW tie-free inputs take the kernel's float sums, and agree with it."""
    n1, n2 = 11, 13
    rng = np.random.default_rng(3)
    labels, arm1 = perm_block(pooled_values(rng, n1 + n2, None), n1, 8, 0, 50)
    pooled = pooled_values(rng, (25, n1 + n2), None)
    x1, x2 = pooled[:, :n1], pooled[:, n1:]
    exact = moments_from_perm(arm1, np.bincount(labels)), moments_from_values(x1, x2)
    assert len(rank_calls) == 2
    rank_calls.clear()
    monkeypatch.setattr(_batch, "EXACT_SUMS_BELOW", n1 + n2)
    got = moments_from_perm(arm1, np.bincount(labels)), moments_from_values(x1, x2)
    assert rank_calls == []
    assert_same(got[0], kernel_from_perm(arm1, labels))
    assert_same(got[1], kernel_from_values(x1, x2))
    for g, e in zip(got, exact):
        assert np.allclose(g.p_hat, e.p_hat, rtol=1e-15, atol=0)
        assert np.allclose(g.sigma1_sq, e.sigma1_sq, rtol=1e-12, atol=0)


KEY_ROW_KINDS = ("continuous", "negative", "cross_arm_tie", "within_arm_tie", "next_up",
                 "next_down", "signed_zeros", "infinite")


def key_row(rng, kind, n1, n2):
    """One pooled row of continuous values, arm 1 first, crafted to tie or nearly tie by kind."""
    n = n1 + n2
    row = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    i, j = rng.integers(n1), n1 + rng.integers(n2)
    if kind == "negative":
        row = -np.abs(row) - rng.random()
    elif kind == "cross_arm_tie":
        row[j] = row[i]
    elif kind == "within_arm_tie":
        arm = (0, n1) if rng.random() < 0.5 else (n1, n2)
        a, b = arm[0] + rng.choice(arm[1], 2, replace=False)
        row[a] = row[b]
    elif kind == "next_up":
        # the arm-2 value one unit in the last place above an arm-1 value
        row[j] = np.nextafter(row[i], np.inf)
    elif kind == "next_down":
        row[i] = np.nextafter(row[j], np.inf)
    elif kind == "signed_zeros":
        for k in rng.choice(n, int(rng.integers(1, 4)), replace=False):
            row[k] = rng.choice([-0.0, 0.0])
    elif kind == "infinite":
        for k in rng.choice(n, int(rng.integers(1, 4)), replace=False):
            row[k] = rng.choice([-np.inf, np.inf])
    return row


def keys_share_a_pair(pooled):
    """True iff two values of a row have keys equal but for bit 0.

    The key of a value with float64 bits b is b itself under a sign bit of
    0 and -(b & MAG) under 1; the comparison is over Python integers.
    """
    for row in np.ascontiguousarray(pooled):
        halves = [(b if b >= 0 else -(b & (2**63 - 1))) >> 1 for b in row.view(np.int64).tolist()]
        if len(set(halves)) < len(halves):
            return True
    return False


def assert_keys_or_fallback(x1, x2):
    """The key scorer gives the run path's moments, or None exactly when two
    keys share a pair, in one dataset or a batch."""
    before = x1.copy(), x2.copy()
    m = _batch._moments_from_keys(x1, x2)
    assert np.array_equal(x1, before[0]) and np.array_equal(x2, before[1])
    pooled = np.concatenate([x1, x2], axis=-1)
    assert (m is None) == keys_share_a_pair(np.atleast_2d(pooled))
    if m is None:
        return m
    if pooled.ndim == 1:
        assert moment_bits(m) == moment_bits(kernel_from_values(x1[None], x2[None]), 0)
    else:
        assert_same(m, kernel_from_values(x1, x2))
    return m


key_arm_size = st.integers(min_value=2, max_value=90)


@given(n1=key_arm_size, n2=key_arm_size, rows=st.integers(1, 64), seed=st.integers(0, 2**63 - 1),
       spec=st.sampled_from([Normal(0.5244, 1.0), Normal(-2.0, 3.0), Exponential(2.3333)]))
def test_key_scorer_on_continuous_batches(n1, n2, rows, seed, spec):
    """Sampled continuous batches: scored from the keys, equal to the run path bit for bit."""
    u = uniforms((seed, 1), 0, rows, n1 + n2)
    x = sample(spec, u)
    assert assert_keys_or_fallback(x[:, :n1], x[:, n1:]) is not None


@given(n1=key_arm_size, n2=key_arm_size, seed=st.integers(0, 2**32 - 1),
       kinds=batches_of(KEY_ROW_KINDS))
def test_key_scorer_falls_back_exactly_on_shared_pairs(n1, n2, seed, kinds):
    """Ties across and within arms, last-place neighbours in either arm order,
    signed zeros, negative and infinite values."""
    rng = np.random.default_rng(seed)
    pooled = np.array([key_row(rng, kind, n1, n2) for kind in kinds])
    x1, x2 = pooled[:, :n1], pooled[:, n1:]
    assert_keys_or_fallback(x1, x2)
    assert_keys_or_fallback(x1[0], x2[0])
    assert_same(moments_from_values(x1, x2), kernel_from_values(x1, x2))


@pytest.mark.parametrize("a,b,falls_back", [
    (0.0, -0.0, True), (-0.0, 0.0, True), (-0.0, 5e-324, True), (-5e-324, 0.0, False),
    (1.5, np.nextafter(1.5, np.inf), True), (np.nextafter(1.5, np.inf), 1.5, True),
    (np.nextafter(1.5, np.inf), np.nextafter(np.nextafter(1.5, np.inf), np.inf), False),
    (-1.5, np.nextafter(-1.5, -np.inf), False), (-1.5, np.nextafter(-1.5, 0.0), True),
    (np.inf, np.inf, True), (-np.inf, np.inf, False), (-2.0, -2.0, True),
])
def test_key_scorer_pairs(a, b, falls_back):
    """Two values in either arm: keys k and k + 1 for an even k share a pair.

    So a batch with +0.0 and -0.0 (key 0) falls back, and so does one with
    either zero and the least positive subnormal (key 1), but not with the
    least negative (-1).  One dataset, each row alone, falls back as the
    batch does.
    """
    x1 = np.array([[a, 3.0], [a, -7.0]])
    x2 = np.array([[b, 4.0, 9.0], [-8.0, b, 2.5]])
    assert (assert_keys_or_fallback(x1, x2) is None) == falls_back
    for r in range(2):
        assert (assert_keys_or_fallback(x1[r], x2[r]) is None) == falls_back
