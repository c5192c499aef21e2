"""Shared helpers for the test suite."""
import numpy as np

from releff import permutation
from releff._batch import arm1_counts, moments_from_counts


# every moment an effect summary holds, the ones computed on first read too
MOMENTS = ("p_hat", "beta_hat", "tau0_hat", "tau1_hat", "tau2_hat", "sigma1_sq", "sigma2_sq",
           "sigma1_given_n_sq", "sigma2_given_n_sq", "var_wmw_raw")


def assert_same(got, want):
    """Two effect summaries equal in n1, n2 and every moment, bit for bit."""
    for name in ("n1", "n2", *MOMENTS):
        g, w = getattr(got, name), getattr(want, name)
        assert np.array_equal(g, w), name


def kernel_from_perm(arm1_labels, labels):
    """The count kernel's moments of draws, rows of arm-1 run labels of one pooled sample."""
    sizes = np.bincount(labels)
    n1 = arm1_labels.shape[1]
    return moments_from_counts(arm1_counts(arm1_labels, sizes.size), sizes, n1, labels.size - n1)


def relabel_lane(labels, n1, draws, seed=0, sizes=None):
    """A relabel lane over one pooled sample's labels, drawing from one seed's stream."""
    labels = np.asarray(labels)
    sizes = np.bincount(labels) if sizes is None else np.asarray(sizes)
    return permutation._RelabelLane(labels[None], sizes[None], n1, [seed], draws)


def index_lane(n, n1, draws):
    """A relabel lane over the pooled indices 0..n-1, whose shuffles return indices."""
    return relabel_lane(np.arange(n), n1, draws)


def relabel(u, lane):
    """The arm-1 labels the lane's one sample gets from uniform rows u."""
    return permutation._batch_permutations([u], lane, np.zeros(1, np.intp))


def count_lane(sizes, n1, seed=0):
    """A count lane over one pooled sample's run sizes, drawing from one seed's stream."""
    return permutation._CountLane([np.asarray(sizes)], n1, [seed])


def one_lane(labels, n1, seed, draws):
    """The kind of lane the draw loop builds for one pooled sample; a relabel lane holds `draws`."""
    sizes = np.bincount(labels)
    if permutation._counts_drawn(len(labels) - n1, sizes.size):
        return count_lane(sizes, n1, seed)
    return relabel_lane(labels, n1, draws, seed, sizes)


ONE = np.zeros(1, np.intp)


def tally_one(lane, kinds, observed, first_draw, n_draws):
    """(n_le, n_ge) per kind over one block of the lane's one sample."""
    observed = np.asarray(observed)[:, None]
    return permutation.tally_draws(lane, kinds, observed, ONE, first_draw, n_draws)[:, :, 0]


def tally_sample(labels, n1, kinds, observed, seed, first, stop):
    """(n_le, n_ge) per kind over draws [first, stop) of one pooled sample's stream."""
    labels = np.asarray(labels)
    return permutation.tally_streams(labels[None], np.bincount(labels)[None], n1, kinds,
                                     np.asarray(observed)[:, None], [seed], first, stop)[:, :, 0]


def random_dataset(rng, lo=5, hi=30, tie_free=False):
    """Random pair of arms with sizes in [lo, hi]; tied unless tie_free."""
    n1 = int(rng.integers(lo, hi + 1))
    n2 = int(rng.integers(lo, hi + 1))
    if tie_free:
        pooled = rng.normal(size=n1 + n2)
        while np.unique(pooled).size < n1 + n2:  # pragma: no cover
            pooled = rng.normal(size=n1 + n2)
        return pooled[:n1], pooled[n1:]
    if rng.random() < 0.5:
        return rng.normal(size=n1), rng.normal(size=n2)
    return (
        rng.integers(0, 8, size=n1).astype(float),
        rng.integers(0, 8, size=n2).astype(float),
    )


def sort_case(kind, n, seed=5):
    """Two arms of n values each: tie-free, on five integer levels, or tied
    one-decimal values such as 0.3."""
    rng = np.random.default_rng(seed)
    if kind == "tie_free":
        pooled = rng.normal(size=2 * n)
    elif kind == "five_levels":
        pooled = rng.integers(1, 6, size=2 * n).astype(float)
    else:
        pooled = (rng.normal(3.0, 1.0, size=2 * n) * 10).round() / 10
    return pooled[:n], pooled[n:]


SORT_CASES = ("tie_free", "five_levels", "one_decimal")
