"""No library path allocates an n1 x n2 matrix.

At 1000 observations per arm such a matrix of float64 is 8 MB; the tie-run
count kernel needs O(n1 + n2) memory, well under the 1 MB budget here.  At
10**5 per arm a fresh dataset is scored in fewer than 40 bytes per pooled
value, and scoring it keeps no memory past the call.  A five-level
permutation test at 10**5 per arm keeps its CDF rows within a bound.
"""
import threading
import tracemalloc

import numpy as np
import pytest

from releff import _batch, permutation
from releff import (ShirahataForm, ShirahataKind, TwoSamples, estimate_effect, permutation_test,
                    run_test, var_shirahata)
from releff import TestKind as TK

BUDGET = 1_000_000  # bytes


@pytest.mark.parametrize("call", [
    estimate_effect,
    lambda d: run_test(d, TK.parse("pm:df2")),
    lambda d: var_shirahata(d, ShirahataKind.U, ShirahataForm.GENERAL),
], ids=["estimate_effect", "run_test_pm_df2", "var_shirahata_u_general"])
@pytest.mark.parametrize("tied", [False, True])
def test_traced_peak_below_budget_at_1000_per_arm(call, tied):
    rng = np.random.default_rng(7)
    if tied:
        x1, x2 = rng.integers(0, 5, size=(2, 1000)).astype(float)
    else:
        x1, x2 = rng.normal(size=(2, 1000))
    data = TwoSamples(x1, x2)
    call(TwoSamples([0.0, 1.0, 4.0, 5.0], [2.0, 3.0, 6.0, 7.0]))  # first-call set-up is not the data's cost
    tracemalloc.start()
    try:
        call(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < BUDGET, f"traced peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("tied", [False, True], ids=["tie_free", "five_levels"])
def test_cold_estimate_effect_below_40_bytes_per_value(tied):
    """The key sort's two int64 arrays and what the moments read off them."""
    n = 10**5
    rng = np.random.default_rng(8)
    if tied:
        x1, x2 = rng.integers(1, 6, size=(2, n)).astype(float)
    else:
        x1, x2 = rng.normal(size=(2, n))
    data = TwoSamples(x1, x2)
    estimate_effect(TwoSamples([0.0, 1.0, 4.0, 5.0], [2.0, 3.0, 6.0, 7.0]))
    tracemalloc.start()
    try:
        estimate_effect(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 * n, f"traced peak {peak / (2 * n):.1f} bytes per pooled value"


def test_count_lane_at_1e5_per_arm_keeps_its_rows_bounded():
    """A 10k-draw `pm` test on five levels at 10**5 per arm draws per-run
    counts, and its blocks reach more rows than its tables keep: the rows
    stay within 16 MiB plus one group's pass, under 48 MiB traced in all."""
    rng = np.random.default_rng(9)
    x1, x2 = rng.integers(1, 6, size=(2, 10**5)).astype(float)
    data = TwoSamples(x1, x2)
    assert permutation._counts_drawn(data.n2, 5)
    tracemalloc.start()
    try:
        permutation_test(data, TK.parse("pm"), n_perm=10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_one_row_leaves_the_thread_buffers():
    """A dataset scored as one row gets fresh arrays: a thread's buffers keep
    their size, and a thread that scored no batch gets none."""
    rng = np.random.default_rng(2)
    _batch.moments_from_values(rng.normal(size=(8, 30)), rng.normal(size=(8, 20)))
    held = _batch._held.buffers
    shape = held.shape
    for row in (rng.normal(size=4000), rng.integers(0, 5, 4000).astype(float)):
        TwoSamples(row[:1500], row[1500:]).moments
        _batch.moments_from_values(row[None, :1500], row[None, 1500:])
    assert _batch._held.buffers is held and held.shape == shape
    kept = []
    worker = threading.Thread(target=lambda: (
        TwoSamples(rng.normal(size=300), rng.normal(size=200)).moments,
        kept.append(getattr(_batch._held, "buffers", None))))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and kept == [None]
