"""No library path allocates an n1 x n2 matrix.

At 1000 observations per arm such a matrix of float64 is 8 MB; the tie-run
count kernel needs O(n1 + n2) memory, well under the 1 MB budget here.
"""
import tracemalloc

import numpy as np
import pytest

from releff import ShirahataForm, ShirahataKind, TwoSamples, estimate_effect, run_test, var_shirahata
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
