"""Independent oracles for the library's tie-run count kernel.

`pairwise_moments` evaluates the effect moments from their pairwise
definitions over the n2 x n1 matrix of counts.  It costs O(n1*n2) time and
memory and shares no code with the library, which never builds that matrix.
"""
import numpy as np


def pairwise_moments(x1, x2):
    """(p, beta, tau1, tau2) from the n2 x n1 matrix of counts."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    # c[j, i] = count(x2[j], x1[i])
    c = (x2[:, None] > x1[None, :]) + 0.5 * (x2[:, None] == x1[None, :])
    p = float(c.mean())
    beta = float((x2[:, None] == x1[None, :]).mean())
    f1_at_x2 = c.mean(axis=1)          # F1-hat evaluated at arm-2 points
    s2_at_x1 = c.mean(axis=0)          # S2-hat evaluated at arm-1 points
    tau1 = float(np.mean(s2_at_x1**2))
    tau2 = float(np.mean(f1_at_x2**2))
    return p, beta, tau1, tau2
