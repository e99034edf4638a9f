"""Brundobler-Elser survival, the exact result every route must meet.

For a level whose slope is extremal and not shared, the probability of
staying in it is exp(-2 pi sum_j |A_ij|^2 / |B_ii - B_jj|) for any
couplings (Brundobler & Elser, J. Phys. A 26, 1211 (1993)).
"""

import math

import numpy as np


def extremal_survivals(model):
    """``{i: survival}`` for every non-degenerate extremal-slope level i (0-based)."""
    b = np.diag(model.b).real
    a = model.a_of()
    out = {}
    for i in {int(np.argmax(b)), int(np.argmin(b))}:
        if np.count_nonzero(b == b[i]) > 1:
            continue
        x = sum(abs(a[i, j]) ** 2 / abs(b[i] - b[j]) for j in range(model.k) if j != i)
        out[i] = math.exp(-2.0 * math.pi * x)
    return out
