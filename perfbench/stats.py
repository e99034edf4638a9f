"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

TAIL_BEYOND = 10


def median(values):
    """Median (mean of the two middle values for an even count)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that has at least ``beyond`` values above it.

    Returns ``(value, percentile, count)``: with n sorted values this is the
    value of rank n - beyond, at percentile 100 (n - beyond) / n.  With n <=
    ``beyond`` no such percentile exists and the maximum is returned at
    percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no values")
    rank = n - beyond
    if rank < 1:
        return s[-1], 100.0, n
    return s[rank - 1], 100.0 * rank / n, n


def digits(deviation, floor=2.0 ** -52):
    """Correct decimal digits, -log10 of a deviation floored at ``floor``."""
    return -math.log10(max(float(deviation), floor))
