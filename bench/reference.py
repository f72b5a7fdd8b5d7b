"""The reference kernel that benchmark times are measured against.

The kernel is pure stdlib (Fraction Gauss-Jordan elimination, the same
kind of arithmetic as the exact simplex) and runs no onticbench code, so
a change to the package never moves it.  Timed next to an operation, it
tells how fast the shared host is running at that moment.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Reported times are scaled to a machine on which the kernel takes this long.
REF_MS = 10.0


def reference_kernel(n: int = 12) -> Fraction:
    """Eliminate a fixed n x n rational matrix; returns the product of its pivots."""
    rows = [[Fraction((i * 7 + j * 3) % 11 + 5 * (i == j), (i + j) % 5 + 1) for j in range(n)]
            for i in range(n)]
    product = Fraction(1)
    for c in range(n):
        pivot = rows[c][c]
        product *= pivot
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
    return product


def timed_reference() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
