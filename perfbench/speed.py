"""How fast this machine runs Python right now, to take host drift out of timings.

On a shared host the speed of one core drifts by tens of percent over
minutes, with CPU time equal to wall time, and it also jumps for a few
hundred milliseconds at a time. So every time the benchmark reports is
normalized by a fixed reference workload that does not touch trihom: one
reference() is timed between ops whenever a quarter second of ops has
run, and the times the run measured are divided by (median reference time
/ nominal reference time) over the whole run. A single reference time
follows the short jumps poorly, but the median of many, spread over the
run in proportion to time, follows the speed the run saw. A change in
trihom's own speed shows in full while a change in the machine's speed
cancels. The result reads as seconds at the nominal speed, the typical
speed of the 2-vCPU machine the baseline was measured on.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.02  # typical time of one reference() on the baseline machine


def _lcg_matrix(n: int) -> list[list[int]]:
    """A fixed n x n matrix with entries in [-99, 99], from a linear
    congruential sequence."""
    x, out = 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(x % 199 - 99)
        out.append(row)
    return out


_MATRIX = _lcg_matrix(10)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free elimination: big-int arithmetic and list work, the
    same kind of work as trihom's exact algebra."""
    m = [row[:] for row in rows]
    n, prev, sign = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            m[i] = [(m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev for j in range(n)]
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


_DET = _bareiss_det(_MATRIX)


def _churn(n: int) -> int:
    """Build, sort and scan a table of n small tuples: allocation and
    pointer chasing over about a megabyte, the other half of trihom's
    work. A host that speeds up tight arithmetic in cache does not speed
    this up as much; with both halves, reference() follows trihom's
    speed more closely than either alone."""
    x, table = 12345, {}
    for i in range(n):
        x = (x * 1103515245 + 12345) % 2**31
        table[(x % 1000, i)] = (i, i * i, str(i))
    return sum(len(v[2]) for _, v in sorted(table.items()))


_CHURN_N = 4000
_CHURN = _churn(_CHURN_N)


def reference() -> float:
    """Wall seconds of one unit of reference work, checked for its answer."""
    t0 = time.perf_counter()
    for _ in range(60):
        det = _bareiss_det(_MATRIX)
    churn = _churn(_CHURN_N)
    elapsed = time.perf_counter() - t0
    if det != _DET or churn != _CHURN:
        raise RuntimeError("reference computation gave a different answer")
    return elapsed


def factor_of(times: list[float]) -> float:
    """Slowdown against the nominal speed (1.0 = nominal) that the
    reference() times show."""
    return statistics.median(times) / NOMINAL_S
