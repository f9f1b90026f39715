"""Scale measured times to a reference machine speed.

The benchmark runs on shared virtual machines where the same pure-Python
code runs at anywhere from 1.0x to 1.8x its fastest time, in phases from
under a second to several minutes long, because of what other tenants do.
Such phases move whole runs, so raw times spread between runs of the same
code by more than any useful regression bound.

So the worker times one *round* of a fixed pure-Python routine right
before and right after every operation, and reports each operation's time
scaled by ``REFERENCE_S / round time`` (the mean of the two rounds around
it): the time the operation would take on a machine where one round takes
``REFERENCE_S``.  A round is interpreter-bound integer arithmetic, list
indexing and dict updates, the same kind of work ``blockdet`` does, so a
slow phase stretches both alike and the ratio stays put, while a change to
``blockdet`` moves the operation and not the round.  The routine is the
benchmark's own and must never change: a different routine is a different
unit of time.  Set-up is scaled the same way by rounds run in the same
interpreter right after it.
"""

from __future__ import annotations

import statistics
import time

# Seconds one round takes on the reference machine (about the median
# round time of a 2.1 GHz Xeon vCPU under typical load).
REFERENCE_S = 1.5e-3


def _work() -> int:
    n = 7
    acc = 0
    for seed in range(12):
        a = [[(seed * 31 + i * 7 + j * 13) % 17 - 8 for j in range(n)] for i in range(n)]
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for r in range(k + 1, n):
                    if a[r][k]:
                        a[k], a[r] = a[r], a[k]
                        break
                else:
                    break
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        acc += a[n - 1][n - 1]
        counts: dict[int, int] = {}
        for t in range(400):
            counts[(t * 7) % 97] = counts.get((t * 7) % 97, 0) + t
        acc += sum(counts.values())
    return acc


def round_s() -> float:
    """Time one round of the calibration routine."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def settled_round_s() -> float:
    """Median of seven rounds after one warm-up round, for scaling a single
    measurement such as set-up."""
    round_s()
    return statistics.median(round_s() for _ in range(7))


def at_reference(elapsed_s: float, round_time_s: float) -> float:
    """``elapsed_s`` measured while one round took ``round_time_s``,
    expressed at the reference speed."""
    return elapsed_s * REFERENCE_S / round_time_s
