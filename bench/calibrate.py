"""A fixed reference computation that measures how fast the host runs Python right now.

The benchmark's children time one sample of ``reference_work`` just before
and just after each operation, and the runner divides the operation's time
by the mean of the two (see run.to_reference).  The work is plain Python
with no braidalg in it, so a change to the program never changes the
reference: sparse row reduction over ``Fraction`` coefficients on
tuple-keyed dicts, the kind of loop the program spends its time in.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the time of one reference_work() on the machine where the baseline
# was recorded, when the host runs fast; times are reported in seconds of a
# machine on which it takes exactly this long.
REFERENCE_SECONDS = 0.010


def reference_work() -> int:
    """Eliminate five fixed sets of 20 sparse rational rows; returns the summed rank as a check value."""
    rank = 0
    for rep in range(5):
        pivots: dict = {}
        for i in range(rep, rep + 20):
            row = {((i * j * 7 + j) % 9, (i + 3 * j) % 7): Fraction(1 + (i * j) % 5, 1 + (i + j) % 4)
                   for j in range(8)}
            while row:
                lead = max(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    scale = row[lead]
                    pivots[lead] = {key: value / scale for key, value in row.items()}
                    rank += 1
                    break
                factor = row[lead]
                for key, value in pivot.items():
                    new = row.get(key, 0) - factor * value
                    if new:
                        row[key] = new
                    else:
                        row.pop(key, None)
    return rank


def sample() -> float:
    """Seconds taken by one reference_work() now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
