"""The one timing helper of the perf guards: interleaved rounds, median each.

Every round times each call once, in turn, so drift on a shared host hits
all of them alike, and the median drops the rounds a neighbour stole; a
back-to-back minimum lets one side catch a quiet window the other misses.
"""

import statistics
import time


def interleaved_medians(*fns, rounds):
    """Median wall-clock seconds of each call in ``fns`` over ``rounds`` rounds."""
    samples = [[] for _ in fns]
    for _ in range(rounds):
        for fn, times in zip(fns, samples):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    return tuple(statistics.median(times) for times in samples)
