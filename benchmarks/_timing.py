"""The one timing helper of the perf guards: interleaved rounds, quartiles each.

Every round times each call once, in turn, so drift on a shared host hits
all of them alike, and the median drops the rounds a neighbour stole; a
back-to-back minimum lets one side catch a quiet window the other misses.
The quartiles around the median give each figure its spread.
"""

import statistics
import time


def interleaved_quartiles(*fns, rounds):
    """``(q1, median, q3)`` wall-clock seconds of each call in ``fns``.

    Each call runs once per round, for ``rounds`` rounds (at least two).
    """
    samples = [[] for _ in fns]
    for _ in range(rounds):
        for fn, times in zip(fns, samples):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
    quartiles = []
    for times in samples:
        q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
        quartiles.append((q1, statistics.median(times), q3))
    return tuple(quartiles)


def interleaved_medians(*fns, rounds):
    """Median wall-clock seconds of each call in ``fns`` over ``rounds`` rounds."""
    return tuple(median for _, median, _ in interleaved_quartiles(*fns, rounds=rounds))
