"""Summary statistics the benchmark reports: medians, the tail
percentile with enough samples beyond it, and failure shares."""

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
# A tail is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    # The small slack keeps p * n / 100 from rounding up past an exact
    # rank (99.9% of 10000 samples is rank 9990).
    rank = max(1, math.ceil(p * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1]


def tail(values, cap=TAIL_LADDER[-1]):
    """The highest ladder percentile, at most `cap`, that has at least
    MIN_BEYOND samples strictly above it, as
    {"percentile", "value", "beyond", "samples"}; None when even the
    median lacks them."""
    best = None
    for p in TAIL_LADDER:
        if p > cap:
            break
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= MIN_BEYOND:
            best = {"percentile": p, "value": value, "beyond": beyond,
                    "samples": len(values)}
    return best


def failure_share(failed, attempted):
    """Failed requests as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no requests attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted
