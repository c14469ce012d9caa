"""Order statistics for benchmark timings: the percentile rule and spreads."""

from __future__ import annotations

import statistics

# A percentile is reported only with at least this many samples beyond it.
# At the operation counts of a run that leaves the median, so op_ms_p50 is
# the only percentile the benchmark reports.
MIN_BEYOND = 10


def samples_beyond(n: int, p: int) -> int:
    """Samples strictly above the p-th percentile (p in whole percent) among n."""
    return n * (100 - p) // 100


def supported(n: int, p: int) -> bool:
    """Whether the p-th percentile of n samples has MIN_BEYOND samples beyond it."""
    return samples_beyond(n, p) >= MIN_BEYOND


def quantiles(values) -> tuple[float, float, float]:
    """First quartile, median, third quartile (`statistics.quantiles`, n = 4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
