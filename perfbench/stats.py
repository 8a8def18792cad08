"""Order statistics for op latencies.

Every op of one kind has the same size, so a percentile never pools sizes.
A workload with several op kinds (the eight check suites) reports the sum
over kinds of each kind's statistic: the time of one op of every kind.
"""

import statistics

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values, beyond=TAIL_BEYOND):
    """Highest percentile of ``values`` with at least ``beyond`` samples above it.

    Returns ``(value, percentile, count)``. The value is the sample of rank
    ``count - beyond`` (1-based, ascending) and the percentile is that rank
    as a share of ``count``. With ``beyond`` samples or fewer no such
    percentile exists; the median is returned with percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return statistics.median(xs), 50.0, n
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, n


def by_kind(samples):
    """Group ``(kind, value)`` pairs into ``{kind: [values]}`` in first-seen order."""
    out = {}
    for kind, value in samples:
        out.setdefault(kind, []).append(value)
    return out


def sum_of_medians(groups):
    """Sum over kinds of each kind's median."""
    return sum(statistics.median(vs) for vs in groups.values())


def sum_of_tails(groups):
    """Sum over kinds of each kind's tail, with ``{kind: [percentile, count]}``."""
    total, where = 0.0, {}
    for kind, vs in groups.items():
        value, pct, count = tail(vs)
        total += value
        where[kind] = [pct, count]
    return total, where
