"""Brute-force oracle for ``words.count_stirling_stats``: scan every word of Q_n^m.

Unlike the pruned walk, which takes |Q_n^m| from the product formula,
this scan builds and counts every word, so it is the one real count of
Q_n^m.  Only tests use it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

from flatstir.errors import DEFAULT_BUDGET
from flatstir.words import StirlingStats, _check_budget, _iter_letters_from

# Insertion order at which the scan splits into tasks.
SPLIT_ORDER = 3


def _merge(stats: StirlingStats, part: StirlingStats) -> None:
    """Add the counts of ``part`` to ``stats``."""
    stats.total += part.total
    stats.flat_total += part.flat_total
    for k, v in part.flat_by_runs.items():
        stats.flat_by_runs[k] = stats.flat_by_runs.get(k, 0) + v


def _scan_into(stats: StirlingStats, word: tuple[int, ...]) -> None:
    stats.total += 1
    if not word:
        stats.flat_total += 1
        stats.flat_by_runs[0] = stats.flat_by_runs.get(0, 0) + 1
        return
    runs = 1
    lead = prev = word[0]
    for x in word[1:]:
        if x < prev:
            if x < lead:
                return
            runs += 1
            lead = x
        prev = x
    stats.flat_total += 1
    stats.flat_by_runs[runs] = stats.flat_by_runs.get(runs, 0) + 1


def _stats_subtree(prefix: tuple[int, ...], v: int, n: int, m: int) -> StirlingStats:
    stats = StirlingStats(n, m)
    for word in _iter_letters_from(prefix, v, n, m):
        _scan_into(stats, word)
    return stats


def scan_stirling_stats(
    n: int, m: int = 2, budget: int = DEFAULT_BUDGET, workers: int = 1
) -> StirlingStats:
    """Brute-force reference for ``count_stirling_stats``: scan all of Q_n^m.

    The insertion tree is split at order ``SPLIT_ORDER`` and the counts
    below each prefix are summed (an associative reduction, which cannot
    change the result); with ``workers`` > 1 the prefixes go to a pool.
    """
    _check_budget(n, m, budget)
    split = min(n, SPLIT_ORDER)
    prefixes = list(_iter_letters_from((), 1, split, m))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(prefixes))) as pool:
            futures = [pool.submit(_stats_subtree, prefix, split + 1, n, m) for prefix in prefixes]
            parts = [fut.result() for fut in futures]
    else:
        parts = [_stats_subtree(prefix, split + 1, n, m) for prefix in prefixes]
    stats = StirlingStats(n, m)
    for part in parts:
        _merge(stats, part)
    return stats
