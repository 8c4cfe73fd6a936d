"""Oracles: scan every word of Q_n^m, walk to the last order but one, count images by subsets.

``scan_stirling_stats`` is the brute-force oracle for
``words.count_stirling_stats``.  Unlike the pruned walk, which takes
|Q_n^m| from the product formula, this scan builds and counts every
word, so it is the one real count of Q_n^m.

``walk_stats_built`` is the oracle for ``words._walk_stats``: the pruned
walk run to order n - 1, every flattened word of order n - 1 built and
its children tallied by a scan of its gaps, without the label rule.
``image_runs_by_subsets`` is the oracle for
``bijection.image_run_distributions``: the same block recurrence summed
over every set of magnitudes, one memo keyed by the remaining
magnitudes as a bitmask, instead of over block sizes.

Only tests use these.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import cache

from flatstir.bijection import _template
from flatstir.errors import DEFAULT_BUDGET
from flatstir.formulas import mstirling_count
from flatstir.words import StirlingStats, _check_budget, _iter_letters_from, _walk_flat

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


def _tally_children(word: tuple[int, ...], runs: int, by_runs: dict[int, int]) -> None:
    """Add the flattened children of ``word`` to ``by_runs`` by run count.

    The children are counted, not built: the right-to-left gap scan with
    which ``_walk_flat`` pushes them, counting instead of pushing (see the
    ``words`` module docstring).  ``word`` is flattened with ``runs`` runs.
    """
    if not word:
        by_runs[1] = by_runs.get(1, 0) + 1
        return
    added = 0
    next_leader = math.inf
    right = word[-1]
    for left in word[-2::-1]:
        if left > right:
            next_leader = right
        elif right <= next_leader:
            added += 1
        right = left
    # the end gap and the runs - 1 descents keep the run count
    by_runs[runs] = by_runs.get(runs, 0) + runs
    if added:
        by_runs[runs + 1] = by_runs.get(runs + 1, 0) + added


def walk_stats_built(n: int, m: int) -> list[StirlingStats]:
    """``words._walk_stats`` the long way: walk to order n - 1, tally each word's children.

    Every flattened word of every order below n is built, and its
    flattened children are tallied into the next row by ``_tally_children``.
    ``visited`` and ``total`` are as in ``words._walk_stats``.
    """
    rows: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]
    if n:
        for word, runs in _walk_flat((), 0, n - 1, m):
            _tally_children(word, runs, rows[len(word) // m + 1])
    stats = []
    visited = 0
    for v, by_runs in enumerate(rows):
        flat = sum(by_runs.values())
        stats.append(StirlingStats(v, m, mstirling_count(v, m), flat, by_runs, visited))
        visited += flat * (v * m + 1)
    return stats


def image_runs_by_subsets(n_max: int) -> dict[int, dict[int, int]]:
    """``bijection.image_run_distributions`` summed over sets of magnitudes, not sizes.

    A set of magnitudes is a bitmask, bit v for magnitude v.  The blocks
    of ``rest`` are one block B holding its lowest bit and then those of
    rest - B, so

        blocks(rest) = sum over B of packed(B) * blocks(rest - B)

    with blocks(0) = 1, and ``packed`` is the template histogram of B's
    size.  Order n is blocks((1 << n) - 1) plus one base run; the states
    without bit 0 do not depend on n, so one memo serves every row.
    Histograms are packed into integers as in the library.
    """
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    shift = 2 * n_max * n_max.bit_length()

    @cache
    def packed(size: int, zero: bool) -> int:
        return sum(count << shift * inner for inner, count in _template(size, zero).items())

    @cache
    def blocks(rest: int) -> int:
        if not rest:
            return 1
        low = rest & -rest
        others = rest ^ low
        total = 0
        sub = others
        while True:
            total += packed((low | sub).bit_count(), low == 1) * blocks(others ^ sub)
            if not sub:
                return total
            sub = (sub - 1) & others

    digit = (1 << shift) - 1
    rows = {}
    for n in range(1, n_max + 1):
        total = blocks((1 << n) - 1) << shift
        counts = (total >> shift * runs & digit for runs in range(total.bit_length() // shift + 1))
        rows[n] = {runs: count for runs, count in enumerate(counts) if count}
    return rows
