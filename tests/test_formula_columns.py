"""The incremental formula columns against the one-shot versions they replaced.

``dowling``, ``flatm_series`` and ``flatm_counts`` keep process-wide
columns (the Stirling weights W_j(x) per x, the recurrence column b per
m) and extend them on demand.  The functions below are the previous
implementations, which rebuilt every table from order 0 on each call;
they are kept as oracles.  Whatever order the calls come in, and from
whatever state, the columns must give the oracles' values, build each
Stirling row once per x and hold O(n) integers, never the triangle.
"""

import random
import sys
import threading
from collections import Counter
from functools import lru_cache
from math import comb
from typing import Iterator

import pytest

from flatstir import formulas
from flatstir.formulas import dowling, flatm_counts, flatm_recurrence, flatm_series

DOWLING_MAX = 200
GRID = [(n, m) for n in range(61) for m in range(2, 9)]


# --- the previous implementations ----------------------------------------------


def _old_stirling2_rows(a_max: int) -> Iterator[list[int]]:
    row = [1]
    yield row
    for a in range(1, a_max + 1):
        row = [0] + [b * row[b] + row[b - 1] for b in range(1, a)] + [1]
        yield row


@lru_cache(maxsize=None)
def old_dowling(n: int) -> int:
    total = 0
    for j, row in enumerate(_old_stirling2_rows(n)):
        weighted = 0
        for s in row:
            weighted = 2 * weighted + s
        total += comb(n, j) * weighted
    return total


@lru_cache(maxsize=None)
def old_flatm_series(n: int, m: int) -> int:
    p = n - 1 if n >= 1 else 0
    total = 0
    for j, row in enumerate(_old_stirling2_rows(p)):
        weighted = 0
        for s in row:
            weighted = m * weighted + s
        total += comb(p, j) * (m - 1) ** (p - j) * weighted
    return total


def old_flatm_counts(n_max: int, m: int) -> list[int]:
    b = [1]
    for j in range(1, n_max):
        b.append(
            (m - 1) * b[j - 1]
            + sum(comb(j - 1, k - 1) * m ** (k - 1) * b[j - k] for k in range(1, j + 1))
        )
    return [1] + b[:n_max]


@lru_cache(maxsize=None)
def old_column(m: int) -> tuple[int, ...]:
    return tuple(old_flatm_counts(60, m))


# --- fixtures and helpers --------------------------------------------------------


@pytest.fixture
def cold(monkeypatch):
    """Empty module state for the test; the process-wide columns come back afterwards."""
    monkeypatch.setattr(formulas, "_weights", {})
    monkeypatch.setattr(formulas, "_recurrence", {})


@pytest.fixture
def rows_built(monkeypatch, cold):
    """Counter of the Stirling row indices the module builds while the test runs."""
    built: Counter = Counter()
    resume = formulas._stirling2_rows

    def counting(a_max, row=()):
        for built_row in resume(a_max, row):
            built[len(built_row) - 1] += 1
            yield built_row

    monkeypatch.setattr(formulas, "_stirling2_rows", counting)
    return built


def held_integers() -> int:
    """Integers the module state holds across every column and stored row."""
    weights = sum(len(w) + len(row) for w, row in formulas._weights.values())
    return weights + sum(len(b) for b in formulas._recurrence.values())


def orders(values, how: str) -> list:
    values = list(values)
    if how == "descending":
        values.reverse()
    elif how == "shuffled":
        random.Random(20231015).shuffle(values)
    return values


ORDERS = ["ascending", "descending", "shuffled"]


# --- agreement with the oracles --------------------------------------------------


@pytest.mark.parametrize("how", ORDERS)
def test_dowling_matches_the_oracle_in_any_call_order(cold, how):
    for n in orders(range(DOWLING_MAX + 1), how):
        assert dowling(n) == old_dowling(n), n


@pytest.mark.parametrize("how", ORDERS)
def test_series_and_recurrence_match_the_oracles_in_any_call_order(cold, how):
    for n, m in orders(GRID, how):
        assert flatm_series(n, m) == old_flatm_series(n, m), (n, m)
        assert flatm_recurrence(n, m) == old_column(m)[n], (n, m)
        assert flatm_counts(n, m) == list(old_column(m)[: n + 1]), (n, m)


def test_dowling_and_the_series_at_m_2_share_one_column(cold):
    """x = 2 serves both ``dowling`` and ``flatm_series(., 2)``, in either order."""
    assert flatm_series(41, 2) == old_flatm_series(41, 2)
    assert dowling(60) == old_dowling(60)
    assert [flatm_series(n, 2) for n in range(1, 62)] == [old_dowling(n) for n in range(61)]


def test_a_changed_counts_list_leaves_later_results_alone(cold):
    counts = flatm_counts(12, 3)
    counts[5] = -1
    counts.append(0)
    del counts[:3]
    assert flatm_counts(12, 3) == list(old_column(3)[:13])
    assert flatm_counts(20, 3) == list(old_column(3)[:21])
    assert flatm_recurrence(6, 3) == old_column(3)[6]


def test_an_interrupted_extension_is_repaired(cold):
    """A weight stored without its row (a call stopped between the two) is rebuilt."""
    dowling(10)
    formulas._weights[2][0].append(-1)
    assert [dowling(n) for n in (12, 11)] == [old_dowling(12), old_dowling(11)]
    assert len(formulas._weights[2][0]) == 13


def test_invalid_arguments_are_refused_and_build_nothing(cold):
    for call, args in [(dowling, (-1,)), (flatm_series, (-1, 3)), (flatm_series, (3, 1)),
                       (flatm_recurrence, (-1, 3)), (flatm_recurrence, (3, 1)),
                       (flatm_counts, (-1, 2)), (flatm_counts, (3, 0))]:
        with pytest.raises(ValueError):
            call(*args)
    assert formulas._weights == {} and formulas._recurrence == {}


def test_threads_extending_one_column_build_each_row_once(rows_built):
    """More threads than cores extend the same columns with a short switch interval.

    A lost update shows as a row or a recurrence term built twice, and as a wrong value.
    """
    results: dict[int, list] = {}
    start = threading.Barrier(8, timeout=60)

    def sweep(index):
        calls = [(n, m) for n in range(61) for m in (2, 3)]  # ascending: an extension per call
        start.wait()
        results[index] = [(n, m, dowling(n), flatm_series(n, m), flatm_recurrence(n, m))
                         for n, m in calls]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(8))
    # x = 2 reaches row 60 (dowling(60)); x = 3 reaches row 59 (flatm_series(60, 3))
    assert rows_built == Counter({a: 2 for a in range(60)} | {60: 1})
    assert {m: len(b) for m, b in formulas._recurrence.items()} == {2: 60, 3: 60}
    for rows in results.values():
        for n, m, value, series, recurrence in rows:
            assert (value, series, recurrence) == (
                old_dowling(n), old_flatm_series(n, m), old_column(m)[n]), (n, m)


# --- work and memory ----------------------------------------------------------------


def test_the_formulas_sweep_builds_each_row_once_per_weight(rows_built):
    """The benchmark's formula sweep: dowling(0..150), then the m-fold grid to n = 28, m = 5."""
    for n in range(151):
        dowling(n)
    grid = [(n, m) for n in range(29) for m in range(2, 6)]
    for n, m in grid:
        flatm_series(n, m)
    for n, m in grid:
        flatm_recurrence(n, m)
    # x = 2 reaches row 150; x = 3, 4 and 5 reach row 27 (order 28 reads p = 27)
    expected = Counter({a: 1 for a in range(151)})
    expected.update({a: 3 for a in range(28)})
    assert rows_built == expected
    assert {m: len(b) for m, b in formulas._recurrence.items()} == {m: 28 for m in range(2, 6)}


def test_dowling_300_holds_a_column_not_the_triangle(cold):
    assert dowling(300) == old_dowling(300)
    weights, row = formulas._weights[2]
    assert (len(weights), len(row)) == (301, 301)
    # the triangle up to row 300 has 45,451 entries; the column and one row hold 602
    assert held_integers() == 602
