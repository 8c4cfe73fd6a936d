"""The incremental formula columns and the running-term sums against earlier versions.

``dowling``, ``flatm_series`` and ``flatm_counts`` keep process-wide
columns (per m, the row sums and last row of the r-Whitney triangle, and
the recurrence column b) and extend them on demand.  The functions below
are earlier implementations, which rebuilt every table from order 0 on
each call, the sums through Stirling weights W_j(x) = sum_i S(j, i) x^(j-i);
they are kept as oracles.  Whatever order the calls come in, and from
whatever state, the columns must give the oracles' values, build each
triangle row once per m and hold O(n) integers, never the triangle.

``flat3_conjecture``, ``run_distributions`` and the recurrence column take
each binomial coefficient and power from the term before; ``old_flat3``,
``old_run_distributions`` and ``old_flatm_counts`` are the same sums with
a fresh ``comb()`` and power per term.
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
from flatstir.formulas import (
    dowling,
    flat3_conjecture,
    flatm_counts,
    flatm_recurrence,
    flatm_series,
    run_distributions,
    stirling2,
)
from flatstir.typeb import generate_typeb

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


def old_flat3(n: int) -> int:
    t = n - 1
    first = sum(comb(t, k) * (2 ** (t - k) - (t - k) - 1) for k in range(1, t + 1))
    second = sum(comb(t, k) * (2 ** (t - k) - (t - k) - 1) for k in range(2, t + 1))
    third = sum((2 ** (k - 1) - 2) * comb(t, k) for k in range(3, t + 1))
    return 2 * first + 2 * second + third


def old_run_distributions(n_max: int) -> dict[int, dict[int, int]]:
    blocks = [[1]]
    for big_m in range(1, n_max):
        acc = [0] * (big_m + 1)
        for s in range(1, big_m + 1):
            ways = comb(big_m - 1, s - 1)
            for e, weight in enumerate([1] if s == 1 else [0, 2, 2 ** (s - 1) - 2]):
                for d, count in enumerate(blocks[big_m - s]):
                    acc[d + e] += ways * weight * count
        blocks.append(acc)
    rows = {}
    for t in range(n_max):
        total = [0] * (t + 2)
        for i in range(t + 1):
            for d, count in enumerate(blocks[t - i]):
                total[d + 1 + (i > 0)] += comb(t, i) * count
        rows[t + 1] = {k: count for k, count in enumerate(total) if count}
    return rows


@lru_cache(maxsize=None)
def old_column(m: int, n_max: int = 60) -> tuple[int, ...]:
    return tuple(old_flatm_counts(n_max, m))


# --- fixtures and helpers --------------------------------------------------------


@pytest.fixture
def cold(monkeypatch):
    """Empty module state for the test; the process-wide columns come back afterwards."""
    monkeypatch.setattr(formulas, "_triangles", {})
    monkeypatch.setattr(formulas, "_recurrence", {})


@pytest.fixture
def rows_built(monkeypatch, cold):
    """Counter of the (m, p) of each triangle row the module builds while the test runs.

    Row 0 of each m is the column's starting state, so it is never built.
    """
    built: Counter = Counter()
    step = formulas._triangle_row

    def counting(row, m):
        built[m, len(row)] += 1  # row p has p + 1 entries and gives row p + 1
        return step(row, m)

    monkeypatch.setattr(formulas, "_triangle_row", counting)
    return built


def held_integers() -> int:
    """Integers the module state holds across every column and stored row."""
    triangles = sum(len(sums) + len(row) for sums, row in formulas._triangles.values())
    return triangles + sum(len(b) for b in formulas._recurrence.values())


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


RECURRENCE_GRID = [(n, m) for n in range(151) for m in range(2, 13)]


@pytest.mark.parametrize("how", ORDERS)
def test_the_recurrence_column_matches_the_comb_oracle_in_any_call_order(cold, how):
    for n, m in orders(RECURRENCE_GRID, how):
        assert flatm_counts(n, m) == list(old_column(m, 150)[: n + 1]), (n, m)
    assert {m: len(b) for m, b in formulas._recurrence.items()} == {m: 150 for m in range(2, 13)}


def test_flat3_matches_the_comb_oracle():
    for n in range(1, 401):
        assert flat3_conjecture(n) == old_flat3(n), n


def test_run_distributions_match_the_comb_oracle_row_by_row():
    rows, expected = run_distributions(120), old_run_distributions(120)
    assert list(rows) == list(expected) == list(range(1, 121))
    for n in rows:
        assert rows[n] == expected[n], n


def test_flat3_and_run_distributions_leave_the_columns_alone(cold):
    def state():
        return ({m: (list(sums), list(row)) for m, (sums, row) in formulas._triangles.items()},
                {m: list(b) for m, b in formulas._recurrence.items()})

    dowling(30)
    flatm_counts(20, 3)
    held, before = held_integers(), state()
    for n in (1, 2, 3, 60, 150):
        flat3_conjecture(n)
    run_distributions(60)
    assert (held_integers(), state()) == (held, before)


def test_dowling_and_the_series_at_m_2_share_one_column(cold):
    """One triangle at m = 2 serves ``dowling`` and ``flatm_series(., 2)``, in either order."""
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
    """A row sum stored without its row (a call stopped between the two) is rebuilt."""
    dowling(10)
    formulas._triangles[2][0].append(-1)
    assert [dowling(n) for n in (12, 11)] == [old_dowling(12), old_dowling(11)]
    assert len(formulas._triangles[2][0]) == 13


def test_invalid_arguments_are_refused_and_build_nothing(cold):
    for call, args in [(dowling, (-1,)), (flatm_series, (-1, 3)), (flatm_series, (3, 1)),
                       (flatm_recurrence, (-1, 3)), (flatm_recurrence, (3, 1)),
                       (flatm_counts, (-1, 2)), (flatm_counts, (3, 0))]:
        with pytest.raises(ValueError):
            call(*args)
    assert formulas._triangles == {} and formulas._recurrence == {}


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
    # m = 2 reaches row 60 (dowling(60)); m = 3 reaches row 59 (flatm_series(60, 3))
    built_once = [(2, p) for p in range(1, 61)] + [(3, p) for p in range(1, 60)]
    assert rows_built == Counter(built_once)
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
    # m = 2 reaches row 150; m = 3, 4 and 5 reach row 27 (order 28 reads p = 27)
    expected = Counter({(2, p): 1 for p in range(1, 151)})
    expected.update({(m, p): 1 for m in range(3, 6) for p in range(1, 28)})
    assert rows_built == expected
    assert {m: len(b) for m, b in formulas._recurrence.items()} == {m: 28 for m in range(2, 6)}


def test_dowling_300_holds_a_column_not_the_triangle(cold):
    assert dowling(300) == old_dowling(300)
    sums, row = formulas._triangles[2]
    assert (len(sums), len(row)) == (301, 301)
    # the triangle up to row 300 has 45,451 entries; its row sums and one row hold 602
    assert held_integers() == 602


# --- the triangle's entries ---------------------------------------------------------


def test_rows_at_m_2_count_partitions_by_block_pairs(cold):
    """The claim of ``dowling``'s proof: T(p, k) counts the partitions of [-p, p] with k pairs."""
    for p in range(8):
        dowling(p)
        pairs = Counter(len(q.blocks) for q in generate_typeb(p))
        assert formulas._triangles[2][1] == [pairs[k] for k in range(p + 1)], p


def test_every_entry_is_mezos_explicit_form(cold):
    """T(p, k) = sum_j C(p, j) * (m-1)^(p-j) * m^(j-k) * S(j, k) for p <= 30, m <= 8."""
    s = {(j, k): stirling2(j, k) for j in range(31) for k in range(j + 1)}
    for m in range(2, 9):
        for p in range(31):
            flatm_series(p + 1, m)
            explicit = [sum(comb(p, j) * (m - 1) ** (p - j) * m ** (j - k) * s[j, k]
                            for j in range(k, p + 1)) for k in range(p + 1)]
            assert formulas._triangles[m][1] == explicit, (p, m)
