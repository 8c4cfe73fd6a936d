"""Closed forms and recurrences against independent oracles and frozen columns."""

import math
import os
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest

from flatstir.bijection import (
    generate_flattened_from_partitions,
    iter_flattened_letters,
    max_runs_witness,
)
from flatstir.formulas import (
    double_factorial,
    dowling,
    flat2_closed,
    flat2_recurrence,
    flat3_conjecture,
    flatm_recurrence,
    flatm_series,
    max_runs,
    mstirling_count,
    run_distribution,
    run_distributions,
    stirling2,
)
from flatstir.reference import TABLE1, TABLE2
from flatstir.typeb import generate_typeb
from flatstir.words import count_stirling_stats, generate_stirling


def brute_set_partitions(items):
    """All set partitions of ``items`` (tiny brute force used as an oracle)."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in brute_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [sub[i] + [head]] + sub[i + 1 :]
        yield sub + [[head]]


def test_double_factorial_values():
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(4) == 105
    assert double_factorial(10) == 654729075
    assert [double_factorial(n) for n in range(1, 11)] == [TABLE1[n][0] for n in range(1, 11)]


def test_stirling2_against_brute_force():
    # oracle first: count partitions of a 4-set into 2 blocks directly
    assert sum(1 for p in brute_set_partitions(range(4)) if len(p) == 2) == 7
    assert stirling2(4, 2) == 7
    assert stirling2(3, 2) == 3
    assert stirling2(0, 0) == 1
    for a in range(1, 6):
        assert stirling2(a, 0) == 0
    for a in range(6):
        for b in range(7):
            assert stirling2(a, b) == sum(
                1 for p in brute_set_partitions(range(a)) if len(p) == b
            )


@lru_cache(maxsize=None)
def whitney_row_sum(n: int) -> int:
    """Independent route to the partition counts: the signed-partition triangle."""

    @lru_cache(maxsize=None)
    def tri(a: int, k: int) -> int:
        if a == 0:
            return 1 if k == 0 else 0
        if k < 0 or k > a:
            return 0
        return tri(a - 1, k - 1) + (2 * k + 1) * tri(a - 1, k)

    return sum(tri(n, k) for k in range(n + 1))


def test_dowling_values_and_triangle():
    assert dowling(0) == 1
    assert dowling(3) == 24
    assert dowling(9) == 1832224
    for n in range(16):
        assert dowling(n) == whitney_row_sum(n)
    # shifted flat column of the frozen table
    assert [dowling(n - 1) for n in range(1, 11)] == [TABLE1[n][1] for n in range(1, 11)]


def test_dowling_1200_cold_matches_egf_recurrence():
    """A fresh interpreter (nothing cached) computes dowling(1200) without recursing."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from flatstir.formulas import dowling; print(hex(dowling(1200)))"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    # D(n+1) = D(n) + sum_k C(n, k) 2^k D(n-k), from the EGF e^x exp((e^(2x) - 1) / 2)
    d = [1]
    binomials = [1]  # C(n, k) for k = 0..n
    for n in range(1200):
        d.append(d[n] + sum((c * d[n - k]) << k for k, c in enumerate(binomials)))
        binomials = [1] + [a + b for a, b in zip(binomials, binomials[1:])] + [1]
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert int(out, 16) == d[1200]


def test_flat2_recurrence_and_closed_form():
    assert flat2_recurrence(1) == 0
    assert flat2_recurrence(5) == 37
    assert flat2_recurrence(10) == 1515
    assert flat2_closed(1) == 1
    assert flat2_closed(4) == 37
    assert flat2_closed(9) == 1515
    for n in range(1, 31):
        assert flat2_closed(n) == flat2_recurrence(n + 1)
    for n in range(2, 11):
        assert flat2_recurrence(n) == TABLE1[n][2].get(2, 0)


def test_max_runs():
    assert max_runs(1) == 1
    assert max_runs(6) == 4
    assert max_runs(7) == 5
    assert max_runs(8) == 6
    for n, (_, _, by_runs) in TABLE1.items():
        assert max(by_runs) == max_runs(n)


def test_flat3_conjecture_matches_reference_column():
    assert flat3_conjecture(4) == 8
    assert flat3_conjecture(5) == 70
    assert flat3_conjecture(10) == 69842
    for n in range(1, 11):
        assert flat3_conjecture(n) == TABLE1[n][2].get(3, 0)


def test_mstirling_count():
    assert mstirling_count(5, 2) == 945
    assert mstirling_count(0, 7) == 1
    assert mstirling_count(4, 3) == 280
    for n in range(1, 11):
        assert mstirling_count(n, 2) == double_factorial(n)
    # m = 1 is a valid multiplicity: each letter once, so the words are the n! permutations
    for n in range(7):
        assert mstirling_count(n, 1) == math.factorial(n) == len(list(generate_stirling(n, 1))), n


def test_flatm_recurrence_matches_reference_table():
    assert flatm_recurrence(5, 3) == 405
    assert flatm_recurrence(7, 5) == 276875
    for m in range(2, 6):
        assert flatm_recurrence(1, m) == 1
    for (n, m), expected in TABLE2.items():
        assert flatm_recurrence(n, m) == expected
    for n in range(0, 13):
        assert flatm_recurrence(n + 1, 2) == dowling(n)


def test_flatm_series_certified_rounding():
    assert flatm_series(0, 2) == 1
    assert flatm_series(6, 4) == 9280
    assert flatm_series(7, 3) == 25515
    for (n, m), expected in TABLE2.items():
        assert flatm_series(n, m) == expected
    # larger than the reference grid, against the recurrence
    for m in range(2, 9):
        for n in range(0, 61):
            assert flatm_series(n, m) == flatm_recurrence(n, m), (n, m)


def test_flatm_series_equals_the_series_summed_in_floats():
    """The series as written, without Dobinski's formula: 200 terms in floats
    are exact enough for m <= 5 through n = 15 (they fail at (16, 5))."""
    for m in range(2, 6):
        for n in range(0, 13):
            p = max(n - 1, 0)
            terms = [(m * k + m - 1) ** p / (math.factorial(k) * m**k) for k in range(200)]
            assert flatm_series(n, m) == round(math.exp(-1 / m) * math.fsum(terms)), (n, m)


def test_argument_validation():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        flat2_recurrence(0)
    with pytest.raises(ValueError):
        max_runs(0)
    with pytest.raises(ValueError):
        run_distribution(0)
    with pytest.raises(ValueError):
        flatm_recurrence(3, 1)
    with pytest.raises(ValueError):
        flatm_series(3, 1)


ARGUMENT_CHECKS = {
    "double_factorial": (lambda: double_factorial(-1), "n must be nonnegative"),
    "flat2_closed": (lambda: flat2_closed(0), "n must be positive"),
    "flat3_conjecture": (lambda: flat3_conjecture(0), "n must be positive"),
    "mstirling_count-n": (lambda: mstirling_count(-1, 2), "n must be nonnegative"),
    "mstirling_count-m": (lambda: mstirling_count(2, 0), "m must be positive"),
    "max_runs_witness": (lambda: max_runs_witness(0), "n must be positive"),
    "generate_flattened_from_partitions": (
        lambda: next(generate_flattened_from_partitions(0)), "n must be positive"),
    "iter_flattened_letters-0": (lambda: list(iter_flattened_letters(0)), "n must be positive"),
    "iter_flattened_letters-neg": (lambda: list(iter_flattened_letters(-2)), "n must be positive"),
    "generate_typeb": (lambda: next(generate_typeb(-1)), "n must be nonnegative"),  # dowling's
}


@pytest.mark.parametrize("call, message", ARGUMENT_CHECKS.values(), ids=ARGUMENT_CHECKS)
def test_argument_checks_name_the_argument(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_run_distribution_equals_both_enumerations(bijection_runs, filter_stats):
    """The recurrence against partition images (n <= 10), the brute-force scan
    (n <= 8), the pruned walk at order 9 and the frozen Table 1."""
    for n in range(1, 11):
        assert run_distribution(n) == bijection_runs[n] == TABLE1[n][2]
    for n in range(1, 9):
        assert run_distribution(n) == filter_stats[n].flat_by_runs
    assert run_distribution(9) == count_stirling_stats(9, 2).flat_by_runs


def test_run_distributions_rows_equal_each_order_alone():
    rows = run_distributions(60)
    assert sorted(rows) == list(range(1, 61))
    for n in range(1, 61):
        assert rows[n] == run_distribution(n)
    with pytest.raises(ValueError):
        run_distributions(0)


def test_run_distribution_identities_to_order_60():
    """Row sum dowling(n-1), every k from 1 to max_runs(n) present, and the
    two- and three-run columns of the recurrence and the conjecture."""
    for n in range(1, 61):
        by_runs = run_distribution(n)
        assert sum(by_runs.values()) == dowling(n - 1)
        assert sorted(by_runs) == list(range(1, max_runs(n) + 1))
        assert by_runs.get(2, 0) == flat2_recurrence(n)
        assert by_runs.get(3, 0) == flat3_conjecture(n)
