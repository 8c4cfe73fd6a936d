"""Run counts of the partition images, counted per block without building the words.

``image_run_distribution`` multiplies per-block descent histograms
(``_block_descents``).  These tests pin it to the run counts of the
built image words, shape by shape and order by order, and pin each
histogram to the descents of explicitly signed block segments.
"""

from collections import Counter
from itertools import combinations, islice

import pytest

from flatstir import tables
from flatstir.bijection import (
    _block_descents,
    _segment,
    iter_flattened_letters,
    min_wrapped,
    shift_magnitudes,
    twice_each,
)
from flatstir.formulas import run_distributions
from flatstir.reference import TABLE1
from flatstir.typeb import _iter_typeb_shapes
from flatstir.words import run_starts


def _built_runs(words) -> Counter:
    return Counter(len(run_starts(letters)) for letters in words)


def _convolve(dist: Counter, hist: dict[int, int]) -> Counter:
    out: Counter = Counter()
    for runs, count in dist.items():
        for descents, variants in hist.items():
            out[runs + descents] += count * variants
    return out


@pytest.mark.parametrize("n", range(1, 10))
def test_count_equals_the_runs_of_the_built_words(n):
    assert tables.count_runs_via_bijection(n) == _built_runs(iter_flattened_letters(n))


def test_count_equals_table1_and_the_formula(bijection_runs):
    rows = run_distributions(10)
    for n in range(1, 11):
        assert bijection_runs[n] == TABLE1[n][2] == rows[n], n


@pytest.mark.parametrize("n", range(1, 8))
def test_each_shape_is_the_product_of_its_block_histograms(n):
    """The words of one (zero-block, remainder partition) shape come out
    consecutively, one per sign vector; their run counts are the head's
    runs convolved with each block's histogram."""
    stream = iter_flattened_letters(n)
    for zero_block, members in _iter_typeb_shapes(n - 1):
        size = 1 << sum(len(block) - 1 for block in members)
        head = _segment((), zero_block)
        dist, prev = Counter({len(run_starts(head)): 1}), head[-1]
        for block in members:
            hist, prev = _block_descents(block, prev)
            dist = _convolve(dist, hist)
        assert dist == _built_runs(islice(stream, size)), (zero_block, members)
    assert next(stream, None) is None


@pytest.mark.parametrize("size", range(1, 6))
def test_block_histogram_reads_the_letters_after_any_previous_letter(size):
    """Every previous letter, including ones above the block's letters: a
    join that is a descent must count, though canonical images have none."""
    for block in combinations(range(1, 7), size):
        low, rest = block[0], block[1:]
        variants = [
            twice_each(shift_magnitudes(negatives))
            + min_wrapped(shift_magnitudes((low,) + tuple(v for v in rest if v not in negatives)))
            for k in range(len(rest) + 1)
            for negatives in combinations(rest, k)
        ]
        for prev in range(1, 9):
            hist, last = _block_descents(block, prev)
            expected = Counter(len(run_starts((prev,) + letters)) - 1 for letters in variants)
            assert hist == expected, (block, prev)
            assert {letters[-1] for letters in variants} == {last} == {low + 1}


def test_canonical_images_have_no_descent_at_a_join():
    """The bijection docstring's remark: each block's histogram after the
    previous block's last letter equals its histogram after 0, which no
    letter is below."""
    for n in range(1, 8):
        for zero_block, members in _iter_typeb_shapes(n - 1):
            prev = _segment((), zero_block)[-1]
            for block in members:
                hist, last = _block_descents(block, prev)
                assert hist == _block_descents(block, 0)[0], (zero_block, members)
                prev = last

