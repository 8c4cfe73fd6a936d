"""Run counts of the partition images, counted per block without building the words.

``image_run_distributions`` multiplies per-block descent histograms in
one recurrence on the block holding the smallest magnitude, the
zero-block (magnitude 0) first, every order from one memo.  Each
block's histogram is its size's template (``_template``) plus one
descent on each first-letter rank below the number of its letters under
the previous letter.  These tests pin the count to the run counts of the
built image words up to order 9 and to the formula up to order 14, for
each row read alone and for all rows of one call; pin the product of a
shape's histograms, zero-block included, to its words; pin the template
relabelled as the block (rank r read as ``block[r] + 1``) to the
histogram of the block's own signed segments (``_variant_descents``);
and pin the template-plus-rank rule to the descents of explicitly signed
block segments after any previous letter, descending joins included.
"""

from collections import Counter
from itertools import combinations, islice

import pytest

from flatstir import tables
from flatstir.bijection import (
    _segment,
    _template,
    _variant_descents,
    image_run_distributions,
    iter_flattened_letters,
    min_wrapped,
    shift_magnitudes,
    twice_each,
)
from flatstir.errors import BudgetExceededError
from flatstir.formulas import run_distributions
from flatstir.reference import TABLE1
from flatstir.typeb import _set_partitions, _subsets_lex
from flatstir.words import run_starts


def _built_runs(words) -> Counter:
    return Counter(len(run_starts(letters)) for letters in words)


def _shapes(n: int):
    """(zero_block, member blocks) of [-n, n] in the partition stream's order."""
    universe = tuple(range(1, n + 1))
    for support in _subsets_lex(universe):
        rest = tuple(v for v in universe if v not in support)
        for members in _set_partitions(rest):
            yield (0,) + support, members


def _convolve(dist: Counter, prev: int, variants: dict[tuple[int, int], int]) -> Counter:
    """``dist`` times a block's variants after the letter ``prev``: each adds its
    inner descents, and one more where ``prev`` exceeds its first letter."""
    out: Counter = Counter()
    for runs, count in dist.items():
        for (first, inner), ways in variants.items():
            out[runs + inner + (prev > first)] += count * ways
    return out


ONE = Counter({0: 1})


@pytest.mark.parametrize("n", range(1, 10))
def test_count_equals_the_runs_of_the_built_words(n):
    assert tables.count_runs_via_bijection(n) == _built_runs(iter_flattened_letters(n))


def test_count_equals_table1_and_the_formula(bijection_runs):
    rows = run_distributions(10)
    for n in range(1, 11):
        assert bijection_runs[n] == TABLE1[n][2] == rows[n], n


def test_one_call_gives_every_row(bijection_runs):
    """The fixture's rows, all from one ``image_run_distributions(11)`` call and
    so counted with order 11's histogram width: the formula at every order
    and the built image words up to order 9 (Table 1 up to order 10 is
    ``test_count_equals_table1_and_the_formula``)."""
    assert bijection_runs == run_distributions(11)
    for n in range(1, 10):
        assert bijection_runs[n] == _built_runs(iter_flattened_letters(n)), n


def test_one_call_gives_the_formula_up_to_order_14():
    assert image_run_distributions(14) == run_distributions(14)


def test_orders_are_checked():
    assert image_run_distributions(0) == {}
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        image_run_distributions(-1)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be positive$"):
            tables.count_runs_via_bijection(n)


def test_count_at_the_largest_order_the_default_budget_admits():
    assert tables.count_runs_via_bijection(11) == run_distributions(11)[11]
    with pytest.raises(BudgetExceededError):
        tables.count_runs_via_bijection(12)


@pytest.mark.parametrize("n", range(1, 8))
def test_each_shape_is_the_product_of_its_block_histograms(n):
    """The words of one (zero-block, remainder partition) shape come out
    consecutively, one per sign vector; their run counts are one base run
    convolved with each block's histogram, the zero-block's first and
    after the letter 0."""
    stream = iter_flattened_letters(n)
    for zero_block, members in _shapes(n - 1):
        size = 1 << sum(len(block) - 1 for block in members)
        dist, prev = Counter({1: 1}), 0
        for block in (zero_block, *members):
            variants, last = _variant_descents(block)
            dist, prev = _convolve(dist, prev, variants), last
        assert dist == _built_runs(islice(stream, size)), (zero_block, members)
    assert next(stream, None) is None


@pytest.mark.parametrize("size", range(1, 9))
def test_block_histogram_reads_the_letters_after_any_previous_letter(size):
    """Every block of magnitudes 1..8 after every previous letter 0..13,
    including ones above the block's letters: a join that is a descent must
    count, though canonical images have none.  The count's rule is the
    template of the block's size with one more descent on each rank below
    the number of the block's letters under the previous letter."""
    template = _template(size, False)
    for block in combinations(range(1, 9), size):
        low, rest = block[0], block[1:]
        variants = [
            twice_each(shift_magnitudes(negatives))
            + min_wrapped(shift_magnitudes((low,) + tuple(v for v in rest if v not in negatives)))
            for k in range(len(rest) + 1)
            for negatives in combinations(rest, k)
        ]
        assert {letters[-1] for letters in variants} == {low + 1}, block
        for prev in range(14):
            below = sum(1 for v in block if v + 1 < prev)
            rule: Counter = Counter()
            for (rank, inner), count in template.items():
                rule[inner + (rank < below)] += count
            expected = Counter(len(run_starts((prev,) + letters)) - 1 for letters in variants)
            assert rule == expected, (block, prev)


def test_canonical_images_have_no_descent_at_a_join():
    """The bijection docstring's remark: each block's histogram after the
    previous block's last letter equals its histogram after 0, which no
    letter is below."""
    for n in range(1, 8):
        for zero_block, members in _shapes(n - 1):
            prev = _segment((), zero_block)[-1]
            for block in members:
                variants, last = _variant_descents(block)
                assert _convolve(ONE, prev, variants) == _convolve(ONE, 0, variants), (
                    zero_block, members)
                prev = last


def test_relabelled_template_equals_the_block_own_variants():
    """The order-type lemma of the bijection docstring, on every block of
    magnitudes 1..11 and every zero-block of magnitudes 0..11: the template
    of the block's size, with rank r read as the letter ``block[r] + 1``, is
    the histogram of the block's own segments, all ending on its minimum
    plus one."""
    for size in range(12):
        for rest in combinations(range(1, 12), size):
            for block in ((0,) + rest, rest) if rest else [(0,)]:
                template = _template(len(block), not block[0])
                relabelled = {(block[rank] + 1, inner): count
                              for (rank, inner), count in template.items()}
                assert (relabelled, block[0] + 1) == _variant_descents(block), block
