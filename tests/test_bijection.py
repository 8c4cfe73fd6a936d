"""Both directions of the partition/word correspondence, plus run counting."""

import pytest
from hypothesis import given, strategies as st

from flatstir.bijection import (
    generate_flattened_from_partitions,
    max_runs_witness,
    min_wrapped,
    partition_to_word,
    run_count_from_partition,
    shift_magnitudes,
    twice_each,
    word_to_partition,
)
from flatstir.errors import (
    BudgetExceededError,
    DomainError,
    NotCanonicalError,
    NotFlattenedError,
)
from flatstir.formulas import dowling, max_runs
from flatstir.reference import PAIRS_ORDER4
from flatstir.typeb import SignedBlock, TypeBPartition, format_partition, generate_typeb, parse_partition
from flatstir.words import (
    StirlingWord,
    format_word,
    generate_flattened_filter,
    is_flattened,
    is_stirling,
    parse_word,
    run_decomposition,
)


class TestSmallMaps:
    def test_shift_magnitudes(self):
        assert shift_magnitudes([]) == frozenset()
        assert shift_magnitudes([-9, -10]) == {10, 11}
        assert shift_magnitudes([-3, 3]) == {4}

    def test_twice_each(self):
        assert twice_each({9}) == (9, 9)
        assert twice_each(set()) == ()
        assert twice_each({10, 11}) == (10, 10, 11, 11)

    def test_min_wrapped(self):
        assert min_wrapped({4, 6, 7}) == (4, 6, 6, 7, 7, 4)
        assert min_wrapped({5}) == (5, 5)
        assert min_wrapped(set()) == ()

    @given(st.sets(st.integers(min_value=1, max_value=40), max_size=12))
    def test_lengths_and_wrap(self, values):
        assert len(twice_each(values)) == 2 * len(values)
        wrapped = min_wrapped(values)
        assert len(wrapped) == 2 * len(values)
        if values:
            assert wrapped[0] == wrapped[-1] == min(values)


class TestForwardMap:
    def test_pinned_images(self):
        cases = [
            ("0 | 1 | -8 2 7 | -9 -10 3 5 6 | 4", "1 1 2 2 9 9 3 8 8 3 10 10 11 11 4 6 6 7 7 4 5 5"),
            ("0 | 1 | 2 | 3", "1 1 2 2 3 3 4 4"),
            ("0 1 2 3", "1 2 2 3 3 4 4 1"),
            ("0 1 2 | -4 3", "1 2 2 3 3 1 5 5 4 4"),
            ("0 | -3 1 2", "1 1 4 4 2 3 3 2"),
        ]
        for ptext, wtext in cases:
            word = partition_to_word(parse_partition(ptext), verify_output=True)
            assert format_word(word) == wtext

    def test_rejects_non_canonical(self):
        with pytest.raises(NotCanonicalError):
            partition_to_word(TypeBPartition(1, (0,), (SignedBlock((1,), ()),)))

    def test_output_is_flattened_of_next_order(self):
        for part in generate_typeb(4):
            word = partition_to_word(part, verify_output=True)
            assert word.order == 5
            assert is_flattened(word)


class TestInverseMap:
    def test_pinned_preimages(self):
        cases = [
            ("1 1 2 2 9 9 3 8 8 3 10 10 11 11 4 6 6 7 7 4 5 5", "0 | 1 | -8 2 7 | -9 -10 3 5 6 | 4"),
            ("1 1 2 2", "0 | 1"),
            ("13314422", "0 2 | -3 1"),
        ]
        for wtext, ptext in cases:
            part = word_to_partition(StirlingWord(parse_word(wtext), 2))
            assert format_partition(part) == ptext

    def test_rejects_non_flattened(self):
        with pytest.raises(NotFlattenedError, match="leads with"):
            word_to_partition(StirlingWord(parse_word("123321445566778899"), 2))

    def test_rejects_wrong_multiplicity_and_empty(self):
        with pytest.raises(DomainError, match="multiplicity"):
            word_to_partition(StirlingWord((1, 1, 1), 3))
        with pytest.raises(DomainError, match="empty"):
            word_to_partition(StirlingWord((), 2))


class TestRoundTrips:
    def test_exhaustive_small(self):
        for n in range(0, 6):
            images = set()
            for part in generate_typeb(n):
                word = partition_to_word(part, verify_output=True)
                images.add(word.letters)
                assert word_to_partition(word) == part
            assert len(images) == dowling(n)  # injectivity
            filtered = {w.letters for w in generate_flattened_filter(n + 1, 2)}
            assert images == filtered  # image characterization

    def test_reverse_direction(self):
        for n in range(1, 7):
            for word in generate_flattened_filter(n, 2):
                assert partition_to_word(word_to_partition(word)) == word


class TestRunCountFormula:
    def test_pinned(self):
        assert run_count_from_partition(parse_partition("0 | 1 | -8 2 7 | -9 -10 3 5 6 | 4")) == 5
        assert run_count_from_partition(parse_partition("0 | 1 | 2 | 3")) == 1
        assert run_count_from_partition(parse_partition("0 1 2 3")) == 2

    def test_matches_actual_runs_exhaustively(self):
        for n in range(0, 6):
            for part in generate_typeb(n):
                word = partition_to_word(part)
                assert run_count_from_partition(part) == run_decomposition(word).run_count


class TestFastGenerator:
    def test_pinned_counts(self):
        assert [format_word(w) for w in generate_flattened_from_partitions(1)] == ["1 1"]
        words4 = {format_word(w) for w in generate_flattened_from_partitions(4)}
        assert words4 == {w for _, w in PAIRS_ORDER4}
        assert sum(1 for _ in generate_flattened_from_partitions(6)) == dowling(5)

    def test_matches_filter(self):
        for n in range(1, 7):
            fast = {w.letters for w in generate_flattened_from_partitions(n)}
            slow = {w.letters for w in generate_flattened_filter(n, 2)}
            assert fast == slow

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            next(generate_flattened_from_partitions(12))

    def test_unchecked_words_are_valid(self):
        # the stream skips validation: each word must still be a Stirling word
        for n in range(1, 8):
            for w in generate_flattened_from_partitions(n):
                assert is_stirling(w.letters, 2)
                assert w == StirlingWord(w.letters, 2)


class TestMaxRunsWitness:
    def test_pinned_words(self):
        assert format_word(max_runs_witness(1)) == "1 1"
        assert format_word(max_runs_witness(2)) == "1 2 2 1"
        assert format_word(max_runs_witness(6)) == "1 3 3 1 4 4 2 5 5 2 6 6"
        assert format_word(max_runs_witness(7)) == "1 3 3 1 4 4 2 5 5 2 7 7 6 6"
        assert format_word(max_runs_witness(8)) == "1 3 3 1 4 4 2 5 5 2 7 7 6 8 8 6"

    def test_attains_bound(self):
        for n in range(1, 16):
            witness = max_runs_witness(n)
            assert witness.order == n
            assert is_flattened(witness)
            assert run_decomposition(witness).run_count == max_runs(n)


class TestOrder4Fixture:
    def test_all_pairs_both_ways(self):
        for ptext, wtext in PAIRS_ORDER4:
            part = parse_partition(ptext)
            assert format_word(partition_to_word(part, verify_output=True)) == wtext
            assert word_to_partition(StirlingWord(parse_word(wtext), 2)) == part
