"""The table-driven partition stream against the per-mask loop it replaced.

``_subsets_lex``, ``_restricted_growth_strings``, ``_iter_typeb_raw`` and
``_word_letters`` below are the previous implementation, kept unchanged
as the order oracle: the stream's order is a documented contract (seeded
samples of ``generate_typeb`` depend on it), so the fast path must agree
element for element, not only as a set.  ``_set_partitions_backtracking``
is the set-partition generator the recursion on the last value replaced.
"""

from typing import Iterator

import pytest

from flatstir import bijection, tables, typeb
from flatstir.bijection import iter_flattened_letters, min_wrapped, shift_magnitudes, twice_each
from flatstir.reference import TABLE1
from flatstir.typeb import SignedBlock, TypeBPartition, _iter_typeb_stream, generate_typeb

RawBlocks = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _subsets_lex(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Subsets in lexicographic order of their ascending element tuples."""

    def rec(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        for i in range(start, len(values)):
            longer = prefix + (values[i],)
            yield longer
            yield from rec(longer, i + 1)

    yield ()
    yield from rec((), 0)


def _restricted_growth_strings(length: int) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of the given length, lexicographically."""
    if length == 0:
        yield ()
        return
    acc = [0] * length

    def rec(i: int, mx: int) -> Iterator[tuple[int, ...]]:
        if i == length:
            yield tuple(acc)
            return
        for v in range(mx + 2):
            acc[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


def _iter_typeb_raw(
    n: int,
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]]:
    """Raw canonical partitions as (zero_block, ((negatives, positives), ...)).

    Deterministic order: zero-block supports in lexicographic subset
    order, remainder partitions in restricted-growth-string order, then
    sign vectors in binary counting order over the non-minimal elements
    taken in ascending order (bit 0 = smallest).
    """
    universe = tuple(range(1, n + 1))
    for support in _subsets_lex(universe):
        zero_block = (0,) + support
        rest = tuple(v for v in universe if v not in support)
        for rgs in _restricted_growth_strings(len(rest)):
            k = max(rgs) + 1 if rgs else 0
            members: list[list[int]] = [[] for _ in range(k)]
            for value, label in zip(rest, rgs):
                members[label].append(value)
            non_min = sorted(v for block in members for v in block[1:])
            for mask in range(1 << len(non_min)):
                negset = {v for j, v in enumerate(non_min) if mask >> j & 1}
                blocks = tuple(
                    (
                        tuple(v for v in block if v in negset),
                        tuple(v for v in block if v not in negset),
                    )
                    for block in members
                )
                yield zero_block, blocks


def _set_partitions_backtracking(
    values: tuple[int, ...],
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Set partitions in restricted-growth-string order, by backtracking over shared blocks."""
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(values):
            yield tuple(map(tuple, blocks))
            return
        v = values[i]
        for block in blocks:
            block.append(v)
            yield from rec(i + 1)
            block.pop()
        blocks.append([v])
        yield from rec(i + 1)
        blocks.pop()

    return rec(0)


def _word_letters(zero_block: tuple[int, ...], blocks: RawBlocks) -> tuple[int, ...]:
    letters = list(min_wrapped(shift_magnitudes(zero_block)))
    for negatives, positives in blocks:
        letters.extend(twice_each(shift_magnitudes(negatives)))
        letters.extend(min_wrapped(shift_magnitudes(positives)))
    return tuple(letters)


@pytest.mark.parametrize("n", range(0, 13))
def test_subsets_match_the_recursive_oracle(n):
    values = tuple(range(1, n + 1))
    assert typeb._subsets_lex(values) == list(_subsets_lex(values))


@pytest.mark.parametrize("n", range(0, 11))
def test_set_partitions_match_the_backtracking_oracle(n):
    values = tuple(range(1, n + 1))
    assert list(typeb._set_partitions(values)) == list(_set_partitions_backtracking(values))


@pytest.mark.parametrize("n", range(0, 8))
def test_raw_stream_matches_the_per_mask_loop(n):
    assert list(_iter_typeb_stream(n, lambda ng, ps: (ng, ps))) == list(_iter_typeb_raw(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_flattened_letters_match_the_per_mask_encoding(n):
    expected = [_word_letters(zb, blocks) for zb, blocks in _iter_typeb_raw(n - 1)]
    assert list(iter_flattened_letters(n)) == expected


@pytest.mark.parametrize("n", range(0, 7))
def test_generated_partitions_match_the_per_mask_loop(n):
    expected = [
        TypeBPartition(n, zb, tuple(SignedBlock(ng, ps) for ng, ps in blocks))
        for zb, blocks in _iter_typeb_raw(n)
    ]
    assert list(generate_typeb(n)) == expected


def test_generate_typeb_shares_each_signed_block():
    seen: dict[SignedBlock, SignedBlock] = {}
    for part in generate_typeb(5):
        for block in part.blocks:
            assert seen.setdefault(block, block) is block


def test_run_count_builds_no_image_word(monkeypatch):
    """``count_runs_via_bijection`` builds only the sign variants of one template block per
    size; no word stream runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("an image word was built")

    monkeypatch.setattr(tables, "iter_flattened_letters", refuse)
    monkeypatch.setattr(bijection, "iter_flattened_letters", refuse)
    monkeypatch.setattr(bijection, "_iter_typeb_stream", refuse)
    assert tables.count_runs_via_bijection(6) == TABLE1[6][2]
