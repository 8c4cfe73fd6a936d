"""The correspondence between canonical type B partitions and flattened words.

A canonical partition of [-n, n] maps to a flattened doubled word of
order n+1 by encoding each part through three small maps:

* ``shift_magnitudes``: every element of a signed set goes to its
  absolute value plus one (so partition values 0..n become letters
  1..n+1);
* ``twice_each``: a set becomes the word s1 s1 s2 s2 ... sk sk
  (ascending, each letter doubled) -- used for the negative parts;
* ``min_wrapped``: a set becomes s1 s2 s2 ... sk sk s1 (the minimum
  wraps the doubled rest) -- used for the positive parts.

The word is the concatenation: wrapped zero-block, then for each block
the doubled negatives followed by its wrapped positives.  The inverse
peels the word from the right: each positive segment runs from the
leftmost occurrence of the final letter, each negative segment is the
maximal contiguous stretch of larger letters immediately to its left;
deleting the second copy of every letter, subtracting one, and flipping
signs on the negative segments rebuilds the blocks in reverse order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DEFAULT_BUDGET, DomainError, NotFlattenedError, check_budget
from .formulas import dowling
from .typeb import SignedBlock, TypeBPartition, _iter_typeb_stream, ensure_canonical
from .words import StirlingWord, is_flattened, leader_drop


def shift_magnitudes(values: Iterable[int]) -> frozenset[int]:
    """{|v| + 1 for v in values}; a symmetric pair collapses to one letter."""
    return frozenset(abs(v) + 1 for v in values)


def twice_each(values: Iterable[int]) -> tuple[int, ...]:
    """Ascending word with every element doubled: s1 s1 s2 s2 ... sk sk."""
    out: list[int] = []
    for v in sorted(set(values)):
        out.append(v)
        out.append(v)
    return tuple(out)


def min_wrapped(values: Iterable[int]) -> tuple[int, ...]:
    """Word s1 s2 s2 ... sk sk s1: the minimum wraps the doubled rest."""
    ordered = sorted(set(values))
    if not ordered:
        return ()
    first, rest = ordered[0], ordered[1:]
    out = [first]
    for v in rest:
        out.append(v)
        out.append(v)
    out.append(first)
    return tuple(out)


def _segment(negatives: tuple[int, ...], positives: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of one part: its doubled negatives, then its wrapped positives."""
    return twice_each(shift_magnitudes(negatives)) + min_wrapped(shift_magnitudes(positives))


def _word_letters(zero_block: tuple[int, ...], blocks: Iterable[SignedBlock]) -> tuple[int, ...]:
    return sum((_segment(b.negatives, b.positives) for b in blocks), _segment((), zero_block))


def partition_to_word(partition: TypeBPartition, verify_output: bool = False) -> StirlingWord:
    """Forward map: canonical partition of [-n, n] -> flattened word of order n+1.

    Construction already validates the Stirling property; with
    ``verify_output`` the flattened property is asserted as well (used
    by the verification suites, skipped on production paths).
    """
    ensure_canonical(partition)
    letters = _word_letters(partition.zero_block, partition.blocks)
    word = StirlingWord(letters, 2)
    if verify_output and not is_flattened(word):
        raise NotFlattenedError(f"forward map produced a non-flattened word: {word}")
    return word


def word_to_partition(word: StirlingWord) -> TypeBPartition:
    """Inverse map: flattened doubled word of order n -> canonical partition of [-(n-1), n-1].

    Only doubled (multiplicity 2) nonempty flattened words are in the
    domain; anything else raises a domain error naming the offending
    letter or run.
    """
    if word.multiplicity != 2:
        raise DomainError(
            f"the correspondence is defined for doubled words only (multiplicity 2, "
            f"got {word.multiplicity})"
        )
    letters = word.letters
    if not letters:
        raise DomainError("the empty word has no corresponding partition (order must be >= 1)")
    drop = leader_drop(letters)
    if drop is not None:
        start, lead = drop
        raise NotFlattenedError(
            f"run starting at position {start} leads with {letters[start]}, smaller than "
            f"the previous leading term {lead}"
        )

    # Peel (negatives, positives) segments right to left.
    segments: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    i = len(letters) - 1
    while i >= 0:
        value = letters[i]
        j = letters.index(value)  # leftmost occurrence
        positive_seg = letters[j : i + 1]
        t = j - 1
        while t >= 0 and letters[t] > value:
            t -= 1
        negative_seg = letters[t + 1 : j]
        segments.append((negative_seg, positive_seg))
        i = t

    def halve(segment: tuple[int, ...]) -> list[int]:
        # each letter occurs exactly twice within its segment; keep first copies
        seen: set[int] = set()
        kept = [v for v in segment if not (v in seen or seen.add(v))]
        assert len(kept) * 2 == len(segment), "segment letters must come in pairs"
        return kept

    final_negatives, final_positives = segments[-1]
    assert final_negatives == (), "leftmost segment cannot have a negative part"
    zero_block = tuple(v - 1 for v in halve(final_positives))
    blocks = []
    for negative_seg, positive_seg in reversed(segments[:-1]):
        blocks.append(
            SignedBlock(
                negatives=tuple(v - 1 for v in halve(negative_seg)),
                positives=tuple(v - 1 for v in halve(positive_seg)),
            )
        )
    return ensure_canonical(TypeBPartition(word.order - 1, zero_block, tuple(blocks)))


def run_count_from_partition(partition: TypeBPartition) -> int:
    """Run count of the corresponding word, computed on the partition alone.

    One base run, plus one per block with a nonempty negative part, plus
    one per part (zero-block included) with two or more positives.
    """
    ensure_canonical(partition)
    from_negatives = sum(1 for b in partition.blocks if b.negatives)
    from_positives = (1 if len(partition.zero_block) >= 2 else 0) + sum(
        1 for b in partition.blocks if len(b.positives) >= 2
    )
    return 1 + from_negatives + from_positives


def generate_flattened_from_partitions(
    n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[StirlingWord]:
    """All flattened doubled words of order n, as images of the partition stream.

    It touches exactly the flattened words, never filtering the full word
    set, but the pruned insertion walk (``words.generate_flattened_filter``)
    is faster; this is its bijection-side oracle.  Order follows the
    partition generator's documented order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_budget(dowling(n - 1), budget, f"generating flat words of order {n}")
    for letters in iter_flattened_letters(n):
        yield StirlingWord(letters, 2)


def iter_flattened_letters(n: int) -> Iterator[tuple[int, ...]]:
    """Raw-letter variant of ``generate_flattened_from_partitions`` (no validation cost).

    The partition stream encodes each signed block once as its letter
    segment; a word is its zero-block segment followed by those segments.
    """
    zero_block = head = None
    for support, segments in _iter_typeb_stream(n - 1, _segment):
        if support is not zero_block:
            zero_block, head = support, _segment((), support)
        yield sum(segments, head)


def max_runs_witness(n: int) -> StirlingWord:
    """A flattened word of order n attaining the maximal run count ceil(2n/3).

    Built as the image of a partition packed with blocks of shape
    (one negative, two positives), each contributing two runs; the
    zero-block takes {0, 2} so the first such block can start at 1.
    Leftover magnitudes (one or two) form a final smaller block.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return partition_to_word(TypeBPartition(0, (0,), ()))
    if n == 2:
        return partition_to_word(TypeBPartition(1, (0, 1), ()))
    remaining = [1] + list(range(3, n))
    blocks: list[SignedBlock] = []
    while len(remaining) >= 3:
        low, mid, high = remaining[:3]
        blocks.append(SignedBlock((mid,), (low, high)))
        del remaining[:3]
    if len(remaining) == 1:
        blocks.append(SignedBlock((), (remaining[0],)))
    elif len(remaining) == 2:
        blocks.append(SignedBlock((remaining[1],), (remaining[0],)))
    return partition_to_word(TypeBPartition(n - 1, (0, 2), tuple(blocks)))
