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
maximal contiguous stretch of larger letters immediately to its left.
A segment holds both copies of each of its letters, so halving it keeps
the first copies in order; subtracting one and flipping signs on the
negative segments rebuilds the blocks in reverse order.  One pass records
each letter's first position, so the peel is linear in the word.

Run counts of the images are read per block, not per word.  A word's
runs are 1 plus its descents, and each adjacent pair lies inside one
segment or at the join of two, so the runs are the zero-block segment's
runs plus, for each block, its segment's inner descents and one more if
the join on its left is a descent.  Every signed variant of a block ends on the block's minimum
plus one (the minimum stays positive and ``min_wrapped`` puts it last),
so the letter left of each join is fixed by the block before it,
whatever its signs.  The blocks' signs thus add independent descent
histograms, and the run distribution of one (zero-block, member blocks)
shape is their product: ``image_run_distribution`` sums 2^(s-1)
variants per block instead of building every word.  On canonical images
every join is an ascent (the next block's letters exceed its minimum
plus one, which exceeds the previous block's), but the count still
compares the letters: it reads the images, not this argument, and stays
independent of ``run_count_from_partition``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from .errors import DEFAULT_BUDGET, DomainError, NotFlattenedError, check_budget
from .formulas import dowling
from .typeb import SignedBlock, TypeBPartition, _iter_typeb_shapes, _iter_typeb_stream
from .typeb import _signed_variants
from .words import StirlingWord, is_flattened, leader_drop, run_starts


def shift_magnitudes(values: Iterable[int]) -> frozenset[int]:
    """{|v| + 1 for v in values}; a symmetric pair collapses to one letter."""
    return frozenset(abs(v) + 1 for v in values)


def twice_each(values: Iterable[int]) -> tuple[int, ...]:
    """Ascending word with every element doubled: s1 s1 s2 s2 ... sk sk."""
    return tuple(sorted(list(set(values)) * 2))


def min_wrapped(values: Iterable[int]) -> tuple[int, ...]:
    """Word s1 s2 s2 ... sk sk s1: the minimum wraps the doubled rest."""
    ordered = sorted(set(values))
    return (ordered[0], *sorted(ordered[1:] * 2), ordered[0]) if ordered else ()


def _segment(negatives: tuple[int, ...], positives: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of one part: its doubled negatives, then its wrapped positives."""
    return twice_each(shift_magnitudes(negatives)) + min_wrapped(shift_magnitudes(positives))


def _block_descents(block: tuple[int, ...], prev: int) -> tuple[dict[int, int], int]:
    """A block's descent histogram after the letter ``prev``, and its variants' common last letter.

    The histogram maps a descent count to the number of variants whose
    segment has that many inner descents plus the join ``prev`` > its
    first letter.  Every variant ends on the same letter, the block's
    minimum plus one, which is returned as the next block's ``prev``.
    """
    hist: dict[int, int] = {}
    for letters in _signed_variants(block, _segment):
        descents = len(run_starts(letters)) - 1 + (prev > letters[0])
        hist[descents] = hist.get(descents, 0) + 1
    return hist, letters[-1]


def image_run_distribution(n: int) -> dict[int, int]:
    """{runs: words} over the images of every canonical partition of [-(n-1), n-1].

    Every image is counted, shape by shape, without building it: a shape's
    distribution is the zero-block segment's runs times each block's
    ``_block_descents`` histogram (see the module docstring), memoised
    per (block, previous last letter).  A histogram {d: c} is held as the
    integer sum of c * X**d with X = 2**shift, so multiplying two of them
    convolves the histograms and adding sums them.  No count can carry
    into the next digit: each is at most the number of words of length
    2n over 1..n, which is below X.
    """
    shift = 2 * n * n.bit_length()
    memo: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}
    total = 0
    zero_block = None
    for support, members in _iter_typeb_shapes(n - 1):
        if support is not zero_block:
            zero_block, head = support, _segment((), support)
            head_poly, head_last = 1 << shift * len(run_starts(head)), head[-1]
        poly, prev = head_poly, head_last
        for block in members:
            found = memo.get((block, prev))
            if found is None:
                hist, last = _block_descents(block, prev)
                packed = sum(count << shift * d for d, count in hist.items())
                found = memo[block, prev] = packed, last
            packed, prev = found
            poly *= packed
        total += poly
    by_runs: dict[int, int] = {}
    digit = (1 << shift) - 1
    for runs in range(total.bit_length() // shift + 1):
        count = total >> shift * runs & digit
        if count:
            by_runs[runs] = count
    return by_runs


def _word_letters(zero_block: tuple[int, ...], blocks: Iterable[SignedBlock]) -> tuple[int, ...]:
    segments = (_segment(b.negatives, b.positives) for b in blocks)
    return tuple(chain(_segment((), zero_block), *segments))


def partition_to_word(partition: TypeBPartition, verify_output: bool = False) -> StirlingWord:
    """Forward map: canonical partition of [-n, n] -> flattened word of order n+1.

    Construction already validates the Stirling property; with
    ``verify_output`` the flattened property is asserted as well (used
    by the verification suites, skipped on production paths).
    """
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

    first: dict[int, int] = {}
    for idx, v in enumerate(letters):
        first.setdefault(v, idx)
    # Peel (negatives, positives) segments right to left; the last one peeled
    # is the zero-block.  An inconsistent peel fails the canonical check.
    blocks: list[SignedBlock] = []
    i = len(letters) - 1
    while i >= 0:
        value = letters[i]
        j = first[value]
        t = j - 1
        while t >= 0 and letters[t] > value:
            t -= 1
        negatives = tuple(v - 1 for v in dict.fromkeys(letters[t + 1 : j]))
        positives = tuple(v - 1 for v in dict.fromkeys(letters[j : i + 1]))
        blocks.append(SignedBlock(negatives, positives))
        i = t
    zero_block = blocks.pop().positives
    return TypeBPartition(word.order - 1, zero_block, tuple(reversed(blocks)))


def run_count_from_partition(partition: TypeBPartition) -> int:
    """Run count of the corresponding word, computed on the partition alone.

    One base run, plus one per block with a nonempty negative part, plus
    one per part (zero-block included) with two or more positives.
    """
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
        yield StirlingWord._trusted(letters, 2)


def iter_flattened_letters(n: int) -> Iterator[tuple[int, ...]]:
    """Raw-letter variant of ``generate_flattened_from_partitions`` (no validation cost).

    The partition stream encodes each signed block once as its letter
    segment; a word is its zero-block segment followed by those segments.
    """
    zero_block = head = None
    for support, segments in _iter_typeb_stream(n - 1, _segment):
        if support is not zero_block:
            zero_block, head = support, _segment((), support)
        # sum copies per block, but the words are short (order 8: 0.67 µs, chain 1.15 µs)
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
