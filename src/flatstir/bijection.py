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
the doubled negatives followed by its wrapped positives.  The three maps
remain the definition; the encoder (``_segment``, ``_word_letters``)
writes the same letters straight from the parts into one list, with no
set or sort, so it requires the parts to be canonical: magnitudes
ascending, positives nonempty.  Every built ``TypeBPartition`` and the
partition stream give it such parts.

The inverse peels the word from the right: each positive segment runs
from the leftmost occurrence of the final letter, each negative segment
is the maximal contiguous stretch of larger letters immediately to its
left.  A segment holds both copies of each of its letters, side by side
(after the first letter, for a positive one), so a slice of every
second letter halves it; subtracting one and flipping signs on the
negative segments rebuilds the blocks in reverse order.  One pass records
each letter's first position, so the peel is linear in the word.

Run counts of the images are read per block, not per word.  A word's
runs are 1 plus its descents, each inside one segment or at the join of
two.  The zero-block (magnitude 0) comes first, with one all-positive
variant.  Every variant of a block ends on its minimum plus one, so the
letter before each join is fixed by the block before it, whatever its
signs, and the blocks' signs add independent descent histograms.  A
variant's letters are v + 1 for v in the block, placed by their ranks
and the signs alone, so its inner descents depend only on the block's
size (and whether it is the zero-block): its order type.  ``_template``
builds each size's variants once, on the block 1..s (0..s-1).  No join
is a descent: every variant of a block B ends on min(B) + 1, and every
later block's first letter is at least its own minimum + 1, which is
larger, since the blocks come in order of their minima.  So an image's
runs are 1 plus the inner descents of its blocks' variants, and the
count stays independent of ``run_count_from_partition``.  As a block's
histogram depends on its size alone, the count convolves over block
sizes (the block holding the smallest magnitude has j of the s left,
in C(s-1, j-1) ways), not over sets of magnitudes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import DEFAULT_BUDGET, DomainError, NotFlattenedError, check_budget
from .formulas import dowling
from .typeb import SignedBlock, TypeBPartition, _iter_typeb_stream, _signed_variants
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


def _add_segment(letters: list[int], negatives: Sequence[int], positives: Sequence[int]) -> None:
    """Append one part's letters to ``letters``: its doubled negatives, then its wrapped positives.

    The parts must be canonical and ascending, with ``positives``
    nonempty; on them the letters equal
    ``twice_each(shift_magnitudes(negatives)) + min_wrapped(shift_magnitudes(positives))``,
    which remains the definition.
    """
    for v in negatives:
        letters += (v + 1, v + 1)
    low = positives[0] + 1
    letters.append(low)
    for v in positives[1:]:
        letters += (v + 1, v + 1)
    letters.append(low)


def _segment(negatives: tuple[int, ...], positives: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of one canonical part, ascending and with positives: see ``_add_segment``."""
    letters: list[int] = []
    _add_segment(letters, negatives, positives)
    return tuple(letters)


def _variant_descents(block: tuple[int, ...]) -> tuple[dict[tuple[int, int], int], int]:
    """Histogram {(first letter, inner descents): variants} of a block; the variants' last letter.

    Each of the 2^(s-1) variants is built once by ``_segment`` and read by
    ``run_starts``; the zero-block (minimum 0) has one, all positive.
    Every variant ends on the same letter, the block's minimum plus one.
    """
    hist: dict[tuple[int, int], int] = {}
    for letters in _signed_variants(block, _segment) if block[0] else [_segment((), block)]:
        key = letters[0], len(run_starts(letters)) - 1
        hist[key] = hist.get(key, 0) + 1
    return hist, letters[-1]


def _template(size: int, zero: bool) -> dict[int, int]:
    """Histogram {inner descents: variants} of every block of ``size``.

    Read from the template block 1..size, or 0..size-1 if ``zero`` (a
    zero-block, one variant).
    """
    low = 0 if zero else 1
    hist: dict[int, int] = {}
    for (_, inner), count in _variant_descents(tuple(range(low, low + size)))[0].items():
        hist[inner] = hist.get(inner, 0) + count
    return hist


def image_run_distributions(n_max: int) -> dict[int, dict[int, int]]:
    """{n: {runs: words}} over the images of the canonical partitions of [-(n-1), n-1], n <= n_max.

    No image is built (module docstring).  The blocks of a set of
    magnitudes R are one block B holding min(R) and then the blocks of
    R - B, so their descent histogram is

        blocks(R) = sum over B of packed(|B|) * blocks(R - B)

    with blocks({}) = 1, where ``packed`` is the template histogram of
    B's size (no join is a descent).  blocks(R) depends only on |R| and
    on whether 0 is in R.  Without 0, by induction on |R|: each R - B
    lacks 0 and is smaller, so every term depends only on |B| and |R|,
    and the C(s-1, j-1) sets B of size j that hold min(R) add the same
    term.  So with members[s] = blocks(R) for any s magnitudes R without 0,

        members[0] = 1,
        members[s] = sum over j = 1..s of C(s-1, j-1) * packed(j) * members[s-j],

    and order n, whose zero-block holds 0 and i of the magnitudes 1..n-1
    (zero(i+1) the zero-block template's histogram), is one base run plus

        sum over i = 0..n-1 of C(n-1, i) * zero(i+1) * members[n-1-i].

    This is the exponential formula over block sizes (Flajolet &
    Sedgewick II.2), but each packed(j) is still read off the letters of
    every sign variant, so the count stays independent of
    ``run_count_from_partition`` and ``run_distributions``.  Each
    binomial is the one before times a ratio.  A histogram {d: c} is the
    integer sum of c * X**d with X = 2**shift, so products convolve and
    sums add.  Every digit of every product and partial sum counts, by
    descents, some of the images of one order n <= n_max (members[s]
    those of order s + 1 whose zero-block is {0}), so it is at most
    (2n_max - 1)!!, below X: no digit carries.  ``n_max`` 0 gives ``{}``.
    """
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    shift = 2 * n_max * n_max.bit_length()

    def packed(size: int, zero: bool) -> int:
        return sum(count << shift * inner for inner, count in _template(size, zero).items())

    member_hist = [packed(size, False) for size in range(1, n_max)]
    zero_hist = [packed(size, True) for size in range(1, n_max + 1)]
    members = [1]
    for s in range(1, n_max):
        total, ways = 0, 1
        for j in range(1, s + 1):
            total += ways * member_hist[j - 1] * members[s - j]
            ways = ways * (s - j) // j
        members.append(total)

    digit = (1 << shift) - 1
    rows = {}
    for n in range(1, n_max + 1):
        total, ways = 0, 1
        for i in range(n):
            total += ways * zero_hist[i] * members[n - 1 - i]
            ways = ways * (n - 1 - i) // (i + 1)
        total <<= shift
        counts = (total >> shift * runs & digit for runs in range(total.bit_length() // shift + 1))
        rows[n] = {runs: count for runs, count in enumerate(counts) if count}
    return rows


def _word_letters(zero_block: tuple[int, ...], blocks: Iterable[SignedBlock]) -> tuple[int, ...]:
    """The image's letters, gathered in one list from the canonical parts."""
    letters: list[int] = []
    _add_segment(letters, (), zero_block)
    for b in blocks:
        _add_segment(letters, b.negatives, b.positives)
    return tuple(letters)


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

    # Peel (negatives, positives) segments right to left on the magnitudes
    # (letters minus one); the last one peeled is the zero-block.  A segment
    # not made of pairs (only in a word that is not doubled) keeps the first
    # copy of each value instead, and an inconsistent peel fails the
    # canonical check.
    values = tuple([v - 1 for v in letters])
    first: dict[int, int] = {}
    for idx, v in enumerate(values):
        first.setdefault(v, idx)
    blocks: list[SignedBlock] = []
    i = len(values) - 1
    while i >= 0:
        value = values[i]
        j = first[value]
        t = j - 1
        while t >= 0 and values[t] > value:
            t -= 1
        negatives = values[t + 1 : j : 2]
        if negatives != values[t + 2 : j : 2]:
            negatives = dict.fromkeys(values[t + 1 : j])
        inner = values[j + 1 : i : 2]
        positives = (value, *inner)
        if inner != values[j + 2 : i : 2]:
            positives = dict.fromkeys(values[j : i + 1])
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
    if n < 1:
        raise ValueError("n must be positive")
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
