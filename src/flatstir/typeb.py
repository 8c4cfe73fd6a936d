"""Type B set partitions of [-n, n] in canonical (one-block-per-pair) form.

A full type B partition is a set partition of the integers -n..n that is
closed under negation and has exactly one self-negative block (the
zero-block).  The canonical form keeps, from each block pair {B, -B},
the block containing the smaller minimal positive element; strips the
negatives from the zero-block; sorts blocks by minimal positive element;
and inside each block lists negatives in decreasing order (as integers)
followed by positives in increasing order.

Canonical partitions are written in a small text grammar:

    partition := block (' | ' block)*
    block     := element (' ' element)*
    element   := '-'? nonzero-decimal | '0'

e.g. ``0 1 2 | -4 3``.  The first block is the zero-block and may only
contain nonnegative elements.  Input is whitespace-flexible around '|';
output always uses single spaces.

Validation diagnostics use the stable codes::

    zero-block-missing-zero   zero-block does not start with 0
    zero-block-negative       negative entry in the zero-block
    zero-block-order          zero-block not strictly increasing
    bad-magnitude             block element with magnitude < 1
    empty-positives           a block has no positive part
    intra-block-order         elements out of canonical order in a block
    negative-min-rule         min |negatives| not larger than min positives
    block-order               blocks not sorted by minimal positive element
    duplicate-value           a magnitude appears more than once
    coverage-gap              magnitudes do not cover 0..n exactly
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import DEFAULT_BUDGET, NotCanonicalError, NotTypeBError, PartitionSyntaxError
from .errors import check_budget, check_digits
from .formulas import dowling

_ELEMENT_RE = re.compile(r"^(?:0|-?[1-9][0-9]*)$")

T = TypeVar("T")


@dataclass(frozen=True)
class SignedBlock:
    """One canonical non-zero block: negative magnitudes, then positives.

    ``negatives`` holds magnitudes in increasing order, which is the
    canonical display order for the negatives themselves (-9 before -10).
    """

    negatives: tuple[int, ...]
    positives: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "negatives", tuple(self.negatives))
        object.__setattr__(self, "positives", tuple(self.positives))

    @property
    def magnitudes(self) -> tuple[int, ...]:
        return self.negatives + self.positives


@dataclass(frozen=True)
class TypeBPartition:
    """Immutable canonical partition; raises NotCanonicalError on construction otherwise.

    Blocks that are not exact ``SignedBlock``s are copied into
    ``SignedBlock``s first, so a mutable block cannot change a built
    partition: it stays canonical, and the maps never check it again.
    """

    n: int
    zero_block: tuple[int, ...]
    blocks: tuple[SignedBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "zero_block", tuple(self.zero_block))
        blocks = (b if type(b) is SignedBlock else SignedBlock(b.negatives, b.positives)
                  for b in self.blocks)
        object.__setattr__(self, "blocks", tuple(blocks))
        ok, diags = validate_canonical(self)
        if not ok:
            raise NotCanonicalError(diags)

    @classmethod
    def _trusted(cls, n: int, zero_block: tuple, blocks: tuple) -> "TypeBPartition":
        """Wrap parts that are canonical by construction, unchecked (see ``StirlingWord``).

        Only ``generate_typeb`` uses it; every other path validates.
        """
        partition = object.__new__(cls)
        object.__setattr__(partition, "n", n)
        object.__setattr__(partition, "zero_block", zero_block)
        object.__setattr__(partition, "blocks", blocks)
        return partition

    def __str__(self) -> str:
        return format_partition(self)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


def _strictly_increasing(seq: Sequence[int]) -> bool:
    return all(map(lt, seq, seq[1:]))


def validate_canonical(candidate: TypeBPartition) -> tuple[bool, list[Diagnostic]]:
    """Check every canonical-form invariant; diagnostics name each violated rule.

    Diagnostics come in a fixed order: the zero-block rules, then each
    block's rules in block order, then block order, duplicates and
    coverage.  One pass over the blocks takes each block's minimum once
    and gathers the magnitudes; the search for the first duplicate runs
    only when the magnitudes hold one.  Memory stays bounded by the
    input even when ``n`` is huge.

    This function is pure, checks every time and takes any object with
    ``n``, ``zero_block`` and ``blocks``; ``TypeBPartition`` calls it when
    it is built.
    """
    diags: list[Diagnostic] = []
    zb = candidate.zero_block
    if not zb or zb[0] != 0:
        diags.append(Diagnostic("zero-block-missing-zero", "zero-block must start with 0"))
    if zb and min(zb) < 0:
        diags.append(Diagnostic("zero-block-negative", "zero-block may not contain negatives"))
    if not _strictly_increasing(zb):
        diags.append(Diagnostic("zero-block-order", "zero-block must be strictly increasing"))

    mins: list[int] = []
    magnitudes = list(zb)
    for idx, block in enumerate(candidate.blocks, start=1):
        negatives, positives, own = block.negatives, block.positives, block.magnitudes
        if own and min(own) < 1:
            diags.append(
                Diagnostic("bad-magnitude", f"block {idx} contains a magnitude below 1")
            )
        if positives:
            low = min(positives)
            mins.append(low)
        else:
            diags.append(
                Diagnostic("empty-positives", f"block {idx} has no positive element")
            )
        if not (_strictly_increasing(negatives) and _strictly_increasing(positives)):
            diags.append(
                Diagnostic(
                    "intra-block-order",
                    f"block {idx} elements are not in canonical order "
                    "(negatives by decreasing value, then positives increasing)",
                )
            )
        if negatives and positives and min(negatives) <= low:
            diags.append(
                Diagnostic(
                    "negative-min-rule",
                    f"block {idx}: min negative magnitude {min(negatives)} "
                    f"must exceed min positive {low}",
                )
            )
        magnitudes += own

    if len(mins) == len(candidate.blocks) and not _strictly_increasing(mins):
        diags.append(
            Diagnostic("block-order", "blocks must be sorted by minimal positive element")
        )

    distinct = set(magnitudes)
    if len(distinct) != len(magnitudes):
        seen: set[int] = set()
        for v in magnitudes:
            if v in seen:
                diags.append(
                    Diagnostic("duplicate-value", f"magnitude {v} appears more than once")
                )
                break
            seen.add(v)
    # distinct == set(range(n + 1)) without building it: parsed text can make n huge
    in_range = not distinct or (min(distinct) >= 0 and max(distinct) <= candidate.n)
    if not in_range or len(distinct) != max(candidate.n + 1, 0):
        diags.append(
            Diagnostic(
                "coverage-gap",
                f"magnitudes must cover 0..{candidate.n} exactly; got {sorted(distinct)}",
            )
        )
    return (not diags, diags)


def block_pair_count(partition: TypeBPartition) -> int:
    """Number of non-zero blocks (= number of block pairs in the full family)."""
    return len(partition.blocks)


def expand(partition: TypeBPartition) -> list[frozenset[int]]:
    """Rebuild the full block family on [-n, n] from the canonical form."""
    zero = frozenset(partition.zero_block) | frozenset(-v for v in partition.zero_block)
    family = [zero]
    for block in partition.blocks:
        kept = frozenset(-v for v in block.negatives) | frozenset(block.positives)
        family.append(kept)
        family.append(frozenset(-v for v in kept))
    return family


def canonicalize(blocks: Iterable[Iterable[int]]) -> TypeBPartition:
    """Canonicalize a full type B block family (any block order, any element order).

    Raises NotTypeBError naming the violated defining condition when the
    family is not a type B set partition.
    """
    family = [frozenset(b) for b in blocks]
    if any(not b for b in family):
        raise NotTypeBError(1, "blocks must be nonempty")
    elements = [v for b in family for v in b]
    if not elements:
        raise NotTypeBError(3, "a partition must cover at least {0}")
    n = max(abs(v) for v in elements)
    distinct = set(elements)
    if len(elements) != len(distinct):
        raise NotTypeBError(2, "blocks are not pairwise disjoint")
    # distinct lies in [-n, n], so it covers it iff it has 2n + 1 elements.
    # A library caller's n can be huge: never build that range; the lazy
    # scan steps over present elements and stops at the fifth missing one.
    absent = 2 * n + 1 - len(distinct)
    if absent:
        shown = list(islice((v for v in range(-n, n + 1) if v not in distinct), 5))
        listed = ", ".join(map(str, shown)) + (", ..." if absent > len(shown) else "")
        raise NotTypeBError(3, f"blocks do not cover [-{n}, {n}] ({absent} missing: {listed})")
    negation = {b: frozenset(-v for v in b) for b in family}
    for b, mate in negation.items():
        if mate not in negation:
            raise NotTypeBError(4, f"negation of block {sorted(b)} is missing")
    self_negative = [b for b, mate in negation.items() if b == mate]
    if len(self_negative) != 1:
        raise NotTypeBError(
            5, f"exactly one self-negative block required, found {len(self_negative)}"
        )

    zero_block = tuple(sorted(v for v in self_negative[0] if v >= 0))
    # Sorted by magnitude, a block starts with its smallest-magnitude element.
    # Of each pair {B, -B} keep the block where that element is positive: it
    # is the one with the smaller minimal positive element.  The first
    # elements are distinct, so sorting the blocks orders them by it.
    ordered = sorted(sorted(b, key=abs) for b, mate in negation.items() if b != mate)
    signed = [
        SignedBlock(tuple(-v for v in b if v < 0), tuple(v for v in b if v > 0))
        for b in ordered
        if b[0] > 0
    ]
    return TypeBPartition(n, zero_block, signed)


def format_partition(partition: TypeBPartition) -> str:
    """Canonical text form: blocks joined by ' | ', negatives as '-k'."""
    parts = [" ".join(str(v) for v in partition.zero_block)]
    for block in partition.blocks:
        elems = [f"-{v}" for v in block.negatives] + [str(v) for v in block.positives]
        parts.append(" ".join(elems))
    return " | ".join(parts)


def parse_partition(text: str) -> TypeBPartition:
    """Parse canonical partition text.

    Syntax errors (malformed elements, empty blocks) raise
    PartitionSyntaxError with the offending position; structurally parseable
    text that violates canonical form raises NotCanonicalError carrying
    the usual diagnostics.
    """
    if not text.strip():
        raise PartitionSyntaxError("empty partition text")
    extra: list[Diagnostic] = []
    zero_block: list[int] = []
    blocks: list[SignedBlock] = []
    n = 0
    for b_idx, segment in enumerate(text.split("|")):
        tokens = segment.split()
        if not tokens:
            raise PartitionSyntaxError(f"block {b_idx}: empty block (expected elements)")
        negatives: list[int] = []
        positives: list[int] = []
        for t_idx, tok in enumerate(tokens):
            if not _ELEMENT_RE.match(tok):
                raise PartitionSyntaxError(
                    f"block {b_idx}, element {t_idx}: expected '0' or '-'? nonzero "
                    f"decimal, found {tok!r}"
                )
            try:
                v = int(tok)
            except ValueError:  # the pattern admits the token, so only its length is refused
                check_digits(tok, f"block {b_idx}, element {t_idx}", PartitionSyntaxError)
                raise
            if b_idx == 0:
                zero_block.append(v)
            elif v >= 0:
                positives.append(v)
            else:
                if positives:
                    message = f"block {b_idx}: negatives must precede positives"
                    extra.append(Diagnostic("intra-block-order", message))
                negatives.append(-v)
            n = max(n, abs(v))
        if b_idx:
            blocks.append(SignedBlock(negatives, positives))

    try:
        partition = TypeBPartition(n, zero_block, blocks)
    except NotCanonicalError as err:
        extra += err.diagnostics
    if extra:
        raise NotCanonicalError(extra)
    return partition


def _subsets_lex(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Subsets in lexicographic order of their ascending element tuples."""

    def rec(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        for i in range(start, len(values)):
            longer = prefix + (values[i],)
            yield longer
            yield from rec(longer, i + 1)

    yield ()
    yield from rec((), 0)


def _set_partitions(values: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Partitions of ascending ``values`` into ascending blocks, in restricted-growth-string order.

    Each value joins the open blocks in the order they were opened, then
    opens a new one, so the blocks are ordered by their minima.
    """
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


def _iter_typeb_shapes(n: int) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """Unsigned canonical partitions of [-n, n] as (zero_block, member blocks).

    Zero-block supports come in lexicographic subset order, and the rest
    of 1..n is split into member blocks in restricted-growth-string
    order (``_set_partitions``).  All shapes of one support share one
    zero-block tuple.
    """
    universe = tuple(range(1, n + 1))
    for support in _subsets_lex(universe):
        zero_block = (0,) + support
        rest = tuple(v for v in universe if v not in support)
        for members in _set_partitions(rest):
            yield zero_block, members


def _signed_variants(
    block: tuple[int, ...], encode: Callable[[tuple[int, ...], tuple[int, ...]], T]
) -> list[T]:
    """encode(negatives, positives) for each of a block's 2^(s-1) signed variants.

    The minimum stays positive.  Variant j negates the non-minimal
    elements whose bits are set in j (bit 0 = smallest).
    """
    low, rest = block[0], block[1:]
    return [
        encode(
            tuple(v for j, v in enumerate(rest) if mask >> j & 1),
            (low,) + tuple(v for j, v in enumerate(rest) if not mask >> j & 1),
        )
        for mask in range(1 << len(rest))
    ]


def _iter_typeb_stream(
    n: int, encode: Callable[[tuple[int, ...], tuple[int, ...]], T]
) -> Iterator[tuple[tuple[int, ...], tuple[T, ...]]]:
    """Canonical partitions of [-n, n] as (zero_block, (encode(negatives, positives), ...)).

    Order (a contract: seeded samples of the stream rely on it): the
    shapes of ``_iter_typeb_shapes`` (zero-block supports in
    lexicographic subset order, remainder partitions in
    restricted-growth-string order), then sign vectors in binary
    counting order over the non-minimal elements taken in ascending
    order (bit 0 = smallest).

    A block's signed variants (``_signed_variants``) are encoded once per
    call and shared by every partition holding it.  For each shape every
    block gets a column of variant indices, doubled once per non-minimal
    element in ascending order (the owning block's copy gains that
    element's bit, the others repeat), so entry i of each column is the
    block's variant under sign mask i and zipping the columns yields the
    mask order.
    """
    memo: dict[tuple[int, ...], list[T]] = {}

    def variants(block: tuple[int, ...]) -> list[T]:
        found = memo.get(block)
        if found is None:
            found = memo[block] = _signed_variants(block, encode)
        return found

    for zero_block, members in _iter_typeb_shapes(n):
        if not members:
            yield zero_block, ()
            continue
        owner = {v: (b, 1 << j) for b, block in enumerate(members) for j, v in enumerate(block[1:])}
        columns = [[0] for _ in members]
        for v in sorted(owner):
            b, bit = owner[v]
            for c, column in enumerate(columns):
                column.extend([i | bit for i in column] if c == b else column)
        tables = [variants(block) for block in members]
        for blocks in zip(*[[t[i] for i in column] for t, column in zip(tables, columns)]):
            yield zero_block, blocks


def generate_typeb(n: int, budget: int = DEFAULT_BUDGET) -> Iterator[TypeBPartition]:
    """Yield every canonical type B partition of [-n, n] exactly once.

    The stream is deterministic (see ``_iter_typeb_stream``) and its length
    is the type B partition count ``dowling(n)``, which is checked
    against the budget before any work happens.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_budget(dowling(n), budget, f"generating type B partitions of [-{n}, {n}]")
    for zero_block, blocks in _iter_typeb_stream(n, SignedBlock):
        yield TypeBPartition._trusted(n, zero_block, blocks)
