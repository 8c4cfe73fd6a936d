"""The one-pass canonical-form check, and the rule that a partition is checked when built.

``_strictly_increasing`` and ``validate_canonical`` below are the
previous implementation, kept unchanged as the oracle: the diagnostics
(codes, messages and their order) reach users through the CLI's error
text, so the one-pass check must return exactly the same
``(ok, diagnostics)`` for every candidate, valid or not.
"""

from functools import lru_cache
from types import SimpleNamespace
from typing import Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from flatstir import typeb
from flatstir.bijection import partition_to_word, run_count_from_partition, word_to_partition
from flatstir.errors import NotCanonicalError
from flatstir.typeb import (
    Diagnostic,
    SignedBlock,
    TypeBPartition,
    expand,
    format_partition,
    generate_typeb,
    parse_partition,
)


def _strictly_increasing(seq: Sequence[int]) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def validate_canonical(candidate: TypeBPartition) -> tuple[bool, list[Diagnostic]]:
    """Check every canonical-form invariant; diagnostics name each violated rule."""
    diags: list[Diagnostic] = []
    zb = candidate.zero_block
    if not zb or zb[0] != 0 or 0 not in zb:
        diags.append(Diagnostic("zero-block-missing-zero", "zero-block must start with 0"))
    if any(v < 0 for v in zb):
        diags.append(Diagnostic("zero-block-negative", "zero-block may not contain negatives"))
    if not _strictly_increasing(zb):
        diags.append(Diagnostic("zero-block-order", "zero-block must be strictly increasing"))

    for idx, block in enumerate(candidate.blocks, start=1):
        if any(v < 1 for v in block.magnitudes):
            diags.append(
                Diagnostic("bad-magnitude", f"block {idx} contains a magnitude below 1")
            )
        if not block.positives:
            diags.append(
                Diagnostic("empty-positives", f"block {idx} has no positive element")
            )
        if not _strictly_increasing(block.negatives) or not _strictly_increasing(
            block.positives
        ):
            diags.append(
                Diagnostic(
                    "intra-block-order",
                    f"block {idx} elements are not in canonical order "
                    "(negatives by decreasing value, then positives increasing)",
                )
            )
        if block.negatives and block.positives and min(block.negatives) <= min(block.positives):
            diags.append(
                Diagnostic(
                    "negative-min-rule",
                    f"block {idx}: min negative magnitude {min(block.negatives)} "
                    f"must exceed min positive {min(block.positives)}",
                )
            )

    mins = [min(b.positives) for b in candidate.blocks if b.positives]
    if len(mins) == len(candidate.blocks) and not _strictly_increasing(mins):
        diags.append(
            Diagnostic("block-order", "blocks must be sorted by minimal positive element")
        )

    magnitudes = list(zb) + [v for b in candidate.blocks for v in b.magnitudes]
    seen: set[int] = set()
    for v in magnitudes:
        if v in seen:
            diags.append(
                Diagnostic("duplicate-value", f"magnitude {v} appears more than once")
            )
            break
        seen.add(v)
    # distinct == set(range(n + 1)) without building it: parsed text can make n huge
    distinct = set(magnitudes)
    in_range = all(0 <= v <= candidate.n for v in distinct)
    if not in_range or len(distinct) != max(candidate.n + 1, 0):
        diags.append(
            Diagnostic(
                "coverage-gap",
                f"magnitudes must cover 0..{candidate.n} exactly; got {sorted(distinct)}",
            )
        )
    return (not diags, diags)


@pytest.mark.parametrize("n", range(7))
def test_every_generated_partition_matches_the_oracle(n):
    for part in generate_typeb(n):
        got = typeb.validate_canonical(part)
        assert got == validate_canonical(part) == (True, []), part


# --- candidates: valid partitions with zero or more corruptions ----------------

HUGE_N = 99999999999


@lru_cache(maxsize=None)
def _population(n: int) -> tuple[TypeBPartition, ...]:
    return tuple(generate_typeb(n))


def _missing_zero(draw, n, zb, blocks):
    return n, zb[1:] if draw(st.booleans()) else [draw(st.integers(1, n + 2))] + zb[1:], blocks


def _negative_in_zero_block(draw, n, zb, blocks):
    zb.insert(draw(st.integers(0, len(zb))), -draw(st.integers(1, n + 2)))
    return n, zb, blocks


def _swap(draw, n, zb, blocks):
    parts = [zb] + [part for block in blocks for part in block]
    long_enough = [p for p in parts if len(p) >= 2]
    if long_enough:
        p = draw(st.sampled_from(long_enough))
        i, j = draw(st.lists(st.integers(0, len(p) - 1), min_size=2, max_size=2, unique=True))
        p[i], p[j] = p[j], p[i]
    return n, zb, blocks


def _duplicate(draw, n, zb, blocks):
    pool = zb + [v for block in blocks for part in block for v in part]
    if pool:
        target = draw(st.sampled_from([zb] + [part for block in blocks for part in block]))
        target.insert(draw(st.integers(0, len(target))), draw(st.sampled_from(pool)))
    return n, zb, blocks


def _gap(draw, n, zb, blocks):
    if draw(st.booleans()) and blocks:
        block = draw(st.sampled_from(blocks))
        part = block[0] if block[0] and draw(st.booleans()) else block[1]
        if part:
            del part[draw(st.integers(0, len(part) - 1))]
        return n, zb, blocks
    return n + draw(st.integers(1, 3)), zb, blocks


def _out_of_range(draw, n, zb, blocks):
    if draw(st.booleans()):
        return max(n - draw(st.integers(1, 2)), -1), zb, blocks
    target = draw(st.sampled_from([zb] + [part for block in blocks for part in block]))
    target.append(draw(st.integers(n + 1, n + 4) | st.integers(-3, 0)))
    return n, zb, blocks


def _empty_positives(draw, n, zb, blocks):
    if blocks:
        block = draw(st.sampled_from(blocks))
        if draw(st.booleans()):
            block[0] = sorted(block[0] + block[1])
        block[1] = []
    return n, zb, blocks


def _negative_min_rule(draw, n, zb, blocks):
    signed = [block for block in blocks if block[0] and block[1]]
    if signed:
        negatives, positives = draw(st.sampled_from(signed))
        i = draw(st.integers(0, len(negatives) - 1))
        negatives[i], positives[0] = positives[0], negatives[i]
        negatives.sort()
        positives.sort()
    return n, zb, blocks


def _block_order(draw, n, zb, blocks):
    if len(blocks) >= 2:
        i, j = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=2, max_size=2, unique=True))
        blocks[i], blocks[j] = blocks[j], blocks[i]
    return n, zb, blocks


def _huge_n(draw, n, zb, blocks):
    if draw(st.booleans()):
        zb.append(HUGE_N)
    return HUGE_N, zb, blocks


CORRUPTIONS = [
    _missing_zero,
    _negative_in_zero_block,
    _swap,
    _duplicate,
    _gap,
    _out_of_range,
    _empty_positives,
    _negative_min_rule,
    _block_order,
    _huge_n,
]


@st.composite
def candidates(draw):
    """A valid partition of [-n, n], n <= 5, with up to three corruptions applied.

    A candidate is a plain namespace: the constructor would refuse most of them.
    """
    n = draw(st.integers(0, 5))
    base = draw(st.sampled_from(_population(n)))
    zb = list(base.zero_block)
    blocks = [[list(b.negatives), list(b.positives)] for b in base.blocks]
    for corrupt in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=3)):
        n, zb, blocks = corrupt(draw, n, zb, blocks)
    return SimpleNamespace(
        n=n, zero_block=tuple(zb), blocks=tuple(SignedBlock(neg, pos) for neg, pos in blocks)
    )


@settings(max_examples=600, deadline=None)
@given(candidates())
def test_diagnostics_match_the_oracle(candidate):
    assert typeb.validate_canonical(candidate) == validate_canonical(candidate)


@st.composite
def ordered_candidates(draw):
    """Candidates whose parts mostly rise as canonical form asks, so the
    magnitudes (repeats, gaps, range, n) decide: the cases where the one-pass
    accept check must still find a broken rule."""
    n = draw(st.integers(-1, 5))
    values = st.integers(1, n + 2)
    zb = (0, *sorted(draw(st.sets(values, max_size=4))))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        positives = sorted(draw(st.sets(values, min_size=1, max_size=3)))
        negatives = sorted(draw(st.sets(values, max_size=2)))
        blocks.append(SignedBlock(negatives, positives))
    blocks.sort(key=lambda b: b.positives[0])
    return SimpleNamespace(n=n, zero_block=zb, blocks=tuple(blocks))


@settings(max_examples=600, deadline=None)
@given(ordered_candidates())
@example(SimpleNamespace(n=-1, zero_block=(), blocks=()))  # nothing at all to cover 0..-1
def test_ordered_candidates_match_the_oracle(candidate):
    assert typeb.validate_canonical(candidate) == validate_canonical(candidate)


# --- checked when built ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(candidates())
def test_building_raises_exactly_the_diagnostics(candidate):
    ok, diags = typeb.validate_canonical(candidate)
    if ok:
        built = TypeBPartition(candidate.n, candidate.zero_block, candidate.blocks)
        assert (built.n, built.zero_block, built.blocks) == (
            candidate.n, candidate.zero_block, candidate.blocks
        )
        return
    with pytest.raises(NotCanonicalError) as err:
        TypeBPartition(candidate.n, candidate.zero_block, candidate.blocks)
    assert err.value.diagnostics == diags


@pytest.fixture
def calls(monkeypatch):
    """Count calls of ``typeb.validate_canonical`` made through the module."""
    seen: list[TypeBPartition] = []
    real = typeb.validate_canonical

    def counted(candidate):
        seen.append(candidate)
        return real(candidate)

    monkeypatch.setattr(typeb, "validate_canonical", counted)
    return seen


def test_one_round_trip_validates_each_partition_once(calls):
    parsed = parse_partition("0 1 2 | -4 3")
    word = partition_to_word(parsed)
    back = word_to_partition(word)
    assert run_count_from_partition(back) == 3
    assert back == parsed
    assert len(calls) == 2
    assert calls[0] is parsed and calls[1] is back


@pytest.mark.parametrize(
    "use", [partition_to_word, run_count_from_partition, expand], ids=lambda f: f.__name__
)
def test_invalid_partition_is_rejected_on_every_call(calls, use):
    """The map never sees an invalid partition: building it fails, every time."""
    for attempt in (1, 2):
        with pytest.raises(NotCanonicalError, match="block 1 has no positive element"):
            use(TypeBPartition(1, (0,), (SignedBlock((1,), ()),)))
        assert len(calls) == attempt


def test_an_equal_fresh_instance_is_checked_anew(calls):
    first = TypeBPartition(2, (0,), (SignedBlock((2,), (1,)),))
    second = TypeBPartition(2, (0,), (SignedBlock((2,), (1,)),))
    assert second == first
    assert len(calls) == 2 and calls[0] is first and calls[1] is second
    for part in (first, second):
        partition_to_word(part)
        run_count_from_partition(part)
    assert len(calls) == 2


class DuckBlock:
    """A mutable stand-in for ``SignedBlock``."""

    def __init__(self, negatives, positives):
        self.negatives, self.positives = negatives, positives

    @property
    def magnitudes(self):
        return self.negatives + self.positives


def test_mutating_a_duck_typed_block_leaves_the_partition_alone():
    block = DuckBlock([2], [1])
    part = TypeBPartition(2, (0,), (block,))
    assert part.blocks == (SignedBlock((2,), (1,)),)
    assert type(part.blocks[0]) is SignedBlock
    block.negatives.append(3)
    block.positives = (9,)
    assert part.blocks == (SignedBlock((2,), (1,)),)
    assert format_partition(part) == "0 | -2 1"
    assert run_count_from_partition(part) == 2


def test_a_duck_typed_block_is_checked_as_a_signed_block():
    with pytest.raises(NotCanonicalError, match="min negative magnitude 1"):
        TypeBPartition(2, (0,), (DuckBlock((1,), (2,)),))


def test_generated_partitions_are_built_unchecked(calls):
    parts = list(generate_typeb(4))
    for p in parts:
        partition_to_word(p)
        run_count_from_partition(p)
    assert calls == []


def test_trusted_and_built_partitions_are_equal():
    generated = next(p for p in generate_typeb(4) if format_partition(p) == "0 1 2 | -4 3")
    parsed = parse_partition("0 1 2 | -4 3")
    built = TypeBPartition(4, [0, 1, 2], [SignedBlock([4], [3])])
    for other in (parsed, built):
        assert generated == other and hash(generated) == hash(other)
        assert repr(generated) == repr(other) and str(generated) == str(other)
