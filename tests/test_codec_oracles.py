"""The one-pass codecs against the multi-pass versions they replaced.

``word_to_partition``, ``_word_letters`` (with the segment helpers it
calls), ``parse_partition``, ``canonicalize`` and ``_stirling_violation``
below are the previous implementations, kept as oracles.  Since the
partition constructor validates, their last steps build the partition
directly (the parser checks a plain namespace candidate first).  Their
outcomes reach users through the CLI: a value, or an error class and its
text.  The one-pass versions must give the same outcome for every input,
valid or not.  The one documented exception is the Stirling check's
"lies between" message on words with several violating positions: it
now names the first violating position (see
``test_several_violations_report_the_first_position``).
"""

import itertools
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import pytest
from hypothesis import example, given, settings, strategies as st

from flatstir import bijection, typeb, words
from flatstir.bijection import iter_flattened_letters
from flatstir.errors import (
    DomainError,
    NotCanonicalError,
    NotFlattenedError,
    NotTypeBError,
    PartitionSyntaxError,
)
from flatstir.typeb import (
    Diagnostic,
    SignedBlock,
    TypeBPartition,
    expand,
    format_partition,
    generate_typeb,
    validate_canonical,
)
from flatstir.words import StirlingWord, generate_stirling, leader_drop

SRC = str(Path(__file__).resolve().parent.parent / "src")


# --- the previous implementations ----------------------------------------------

_ELEMENT_RE = re.compile(r"^(?:0|-?[1-9][0-9]*)$")


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
    return TypeBPartition(word.order - 1, zero_block, tuple(blocks))


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
    family_set = set(family)
    for b in family:
        if frozenset(-v for v in b) not in family_set:
            raise NotTypeBError(4, f"negation of block {sorted(b)} is missing")
    self_negative = [b for b in family_set if b == frozenset(-v for v in b)]
    if len(self_negative) != 1:
        raise NotTypeBError(
            5, f"exactly one self-negative block required, found {len(self_negative)}"
        )

    zero_block = tuple(sorted(v for v in self_negative[0] if v >= 0))
    kept: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set(self_negative)
    for b in family_set:
        if b in seen:
            continue
        mate = frozenset(-v for v in b)
        seen.add(b)
        seen.add(mate)
        pos_b = [v for v in b if v > 0]
        pos_mate = [v for v in mate if v > 0]
        if pos_b and (not pos_mate or min(pos_b) < min(pos_mate)):
            kept.append(b)
        else:
            kept.append(mate)
    kept.sort(key=lambda b: min(v for v in b if v > 0))
    signed = tuple(
        SignedBlock(
            negatives=tuple(sorted(-v for v in b if v < 0)),
            positives=tuple(sorted(v for v in b if v > 0)),
        )
        for b in kept
    )
    return TypeBPartition(n, zero_block, signed)


def parse_partition(text: str) -> TypeBPartition:
    """Parse canonical partition text.

    Syntax errors (malformed elements, empty blocks) raise
    PartitionSyntaxError with the offending position; structurally parseable
    text that violates canonical form raises NotCanonicalError carrying
    the usual diagnostics.
    """
    if not text.strip():
        raise PartitionSyntaxError("empty partition text")
    segments = text.split("|")
    parsed: list[list[int]] = []
    for b_idx, segment in enumerate(segments):
        tokens = segment.split()
        if not tokens:
            raise PartitionSyntaxError(f"block {b_idx}: empty block (expected elements)")
        values = []
        for t_idx, tok in enumerate(tokens):
            if not _ELEMENT_RE.match(tok):
                raise PartitionSyntaxError(
                    f"block {b_idx}, element {t_idx}: expected '0' or '-'? nonzero "
                    f"decimal, found {tok!r}"
                )
            values.append(int(tok))
        parsed.append(values)

    extra: list[Diagnostic] = []
    zero_block = tuple(parsed[0])
    blocks = []
    for b_idx, values in enumerate(parsed[1:], start=1):
        negatives = []
        positives = []
        seen_positive = False
        for v in values:
            if v < 0:
                if seen_positive:
                    extra.append(
                        Diagnostic(
                            "intra-block-order",
                            f"block {b_idx}: negatives must precede positives",
                        )
                    )
                negatives.append(-v)
            else:
                seen_positive = True
                positives.append(v)
        blocks.append(SignedBlock(tuple(negatives), tuple(positives)))

    magnitudes = [abs(v) for vs in parsed for v in vs]
    n = max(magnitudes)
    candidate = SimpleNamespace(n=n, zero_block=zero_block, blocks=tuple(blocks))
    ok, diags = validate_canonical(candidate)
    if extra or not ok:
        raise NotCanonicalError(extra + diags)
    return TypeBPartition(n, zero_block, tuple(blocks))


def _stirling_violation(letters: Sequence[int], m: int) -> str | None:
    """Reason ``letters`` is not an m-Stirling word, or None if it is one."""
    if m < 1:
        return f"multiplicity {m} is not positive"
    counts: dict[int, int] = {}
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for idx, v in enumerate(letters):
        if v < 1:
            return f"letter {v} at position {idx} is not a positive integer"
        counts[v] = counts.get(v, 0) + 1
        first.setdefault(v, idx)
        last[v] = idx
    for v, c in counts.items():
        if c != m:
            return f"value {v} occurs {c} times, expected {m}"
    n = len(counts)
    if counts and max(counts) != n:
        return f"values {sorted(counts)} do not cover 1..{n}"
    for v in counts:
        for idx in range(first[v] + 1, last[v]):
            if letters[idx] < v:
                return (
                    f"letter {letters[idx]} at position {idx} lies between "
                    f"occurrences of {v} but is smaller"
                )
    return None


# --- outcomes ------------------------------------------------------------------


def outcome(fn, *args):
    """The value ``fn`` returns, or the class and text of the error it raises.

    A partition is shown with its ``repr`` and its text, so two equal
    partitions of different shape (tuples against lists) still differ.
    """
    try:
        value = fn(*args)
    except Exception as exc:  # the class and text are the result under test
        return type(exc).__name__, str(exc)
    if isinstance(value, TypeBPartition):
        return "ok", repr(value), format_partition(value)
    return "ok", value


@lru_cache(maxsize=None)
def _population(n: int) -> tuple[TypeBPartition, ...]:
    return tuple(generate_typeb(n))


# --- both maps over every flattened word ----------------------------------------


@pytest.mark.parametrize("order", range(1, 9))
def test_both_maps_match_the_oracle_on_every_flattened_word(order):
    count = 0
    for letters in iter_flattened_letters(order):
        word = StirlingWord(letters, 2)
        got = outcome(bijection.word_to_partition, word)
        assert got == outcome(word_to_partition, word), letters
        part = bijection.word_to_partition(word)
        assert _word_letters(part.zero_block, part.blocks) == letters
        assert bijection.partition_to_word(part).letters == letters
        count += 1
    assert count == len(_population(order - 1))


@pytest.mark.parametrize("n", range(0, 7))
def test_inverse_matches_the_oracle_on_every_doubled_stirling_word(n):
    rejected = 0
    for word in generate_stirling(n, 2):
        got = outcome(bijection.word_to_partition, word)
        assert got == outcome(word_to_partition, word), word.letters
        rejected += got[0] != "ok"
    flattened = len(_population(n - 1)) if n else 0
    assert rejected == sum(1 for _ in generate_stirling(n, 2)) - flattened


@pytest.mark.parametrize("m", [1, 3])
def test_inverse_rejects_other_multiplicities_like_the_oracle(m):
    for word in generate_stirling(3, m):
        assert outcome(bijection.word_to_partition, word) == outcome(word_to_partition, word)


def test_an_inconsistent_peel_is_not_canonical():
    """A duck-typed word the Stirling check never saw: its peel splits the
    copies of 1 across segments.  The oracle tripped an assertion here."""
    word = SimpleNamespace(letters=(1, 2, 1, 2), multiplicity=2, order=2)
    with pytest.raises(AssertionError):
        word_to_partition(word)
    with pytest.raises(NotCanonicalError, match="magnitude 0 appears more than once"):
        bijection.word_to_partition(word)


@pytest.mark.parametrize("letters", [(1, 1, 2, 3, 4, 2), (1, 1, 3, 4, 2, 2)])
def test_a_segment_not_made_of_pairs_is_not_halved(letters):
    """Duck-typed words that are not doubled but pass the flattened check:
    halving the positives 2 3 4 2, or the negatives 3 4, by a slice would
    drop a value and leave a canonical partition of [-2, 2].  The peel keeps
    the first copy of every value instead, and the check refuses the result;
    the oracle tripped an assertion."""
    word = SimpleNamespace(letters=letters, multiplicity=2, order=3)
    with pytest.raises(AssertionError):
        word_to_partition(word)
    with pytest.raises(NotCanonicalError, match=r"cover 0\.\.2 exactly; got \[0, 1, 2, 3\]"):
        bijection.word_to_partition(word)


def test_segment_helpers_match_the_oracle():
    for size in range(6):
        for values in itertools.combinations(range(-3, 6), size):
            for shifted in (values, values * 2, shift_magnitudes(values)):
                assert bijection.twice_each(shifted) == twice_each(shifted)
                assert bijection.min_wrapped(shifted) == min_wrapped(shifted)


def test_segment_is_the_three_map_composition_on_every_signed_variant():
    """``_segment`` builds the letters from canonical parts without the three maps."""
    def both(negatives, positives):
        return bijection._segment(negatives, positives), _segment(negatives, positives)

    variants = 0
    for size in range(9):
        for block in itertools.combinations(range(1, 9), size):
            assert bijection._segment((), (0, *block)) == _segment((), (0, *block))
            if not block:
                continue
            for got, expected in typeb._signed_variants(block, both):
                assert got == expected, block
                variants += 1
    assert variants == (3**8 - 1) // 2


# --- parse_partition over valid and mutated text ---------------------------------

JUNK = ["0", "1", "2", "5", "-1", "-3", "-6", "7", "-0", "01", "+1", "x", "1.0", "--1", "-"]
# Unicode digits that str.isdigit() takes (int() reads the first and the third),
# a zero after the sign, and more digits than int() converts at Python's
# default limit, which the mutated-text test lifts
JUNK += ["١", "²", "𝟙", "-01", "7" * 5000]


@contextmanager
def no_digit_limit():
    """Lift int()'s limit on digits: the oracle parser predates the message for it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _tokens(part: TypeBPartition) -> list[list[str]]:
    return [list(map(str, part.zero_block))] + [
        [f"-{v}" for v in b.negatives] + list(map(str, b.positives)) for b in part.blocks
    ]


def _mutate(draw, blocks: list[list[str]]) -> None:
    kind = draw(st.sampled_from(["replace", "insert", "delete", "swap", "move", "negate", "empty"]))
    block = draw(st.sampled_from(blocks))
    if kind == "insert" or (not block and kind != "empty"):
        block.insert(draw(st.integers(0, len(block))), draw(st.sampled_from(JUNK)))
    elif kind == "replace":
        block[draw(st.integers(0, len(block) - 1))] = draw(st.sampled_from(JUNK))
    elif kind == "delete":
        del block[draw(st.integers(0, len(block) - 1))]
    elif kind == "swap":
        i, j = draw(st.integers(0, len(block) - 1)), draw(st.integers(0, len(block) - 1))
        block[i], block[j] = block[j], block[i]
    elif kind == "move":
        draw(st.sampled_from(blocks)).append(block.pop(draw(st.integers(0, len(block) - 1))))
    elif kind == "negate":
        i = draw(st.integers(0, len(block) - 1))
        block[i] = block[i][1:] if block[i].startswith("-") else "-" + block[i]
    else:
        blocks.insert(draw(st.integers(0, len(blocks))), [])


@st.composite
def partition_texts(draw):
    """The text of a valid partition of [-n, n], n <= 6, with up to four mutations."""
    n = draw(st.integers(0, 6))
    blocks = _tokens(draw(st.sampled_from(_population(n))))
    for _ in range(draw(st.integers(0, 4))):
        _mutate(draw, blocks)
    space = draw(st.sampled_from([" ", "  ", "\t", "\n"]))
    bar = draw(st.sampled_from([" | ", "|", " |\t", "\n| "]))
    return bar.join(space.join(tokens) for tokens in blocks)


@settings(max_examples=2000, deadline=None)
@given(partition_texts())
def test_parse_matches_the_oracle_on_mutated_text(text):
    with no_digit_limit():
        assert outcome(typeb.parse_partition, text) == outcome(parse_partition, text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789-| \t\nx", max_size=30))
def test_parse_matches_the_oracle_on_arbitrary_text(text):
    assert outcome(typeb.parse_partition, text) == outcome(parse_partition, text)


@pytest.mark.parametrize(
    "text", ["0 | 1 -2 -3", "0 | -2 1 -3 4 -5", "0 1 | -3 2 -4 | 5 -6 -7 | 0 -1"]
)
def test_parse_matches_the_oracle_on_negatives_after_positives(text):
    """One diagnostic per negative that follows a positive in its block."""
    assert outcome(typeb.parse_partition, text) == outcome(parse_partition, text)


@pytest.mark.parametrize("n", range(0, 6))
def test_parse_matches_the_oracle_on_every_valid_text(n):
    for part in _population(n):
        text = format_partition(part)
        assert outcome(typeb.parse_partition, text) == outcome(parse_partition, text)


# --- canonicalize over shuffled and corrupted families ---------------------------


def _corrupt(draw, family: list[list[int]], n: int) -> None:
    kind = draw(st.sampled_from(
        ["drop", "add", "remove", "duplicate", "merge", "split", "negate", "empty"]
    ))
    if kind == "empty" or not family:
        family.insert(draw(st.integers(0, len(family))), [])
        return
    i = draw(st.integers(0, len(family) - 1))
    block = family[i]
    if kind == "drop":
        del family[i]
    elif kind == "add":
        block.append(draw(st.integers(-n - 2, n + 2)))
    elif kind == "remove" and block:
        del block[draw(st.integers(0, len(block) - 1))]
    elif kind == "duplicate" and block:
        draw(st.sampled_from(family)).append(draw(st.sampled_from(block)))
    elif kind == "merge" and len(family) >= 2:
        j = draw(st.integers(0, len(family) - 1).filter(lambda j: j != i))
        family[j].extend(family.pop(i))
    elif kind == "split" and len(block) >= 2:
        cut = draw(st.integers(1, len(block) - 1))
        family.append(block[cut:])
        del block[cut:]
    elif kind == "negate" and block:
        k = draw(st.integers(0, len(block) - 1))
        block[k] = -block[k]


@st.composite
def families(draw):
    """A valid partition's full block family, n <= 5, shuffled, with up to three corruptions."""
    n = draw(st.integers(0, 5))
    family = [list(b) for b in expand(draw(st.sampled_from(_population(n))))]
    for _ in range(draw(st.integers(0, 3))):
        _corrupt(draw, family, n)
    family = [draw(st.permutations(b)) for b in family]
    return draw(st.permutations(family))


@settings(max_examples=1600, deadline=None)
@given(families())
def test_canonicalize_matches_the_oracle(family):
    assert outcome(typeb.canonicalize, family) == outcome(canonicalize, family)


@pytest.mark.parametrize("n", range(0, 6))
def test_canonicalize_inverts_expand_like_the_oracle(n):
    for part in _population(n):
        family = expand(part)
        assert outcome(typeb.canonicalize, family) == outcome(canonicalize, family)
        assert typeb.canonicalize(family) == part


# --- the Stirling check ----------------------------------------------------------

BETWEEN = re.compile(
    r"letter (\d+) at position (\d+) lies between occurrences of (\d+) but is smaller"
)


def _violating_positions(letters: Sequence[int]) -> list[int]:
    """Positions whose letter lies strictly inside a larger value's span."""
    first = {v: letters.index(v) for v in set(letters)}
    last = {v: len(letters) - 1 - letters[::-1].index(v) for v in set(letters)}
    return [
        idx
        for idx, x in enumerate(letters)
        if any(v > x and first[v] < idx < last[v] for v in first)
    ]


def _permutation_words():
    for m, top in ((1, 4), (2, 4), (3, 3)):
        for n in range(top + 1):
            multiset = [v for v in range(1, n + 1) for _ in range(m)]
            for letters in sorted(set(itertools.permutations(multiset))):
                yield letters, m


def test_several_violations_report_the_first_position():
    words_seen = changed = 0
    for letters, m in _permutation_words():
        words_seen += 1
        old, new = _stirling_violation(letters, m), words._stirling_violation(letters, m)
        positions = _violating_positions(letters)
        assert (old is None) == (new is None) == (not positions), letters
        if len(positions) <= 1:
            assert new == old, letters
        if new is None or new == old:
            continue
        changed += 1
        letter, idx, above = map(int, BETWEEN.fullmatch(new).groups())
        assert idx == positions[0] and letters[idx] == letter < above
        opened = [v for v in dict.fromkeys(letters) if v > letter and letters.index(v) < idx]
        assert above == next(v for v in opened if idx < len(letters) - 1 - letters[::-1].index(v))
    assert words_seen == 4354
    assert changed == 160


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.integers(-1, 5), max_size=10), st.integers(0, 3))
@example([0.5, 0.5, 2, 2], 2)  # letters that are not positive integers
@example([1.5, 1.5, 2, 2], 2)
@example([True, True], 2)
def test_stirling_check_accepts_and_rejects_like_the_oracle(letters, m):
    old, new = _stirling_violation(letters, m), words._stirling_violation(letters, m)
    assert (old is None) == (new is None)
    if new != old:
        assert BETWEEN.fullmatch(old) and BETWEEN.fullmatch(new)
        assert len(_violating_positions(letters)) >= 2


# --- no quadratic path -----------------------------------------------------------

LONG_WORDS = """
from flatstir.bijection import max_runs_witness, partition_to_word, word_to_partition
from flatstir.typeb import format_partition, parse_partition
from flatstir.words import StirlingWord

word = max_runs_witness(64000)
back = word_to_partition(word)
assert partition_to_word(back) == word
assert parse_partition(format_partition(back)) == back
n = 20000
StirlingWord(list(range(1, n + 1)) + list(range(n, 0, -1)), 2)
print("ok")
"""


def test_long_words_map_and_validate_in_linear_time():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", LONG_WORDS], capture_output=True, text=True, env=env, timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
