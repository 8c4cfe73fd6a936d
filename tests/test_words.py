"""Word predicates, statistics, generators, and the word text format."""

import math
import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from flatstir import words
from flatstir.cli import main
from flatstir.errors import BudgetExceededError, NotStirlingError, WordSyntaxError
from flatstir.words import (
    StirlingWord,
    _grandchildren,
    _scan_gaps,
    _walk_flat,
    _walk_stats,
    count_stirling_stats,
    descent_count,
    format_word,
    generate_flattened_filter,
    generate_stirling,
    is_flattened,
    is_stirling,
    parse_word,
    run_decomposition,
    run_starts,
)

from brute_force import SPLIT_ORDER, _tally_children, scan_stirling_stats, walk_stats_built


def W(text: str, m: int = 2) -> StirlingWord:
    return StirlingWord(parse_word(text), m)


def assert_same_counts(pruned, brute) -> None:
    assert (pruned.order, pruned.multiplicity) == (brute.order, brute.multiplicity)
    assert pruned.total == brute.total
    assert pruned.flat_total == brute.flat_total
    assert pruned.flat_by_runs == brute.flat_by_runs


# count_stirling_stats on the whole default-budget grid, every field:
# (n, m): (total, flat_total, flat_by_runs, visited).
PINNED_STATS = {
    (0, 2): (1, 1, {0: 1}, 0),
    (1, 2): (1, 1, {1: 1}, 1),
    (2, 2): (3, 2, {1: 1, 2: 1}, 4),
    (3, 2): (15, 6, {1: 1, 2: 5}, 14),
    (4, 2): (105, 24, {1: 1, 2: 15, 3: 8}, 56),
    (5, 2): (945, 116, {1: 1, 2: 37, 3: 70, 4: 8}, 272),
    (6, 2): (10395, 648, {1: 1, 2: 83, 3: 374, 4: 190}, 1548),
    (7, 2): (135135, 4088, {1: 1, 2: 177, 3: 1596, 4: 2034, 5: 280}, 9972),
    (8, 2): (2027025, 28640, {1: 1, 2: 367, 3: 6012, 4: 15260, 5: 6720, 6: 280}, 71292),
    (9, 2): (34459425, 219920, {1: 1, 2: 749, 3: 20994, 4: 93764, 5: 88732, 6: 15680}, 558172),
    (0, 3): (1, 1, {0: 1}, 0),
    (1, 3): (1, 1, {1: 1}, 1),
    (2, 3): (4, 3, {1: 1, 2: 2}, 5),
    (3, 3): (28, 12, {1: 1, 2: 9, 3: 2}, 26),
    (4, 3): (280, 63, {1: 1, 2: 26, 3: 36}, 146),
    (5, 3): (3640, 405, {1: 1, 2: 63, 3: 251, 4: 90}, 965),
    (6, 3): (58240, 3024, {1: 1, 2: 140, 3: 1227, 4: 1476, 5: 180}, 7445),
    (7, 3): (1106560, 25515, {1: 1, 2: 297, 3: 5000, 4: 13485, 5: 6552, 6: 180}, 64901),
    (8, 3): (24344320, 239355, {1: 1, 2: 614, 3: 18330, 4: 92730, 5: 106008, 6: 21672}, 626231),
    (0, 4): (1, 1, {0: 1}, 0),
    (1, 4): (1, 1, {1: 1}, 1),
    (2, 4): (5, 4, {1: 1, 2: 3}, 6),
    (3, 4): (45, 20, {1: 1, 2: 13, 3: 6}, 42),
    (4, 4): (585, 128, {1: 1, 2: 37, 3: 84, 4: 6}, 302),
    (5, 4): (9945, 1008, {1: 1, 2: 89, 3: 546, 4: 372}, 2478),
    (6, 4): (208845, 9280, {1: 1, 2: 197, 3: 2584, 4: 5154, 5: 1344}, 23646),
    (7, 4): (5221125, 96704, {1: 1, 2: 417, 3: 10342, 4: 43896, 5: 38016, 6: 4032}, 255646),
    (0, 5): (1, 1, {0: 1}, 0),
    (1, 5): (1, 1, {1: 1}, 1),
    (2, 5): (6, 5, {1: 1, 2: 4}, 7),
    (3, 5): (66, 30, {1: 1, 2: 17, 3: 12}, 62),
    (4, 5): (1056, 225, {1: 1, 2: 48, 3: 152, 4: 24}, 542),
    (5, 5): (22176, 2075, {1: 1, 2: 115, 3: 955, 4: 980, 5: 24}, 5267),
    (6, 5): (576576, 22500, {1: 1, 2: 254, 3: 4445, 4: 12520, 5: 5280}, 59217),
    (7, 5): (17873856, 276875, {1: 1, 2: 537, 3: 17622, 4: 102795, 5: 130720, 6: 25200}, 756717),
}


@pytest.mark.parametrize("n, m", sorted(PINNED_STATS), ids=lambda v: str(v))
def test_count_stirling_stats_pinned_on_the_budget_grid(n, m):
    stats = count_stirling_stats(n, m)
    assert (stats.order, stats.multiplicity) == (n, m)
    assert (stats.total, stats.flat_total, stats.flat_by_runs, stats.visited) == PINNED_STATS[(n, m)]


@pytest.mark.parametrize("m", range(2, 6))
def test_one_walk_gives_every_pinned_row(m):
    """``_walk_stats`` tallies every order in one walk; each row is the pinned cell."""
    n_max = max(n for n, k in PINNED_STATS if k == m)
    rows = _walk_stats(n_max, m)
    assert len(rows) == n_max + 1
    for n, stats in enumerate(rows):
        assert (stats.order, stats.multiplicity) == (n, m)
        fields = (stats.total, stats.flat_total, stats.flat_by_runs, stats.visited)
        assert fields == PINNED_STATS[(n, m)], n


def _rows(stats: list) -> list[tuple]:
    """Every field of every row, ``flat_by_runs`` in its key order (its repr)."""
    return [(s.order, s.multiplicity, s.total, s.flat_total, list(s.flat_by_runs.items()),
             s.visited) for s in stats]


@pytest.mark.parametrize(
    "n, m", sorted(PINNED_STATS) + [(n, 1) for n in range(8)] + [(10, 2)], ids=lambda v: str(v)
)
def test_walk_stats_equals_the_walk_that_builds_the_last_order_but_one(n, m):
    """Every row and field of ``_walk_stats`` against ``walk_stats_built``, which
    builds every word of order n - 1 and scans its children; (10, 2) is above
    the budget."""
    assert _rows(_walk_stats(n, m)) == _rows(walk_stats_built(n, m))


@pytest.mark.parametrize("m", range(1, 6))
def test_walk_stats_builds_no_word_of_order_n_minus_1(monkeypatch, m):
    real = words._walk_flat
    built: list[int] = []

    def recording(*args):
        for word, runs in real(*args):
            built.append(len(word) // m)
            yield word, runs

    monkeypatch.setattr(words, "_walk_flat", recording)
    for n in range(8):
        built.clear()
        _walk_stats(n, m)
        assert max(built, default=0) == max(n - 2, 0), (n, m)


def _end_insertions(word: tuple[int, ...]) -> int:
    """k: the values v > 1 whose last copy has only larger letters after it.

    Those are the values whose block went into the end gap: a block put
    anywhere else has a smaller letter after it for good.
    """
    k, low, seen = 0, math.inf, set()
    for x in reversed(word):
        if x not in seen:
            seen.add(x)
            k += x > 1 and low > x
        low = min(low, x)
    return k


@pytest.mark.parametrize("m, n_max", [(1, 7), (2, 8), (3, 7), (4, 6), (5, 6)])
def test_label_rule_on_every_walk_node(m, n_max):
    """The generating-tree rule of the ``words`` docstring at every node of the walk.

    Each built child's scanned label (runs, ``_scan_gaps``) is the rule's
    label for its gap kind; a word labelled (a, b) has a - 1 descent
    children, one end-gap child and b counted ones, the leftmost counted
    exactly when the scan says so; a + b = m(k + 1); only the end gap
    raises k; and the grandchildren, built, are ``_grandchildren(a, b, m)``.
    """
    for word, runs in _walk_flat((), 0, n_max - 1, m):
        v = len(word) // m + 1
        block = (v,) * m
        stop = min(v + 1, n_max)
        below = list(islice(_walk_flat(word, runs, stop, m), 1, None))
        children = [(w, r) for w, r in below if len(w) == v * m]
        if not word:
            assert children == [(block, 1)]
            assert _scan_gaps(block)[0] == m - 1 and _end_insertions(block) == 0
            continue
        (b, counted_first), a, k = _scan_gaps(word), runs, _end_insertions(word)
        assert a == len(run_starts(word))
        assert a + b == m * (k + 1), word
        kinds = []
        for child, child_runs in children:
            g = child.index(v)
            assert child == word[:g] + block + word[g:]
            if g == len(word):
                kind, label = "end", (a, b + m)
            elif word[g - 1] > word[g]:
                kind, label = "descent", (a, b)
            else:
                kind, label = "counted", (a + 1, b - 1)
            kinds.append(kind)
            assert child_runs == len(run_starts(child))
            assert (child_runs, _scan_gaps(child)[0]) == label, (word, g)
            assert _end_insertions(child) == k + (kind == "end"), (word, g)
        assert Counter(kinds) == Counter(descent=a - 1, end=1, counted=b), word
        assert counted_first == (kinds[0] == "counted"), word
        if stop > v:
            built = Counter(r for w, r in below if len(w) == stop * m)
            assert built == {r: c for r, c in _grandchildren(a, b, m) if c}, word


class TestIsStirling:
    def test_pinned_examples(self):
        assert not is_stirling(parse_word("112293883946677545"), 2)
        assert is_stirling((), 2)
        assert is_stirling(parse_word("123321445566778899"), 2)

    def test_multiplicities(self):
        assert is_stirling((1, 1, 1), 3)
        assert is_stirling((1, 2, 2, 2, 1, 1), 3)
        assert not is_stirling((1, 2, 1, 2), 2)
        assert not is_stirling((1, 1, 2), 2)
        # values must cover 1..n
        assert not is_stirling((2, 2), 2)

    def test_str_is_the_canonical_text(self):
        tens = tuple(v for v in range(1, 11) for _ in range(2))
        assert str(StirlingWord((1, 2, 2, 1))) == "1 2 2 1"
        assert str(StirlingWord(tens)) == " ".join(map(str, tens))

    def test_constructor_rejects_with_reason(self):
        with pytest.raises(NotStirlingError, match="between"):
            StirlingWord(parse_word("112293883946677545"), 2)
        with pytest.raises(NotStirlingError, match="occurs"):
            StirlingWord((1, 1, 2), 2)


class TestRunStatistics:
    def test_run_decomposition_pinned(self):
        rd = run_decomposition(W("112299388346677455"))
        assert rd.leading_terms == (1, 3, 3, 4)
        assert rd.run_count == 4

    def test_single_run(self):
        rd = run_decomposition(W("1122"))
        assert rd.segments == ((0, 4),)
        assert rd.leading_terms == (1,)

    def test_three_runs(self):
        rd = run_decomposition(W("14412332"))
        assert rd.run_count == 3
        assert rd.segments == ((0, 3), (3, 7), (7, 8))

    def test_segments_reassemble_word(self):
        for word in generate_stirling(4, 2):
            rd = run_decomposition(word)
            pieces = [word.letters[s:e] for s, e in rd.segments]
            assert sum(pieces, ()) == word.letters
            for piece in pieces:
                assert all(a <= b for a, b in zip(piece, piece[1:]))
            for (s1, e1), (s2, _) in zip(rd.segments, rd.segments[1:]):
                assert word.letters[e1 - 1] > word.letters[s2]
            assert descent_count(word) + 1 == rd.run_count

    def test_is_flattened_pinned(self):
        assert not is_flattened(W("123321445566778899"))
        assert is_flattened(W("112299388346677455"))
        assert is_flattened(W("11"))

    def test_descent_count_pinned(self):
        assert descent_count(W("11223344")) == 0
        assert descent_count(W("12233441")) == 1
        assert descent_count(W("11332442")) == 2


class TestGenerators:
    def test_counts(self):
        assert sum(1 for _ in generate_stirling(3, 2)) == 15
        assert list(generate_stirling(0, 5)) == [StirlingWord((), 5)]
        words = list(generate_stirling(4, 3))
        assert len(words) == 280
        assert sum(1 for w in words if is_flattened(w)) == 63

    def test_insertion_order_is_frozen(self):
        got = [w.letters for w in generate_stirling(2, 2)]
        assert got == [(2, 2, 1, 1), (1, 2, 2, 1), (1, 1, 2, 2)]

    def test_deterministic_and_duplicate_free(self):
        first = [w.letters for w in generate_stirling(4, 2)]
        second = [w.letters for w in generate_stirling(4, 2)]
        assert first == second
        assert len(set(first)) == len(first) == 105

    def test_flattened_filter(self):
        assert {w.letters for w in generate_flattened_filter(2, 2)} == {
            (1, 1, 2, 2),
            (1, 2, 2, 1),
        }
        assert sum(1 for _ in generate_flattened_filter(5, 2)) == 116
        assert sum(1 for _ in generate_flattened_filter(5, 3)) == 405

    def test_empty_word_is_flattened(self):
        stats = count_stirling_stats(0, 2)
        assert (stats.total, stats.flat_total, stats.flat_by_runs) == (1, 1, {0: 1})

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            list(generate_stirling(12, 5))
        with pytest.raises(BudgetExceededError):
            next(generate_stirling(4, 2, budget=100))
        with pytest.raises(BudgetExceededError):
            count_stirling_stats(4, 2, budget=100)

    def test_stats_match_filter(self):
        for n, m in [(0, 2), (1, 2), (4, 2), (5, 2), (3, 3), (3, 4)]:
            stats = count_stirling_stats(n, m)
            words = list(generate_stirling(n, m))
            flats = [w for w in words if is_flattened(w)]
            assert stats.total == len(words)
            assert stats.flat_total == len(flats)
            assert sum(stats.flat_by_runs.values()) == stats.flat_total
            by_runs = {}
            for w in flats:
                k = run_decomposition(w).run_count
                by_runs[k] = by_runs.get(k, 0) + 1
            assert stats.flat_by_runs == by_runs

    def test_pooled_equals_serial_above_threshold(self):
        # one serial walk; pruning: 756,717 children tried for 17,873,856 words counted
        stats = count_stirling_stats(7, 5)
        assert (stats.total, stats.flat_total, stats.visited) == (17_873_856, 276_875, 756_717)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_pruned_matches_brute_force_m1(self, n):
        assert_same_counts(count_stirling_stats(n, 1), scan_stirling_stats(n, 1))

    def test_pruned_matches_brute_force_order8(self, filter_stats):
        assert_same_counts(count_stirling_stats(8, 2), filter_stats[8])

    def test_children_of_non_flattened_words_are_non_flattened(self):
        for m in range(1, 4):
            for n in range(1, 6):
                for parent in generate_stirling(n - 1, m):
                    if is_flattened(parent):
                        continue
                    word = parent.letters
                    for gap in range(len(word) + 1):
                        child = word[:gap] + (n,) * m + word[gap:]
                        assert not is_flattened(StirlingWord(child, m)), (parent, gap)

    def test_flattened_stream_is_the_filtered_full_stream(self):
        for m, n_max in [(1, 5), (2, 6), (3, 5)]:
            for n in range(n_max + 1):
                full = [w for w in generate_stirling(n, m) if is_flattened(w)]
                assert list(generate_flattened_filter(n, m)) == full, (n, m)

    def test_last_order_tally_matches_built_children(self):
        # the tally that replaces the last order, at every node of the walk
        for m, n_max in [(1, 6), (2, 8), (3, 7), (4, 7)]:
            for word, runs in _walk_flat((), 0, n_max - 1, m):
                tally: dict[int, int] = {}
                _tally_children(word, runs, tally)
                built: dict[int, int] = {}
                # the walk yields the word itself first, then its children
                for child, k in islice(_walk_flat(word, runs, len(word) // m + 1, m), 1, None):
                    assert k == len(run_starts(child))
                    built[k] = built.get(k, 0) + 1
                assert tally == built, (word, m)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_pruned_matches_brute_force_through_the_split(self, m):
        # n <= SPLIT_ORDER: the brute-force scan's prefixes are already at order n
        for n in range(SPLIT_ORDER + 2):
            assert_same_counts(count_stirling_stats(n, m), scan_stirling_stats(n, m))

    def test_unchecked_words_are_valid(self):
        # both generators skip validation: each word must still be a Stirling word
        for m in (1, 2, 3):
            for n in range(8):
                for w in generate_flattened_filter(n, m):
                    assert is_stirling(w.letters, m)
                    assert w == StirlingWord(w.letters, m)
        for m, n_max in [(1, 7), (2, 5), (3, 4), (4, 3)]:
            for n in range(n_max + 1):
                for w in generate_stirling(n, m):
                    assert is_stirling(w.letters, m)
                    assert w == StirlingWord(w.letters, m)

    def test_flattened_words_start_with_one(self):
        for n in range(1, 6):
            for w in generate_flattened_filter(n, 2):
                assert w.letters[0] == 1


def test_pruned_walk_memory_stays_on_its_path():
    """Long words with many flattened children: pending state is the path, not their children."""
    tracemalloc.start()
    try:
        count = sum(1 for _ in generate_flattened_filter(2, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 2000
    assert peak < 4 * 2**20, peak


def test_gen_flat_of_long_words_prints_every_word(capsys):
    assert main(["gen", "flat", "--n", "2", "--m", "3000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3000
    assert len(lines[0].split()) == 6000


class TestWordText:
    def test_canonical_and_compact(self):
        assert parse_word("1 1 2 2") == (1, 1, 2, 2)
        assert parse_word("11223344") == (1, 1, 2, 2, 3, 3, 4, 4)
        assert parse_word("1 1 2 2 9 9 3 8 8 3 10 10 11 11 4 6 6 7 7 4 5 5")[9] == 3
        assert format_word((1, 10, 10, 1)) == "1 10 10 1"

    def test_round_trip_exhaustive_small(self):
        for m in (2, 3):
            for w in generate_stirling(3, m):
                assert parse_word(format_word(w)) == w.letters

    @pytest.mark.parametrize(
        "bad",
        ["", "0", "10203", "1 0 2", "1 -2 1", "1 x", "007", "1 007"],
    )
    def test_malformed(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)


@st.composite
def random_stirling_words(draw):
    """Words built by random gap insertion (always valid by construction)."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=6))
    letters: tuple[int, ...] = ()
    for v in range(1, n + 1):
        gap = draw(st.integers(min_value=0, max_value=len(letters)))
        letters = letters[:gap] + (v,) * m + letters[gap:]
    return StirlingWord(letters, m)


@given(random_stirling_words())
def test_insertion_built_words_are_valid_and_round_trip(word):
    assert is_stirling(word.letters, word.multiplicity)
    if word.letters:
        assert parse_word(format_word(word)) == word.letters
    rd = run_decomposition(word)
    assert descent_count(word) + (1 if word.letters else 0) == rd.run_count


@given(random_stirling_words())
def test_flattened_iff_leading_terms_sorted(word):
    leads = run_decomposition(word).leading_terms
    assert is_flattened(word) == all(a <= b for a, b in zip(leads, leads[1:]))
