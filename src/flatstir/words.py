"""Doubled and m-fold Stirling words: statistics, predicates, generators.

A word of order n and multiplicity m uses each value 1..n exactly m
times, and every letter lying strictly between two occurrences of a
value v must be larger than v.  Runs are maximal weakly increasing
segments; a word is *flattened* when the first letters of its runs (its
*leaders*) are weakly increasing.

Generation follows the insertion construction: the words of order n are
obtained from each word of order n-1 by inserting the block of m copies
of n into each of the (n-1)*m + 1 gap positions, gaps taken left to
right, parents in the same (recursive) order.  Every word is produced
exactly once, so the stream needs no dedup set, and the order is stable
across runs.

Flattened words come from the same tree, pruned.  Insert the block of
the new maximal value v into gap g of a word w (between w[g-1] and
w[g]).  Every letter of w is smaller than v, so:

* at the front (g = 0, w nonempty), the block is a new first run and
  w[0] stays a leader behind the descent v > w[0];
* at a descent (w[g-1] > w[g]), the block extends the run ending at
  w[g-1], and w[g] stays a leader behind the descent v > w[g];
* inside a run (w[g-1] <= w[g]), the block extends that run, and w[g]
  becomes a new leader behind the descent v > w[g];
* at the end (g = len(w)), the block extends the last run.

No other adjacent pair changes, so the leaders of w are a subsequence of
the leaders of the child.  A decreasing pair of leaders survives in
every supersequence, so each child of a non-flattened word is
non-flattened, and pruning a non-flattened child drops no flattened
word of any later order.  For a flattened w the cases also decide the
child without building it: the front gap puts v before the smaller
leader w[0] (flattened only when w is empty, giving one run), a descent
or the end keeps the leaders and the run count, and a gap inside a run
adds the leader w[g] between the leader of its own run (at most
w[g-1] <= w[g]) and the next leader to its right, so the child is
flattened iff w[g] is at most that next leader, and has one more run.
The pruned walk thus visits only flattened words and their children, for
every m, and yields the flattened words in the order of the full stream.

Counting the words of the last order needs none of them built.  By the
same cases, a flattened w with r >= 1 runs has exactly r flattened
children with r runs (the end gap and the r - 1 descents) and one with
r + 1 runs for each gap inside a run whose letter is at most the next
leader; the empty word has one child, with one run.  Each child's run
count is fixed by its parent alone, so the counts by run number at
order n are tallied from the flattened words of order n - 1 by one scan
of each, and the walk builds no word of order n.  One serial walk from
the empty word gives every count; nothing here starts a process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import DEFAULT_BUDGET, NotStirlingError, WordSyntaxError, check_budget, check_digits
from .formulas import mstirling_count


def __getattr__(name: str):
    """Resolve ``ProcessPoolExecutor`` on first use, so start-up never imports multiprocessing.

    Nothing here uses the name; bench/passes.py and a test patch it.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _stirling_violation(letters: Sequence[int], m: int) -> str | None:
    """Reason ``letters`` is not an m-Stirling word, or None if it is one.

    A word that breaks the Stirling rule is reported at its first
    violating position, naming the earliest-opened value whose span holds it.
    """
    if m < 1:
        return f"multiplicity {m} is not positive"
    counts: dict[int, int] = {}
    # The open values (seen, not yet m times) above a 0 sentinel: increasing
    # up to the first violation when every count is m, so a letter lies
    # inside a larger value's span exactly when it is below the top.  With a
    # wrong count the stack means nothing, but the count message wins.
    stack = [0]
    between = None
    for idx, v in enumerate(letters):
        if v < 1:
            return f"letter {v} at position {idx} is not a positive integer"
        seen = counts[v] = counts.get(v, 0) + 1
        if between is not None:
            continue
        top = stack[-1]
        if top > v:
            above = next(u for u in stack if u > v)
            between = (
                f"letter {v} at position {idx} lies between "
                f"occurrences of {above} but is smaller"
            )
            continue
        if top < v:
            stack.append(v)
        if seen == m:
            stack.pop()
    for v, c in counts.items():
        if c != m:
            return f"value {v} occurs {c} times, expected {m}"
    n = len(counts)
    if counts and max(counts) != n:
        return f"values {sorted(counts)} do not cover 1..{n}"
    return between


def is_stirling(letters: Sequence[int], m: int) -> bool:
    """True iff ``letters`` is a valid m-Stirling word (empty allowed)."""
    return _stirling_violation(letters, m) is None


@dataclass(frozen=True)
class StirlingWord:
    """Immutable validated word; raises NotStirlingError on construction otherwise."""

    letters: tuple[int, ...]
    multiplicity: int = 2

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        reason = _stirling_violation(self.letters, self.multiplicity)
        if reason is not None:
            raise NotStirlingError(reason)

    @classmethod
    def _trusted(cls, letters: tuple[int, ...], multiplicity: int) -> "StirlingWord":
        """Wrap a letter tuple that is an m-Stirling word by construction, unchecked.

        Only for generators whose output is valid by construction; every
        other path goes through the validating constructor.
        """
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        object.__setattr__(word, "multiplicity", multiplicity)
        return word

    @property
    def order(self) -> int:
        return len(self.letters) // self.multiplicity if self.letters else 0

    def __str__(self) -> str:
        return format_word(self.letters)


@dataclass(frozen=True)
class RunDecomposition:
    """Maximal weakly increasing segmentation of a word.

    ``segments`` holds half-open index ranges partitioning the word;
    the first letter of each segment after the first is strictly smaller
    than the letter preceding it (a descent), which is what makes the
    segmentation maximal and unique.
    """

    segments: tuple[tuple[int, int], ...]
    leading_terms: tuple[int, ...]

    @property
    def run_count(self) -> int:
        return len(self.segments)


def run_starts(letters: Sequence[int]) -> list[int]:
    """Start index of each run: 0 and every position after a descent; none when empty.

    The one run scanner: run decompositions, descent and run counts and
    the flattened test all derive from it.
    """
    starts = []
    prev = math.inf  # so that position 0 starts a run
    for i, x in enumerate(letters):
        if x < prev:
            starts.append(i)
        prev = x
    return starts


def leader_drop(letters: Sequence[int]) -> tuple[int, int] | None:
    """(start, previous leader) of the first run whose leader is below the one before, or None.

    None means the leaders weakly increase, i.e. the word is flattened.
    """
    starts = run_starts(letters)
    for prev, start in zip(starts, starts[1:]):
        if letters[start] < letters[prev]:
            return start, letters[prev]
    return None


def run_decomposition(w: StirlingWord) -> RunDecomposition:
    """Split ``w`` into its runs; the empty word has no segments."""
    starts = run_starts(w.letters)
    segments = tuple(zip(starts, starts[1:] + [len(w.letters)]))
    return RunDecomposition(segments, tuple(w.letters[s] for s in starts))


def is_flattened(w: StirlingWord) -> bool:
    """True iff the leading terms of the runs of ``w`` are weakly increasing."""
    return leader_drop(w.letters) is None


def descent_count(w: StirlingWord) -> int:
    """Number of positions i with w_i > w_{i+1}; run count minus one when nonempty."""
    return max(len(run_starts(w.letters)) - 1, 0)


def _check_budget(n: int, m: int, budget: int) -> int:
    return check_budget(mstirling_count(n, m), budget, f"generating order-{n} words (m={m})")


def _iter_letters_from(word: tuple[int, ...], v: int, n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Order-n descendants of ``word`` (of order v-1) as raw tuples, in insertion order."""
    if v > n:
        yield word
        return
    block = (v,) * m
    for gap in range(len(word) + 1):
        yield from _iter_letters_from(word[:gap] + block + word[gap:], v + 1, n, m)


def generate_stirling(n: int, m: int = 2, budget: int = DEFAULT_BUDGET) -> Iterator[StirlingWord]:
    """Yield every m-Stirling word of order n exactly once, in insertion order."""
    _check_budget(n, m, budget)
    for letters in _iter_letters_from((), 1, n, m):
        yield StirlingWord._trusted(letters, m)


def generate_flattened_filter(
    n: int, m: int = 2, budget: int = DEFAULT_BUDGET
) -> Iterator[StirlingWord]:
    """The flattened subsequence of ``generate_stirling``, from the pruned walk."""
    _check_budget(n, m, budget)
    for letters, _ in _walk_flat((), 0, n, m, StirlingStats(n, m)):
        yield StirlingWord._trusted(letters, m)


@dataclass
class StirlingStats:
    """Exact counts for one (n, m): total words, flattened words, flat-by-run-count.

    ``total`` is |Q_n^m| from the product formula (the budget projection);
    the walk never counts the words it prunes.  ``flat_total`` and
    ``flat_by_runs`` count the flattened words the walk finds, and
    ``visited`` the children it tried, flattened or not.
    """

    order: int
    multiplicity: int
    total: int = 0
    flat_total: int = 0
    flat_by_runs: dict[int, int] = field(default_factory=dict)
    visited: int = 0


def _flat_gaps(word: tuple[int, ...], runs: int) -> list[tuple[int, int]]:
    """(gap, run count of the child) for each gap whose child is flattened, left to right.

    ``word`` must be flattened with ``runs`` runs; the child inserts a
    block of a value above every letter (see the module docstring).
    """
    if not word:
        return [(0, 1)]
    gaps = [(len(word), runs)]
    next_leader = math.inf
    for g in range(len(word) - 1, 0, -1):
        right = word[g]
        if word[g - 1] > right:
            gaps.append((g, runs))
            next_leader = right
        elif right <= next_leader:
            gaps.append((g, runs + 1))
    gaps.reverse()
    return gaps


def _walk_flat(
    word: tuple[int, ...], runs: int, stop: int, m: int, stats: StirlingStats
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (letters, runs) for each flattened descendant of ``word`` of order ``stop``.

    ``word`` is flattened with ``runs`` runs; descendants come in insertion
    order.  Each child tried adds 1 to ``stats.visited``.
    """
    v = len(word) // m + 1
    if v > stop:
        yield word, runs
        return
    stats.visited += len(word) + 1
    block = (v,) * m
    for gap, child_runs in _flat_gaps(word, runs):
        yield from _walk_flat(word[:gap] + block + word[gap:], child_runs, stop, m, stats)


def _tally_children(word: tuple[int, ...], runs: int, by_runs: dict[int, int]) -> None:
    """Add the flattened children of ``word`` to ``by_runs`` by run count.

    The children are counted, not built: the gap scan of ``_flat_gaps``
    without the list (see the module docstring).  ``word`` is flattened
    with ``runs`` runs.
    """
    if not word:
        by_runs[1] = by_runs.get(1, 0) + 1
        return
    added = 0
    next_leader = math.inf
    right = word[-1]
    for left in word[-2::-1]:
        if left > right:
            next_leader = right
        elif right <= next_leader:
            added += 1
        right = left
    # the end gap and the runs - 1 descents keep the run count
    by_runs[runs] = by_runs.get(runs, 0) + runs
    if added:
        by_runs[runs + 1] = by_runs.get(runs + 1, 0) + added


def _walk_stats(n: int, m: int) -> StirlingStats:
    """Pruned-walk counts for the flattened words of order n, from the empty word.

    The walk stops one order short of n and tallies the last order's
    flattened words from their parents' gaps, without building them.
    """
    stats = StirlingStats(n, m)
    by_runs = stats.flat_by_runs
    if n == 0:
        by_runs[0] = 1
    else:
        for word, k in _walk_flat((), 0, n - 1, m, stats):
            stats.visited += len(word) + 1
            _tally_children(word, k, by_runs)
    stats.flat_total = sum(by_runs.values())
    return stats


def count_stirling_stats(
    n: int,
    m: int = 2,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,  # ignored; bench/passes.py still passes it
) -> StirlingStats:
    """|Q_n^m| by formula; its flattened words, and those by run count, by the pruned walk.

    The walk visits only flattened words and their children, and stops at
    order n - 1: the order-n words are tallied by run count from their
    parents' gaps, never built (``visited`` still counts them).  The budget
    caps |Q_n^m|, which is also ``total``.  The walk is one serial pass.
    """
    projected = _check_budget(n, m, budget)
    stats = _walk_stats(n, m)
    stats.total = projected
    return stats


def format_word(word: StirlingWord | Iterable[int]) -> str:
    """Canonical text form: space-separated decimal letters."""
    letters = word.letters if isinstance(word, StirlingWord) else tuple(word)
    return " ".join(str(v) for v in letters)


def parse_word(text: str) -> tuple[int, ...]:
    """Parse canonical (space-separated) or compact (digit-string) word text.

    The compact form is only legal when every letter is a single digit
    1..9; multi-digit letters require the canonical form.  Only ASCII
    digits count, and a letter may not have more digits than ``int()``
    converts.
    """
    tokens = text.split()
    if not tokens:
        raise WordSyntaxError("empty word text (the empty word has no text form)")
    if len(tokens) == 1 and len(tokens[0]) > 1:
        compact = tokens[0]
        letters = []
        for pos, ch in enumerate(compact):
            if ch == "0":
                raise WordSyntaxError(
                    f"character {pos}: letter 0 is invalid (compact form allows digits 1-9 only)"
                )
            if ch not in "123456789":
                raise WordSyntaxError(
                    f"character {pos}: expected a digit 1-9 in compact word, found {ch!r}"
                )
            letters.append(int(ch))
        return tuple(letters)
    letters = []
    for pos, tok in enumerate(tokens):
        if not (tok.isascii() and tok.isdigit()) or tok[0] == "0":
            raise WordSyntaxError(
                f"token {pos}: expected a positive decimal letter, found {tok!r}"
            )
        try:
            letters.append(int(tok))
        except ValueError:  # int() refuses a decimal token only for its length
            check_digits(tok, f"token {pos}", WordSyntaxError)
            raise
    return tuple(letters)
