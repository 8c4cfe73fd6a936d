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

Counting the words of an order needs none of them built.  By the same
cases, a flattened w with r >= 1 runs has exactly r flattened children
with r runs (the end gap and the r - 1 descents) and one with r + 1
runs for each *counted* gap: a gap inside a run whose letter is at most
the next leader.  The empty word has one child, 1^m.  Label a nonempty
flattened word (a, b), with a its run count and b its counted gaps.  The
label alone fixes the labels of the children, a generating tree in the
sense of West, "Generating trees and the Catalan and Schröder numbers"
(1995):

    (a, b) -> (a - 1) x (a, b),  1 x (a, b + m),  b x (a + 1, b - 1)

for the descents, the end gap and the counted gaps.  Inserting the
block at gap g replaces g by the gap before the block, the m - 1 gaps
inside it and (unless g is the end) the gap after it, each new one with
letter v; every other gap keeps its two letters.  Then:

* end gap: the new gaps are in-run with no leader to their right, so
  all m count, and the leaders are unchanged, so no old gap changes:
  (a, b + m);
* descent gap g: v > w[g] makes w[g] the next leader of the new gaps,
  so none counts, and the gap after the block is a descent; every old
  gap keeps its run and its next leader: (a, b);
* counted gap g: the new gaps likewise do not count, and g, which did,
  is gone; w[g] becomes a leader, so a + 1.  A gap outside g's run, or
  right of g, keeps its next leader.  The earlier gaps of g's run see w[g]
  rather than the larger leader after the run, but their letters are at
  most w[g-1] <= w[g], so they count still: (a + 1, b - 1).

1^m is labelled (1, m - 1): its m - 1 inner gaps have no leader to their
right.  Each rule keeps a + b or adds m (only the end gap), so a + b =
m(k + 1), with k the end-gap insertions on the path from 1^m.  Summing
the rule twice, a word labelled (a, b) has a^2 grandchildren with a
runs, 2ab + b + m with a + 1 and b(b - 1) with a + 2.

So the counts by run number at orders v + 1 and v + 2 are tallied from
the labels of the flattened words of order v, each read by one scan.
One serial walk from 1^m to order n - 2 meets every flattened word of
every order below n - 1, so it tallies every order 0..n at once and
builds no word of order n - 1 or n; nothing here starts a process.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .errors import DEFAULT_BUDGET, FrozenRecord, NotStirlingError, Record, WordSyntaxError
from .errors import check_budget, check_digits
from .formulas import mstirling_count


# Nothing here uses this name: bench/passes.py sets it to a pool class, a test to a refusal.
ProcessPoolExecutor = None


def _is_stirling(letters: Sequence[int], m: int) -> bool:
    """True when ``letters`` is an m-Stirling word, m >= 1: one loop, no reason given.

    A value is open from its first copy until its m-th.  Each letter must
    either open a value above the top open one, or be another copy of the
    top; a letter below the top lies inside a larger value's span.  Every
    value thus opens once it appears and closes after m copies, with only
    larger letters in between; the letter count rules out a value opened
    twice, and the values must be 1..n.
    """
    below: list[tuple[int, int]] = []  # the open values under the top, each with its copies
    top = copies = 0
    for v in letters:
        if v > top:
            below.append((top, copies))
            top, copies = v, 1
        elif v == top > 0:
            copies += 1
        else:
            return False
        if copies == m:
            top, copies = below.pop()
    values = set(letters)
    return not below and len(letters) == m * len(values) and (
        not values or min(values) >= 1 and max(values) == len(values)
    )


def _stirling_violation(letters: Sequence[int], m: int) -> str | None:
    """Reason ``letters`` is not an m-Stirling word, or None if it is one.

    A word is accepted by one loop (``_is_stirling``); only a rejected one
    is scanned again for its reason.  A word that breaks the Stirling rule
    is reported at its first violating position, naming the
    earliest-opened value whose span holds it.
    """
    if m < 1:
        return f"multiplicity {m} is not positive"
    if _is_stirling(letters, m):
        return None
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


class StirlingWord(FrozenRecord):
    """Immutable validated word; raises NotStirlingError on construction otherwise."""

    letters: tuple[int, ...]
    multiplicity: int

    def __init__(self, letters: Iterable[int], multiplicity: int = 2):
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "multiplicity", multiplicity)
        reason = _stirling_violation(self.letters, multiplicity)
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


class RunDecomposition(FrozenRecord):
    """Maximal weakly increasing segmentation of a word.

    ``segments`` holds half-open index ranges partitioning the word;
    the first letter of each segment after the first is strictly smaller
    than the letter preceding it (a descent), which is what makes the
    segmentation maximal and unique.
    """

    segments: tuple[tuple[int, int], ...]
    leading_terms: tuple[int, ...]

    def __init__(self, segments: tuple[tuple[int, int], ...], leading_terms: tuple[int, ...]):
        object.__setattr__(self, "segments", segments)  # not Record's loop: one per round trip
        object.__setattr__(self, "leading_terms", leading_terms)

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
    length = n * m
    for letters, _ in _walk_flat((), 0, n, m):
        if len(letters) == length:
            yield StirlingWord._trusted(letters, m)


class StirlingStats(Record):
    """Exact counts for one (n, m): total words, flattened words, flat-by-run-count.

    ``total`` is |Q_n^m| from the product formula (the budget projection);
    the walk never counts the words it prunes.  ``flat_total`` and
    ``flat_by_runs`` count the flattened words of order n.  ``visited``
    is the pruned walk's children, flattened or not, over all orders up
    to n: sum over v < n of flat(v) * (v*m + 1).  The walk tries only the
    terms for v < n - 1 and reads the last from the generating-tree
    labels (``_walk_stats``).
    """

    order: int
    multiplicity: int
    total: int
    flat_total: int
    flat_by_runs: dict[int, int]
    visited: int

    def __init__(self, order: int, multiplicity: int, total: int = 0, flat_total: int = 0,
                 flat_by_runs: dict[int, int] | None = None, visited: int = 0):
        flat_by_runs = {} if flat_by_runs is None else flat_by_runs
        super().__init__(order, multiplicity, total, flat_total, flat_by_runs, visited)


def _walk_flat(
    word: tuple[int, ...], runs: int, stop: int, m: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (letters, runs) for ``word`` and each flattened descendant up to order ``stop``.

    ``word`` is flattened with ``runs`` runs and of order at most ``stop``.
    Words come in preorder, each before its children, so the words of any
    one order come in insertion order.  The stack holds (parent, gap,
    block, runs) entries, the root being ``((), 0, word, runs)``; a popped
    entry builds its word ``parent[:gap] + block + parent[gap:]``.  One
    right-to-left scan of that word pushes an entry per flattened child
    (see the module docstring): the end gap, then each descent with the
    same run count and each in-run gap whose letter is at most the next
    leader with one more run, so the children pop left to right.  Every
    parent lies on the current path, so no built child waits on the stack.
    """
    pending = [((), 0, word, runs)]
    while pending:
        parent, gap, block, runs = pending.pop()
        word = parent[:gap] + block + parent[gap:]
        yield word, runs
        v = len(word) // m + 1
        if v > stop:
            continue
        block = (v,) * m
        pending.append((word, len(word), block, runs or 1))  # the empty word's child has one run
        next_leader = math.inf
        for g in range(len(word) - 1, 0, -1):
            right = word[g]
            if word[g - 1] > right:
                pending.append((word, g, block, runs))
                next_leader = right
            elif right <= next_leader:
                pending.append((word, g, block, runs + 1))


def _scan_gaps(word: tuple[int, ...]) -> tuple[int, bool]:
    """(b, counted first) for a nonempty flattened word.

    b, the second half of its label, counts the in-run gaps whose letter
    is at most the next leader; "counted first" tells whether the leftmost
    of those and of the descents is such a gap, so that the word's
    leftmost child has one more run.  This is the right-to-left gap scan
    with which ``_walk_flat`` pushes the children, counting instead of
    pushing (see the module docstring).
    """
    counted = 0
    counted_first = False
    next_leader = math.inf
    right = word[-1]
    for left in word[-2::-1]:
        if left > right:
            next_leader = right
            counted_first = False
        elif right <= next_leader:
            counted += 1
            counted_first = True
        right = left
    return counted, counted_first


def _grandchildren(a: int, b: int, m: int) -> tuple[tuple[int, int], ...]:
    """(runs, words) of the grandchildren of a word labelled (a, b), by the label rule."""
    return (a, a * a), (a + 1, 2 * a * b + b + m), (a + 2, b * (b - 1))


def _walk_stats(n: int, m: int) -> list[StirlingStats]:
    """Pruned-walk counts for the flattened words of every order 0..n, from one walk.

    The walk runs from 1^m, labelled (1, m - 1), to order n - 2 (module
    docstring).  Each word of order v is scanned once for its label
    (a, b), which tallies its a + b children into row v + 1 and, at
    v = n - 2, its grandchildren into row n; the empty word's one child
    goes into row 1.  No word of order n - 1 or n is built.

    Each row lists its run counts in the order that a walk building the
    words of order n - 1 would first tally them, a word's children with
    a runs before those with a + 1: so when a word's leftmost child has
    a + 1 runs, its grandchildren with a + 1 and a + 2 runs come before
    those with a.  ``visited`` counts the v*m + 1 gaps of each flattened
    word of order v < n, built or not: at order v + 1 it is that at
    order v plus flat(v) * (v*m + 1), and the walk itself tries only the
    terms for v < n - 1.  ``total`` is |Q_v^m| by its product formula.
    """
    rows: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]

    def add(row: dict[int, int], counts: Iterable[tuple[int, int]]) -> None:
        for runs, count in counts:
            if count:
                row[runs] = row.get(runs, 0) + count

    if n:
        rows[1][1] = 1  # the empty word's one child
    if n > 2:
        labels = ((len(word) // m, runs, *_scan_gaps(word))
                  for word, runs in _walk_flat((1,) * m, 1, n - 2, m))
    else:
        labels = [(1, 1, m - 1, False)] if n == 2 else []  # 1^m is of order n - 1: not built
    for v, a, b, counted_first in labels:
        add(rows[v + 1], ((a, a), (a + 1, b)))
        if v == n - 2:
            grand = _grandchildren(a, b, m)
            add(rows[n], grand[1:] + grand[:1] if counted_first else grand)
    stats = []
    visited = 0
    for v, by_runs in enumerate(rows):
        flat = sum(by_runs.values())
        stats.append(StirlingStats(v, m, mstirling_count(v, m), flat, by_runs, visited))
        visited += flat * (v * m + 1)
    return stats


def count_stirling_stats(
    n: int,
    m: int = 2,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,  # ignored; bench/passes.py still passes it
) -> StirlingStats:
    """|Q_n^m| by formula; its flattened words, and those by run count, by the pruned walk.

    The walk visits only flattened words, and stops at order n - 2: the
    words of orders n - 1 and n are tallied by run count from the labels
    of their parents and grandparents, never built (``visited`` still
    counts their gaps).  The budget caps |Q_n^m|, which is also ``total``.
    The walk is one serial pass.
    """
    _check_budget(n, m, budget)
    return _walk_stats(n, m)[n]


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
